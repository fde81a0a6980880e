"""Structure constants, automorphisms, and the two-generator relations."""

import random
from fractions import Fraction

import pytest

from onsaw.altpres import alt_sym_bracket
from onsaw.elements import AlgElem, accumulate
from onsaw.onsager import (
    A,
    G,
    PHI,
    TAU0,
    TAU1,
    apply_auto,
    apply_autopoly,
    bracket,
    s_n_autopoly,
    shift_word,
    sym_bracket,
    verify_dolan_grady,
)
from onsaw.scalars import LaurentPoly, as_coeff, encode_monomial, lvar


def test_basic_brackets():
    assert bracket(A(1), A(0)) == G(1, Fraction(4))
    assert bracket(A(0), A(0)).is_zero()
    assert bracket(G(2), A(3)) == A(5, Fraction(2)) - A(1, Fraction(2))
    # G normalization kicks in for [A_0, A_1]
    assert bracket(A(0), A(1)) == G(1, Fraction(-4))
    assert bracket(G(1), G(7)).is_zero()


def test_g_normalization_at_construction():
    assert G(0).is_zero()
    assert G(-3) == G(3) * Fraction(-1)
    assert (G(2) + G(-2)).is_zero()


def test_bracket_is_bilinear_over_polynomial_coefficients():
    alpha = lvar("alpha")
    x = A(0) * alpha + A(1)
    y = A(1) * Fraction(2)
    expected = bracket(A(0), A(1)) * (alpha * 2) + bracket(A(1), A(1)) * 2
    assert bracket(x, y) == expected


PRESENTATIONS = {
    "onsager": (
        sym_bracket,
        [("A", n) for n in range(-3, 4)] + [("G", m) for m in range(1, 4)],
    ),
    "alt": (
        alt_sym_bracket,
        [(kind, k) for kind in ("Wm", "Wp", "Gt") for k in range(4)],
    ),
}


def _seeded_elem(rng, symbols, names) -> AlgElem:
    """One to four of `symbols`, each with a nonzero Laurent coefficient in
    `names` that is written term by term, so building it multiplies nothing."""
    out = {}
    for s in rng.sample(symbols, rng.randint(1, 4)):
        terms: dict = {}
        for _ in range(rng.randint(1, 4)):
            key = encode_monomial({n: rng.randint(-2, 2) for n in names})
            c = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
            terms[key] = as_coeff(c)
        out[s] = LaurentPoly(terms)
    return AlgElem(out)


def test_bracket_equals_the_formula_with_the_built_product():
    rng = random.Random(608)
    for sym, symbols in PRESENTATIONS.values():
        for _ in range(60):
            x, y = (_seeded_elem(rng, symbols, ["p", "q"]) for _ in range(2))
            out: dict = {}
            for s, cx in x.terms.items():
                for t, cy in y.terms.items():
                    b = sym(s, t)
                    if b:
                        accumulate(out, b.terms, cx * cy)
            assert bracket(x, y, sym_bracket=sym) == AlgElem(out)


def bracket_mismatches_at_points(seed: int, trials: int = 40) -> dict:
    """For each presentation, the number of seeded pairs x, y with Laurent
    coefficients in two or three variables at which the bracket, evaluated at
    a seeded rational point, differs from the bracket of x and y evaluated
    there.  The second side has rational coefficients, so it multiplies no
    polynomials; the oracle shares no multiplication with the first."""
    rng = random.Random(seed)
    out = {}
    for name, (sym, symbols) in PRESENTATIONS.items():
        bad = nonzero = 0
        for _ in range(trials):
            names = rng.sample(["p", "q", "r"], rng.randint(2, 3))
            x, y = (_seeded_elem(rng, symbols, names) for _ in range(2))
            point = {
                n: Fraction(rng.choice([-7, -3, 2, 5]), rng.randint(1, 4))
                for n in names
            }

            def at(e):
                return e.map_coeffs(lambda c: as_coeff(c.evaluate(point)))

            symbolic = bracket(x, y, sym_bracket=sym)
            nonzero += bool(symbolic)
            bad += at(symbolic) != bracket(at(x), at(y), sym_bracket=sym)
        assert nonzero > trials // 2, name  # the oracle is not vacuous
        out[name] = bad
    return out


def test_bracket_over_polynomials_agrees_with_the_evaluated_bracket():
    assert bracket_mismatches_at_points(707) == {"onsager": 0, "alt": 0}


def test_bracket_builds_no_coefficient_product(monkeypatch):
    rng = random.Random(708)
    cases = []
    for sym, symbols in PRESENTATIONS.values():
        for _ in range(10):
            x, y = (_seeded_elem(rng, symbols, ["p", "q"]) for _ in range(2))
            cases.append((sym, x, y, bracket(x, y, sym_bracket=sym)))
    calls = []
    product = LaurentPoly.__mul__

    def counted(self, other):
        calls.append(other)
        return product(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    monkeypatch.setattr(LaurentPoly, "__rmul__", counted)
    got = [bracket(x, y, sym_bracket=sym) for sym, x, y, _ in cases]
    monkeypatch.undo()
    assert got == [expected for *_, expected in cases]
    assert any(got) and calls == []


def test_elements_reject_products():
    with pytest.raises(TypeError):
        A(0) * A(1)


def test_bracket_rejects_foreign_symbols():
    with pytest.raises(TypeError):
        bracket(A(0), AlgElem.basis(("Wm", 0)))


def test_tau0_matches_its_defining_cubic_formula():
    # tau0(A_1) = -(1/8)[A_0, [A_0, A_1]] + A_1
    from_formula = (
        bracket(A(0), bracket(A(0), A(1))) * Fraction(-1, 8) + A(1)
    )
    assert apply_auto((TAU0,), A(1)) == from_formula
    assert from_formula == A(-1)


def test_tau1_matches_its_defining_cubic_formula():
    from_formula = (
        bracket(A(1), bracket(A(1), A(0))) * Fraction(-1, 8) + A(0)
    )
    assert apply_auto((TAU1,), A(0)) == from_formula
    assert from_formula == A(2)


def test_phi_is_an_involution():
    assert apply_auto((PHI, PHI), A(5)) == A(5)
    assert apply_auto((PHI,), A(-4)) == A(5)
    assert apply_auto((PHI,), G(3)) == G(3) * Fraction(-1)


def test_shift_powers_generate_the_basis():
    assert apply_auto(shift_word(3), A(0)) == A(3)
    assert apply_auto(shift_word(-2), A(0)) == A(-2)
    for n in range(1, 13):
        lhs = bracket(apply_auto(shift_word(n), A(0)), A(0)) * Fraction(1, 4)
        assert lhs == G(n)


def test_current_actions_coefficientwise():
    # (tau0 Phi) lowers all A indices by one, (tau1 Phi) raises them;
    # both fix every G.
    for n in range(0, 13):
        assert apply_auto((TAU0, PHI), A(-n)) == A(-n - 1)
        assert apply_auto((TAU1, PHI), A(-n)) == A(-n + 1)
        if n >= 1:
            assert apply_auto((TAU0, PHI), A(n)) == A(n - 1)
            assert apply_auto((TAU1, PHI), A(n)) == A(n + 1)
            assert apply_auto((TAU0, PHI), G(n)) == G(n)
            assert apply_auto((TAU1, PHI), G(n)) == G(n)


def test_autopoly_examples():
    alpha = lvar("alpha")
    s1 = s_n_autopoly((alpha, Fraction(1)))
    assert apply_autopoly(s1, A(0)) == A(-1) + A(0) * alpha + A(1)
    assert apply_autopoly([], A(7)).is_zero()
    assert apply_autopoly([(Fraction(1), ())], A(7)) == A(7)


def test_dolan_grady_values():
    nested = bracket(A(0), bracket(A(0), bracket(A(0), A(1))))
    assert nested == G(1, Fraction(-64))
    assert bracket(A(0), A(1)) * 16 == G(1, Fraction(-64))
    report = verify_dolan_grady()
    assert report.status == "pass"


def test_dolan_grady_negative_control():
    def corrupted(s, t):
        value = sym_bracket(s, t)
        if s[0] == "A" and t[0] == "A":
            return value * Fraction(5, 4)
        return value

    report = verify_dolan_grady(
        bracket_fn=lambda x, y: bracket(x, y, sym_bracket=corrupted)
    )
    assert report.status == "fail"

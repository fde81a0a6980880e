"""Normal ordering, the quartic relations, and the three-generator fit."""

import random
from fractions import Fraction

import pytest

from onsaw.envelope import EnvElem, PBW, aw3_fit, pbw_lie_compat_report, verify_quartic
from onsaw.onsager import A
from onsaw.quotient import QuotientO
from onsaw.scalars import LaurentPoly, as_ratfunc, lvar, ratfunc_equal


@pytest.fixture(scope="module")
def q1():
    return QuotientO.symbolic(1)


def test_single_rewrite(q1):
    env = PBW(q1)
    product = env.multiply(EnvElem.from_alg(A(1)), EnvElem.from_alg(A(0)))
    expected = EnvElem(
        {(("A", 0), ("A", 1)): Fraction(1), (("G", 1),): Fraction(4)}
    )
    assert product == expected


def test_a_doubled_bracket_fails_every_quartic_check(monkeypatch):
    q = QuotientO.symbolic(1)
    bracket_reduced = q.bracket_reduced
    monkeypatch.setattr(q, "bracket_reduced", lambda x, y: bracket_reduced(x, y) * 2)
    report = verify_quartic(q)
    assert [c.status for c in report.checks] == ["fail"] * 3
    (env_check,) = [c for c in report.checks if c.id == "quartic:env-order4"]
    assert env_check.residual == "(-192*alpha)*G(1)"


def test_pbw_rejects_an_unknown_strategy(q1):
    with pytest.raises(ValueError, match="strategy"):
        PBW(q1, "middle")


def test_already_normal_word(q1):
    env = PBW(q1)
    assert env.normalize_word((("A", 0), ("A", 0))) == EnvElem(
        {(("A", 0), ("A", 0)): Fraction(1)}
    )


def test_unit_distributes(q1):
    env = PBW(q1)
    shifted = EnvElem.from_alg(A(0)) + EnvElem({(): Fraction(1)})
    product = env.multiply(shifted, EnvElem.from_alg(A(1)))
    expected = EnvElem(
        {(("A", 0), ("A", 1)): Fraction(1), (("A", 1),): Fraction(1)}
    )
    assert product == expected


def _fold_of_multiply(env, word):
    """The word as the left fold of `multiply` over its one-letter factors."""
    out = EnvElem({(): 1})
    for sym in word:
        out = env.multiply(out, EnvElem({(sym,): 1}))
    return out


@pytest.mark.parametrize("strategy", ["first", "last"])
@pytest.mark.parametrize("N", [1, 2])
def test_normalize_of_a_word_map_equals_the_fold_of_multiply(N, strategy):
    q = QuotientO.symbolic(N)
    env = PBW(q, strategy)
    rng = random.Random(330 + N)
    a0, a1 = ("A", 0), ("A", 1)
    order4 = [
        (a1, a0),
        (a0, a1),
        (a1, a0, a1, a0),
        (a0, a1, a0, a1),
        (a1, a1, a0, a0),
        (a0, a0, a1, a1),
    ]
    syms = q.basis_syms()
    randoms = [
        tuple(rng.choice(syms) for _ in range(rng.randint(2, 5))) for _ in range(50)
    ]
    for word in order4 + randoms:
        assert env.normalize(EnvElem({word: 1})) == _fold_of_multiply(env, word)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in order4]
    folded = EnvElem()
    for word, c in zip(order4, coeffs):
        folded = folded + _fold_of_multiply(env, word).scale(c)
    assert env.normalize(EnvElem(dict(zip(order4, coeffs)))) == folded


def test_words_must_stay_in_the_window(q1):
    env = PBW(q1)
    with pytest.raises(ValueError):
        env.normalize_word((("A", 5),))


def test_confluence_on_fixed_words(q1):
    first = PBW(q1, strategy="first")
    last = PBW(q1, strategy="last")
    words = [
        (("A", 1), ("A", 0)),
        (("G", 1), ("A", 0), ("A", 1)),
        (("A", 1), ("G", 1), ("A", 0), ("A", 1), ("A", 0)),
        (("G", 1), ("G", 1), ("A", 1), ("A", 0)),
    ]
    for word in words:
        assert first.normalize_word(word) == last.normalize_word(word)


def test_quartic_presentation_n1(q1):
    report = verify_quartic(q1)
    assert report.status == "pass"
    ids = [c.id for c in report.checks]
    assert "quartic:env-order4" in ids


def test_cubic_relation_value(q1):
    from onsaw.onsager import bracket

    alpha = q1.alphas[0]
    residual = (
        q1.reduce(bracket(A(0), bracket(A(0), A(1))))
        - A(0) * (8 * alpha)
        - A(1) * Fraction(16)
    )
    assert residual.is_zero()


def test_quartic_presentation_n2():
    assert verify_quartic(QuotientO.symbolic(2)).status == "pass"
    with pytest.raises(ValueError):
        verify_quartic(QuotientO.symbolic(3))


def test_pbw_lie_compatibility(q1):
    assert pbw_lie_compat_report(q1).status == "pass"
    assert pbw_lie_compat_report(QuotientO.symbolic(2)).status == "pass"


def test_aw3_fit_symbolic():
    constants, report = aw3_fit()
    assert report.ok
    a0, a1, alpha = lvar("a0"), lvar("a1"), lvar("alpha")
    assert ratfunc_equal(constants["B"], as_ratfunc(a0 * a1 * alpha * -8))
    assert ratfunc_equal(constants["C0"], as_ratfunc(a1 * a1 * -16))
    assert ratfunc_equal(constants["C1"], as_ratfunc(a0 * a0 * -16))
    by_id = {c.id: c for c in report.checks}
    assert by_id["aw3-fit:B-consistent"].status == "pass"
    assert by_id["aw3-fit:relation2-solved"].status == "pass"
    assert by_id["aw3-fit:relation3-solved"].status == "pass"
    # the printed reference constants disagree with the fit by fixed factors
    assert by_id["aw3-fit:vs-reference:K2"].status == "discrepancy"
    assert by_id["aw3-fit:vs-reference:B"].status == "discrepancy"


def test_aw3_fit_constants_are_laurent_polynomials():
    constants, _ = aw3_fit()
    assert all(type(c) is LaurentPoly for c in constants.values())
    assert constants["B"] == lvar("a0") * lvar("a1") * lvar("alpha") * -8


def test_aw3_fit_divides_by_units_only():
    with pytest.raises(ValueError, match="cannot divide"):
        aw3_fit(a0=lvar("a0") + 1)


def test_aw3_fit_without_affine_shifts():
    constants, report = aw3_fit(b0=Fraction(0), b1=Fraction(0))
    assert report.ok
    assert not constants["D0"]
    assert not constants["D1"]


def test_aw3_fit_rescaling_leaves_k2_invariant():
    lam = lvar("lam")
    a0 = lam * lvar("a0")
    a1 = lvar("a1") * lvar("lam", -1)
    scaled, report = aw3_fit(a0=a0, a1=a1)
    assert report.ok
    plain, _ = aw3_fit()
    # K2 = [K0, K1] and B = -8 alpha a0 a1 are invariant under
    # (a0, a1) -> (lam a0, a1/lam); the C's pick up lam^(+-2)
    assert ratfunc_equal(scaled["B"], plain["B"])
    assert scaled["C0"] * lam * lam == plain["C0"]
    assert scaled["C1"] == plain["C1"] * lam * lam

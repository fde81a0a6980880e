"""The alternative presentation: brackets, conversions, automorphisms, quotients."""

from fractions import Fraction

import pytest

from onsaw.altpres import (
    Gt,
    QuotientA,
    Wm,
    Wp,
    alt_auto,
    appendix_fixtures_report,
    averaged_shift,
    averaged_shift_report,
    beta_alpha_report,
    beta_formula,
    beta_from_alpha,
    bracket_alt,
    c_coeff,
    convert_to_alt,
    convert_to_ons,
    dolan_grady_alt_report,
    reduction_diagram_report,
    sprime_report,
    triangular_basis_report,
    verify_iso,
)
from onsaw.elements import AlgElem
from onsaw.onsager import A, G, PHI, TAU0, TAU1, apply_auto, bracket
from onsaw.quotient import QuotientO
from onsaw.scalars import LaurentPoly, RatFunc, lvar


def test_bracket_alt_examples():
    assert bracket_alt(Wm(0), Wp(0)) == Gt(0)
    assert bracket_alt(Gt(0), Wm(0)) == Wm(1, Fraction(16)) - Wp(0, Fraction(16))
    assert bracket_alt(Wm(2), Wm(5)).is_zero()
    assert bracket_alt(Wp(1), Wp(4)).is_zero()
    assert bracket_alt(Gt(3), Gt(1)).is_zero()
    # raising family against Gt
    assert bracket_alt(Wp(0), Gt(0)) == Wp(1, Fraction(16)) - Wm(0, Fraction(16))


def test_indices_must_be_nonnegative():
    with pytest.raises(ValueError):
        Wm(-1)
    with pytest.raises(ValueError):
        Gt(-2)


def test_c_coefficients():
    assert c_coeff(0, 0) == 1
    assert c_coeff(0, 2) == 4
    assert c_coeff(1, 2) == -1
    assert c_coeff(0, 1) == 2
    with pytest.raises(ValueError):
        c_coeff(2, 3)


def test_conversion_fixtures():
    assert convert_to_alt(A(3)) == Wp(2, Fraction(4)) - Wp(0) - Wm(1, Fraction(2))
    assert convert_to_ons(Wm(2)) == (
        A(2) * Fraction(1, 4) + A(0) * Fraction(1, 2) + A(-2) * Fraction(1, 4)
    )
    assert convert_to_ons(Gt(1)) == G(2, Fraction(-2))
    assert convert_to_ons(convert_to_alt(A(7))) == A(7)


def test_appendix_fixtures_report():
    report = appendix_fixtures_report()
    assert report.status == "discrepancy"
    by_id = {c.id: c for c in report.checks}
    for label in ("A0", "A1", "G1", "A-1", "A2", "G2", "A-2", "A3", "G3"):
        assert by_id[f"appendix-a:to-alt:{label}"].status == "pass"
        assert by_id[f"appendix-a:to-ons:{label}"].status == "pass"
    # the printed inverse display for Gt(2) disagrees with the forward table
    assert by_id["appendix-a:printed-Gt2"].status == "discrepancy"


def test_alt_automorphisms():
    assert alt_auto((TAU0,), Wp(1)) == Wm(2, Fraction(2)) - Wp(1)
    assert alt_auto((TAU1,), Gt(2)) == Gt(2, Fraction(-1))
    assert alt_auto((TAU0,), Gt(2)) == Gt(2, Fraction(-1))
    assert alt_auto((PHI,), Wm(3)) == Wp(3)
    assert averaged_shift(Wm(0)) == Wm(1)


def test_alt_auto_intertwines_with_conversion():
    syms = [("A", n) for n in range(-8, 9)] + [("G", m) for m in range(1, 9)]
    for word in ((PHI,), (TAU0,), (TAU1,)):
        for sym in syms:
            x = AlgElem.basis(sym)
            lhs = convert_to_alt(apply_auto(word, x))
            rhs = alt_auto(word, convert_to_alt(x))
            assert lhs == rhs, (word, sym)


def test_averaged_shift_formulas():
    assert averaged_shift_report(8).status == "pass"


def test_dolan_grady_in_alt_presentation():
    assert dolan_grady_alt_report().status == "pass"


def test_beta_from_alpha_n1_and_n2():
    qa1 = beta_from_alpha(QuotientO.symbolic(1))
    alpha = lvar("alpha")
    assert qa1.betas == (alpha, Fraction(2))
    qa2 = beta_from_alpha(QuotientO.symbolic(2))
    alphap = lvar("alphap")
    assert qa2.betas == (alphap - 2, lvar("alpha") * 2, Fraction(4))


def test_beta_closed_formula_instances():
    q2 = QuotientO.symbolic(2)
    assert beta_formula(q2, 1) == lvar("alpha") * 2
    assert beta_formula(q2, 2) == Fraction(4)
    for N in (1, 2, 3, 4):
        assert beta_alpha_report(QuotientO.symbolic(N)).status == "pass"


def test_reduce_alt_examples():
    qa = QuotientA.symbolic(1)
    b0, b1 = qa.betas
    ratio = RatFunc(-b0, b1)
    assert qa.reduce(Wm(1)) == Wm(0) * ratio
    assert qa.reduce(Gt(1)) == Gt(0) * ratio
    assert qa.reduce(Wm(0)) == Wm(0)


def test_reduce_alt_is_idempotent_and_lie_compatible():
    qa = QuotientA.symbolic(2)
    x = Wm(4) + Gt(3) * Fraction(2)
    y = Wp(3)
    reduced = qa.reduce(x)
    assert qa.reduce(reduced) == reduced
    direct = qa.reduce(bracket_alt(x, y))
    staged = qa.reduce(bracket_alt(qa.reduce(x), qa.reduce(y)))
    assert direct == staged


def test_quotient_a_validation():
    with pytest.raises(ValueError):
        QuotientA((Fraction(1),))
    with pytest.raises(ValueError):
        QuotientA((Fraction(1), Fraction(0)))


def test_quotient_a_needs_a_unit_leading_coefficient():
    for zero in (0, Fraction(0), LaurentPoly()):
        with pytest.raises(ValueError, match="beta_N must be nonzero$"):
            QuotientA((lvar("b0"), zero))
    for non_unit in (lvar("b") + 1, lvar("b") * lvar("c") - lvar("d")):
        with pytest.raises(ValueError, match="nonzero rational or a monomial"):
            QuotientA((lvar("b0"), non_unit))
    # units: a rational, a variable, a monomial with a coefficient
    for unit in (Fraction(-2, 3), lvar("b1"), LaurentPoly.monomial(3, {"b": -2})):
        qa = QuotientA((lvar("b0"), unit))
        assert qa.reduce(Wm(1)) * unit == Wm(0) * -lvar("b0")


def test_symbolic_reduction_divides_in_the_laurent_ring():
    qa = QuotientA.symbolic(2)
    b0, b1 = qa.betas[:2]
    for x in (Wm(5), Wp(4) + Gt(3) * 2, bracket_alt(Gt(2), Wm(3))):
        reduced = qa.reduce(x)
        assert all(isinstance(c, LaurentPoly) for c in reduced.terms.values())
    # Gt(2) = -(b0 Gt(0) + b1 Gt(1)) / b2, with 1/b2 the monomial b2^-1
    assert qa.reduce(Gt(2)) == Gt(0) * (-b0 * lvar("beta2", -1)) + Gt(1) * (
        -b1 * lvar("beta2", -1)
    )


def test_integral_structure_and_conversion_constants_are_ints():
    elements = [
        A(0),
        Wm(0),
        bracket(A(1), A(0)),
        bracket(G(2), A(1)),
        bracket_alt(Gt(0), Wm(0)),
        bracket_alt(Wm(0), Wp(3)),
        alt_auto([TAU0, PHI], Wp(2)),
        convert_to_alt(A(5)),
        convert_to_alt(A(-4)),
    ]
    for x in elements:
        assert x.terms and all(type(c) is int for c in x.terms.values()), x
    for k in range(12):
        for p in range(k // 2 + 1):
            assert type(c_coeff(p, k)) is int
    assert c_coeff(1, 7) == -192  # -(6! / (1! 5!)) 2^5
    assert c_coeff(2, 7) == 80  # (5! / (2! 3!)) 2^3


def test_beta_reduction_diagram():
    for N in (1, 2, 3, 4):
        assert reduction_diagram_report(QuotientO.symbolic(N)).status == "pass"


def test_sprime_normalizations():
    for N in (1, 2, 3):
        report = sprime_report(beta_from_alpha(QuotientO.symbolic(N)))
        by_id = {c.id: c for c in report.checks}
        assert by_id[f"sprime:halved:W0:N{N}"].status == "pass"
        assert by_id[f"sprime:halved:W1:N{N}"].status == "pass"
        assert by_id[f"sprime:displayed:W0:N{N}"].status == "discrepancy"


def test_verify_iso():
    report = verify_iso()
    assert report.status == "pass"


def test_triangular_change_of_basis():
    assert triangular_basis_report(12).status == "pass"


def test_generating_series_of_inverse_chebyshev_powers():
    # U^(-k-1) expands as 2 sum_p c(p, 2p+k) u^(2p+k+1) around u = 0:
    # multiplying the truncated series by U^(k+1) returns 1 up to the
    # truncation order.
    u = lvar("u")
    big_u = (u + lvar("u", -1)) * Fraction(1, 2)
    P = 8
    for k in range(0, 6):
        series = LaurentPoly()
        for p in range(P + 1):
            series = series + lvar("u", 2 * p + k + 1) * (
                c_coeff(p, 2 * p + k) * Fraction(2)
            )
        product = (big_u ** (k + 1)) * series
        truncated = product.truncate({"u": 2 * P + 1})
        assert truncated == LaurentPoly.const(1), f"k={k}"


def test_bracket_intertwining_core_example():
    # [A_0, A_1] = -4 G_1 converts to Gt(0), matching [Wm(0), Wp(0)]
    lhs = convert_to_alt(bracket(A(0), A(1)))
    rhs = bracket_alt(convert_to_alt(A(0)), convert_to_alt(A(1)))
    assert lhs == rhs == Gt(0)
    assert convert_to_alt(bracket(G(1), G(2))).is_zero()

"""The r-matrix, the consistency equation, exchange relations, and charges."""

from fractions import Fraction

import pytest

from onsaw.altpres import QuotientA, beta_from_alpha
from onsaw.matrices import Matrix
from onsaw.onsager import A, G
from onsaw.quotient import QuotientO
from onsaw.reports import FAIL
from onsaw.scalars import LaurentPoly, RatFunc, lvar, ratfunc_equal
from onsaw.yangbaxter import (
    ChargeParams,
    build_B_alt,
    build_B_onsager,
    charges,
    corrupted_r_matrix,
    expand_b,
    f_poly,
    f_tilde_poly,
    m_matrix,
    p_poly,
    p_tilde_poly,
    r_matrix,
    r_matrix_num,
    reD_survey,
    verify_commuting,
    verify_cybe,
    verify_frt,
    verify_frt_series_alt,
    verify_frt_series_onsager,
    verify_reD,
)


def test_r_matrix_entries():
    r = r_matrix()
    u, v = lvar("u"), lvar("v")
    one = LaurentPoly.const(1)
    den = (u - v) * (u * v - one)
    assert ratfunc_equal(r[0, 0], RatFunc(u * (one - v * v), den))
    assert ratfunc_equal(r[0, 3], RatFunc(LaurentPoly.const(-2), u * v - one))
    assert ratfunc_equal(r[1, 2], RatFunc(v * (u * v - one) * Fraction(-2), den))
    assert not r[0, 1]
    assert ratfunc_equal(r[3, 3], r[0, 0])


def test_r_matrix_numeric_values():
    values = r_matrix().evaluate({"u": Fraction(2), "v": Fraction(3)})
    assert values[0, 0] == Fraction(16, 5)
    assert values[0, 3] == Fraction(-2, 5)
    assert values[1, 2] == 6
    assert values[2, 1] == 4
    assert values[3, 0] == Fraction(-12, 5)
    assert values[1, 1] == Fraction(-16, 5)


def test_cybe_holds_symbolically():
    report = verify_cybe()
    assert report.status == "pass"


def test_cybe_negative_control():
    report = verify_cybe(corrupted_r_matrix())
    assert report.status == FAIL
    by_id = {c.id: c for c in report.checks}
    assert by_id["cybe:symbolic"].status == FAIL
    # the numeric spot check must agree with the symbolic verdict
    assert by_id["cybe:numeric-agrees"].status == "pass"


@pytest.mark.parametrize("entry", [(i, j) for i in range(4) for j in range(4)])
def test_cybe_rejects_each_shifted_numerator_entry(entry):
    num, den = r_matrix_num()
    rows = [list(row) for row in num.entries]
    rows[entry[0]][entry[1]] = rows[entry[0]][entry[1]] + LaurentPoly.const(1)
    report = verify_cybe((Matrix(rows), den))
    by_id = {c.id: c for c in report.checks}
    assert by_id["cybe:symbolic"].status == FAIL
    assert by_id["cybe:numeric-agrees"].status == "pass"


def test_b_matrix_n1_closed_form():
    q = QuotientO.symbolic(1)
    B = build_B_onsager(q)
    u = lvar("u")
    uinv = lvar("u", -1)
    assert B.den == u + lvar("alpha") + uinv
    assert B.entries[0][0] == G(1)
    assert B.entries[1][1] == G(1, Fraction(-1))
    assert B.entries[0][1] == A(0) * uinv - A(1)
    assert B.entries[1][0] == A(0) * -u + A(1)


def test_b_matrix_entries_have_no_scalar_part_and_balanced_diagonal():
    for N in (1, 2, 3):
        B = build_B_onsager(QuotientO.symbolic(N))
        assert (B.entries[0][0] + B.entries[1][1]).is_zero()
        for row in B.entries:
            for entry in row:
                assert all(sym[0] in ("A", "G") for sym in entry.terms)


def test_operator_matrix_entry_accessor_divides_by_the_prefactor():
    q = QuotientO.symbolic(1)
    B = build_B_onsager(q)
    entry = B.entry(0, 0)
    coeff = entry.coeff(("G", 1))
    assert isinstance(coeff, RatFunc)
    assert ratfunc_equal(coeff, RatFunc(1, B.den))
    renamed = B.rename_spectral("v")
    assert renamed.u == "v"
    assert renamed.den == lvar("v") + lvar("alpha") + lvar("v", -1)


def test_alt_operator_matrix_is_integral_and_equals_the_unscaled_formula():
    u, uinv = lvar("u"), lvar("u", -1)
    for N in (1, 2, 3, 4):
        qa = QuotientA.symbolic(N)
        B = build_B_alt(qa)
        polys = [B.den] + [c for row in B.entries for e in row for c in e.terms.values()]
        assert all(type(x) is int for poly in polys for x in poly.terms.values())
        # [[-g/4, w_plus/u - w_minus], [-u w_plus + w_minus, g/4]] / (2 p~(U))
        den = p_tilde_poly(qa, "u") * 2
        expected = {}
        for k in range(N):
            fk = f_tilde_poly(qa, k, "u")
            expected[0, 0, ("Gt", k)] = fk * Fraction(-1, 4)
            expected[0, 1, ("Wm", k)] = fk * uinv
            expected[0, 1, ("Wp", k)] = -fk
            expected[1, 0, ("Wm", k)] = fk * -u
            expected[1, 0, ("Wp", k)] = fk
            expected[1, 1, ("Gt", k)] = fk * Fraction(1, 4)
        got = {
            (i, j, sym): c
            for i in range(2)
            for j in range(2)
            for sym, c in B.entry(i, j).terms.items()
        }
        assert got.keys() == expected.keys()
        for key, num in expected.items():
            assert ratfunc_equal(got[key], RatFunc(num, den)), key


def test_frt_alt_builds_no_rational_function(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("a RatFunc was built")

    monkeypatch.setattr(RatFunc, "__init__", refuse)
    for N in (1, 2, 3):
        assert verify_frt(build_B_alt(QuotientA.symbolic(N))).status == "pass"


def test_f_poly_instances():
    q2 = QuotientO.symbolic(2)
    alpha = lvar("alpha")
    assert f_poly(q2, 1, "u") == alpha + lvar("u", -1)
    assert f_poly(q2, 2, "u") == LaurentPoly.const(1)
    assert p_poly(q2, "u") == (
        lvar("u", 2)
        + alpha * lvar("u")
        + lvar("alphap")
        + alpha * lvar("u", -1)
        + lvar("u", -2)
    )


def test_b_matrix_n2_matches_displayed_entries():
    q = QuotientO.symbolic(2)
    B = build_B_onsager(q)
    u = lvar("u")
    uinv = lvar("u", -1)
    alpha = lvar("alpha")
    one = LaurentPoly.const(1)
    g_entry = G(2) + G(1) * (u + alpha + uinv)
    assert B.entries[0][0] == g_entry
    a_minus = (
        A(-1) * uinv
        + A(0) * (uinv * (alpha + uinv))
        - A(1) * (u + alpha)
        - A(2)
    )
    assert B.entries[0][1] == a_minus
    # the raising entry carries (alpha + 1/u) A_1; the series expansion of
    # p(u) A+(u) fixes that coefficient (it has a 1/u term)
    a_plus = (
        A(-1) * -u
        - A(0) * (u * (u + alpha))
        + A(1) * (alpha + uinv)
        + A(2) * one
    )
    assert B.entries[1][0] == a_plus


def test_frt_holds_for_onsager_quotients():
    for N in (1, 2):
        q = QuotientO.symbolic(N)
        assert verify_frt(build_B_onsager(q)).status == "pass"


def test_frt_negative_control():
    B = build_B_onsager(QuotientO.symbolic(1))
    # flip the sign of the A_1 term in the (0,1) entry
    corrupted_entry = A(0) * lvar("u", -1) + A(1)
    corrupted = B.with_entry(0, 1, corrupted_entry)
    assert verify_frt(corrupted).status == FAIL


def test_frt_alt_side():
    for N in (1, 2):
        qa = QuotientA.symbolic(N)
        assert verify_frt(build_B_alt(qa)).status == "pass"


def test_frt_alt_with_derived_betas():
    qa = beta_from_alpha(QuotientO.symbolic(2))
    assert verify_frt(build_B_alt(qa)).status == "pass"


def test_p_tilde_and_f_tilde_instances():
    qa1 = QuotientA.symbolic(1)
    big_u = (lvar("u") + lvar("u", -1)) * Fraction(1, 2)
    assert p_tilde_poly(qa1, "u") == lvar("beta0") + lvar("beta1") * big_u
    qa2 = QuotientA.symbolic(2)
    assert f_tilde_poly(qa2, 0, "u") == lvar("beta1") + lvar("beta2") * big_u
    assert f_tilde_poly(qa2, 1, "u") == lvar("beta2") * LaurentPoly.const(1)


def test_frt_series_low_order():
    assert verify_frt_series_onsager(2).status == "pass"
    assert verify_frt_series_onsager(4).status == "pass"
    assert verify_frt_series_alt(2).status == "pass"
    assert verify_frt_series_alt(4).status == "pass"
    with pytest.raises(ValueError):
        verify_frt_series_onsager(1)
    with pytest.raises(ValueError):
        verify_frt_series_alt(0)


def test_frt_series_detects_corrupted_bracket():
    from onsaw.onsager import bracket, sym_bracket
    import onsaw.yangbaxter as yb

    def corrupted(s, t):
        value = sym_bracket(s, t)
        if s[0] == "A" and t[0] == "A":
            return value * Fraction(5, 4)
        return value

    original = yb.bracket
    yb.bracket = lambda x, y: bracket(x, y, sym_bracket=corrupted)
    try:
        assert yb.verify_frt_series_onsager(3).status == FAIL
    finally:
        yb.bracket = original


def test_charges_first_element():
    q = QuotientO.symbolic(2)
    c = ChargeParams.symbolic()
    family = charges(q, c)
    assert family[0] == A(0) * c.kappa + A(1) * c.kappas + G(1) * c.mu
    assert len(family) == 2
    assert family[1] == (
        (A(1) + A(-1)) * c.kappa + (A(2) + A(0)) * c.kappas + G(2) * c.mu
    )


def test_charges_commute():
    for N in (2, 3, 4):
        assert verify_commuting(QuotientO.symbolic(N)).status == "pass"


def test_charges_negative_control():
    q = QuotientO.symbolic(2)
    c = ChargeParams.symbolic()
    family = charges(q, c)
    family[1] = family[1] + A(2) * c.kappa
    assert verify_commuting(q, family, c).status == FAIL


def test_expansion_over_charges_n1():
    q = QuotientO.symbolic(1)
    factors, report = expand_b(q, ChargeParams.symbolic())
    assert report.status == "pass"
    assert factors == [lvar("u", -1) - lvar("u")]


def test_expansion_over_charges_n2_n3():
    for N in (2, 3):
        _, report = expand_b(QuotientO.symbolic(N), ChargeParams.symbolic())
        assert report.status == "pass"


def test_m_matrix_closed_form():
    c = ChargeParams.symbolic()
    m = m_matrix(c, "x")
    x = lvar("x")
    xinv = lvar("x", -1)
    assert m[0, 0] == xinv * c.mu
    assert m[0, 1] == c.kappa + xinv * c.kappas
    assert m[1, 0] == c.kappa + x * c.kappas
    assert m[1, 1] == x * c.mu


def test_reD_plain_reading_holds():
    assert verify_reD().status == "pass"


def test_reD_numeric_check_is_independent_of_polynomial_multiplication(monkeypatch):
    # A multiplication that drops one term of every product of two
    # multi-term polynomials sways the symbolic verdict only; the numeric
    # check multiplies evaluated matrices and must then disagree with it.
    exact = LaurentPoly.__mul__

    def drops_a_term(self, other):
        out = exact(self, other)
        if (
            isinstance(other, LaurentPoly)
            and len(self.terms) > 1
            and len(other.terms) > 1
            and out.terms
        ):
            terms = dict(out.terms)
            del terms[next(iter(terms))]
            return LaurentPoly(terms)
        return out

    monkeypatch.setattr(LaurentPoly, "__mul__", drops_a_term)
    monkeypatch.setattr(LaurentPoly, "__rmul__", drops_a_term)
    status = {ch.id: ch.status for ch in verify_reD(interpretation="r12").checks}
    assert status["reD:r12:symbolic"] == FAIL
    assert status["reD:r12:numeric-agrees"] == FAIL


def test_reD_survey_records_each_reading():
    survey = reD_survey()
    assert survey["r12"] is True
    assert survey["r21"] is False
    assert survey["r12-swapped"] is False


def test_reD_trivial_for_vanishing_parameters():
    c = ChargeParams.rational(0, 0, 0)
    for name in ("r12", "r21", "r12-swapped"):
        assert verify_reD(c, name).status == "pass"


def test_reD_rejects_unknown_interpretation():
    with pytest.raises(ValueError):
        verify_reD(interpretation="sideways")

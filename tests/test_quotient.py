"""Normal-form reduction, the coefficient table, and the quotient relations."""

from fractions import Fraction

import pytest

from onsaw.altpres import Gt, QuotientA, Wm, Wp
from onsaw.elements import AlgElem
from onsaw.onsager import A, G, bracket, s_n_autopoly
from onsaw.quotient import (
    QuotientO,
    defining_relations,
    forward_reduction_report,
    implied_relations_report,
    u_poly,
    u_poly_oracle,
    u_poly_report,
    verify_sn,
)
from onsaw.scalars import LaurentPoly, lvar, sum_terms


@pytest.fixture(scope="module")
def q1():
    return QuotientO.symbolic(1)


@pytest.fixture(scope="module")
def q2():
    return QuotientO.symbolic(2)


def test_reduce_examples_n1(q1):
    alpha = q1.alphas[0]
    assert q1.reduce(A(-1)) == A(0) * -alpha - A(1)
    assert q1.reduce(G(2)) == G(1) * -alpha
    assert q1.reduce(A(0)) == A(0)


def test_reduce_example_n2(q2):
    alphap, alpha = q2.alphas[0], q2.alphas[1]
    expected = -A(-1) - A(0) * alpha - A(1) * alphap - A(2) * alpha
    assert q2.reduce(A(3)) == expected


def test_alpha_n_must_be_one():
    with pytest.raises(ValueError):
        QuotientO((lvar("alpha"), Fraction(2)))


def test_normalization_requires_alpha_n_equal_to_one():
    for last in (2, lvar("a"), LaurentPoly.const(2)):
        with pytest.raises(ValueError, match="normalization requires alpha_N = 1"):
            QuotientO((lvar("alpha"), last))
    for last in (1, Fraction(1), LaurentPoly.const(1)):
        assert QuotientO((lvar("alpha"), last)).N == 1


def test_reduce_is_idempotent_and_supported_on_window(q2):
    x = A(7) + G(5) * Fraction(3) + A(-6)
    reduced = q2.reduce(x)
    assert q2.reduce(reduced) == reduced
    window = set(q2.basis_syms())
    assert set(reduced.terms) <= window


def test_u_poly_initial_and_first_values(q1):
    alpha = q1.alphas[0]
    assert u_poly(q1, 0, 0) == alpha
    assert u_poly(q1, 0, 1) == Fraction(1)
    assert u_poly(q1, 1, 0) == alpha * alpha - 1
    assert u_poly(q1, 1, 1) == alpha


def test_u_poly_chebyshev_three_term_recurrence(q1):
    alpha = q1.alphas[0]
    for p in range(1, 10):
        for j in (0, 1):
            lhs = u_poly(q1, p + 1, j)
            assert lhs == alpha * u_poly(q1, p, j) - u_poly(q1, p - 1, j)


def test_u_poly_against_reduction_oracle(q1, q2):
    for q in (q1, q2, QuotientO.symbolic(3)):
        assert u_poly_report(q, 10).status == "pass"


def test_u_poly_oracle_direct(q1):
    alpha = q1.alphas[0]
    assert u_poly_oracle(q1, 2).coeff(("A", 0)) == alpha * alpha * alpha - 2 * alpha


def test_deep_indices_reduce_without_recursion():
    assert QuotientA((2, 1)).reduce(Wp(3000)) == Wp(0, (-2) ** 3000)
    q = QuotientO((3, 1))
    row = u_poly_oracle(q, 1200)
    assert set(row.terms) == {("A", 0), ("A", 1)}
    for j in (0, 1):
        assert row.coeff(("A", j)) == u_poly(q, 1200, j)


def test_foreign_symbols_are_rejected():
    with pytest.raises(TypeError, match="not an alternative-presentation symbol"):
        QuotientA.symbolic(1).reduce(A(5))
    with pytest.raises(TypeError, match="not an alternative-presentation symbol"):
        QuotientA.symbolic(1).reduce(A(0))
    with pytest.raises(TypeError, match="not an Onsager basis symbol"):
        QuotientO.symbolic(1).reduce(Wm(5))
    with pytest.raises(TypeError, match="not an Onsager basis symbol"):
        QuotientO.symbolic(1).reduce(Gt(0))


def test_integer_alphas_give_an_integer_table():
    q = QuotientO((3, -2, 1))
    assert all(type(a) is int for a in q.alphas) and type(q.alpha(5)) is int
    assert QuotientO.symbolic(2).alphas[-1] == 1
    assert type(QuotientO.symbolic(2).alphas[-1]) is int
    for p in range(5):
        for j in range(-q.N + 1, q.N + 1):
            assert type(u_poly(q, p, j)) is int, (p, j)


def test_table_reports_pass_for_int_rational_and_symbolic_alphas():
    rational = QuotientO((Fraction(1, 2), Fraction(-3, 2), 1))
    for q in (QuotientO((3, -2, 1)), rational) + tuple(
        QuotientO.symbolic(N) for N in (1, 2, 3)
    ):
        assert u_poly_report(q, 10).status == "pass"
        assert forward_reduction_report(q, 8).status == "pass"


def test_u_poly_range_errors(q1):
    with pytest.raises(ValueError):
        u_poly(q1, -1, 0)
    with pytest.raises(ValueError):
        u_poly(q1, 0, 2)


def test_forward_formulas(q1, q2):
    for q in (q1, q2, QuotientO.symbolic(3)):
        assert forward_reduction_report(q, 8).status == "pass"


def test_sn_annihilates_generators():
    for N in (1, 2, 3, 4):
        assert verify_sn(QuotientO.symbolic(N)).status == "pass"


def test_sn_negative_control(q1):
    alpha = q1.alphas[0]
    corrupted = s_n_autopoly((alpha + 1, Fraction(1)))
    report = verify_sn(q1, autopoly=corrupted)
    assert report.status == "fail"
    assert [c for c in report.checks if c.status == "fail"][0].residual == "A(0)"


def test_implied_relations(q1, q2):
    for q in (q1, q2, QuotientO.symbolic(3), QuotientO.symbolic(4)):
        assert implied_relations_report(q, pmax=6).status == "pass"


def test_defining_relations_n1_match_the_three_generator_presentation(q1):
    alpha = q1.alphas[0]
    rels = dict(defining_relations(q1))
    assert len(rels) == 3
    assert rels[(("A", 1), ("A", 0))] == G(1, Fraction(4))
    assert rels[(("G", 1), ("A", 0))] == A(0) * (2 * alpha) + A(1) * Fraction(4)
    # [A_1, G_1] = 2 alpha A_1 + 4 A_0, recorded with the opposite orientation
    assert -rels[(("G", 1), ("A", 1))] == A(1) * (2 * alpha) + A(0) * Fraction(4)


def test_defining_relations_n2_full_list(q2):
    from aw6_expected import aw6_relation_table

    rels = dict(defining_relations(q2))
    assert len(rels) == 15
    expected = aw6_relation_table(q2.alphas[0], q2.alphas[1])
    assert set(expected) == set(rels)
    for pair, value in expected.items():
        assert rels[pair] == value, f"mismatch at {pair}"


def test_reduction_is_a_lie_ideal(q2):
    x = A(4) - G(3) * Fraction(2)
    y = A(-3) + G(6)
    direct = q2.reduce(bracket(x, y))
    staged = q2.reduce(bracket(q2.reduce(x), q2.reduce(y)))
    assert direct == staged


def test_jacobi_identity_survives_reduction():
    for N in (1, 2, 3):
        q = QuotientO.symbolic(N)
        syms = q.basis_syms()
        br = q.bracket_reduced
        for x_sym in syms:
            for y_sym in syms:
                for z_sym in syms:
                    x = AlgElem.basis(x_sym)
                    y = AlgElem.basis(y_sym)
                    z = AlgElem.basis(z_sym)
                    total = (
                        br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y))
                    )
                    assert total.is_zero(), (N, x_sym, y_sym, z_sym)


def test_concrete_alphas_reduce_rationally():
    q = QuotientO((Fraction(3, 2), Fraction(1)))
    assert q.reduce(A(-1)) == A(0) * Fraction(-3, 2) - A(1)
    assert u_poly(q, 1, 0) == Fraction(5, 4)


# --- the relation instances ---------------------------------------------------


def same_term_maps(x, y) -> bool:
    """Equal term maps, with coefficients of the same types."""
    return x.terms == y.terms and all(
        type(c) is type(y.terms[s]) for s, c in x.terms.items()
    )


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_relation_equals_the_sum_of_its_terms(N):
    """The relation instance of kind X read off the stored pairs is the sum
    of X(n + p, alpha_|n|) over n = -N..N, so G_0 = 0 and G_{-m} = -G_m hold,
    and the G instances fold where they span 0."""
    rational = QuotientO([Fraction(k + 1, 3) for k in range(N)] + [1])
    for q in (QuotientO.symbolic(N), rational):
        for kind, make in (("A", A), ("G", G)):
            for p in range(-3 * N, 3 * N + 1):
                terms = [make(n + p, q.alpha(n)) for n in range(-N, N + 1)]
                expected = AlgElem(sum_terms(terms))
                assert same_term_maps(q.relation(kind, p), expected), (kind, p)
        assert q.relation("G", 0).is_zero()  # alpha is symmetric: the halves cancel


def test_relation_rejects_a_kind_other_than_A_or_G():
    q = QuotientO.symbolic(1)
    for kind in ("Wm", A, G, lambda n, c: A(n, c)):
        with pytest.raises(TypeError):
            q.relation(kind, 0)

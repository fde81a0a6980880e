"""Representation extraction from r-matrix legs and its verification."""

import operator
from fractions import Fraction
from functools import reduce

import pytest

from onsaw.elements import ZERO
from onsaw.matrices import Matrix, commutator
from onsaw.quotient import defining_relations
from onsaw.reports import FAIL
from onsaw.reps import (
    rep_alphas,
    rep_apply,
    rep_build,
    rep_check,
    rep_matrix_identity_report,
)
from onsaw.scalars import LaurentPoly, lvar
from onsaw.yangbaxter import build_B_onsager


def test_alphas_from_factorized_prefactor_n1():
    alphas = rep_alphas(["w"])
    w = lvar("w")
    assert alphas[0] == -(w + lvar("w", -1))
    assert alphas[1] == Fraction(1)


def test_alphas_from_factorized_prefactor_n2():
    alphas = rep_alphas(["w1", "w2"])
    w1, w2 = lvar("w1"), lvar("w2")
    w1i, w2i = lvar("w1", -1), lvar("w2", -1)
    assert alphas[1] == -(w1 + w1i + w2 + w2i)
    assert alphas[0] == (
        LaurentPoly.const(2) + w1 * w2 + w1 * w2i + w1i * w2 + w1i * w2i
    )
    assert alphas[2] == Fraction(1)


def test_integral_alphas_are_ints():
    for ws in ([2, 3], [Fraction(3, 2)], ["w"]):
        alphas = rep_alphas(ws)
        integral = [
            a for a in alphas if isinstance(a, (int, Fraction)) and a.denominator == 1
        ]
        assert integral, ws
        assert all(type(a) is int for a in integral), (ws, alphas)
    assert rep_alphas([2, 3]) == [Fraction(31, 3), Fraction(-35, 6), 1]


def test_rep_n1_matches_the_closed_form():
    q, rep = rep_build(["w"])
    w = lvar("w")
    wi = lvar("w", -1)
    two = LaurentPoly.const(2)
    zero = LaurentPoly()
    assert rep[("A", 0)] == Matrix([[zero, two], [two, zero]])
    assert rep[("A", 1)] == Matrix([[zero, wi * 2], [w * 2, zero]])
    assert rep[("G", 1)] == Matrix([[wi - w, zero], [zero, w - wi]])


def test_rep_n1_bracket_value():
    q, rep = rep_build(["w"])
    lhs = commutator(rep[("A", 1)], rep[("A", 0)])
    assert lhs == rep[("G", 1)].scale(Fraction(4))


def test_rep_check_n1_and_n2_symbolic():
    for ws in (["w"], ["w1", "w2"]):
        q, rep = rep_build(ws)
        assert rep_check(q, rep).status == "pass"


def test_rep_check_rejects_a_wrong_generator_matrix():
    q, rep = rep_build(["w"])
    rep[("A", 1)] = rep[("A", 1)].scale(2)
    report = rep_check(q, rep)
    assert report.status == FAIL
    (check,) = report.checks
    assert check.id == "rep:relations:N1"
    assert "(('A', 1), ('A', 0))" in check.residual


def test_rep_block_identity():
    for ws in (["w"], ["w1", "w2"], [2, 3]):
        q, rep = rep_build(ws)
        assert rep_matrix_identity_report(ws, q, rep).status == "pass"


@pytest.mark.parametrize(
    "ws", [["w"], ["w1", "w2"], [3, 5], [2, 3], [Fraction(1, 2)]]
)
def test_rep_block_identity_rejects_a_wrong_generator_matrix(ws):
    q, rep = rep_build(ws)
    rep[("A", 0)] = rep[("A", 0)].scale(Fraction(2))
    assert rep_matrix_identity_report(ws, q, rep).status == FAIL


@pytest.mark.parametrize("ws", [["w"], ["w1", "w2"], [2, 3]])
def test_rep_block_identity_rejects_a_doubled_G1_matrix(ws):
    # G(1) sits in the diagonal blocks, A(0) only in the off-diagonal ones
    q, rep = rep_build(ws)
    rep[("G", 1)] = rep[("G", 1)].scale(2)
    report = rep_matrix_identity_report(ws, q, rep)
    assert report.status == FAIL
    (check,) = report.checks
    assert check.residual == "block identity fails in blocks [(0, 0), (1, 1)]"


def test_rep_symbolic_n3_passes_both_checks():
    ws = ["w1", "w2", "w3"]
    q, rep = rep_build(ws)
    assert rep_check(q, rep).status == "pass"
    assert rep_matrix_identity_report(ws, q, rep).status == "pass"


def test_rep_concrete_point():
    q, rep = rep_build([Fraction(3, 2)])
    assert rep[("A", 1)] == Matrix(
        [[Fraction(0), Fraction(4, 3)], [Fraction(3), Fraction(0)]]
    )
    assert rep_check(q, rep).status == "pass"


def test_rep_apply_linearity():
    from onsaw.onsager import A

    q, rep = rep_build(["w"])
    x = A(0) * Fraction(2) + A(1)
    m = rep_apply(rep, x)
    assert m == rep[("A", 0)].scale(Fraction(2)) + rep[("A", 1)]


def test_rep_apply_builds_no_matrix_sum_or_scaling(monkeypatch):
    """rep_apply gives the sum of c rep[sym] that Matrix.__add__ and
    Matrix.scale build, with both patched to raise, for elements with
    polynomial coefficients and for zero."""
    q, rep = rep_build(["w1", "w2"])
    B = build_B_onsager(q, "u")
    xs = [entry for row in B.entries for entry in row] + [ZERO]
    xs += [rhs for _, rhs in defining_relations(q)]
    zero = Matrix([[LaurentPoly()] * 4] * 4)
    terms = [(rep[s].scale(c) for s, c in x.terms.items()) for x in xs]
    want = [reduce(operator.add, scaled, zero) for scaled in terms]

    def refuse(*args):
        raise AssertionError("rep_apply built a matrix sum or scaling")

    monkeypatch.setattr(Matrix, "__add__", refuse)
    monkeypatch.setattr(Matrix, "scale", refuse)
    assert [rep_apply(rep, x) for x in xs] == want


def test_rep_experimental_n3_with_rational_points():
    ws = [Fraction(2), Fraction(3), Fraction(5)]
    q, rep = rep_build(ws)
    assert q.N == 3
    assert rep_check(q, rep).status == "pass"


def test_rep_n1_satisfies_the_quartic_relation_as_matrices():
    # 8 alpha [m1, m0] + 2 (m1 m0 m1 m0 - m0 m1 m0 m1) - m1^2 m0^2 + m0^2 m1^2
    q, rep = rep_build(["w"])
    alpha = q.alphas[0]
    m0, m1 = rep[("A", 0)], rep[("A", 1)]
    total = (
        commutator(m1, m0).scale(alpha * 8)
        + (m1 * m0 * m1 * m0 - m0 * m1 * m0 * m1).scale(Fraction(2))
        - m1 * m1 * m0 * m0
        + m0 * m0 * m1 * m1
    )
    assert total.is_zero()


def test_rep_n2_satisfies_the_quintic_relations_as_matrices():
    q, rep = rep_build(["w1", "w2"])
    alphap, alpha = q.alphas[0], q.alphas[1]
    for m0, m1 in (
        (rep[("A", 0)], rep[("A", 1)]),
        (rep[("A", 1)], rep[("A", 0)]),
    ):
        nest = commutator(m0, commutator(m1, commutator(m0, commutator(m1, m0))))
        total = (
            nest
            - commutator(m1, commutator(m1, m0)).scale(Fraction(16))
            - commutator(m0, commutator(m0, m1)).scale(alpha * 8)
            + m0.scale((alphap + 2) * 64)
            + m1.scale(alpha * 128)
        )
        assert total.is_zero()


def test_rep_rejects_zero_point():
    with pytest.raises(ValueError):
        rep_build([Fraction(0)])


def test_rep_quotient_has_unit_leading_alpha():
    q, _ = rep_build(["w1", "w2"])
    assert q.alphas[-1] == Fraction(1)

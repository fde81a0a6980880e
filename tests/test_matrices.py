"""Tensor-leg embedding, partial traces, and generic matrix arithmetic."""

from fractions import Fraction

import pytest

from onsaw.matrices import (
    Matrix,
    commutator,
    embed_leg,
    flip_matrix,
    kron,
    partial_trace,
)
from onsaw.elements import ZERO, AlgElem
from onsaw.onsager import A, G
from onsaw.scalars import lvar
from onsaw.yangbaxter import ChargeParams, m_matrix, r_matrix_num


def frac_matrix(rows):
    return Matrix([[Fraction(x) for x in row] for row in rows])


def test_identity_embeds_to_identity():
    ident4 = Matrix.identity(4)
    for legs in ((1, 2), (1, 3), (2, 3), (3, 1)):
        assert embed_leg(ident4, legs, 3) == Matrix.identity(8)


def test_embedding_on_both_legs_is_a_noop():
    m = frac_matrix([[1, 2, 0, 1], [0, 1, 5, 2], [3, 0, 1, 1], [2, 2, 0, 7]])
    assert embed_leg(m, (1, 2), 2) == m


def test_swapped_legs_equal_flip_conjugation():
    r, _ = r_matrix_num()
    swapped = embed_leg(r, (2, 1), 2)
    p = flip_matrix()
    assert swapped == p * r * p


def test_swapped_legs_equal_flip_conjugation_inside_larger_product():
    import random

    rng = random.Random(99)
    m = frac_matrix(
        [[Fraction(rng.randint(-5, 5)) for _ in range(4)] for _ in range(4)]
    )
    p23 = embed_leg(flip_matrix(), (2, 3), 3)
    assert embed_leg(m, (3, 2), 3) == p23 * embed_leg(m, (2, 3), 3) * p23


def test_one_leg_embedding_is_kron_with_identities():
    u = lvar("u")
    fractions = frac_matrix([[1, -2], [Fraction(3, 4), 5]])
    polys = Matrix([[u, u * u + 1], [lvar("u", -1), u * 0]])
    elems = Matrix([[A(0), A(1) * 2], [G(1) + A(-1), A(0) * Fraction(1, 3)]])
    for n in (1, 2, 3):
        for j in range(1, n + 1):
            left = Matrix.identity(2 ** (j - 1))
            right = Matrix.identity(2 ** (n - j))
            for m in (fractions, polys, elems):
                assert embed_leg(m, (j,), n) == kron(kron(left, m), right)
            # embed_leg fills off the block with m's typed zero
            got = embed_leg(elems, (j,), n)
            assert all(isinstance(a, AlgElem) for row in got.entries for a in row)


def test_embed_leg_rejects_bad_legs():
    m = Matrix.identity(4)
    with pytest.raises(ValueError):
        embed_leg(m, (1, 1), 2)
    with pytest.raises(ValueError):
        embed_leg(m, (0, 2), 2)
    with pytest.raises(ValueError):
        embed_leg(m, (1, 4), 3)
    with pytest.raises(ValueError):
        embed_leg(m, (1,), 2)
    with pytest.raises(ValueError):
        embed_leg(Matrix.identity(2), (1, 2), 2)


def trace(m: Matrix):
    return sum(m[i, i] for i in range(m.rows))


def test_partial_trace_identity():
    assert partial_trace(Matrix.identity(4), 1) == Matrix.identity(2).scale(
        Fraction(2)
    )


def test_partial_trace_of_product_state():
    x = frac_matrix([[1, 2], [3, 4]])
    y = frac_matrix([[5, 6], [7, 8]])
    assert partial_trace(kron(x, y), 1) == y.scale(trace(x))
    assert partial_trace(kron(x, y), 2) == x.scale(trace(y))
    z = frac_matrix([[0, 1], [-2, 9]])
    assert partial_trace(kron(kron(x, y), z), 2) == kron(x, z).scale(trace(y))


def test_partial_trace_over_both_legs_is_full_trace():
    m = frac_matrix([[1, 2, 0, 1], [0, 1, 5, 2], [3, 0, 1, 1], [2, 2, 0, 7]])
    once = partial_trace(m, 1)
    twice = partial_trace(once, 1)
    assert twice[0, 0] == trace(m)


def test_partial_trace_leg_out_of_range():
    with pytest.raises(ValueError):
        partial_trace(Matrix.identity(4), 3)


def test_traced_r_m_product_matches_direct_numeric_computation():
    # tr_1(r_12(u,v) M_1(u)) at u=2, v=3, kappa=1, kappas=0, mu=0
    bindings = {"u": Fraction(2), "v": Fraction(3)}
    c = ChargeParams(Fraction(1), Fraction(0), Fraction(0))
    # the partial trace is linear, so the r-matrix denominator factors out
    r, _ = r_matrix_num()
    symbolic = partial_trace(r * kron(m_matrix(c, "u"), Matrix.identity(2)), 1)
    got = symbolic.evaluate(bindings)
    r_num = r.evaluate(bindings)
    m_num = m_matrix(c, "u").evaluate(bindings)
    direct = partial_trace(r_num * kron(m_num, Matrix.identity(2)), 1)
    assert got == direct


def test_commutator_and_product_shapes():
    x = frac_matrix([[0, 1], [1, 0]])
    y = frac_matrix([[1, 0], [0, -1]])
    assert commutator(x, y) == frac_matrix([[0, -2], [2, 0]])
    with pytest.raises(ValueError):
        frac_matrix([[1, 2]]) * frac_matrix([[1, 2]])


def test_equality_is_false_across_shapes_and_against_other_types():
    m = frac_matrix([[1, 2], [3, 4]])
    assert m == frac_matrix([[1, 2], [3, 4]])
    assert m != frac_matrix([[1, 2, 0], [3, 4, 0]])
    assert frac_matrix([[1, 2, 0], [3, 4, 0]]) != m
    assert m != frac_matrix([[1, 2]])
    assert m != m.entries
    assert m != 0


def test_sums_and_differences_refuse_other_types_and_shapes():
    m = frac_matrix([[1, 2], [3, 4]])
    assert m + m - m == m
    for op in (Matrix.__add__, Matrix.__sub__):
        with pytest.raises(TypeError):
            op(m, 1)
        with pytest.raises(TypeError):
            op(m, m.entries)
        with pytest.raises(ValueError):
            op(m, frac_matrix([[1, 2, 0], [3, 4, 0]]))
        with pytest.raises(ValueError):
            op(m, frac_matrix([[1, 2]]))


def test_scalars_multiply_through_scale_only():
    m = frac_matrix([[1, 2], [3, 4]])
    assert m.scale(3) == frac_matrix([[3, 6], [9, 12]])
    with pytest.raises(TypeError):
        m * 3


def test_an_entry_with_every_pair_zero_is_a_zero_of_the_product_type():
    # a polynomial row times an algebra-element column: each pair has a zero
    product = Matrix([[lvar("u"), 0]]) * Matrix([[ZERO], [A(1)]])
    entry = product[0, 0]
    assert isinstance(entry, AlgElem) and entry.is_zero()
    assert entry + A(1) == A(1)


def test_matrix_over_polynomials():
    u = lvar("u")
    one = u * 0 + 1
    m = Matrix([[u, u * u], [one, u]])
    assert (m * m)[0, 0] == u * u + u * u

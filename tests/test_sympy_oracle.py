"""SymPy as an independent oracle for the exact kernel.

Every cleared-denominator check ends in LaurentPoly multiplication, addition
and a zero test, so those, and ratfunc_equal, are compared here with SymPy's
sparse polynomial ring and its fraction field, whose elements are kept
cancelled, on seeded random Laurent polynomials with negative exponents.  A
Laurent polynomial enters SymPy multiplied by (xyz)^shift, which makes every
exponent nonnegative.  SymPy is used by this test only; onsaw does not
depend on it.
"""

import random
from fractions import Fraction

import pytest

from onsaw.scalars import (
    LaurentPoly,
    RatFunc,
    decode_monomial,
    encode_monomial,
    ratfunc_equal,
)

sympy = pytest.importorskip("sympy")

NAMES = ("x", "y", "z")
FIELD = sympy.polys.fields.field(",".join(NAMES), sympy.QQ)[0]
RING = FIELD.ring


def rand_poly(rng, max_terms=4):
    """A nonzero polynomial with exponents in -3..3, built from its term map
    (keys from encode_monomial) without onsaw arithmetic.  Half of its integral coefficients are stored as
    int, the rest as Fraction, so mixed int/Fraction operands occur."""
    terms = {}
    while not terms:
        for _ in range(rng.randint(1, max_terms)):
            mono = encode_monomial({name: rng.randint(-3, 3) for name in NAMES})
            sign = rng.choice([-1, 1])
            c = Fraction(sign * rng.randint(1, 9), rng.randint(1, 4))
            if c.denominator == 1 and rng.choice([False, True]):
                c = c.numerator
            terms[mono] = c
    return LaurentPoly(terms)


def to_ring(p: LaurentPoly, shift: int):
    """(xyz)^shift * p as an element of SymPy's polynomial ring."""
    out = {}
    for mono, c in p.terms.items():
        exps = decode_monomial(mono)
        key = tuple(exps.get(name, 0) + shift for name in NAMES)
        out[key] = sympy.QQ(c.numerator, c.denominator)
    return RING.from_dict(out) if out else RING.zero


def test_products_and_sums_agree_with_sympy():
    rng = random.Random(301)
    for _ in range(200):
        p, q = rand_poly(rng), rand_poly(rng)
        sp, sq = to_ring(p, 3), to_ring(q, 3)
        assert to_ring(p * q, 6) == sp * sq
        assert to_ring(p + q, 3) == sp + sq
        assert to_ring(p - q, 3) == sp - sq


def test_ratfunc_equal_agrees_with_sympy_fractions():
    rng = random.Random(302)
    verdicts = set()

    def as_fraction(num, den):
        # the same shift on both sides leaves the quotient unchanged
        return FIELD(to_ring(num, 6)) / FIELD(to_ring(den, 6))

    for _ in range(200):
        a, b, c, d = (rand_poly(rng, 3) for _ in range(4))
        # a/b against (a c + k d)/(b c): equal exactly when k = 0
        k = rng.choice([0, 1])
        g_num = a * c + d * Fraction(k)
        g_den = b * c
        expected = as_fraction(a, b) == as_fraction(g_num, g_den)
        got = ratfunc_equal(RatFunc(a, b), RatFunc(g_num, g_den))
        assert got == expected
        verdicts.add(got)
    assert verdicts == {True, False}

"""SymPy as an independent oracle for the exact kernel.

Every cleared-denominator check ends in LaurentPoly multiplication, addition
and a zero test, and sums of algebra elements with polynomial coefficients
go through `accumulate`'s in-place multiply-add, so those, and
ratfunc_equal, are compared here with SymPy's
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
    accumulate,
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


def test_polynomial_accumulation_agrees_with_sympy():
    """Seeded chains of accumulate over algebra-element term maps whose
    values and scale k are random Laurent polynomials; each coefficient is
    checked against SymPy's sum of products, at shift 6 throughout."""
    rng = random.Random(303)
    keys = [("A", n) for n in range(-2, 3)] + [("G", 1), ("G", 2)]
    cube = RING.from_dict({(3, 3, 3): 1})
    cancelled = 0
    for _ in range(150):
        acc, expected, steps = {}, {}, []
        for _ in range(rng.randint(1, 6)):
            if steps and rng.random() < 0.25:
                # undo an earlier step: its contributions cancel
                terms, k = rng.choice(steps)
                terms = {
                    key: LaurentPoly({m: -c for m, c in p.terms.items()})
                    for key, p in terms.items()
                }
            else:
                size = rng.randint(1, 4)
                terms = {rng.choice(keys): rand_poly(rng, 3) for _ in range(size)}
                rational = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                k = rng.choice([None, rational, rand_poly(rng, 3)])
            steps.append((terms, k))
            accumulate(acc, terms, k)
            if k is None:
                weight = cube
            elif isinstance(k, LaurentPoly):
                weight = to_ring(k, 3)
            else:
                weight = cube * sympy.QQ(k.numerator, k.denominator)
            for key, p in terms.items():
                expected[key] = expected.get(key, RING.zero) + to_ring(p, 3) * weight
            assert all(acc.values())
        for key in set(acc) | set(expected):
            got = to_ring(acc[key], 6) if key in acc else RING.zero
            assert got == expected[key], key
        cancelled += any(not expected[key] for key in expected)
    assert cancelled > 0

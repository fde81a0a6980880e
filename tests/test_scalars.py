"""Exact arithmetic layer: rationals, Laurent polynomials, rational functions."""

import random
from fractions import Fraction

import pytest

from onsaw.scalars import (
    LaurentPoly,
    RatFunc,
    as_ratfunc,
    lvar,
    ratfunc_equal,
)


def test_scalar_arithmetic_textbook():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(2, 4).denominator == 2
    assert Fraction(3, 7) / Fraction(3, 7) == 1


def test_scalar_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


def test_difference_of_squares_in_laurent_ring():
    u = lvar("u")
    uinv = lvar("u", -1)
    left = (u + uinv) * (u - uinv)
    assert left == lvar("u", 2) - lvar("u", -2)


def test_poly_eval_substitutes_exactly():
    # u + alpha + 1/u at u = 2, alpha = 3
    p = lvar("u") + lvar("alpha") + lvar("u", -1)
    assert p.evaluate({"u": Fraction(2), "alpha": Fraction(3)}) == Fraction(11, 2)


def test_poly_times_zero_is_empty():
    p = lvar("u") + lvar("v", -3)
    assert not (p * LaurentPoly())
    assert (p * LaurentPoly()).terms == {}


def test_poly_eval_pole_error():
    p = lvar("u", -2)
    with pytest.raises(ZeroDivisionError):
        p.evaluate({"u": Fraction(0)})


def test_poly_eval_missing_binding():
    p = lvar("u") * lvar("v")
    with pytest.raises(KeyError):
        p.evaluate({"u": Fraction(1)})


def test_ratfunc_common_factor():
    u = lvar("u")
    one = LaurentPoly.const(1)
    f = RatFunc(u * u - one, u - one)
    g = RatFunc(u + one)
    assert ratfunc_equal(f, g)


def test_ratfunc_cancel_spectral_factor():
    # the corner entry of the r-matrix: -2(u-v) over (u-v)(uv-1)
    u, v = lvar("u"), lvar("v")
    one = LaurentPoly.const(1)
    f = RatFunc((u - v) * Fraction(-2), (u - v) * (u * v - one))
    g = RatFunc(LaurentPoly.const(-2), u * v - one)
    assert ratfunc_equal(f, g)


def test_ratfunc_distinct():
    assert not ratfunc_equal(RatFunc(1, lvar("u")), RatFunc(1, lvar("v")))


def test_ratfunc_arithmetic_and_zero_division():
    u = lvar("u")
    f = RatFunc(1, u)
    assert ratfunc_equal(f + f, RatFunc(2, u))
    assert ratfunc_equal(f * u, RatFunc(1))
    with pytest.raises(ZeroDivisionError):
        f / RatFunc(0)
    with pytest.raises(ZeroDivisionError):
        RatFunc(1, LaurentPoly())


def test_ratfunc_evaluate():
    u, v = lvar("u"), lvar("v")
    f = RatFunc(u - v, u * v - LaurentPoly.const(1))
    assert f.evaluate({"u": Fraction(2), "v": Fraction(3)}) == Fraction(-1, 5)


def test_rename_and_invert():
    p = lvar("u", 2) + lvar("v")
    q = p.rename({"u": "u1", "v": "u3"})
    assert q == lvar("u1", 2) + lvar("u3")
    assert p.invert_var("u") == lvar("u", -2) + lvar("v")
    with pytest.raises(ValueError):
        (lvar("u") + lvar("v")).rename({"u": "v"})


def test_subs_partial():
    p = lvar("u", -1) * lvar("w") + lvar("w", 2)
    assert p.subs("u", Fraction(2)) == lvar("w") * Fraction(1, 2) + lvar("w", 2)


def test_truncate_bounds():
    p = lvar("u", 3) + lvar("u") + lvar("u", -2)
    assert p.truncate({"u": 2}) == lvar("u") + lvar("u", -2)
    assert p.truncate({"u": (-1, None)}) == lvar("u", 3) + lvar("u")


def test_monomial_division_stays_polynomial():
    p = lvar("u", 2) + lvar("u")
    q = p / lvar("u")
    assert isinstance(q, LaurentPoly)
    assert q == lvar("u") + LaurentPoly.const(1)


def _kernel_poly(rng):
    """A polynomial built by kernel operations; its coefficients mix integers
    and halves/thirds, so products and sums of non-integral ones can be
    integral."""
    p = LaurentPoly()
    for _ in range(rng.randint(1, 4)):
        exps = {name: rng.randint(-2, 2) for name in ("x", "y")}
        coeff = rng.choice(
            [1, -1, 2, 3, -6, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]
        )
        p = p + LaurentPoly.monomial(coeff, exps)
    return p


def _integral_fractions(p: LaurentPoly) -> list:
    return [
        c for c in p.terms.values() if isinstance(c, Fraction) and c.denominator == 1
    ]


def test_kernel_stores_integral_coefficients_as_int():
    rng = random.Random(404)
    seen = {int: 0, Fraction: 0}
    for _ in range(300):
        p, q = _kernel_poly(rng), _kernel_poly(rng)
        divisor = LaurentPoly.monomial(
            rng.choice([2, Fraction(1, 2), Fraction(-2, 3)]), {"x": 1}
        )
        results = [
            p + q,
            p - q,
            p * q,
            p / divisor,
            p.subs("x", rng.choice([2, Fraction(1, 2), Fraction(-3, 2)])),
            p**2,
        ]
        if q:
            f = RatFunc(p, q)
            results += [f.num, f.den]
        for r in results:
            assert _integral_fractions(r) == [], r
            for c in r.terms.values():
                seen[type(c)] += 1
    # both kinds of coefficient occur, so the check is not vacuous
    assert seen[int] and seen[Fraction]
    assert type(LaurentPoly.const(Fraction(4, 2)).terms[()]) is int


def test_values_leaving_the_kernel_are_fractions():
    p = lvar("u") * 2 + LaurentPoly.const(3)
    bindings = {"u": 5}
    for value in (
        LaurentPoly.const(3).const_value(),
        LaurentPoly().const_value(),
        p.evaluate(bindings),
        LaurentPoly().evaluate(bindings),
        LaurentPoly.const(7).evaluate({}),
        1 / p.evaluate(bindings),
        RatFunc(p, LaurentPoly.const(2)).evaluate(bindings),
    ):
        assert type(value) is Fraction, value
    assert 1 / p.evaluate(bindings) == Fraction(1, 13)


def test_as_ratfunc_coercions():
    assert ratfunc_equal(as_ratfunc(Fraction(1, 2)) * 2, 1)
    u = lvar("u")
    assert ratfunc_equal(1 / as_ratfunc(u), RatFunc(1, u))

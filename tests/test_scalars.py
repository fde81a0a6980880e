"""Exact arithmetic layer: rationals, Laurent polynomials, rational functions."""

import random
from fractions import Fraction

import pytest

from onsaw import scalars
from onsaw.scalars import (
    LaurentPoly,
    RatFunc,
    accumulate,
    accumulate_product,
    as_coeff,
    as_ratfunc,
    coeff_div,
    decode_monomial,
    encode_monomial,
    frozen,
    lvar,
    ratfunc_equal,
    unit_inverse,
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


def test_rename_and_invert():
    p = lvar("u", 2) + lvar("v")
    q = p.rename({"u": "u1", "v": "u3"})
    assert q == lvar("u1", 2) + lvar("u3")
    with pytest.raises(ValueError):
        (lvar("u") + lvar("v")).rename({"u": "v"})


def test_truncate_bounds():
    """`truncate(names, degree)` keeps a monomial iff |e| <= degree for the
    exponent e of each named variable, on either sign; others are free."""
    p = lvar("u", 3) + lvar("u") + lvar("u", -2) + lvar("u", -3) * lvar("w", 9)
    assert p.truncate(("u",), 2) == lvar("u") + lvar("u", -2)
    assert p.truncate(("u",), 1) == lvar("u")
    assert p.truncate(("u",), 3) == p
    q = lvar("u", 2) * lvar("v", -2) + lvar("u", -1) * lvar("v", 3) + 5
    assert q.truncate(("u", "v"), 2) == lvar("u", 2) * lvar("v", -2) + 5
    assert q.truncate(("v",), 0) == LaurentPoly.const(5)
    assert q.truncate((), 0) == q


def test_monomial_division_stays_polynomial():
    p = lvar("u", 2) + lvar("u")
    q = coeff_div(p, lvar("u"))
    assert isinstance(q, LaurentPoly)
    assert q == lvar("u") + LaurentPoly.const(1)


def test_a_polynomial_has_no_division_operator():
    with pytest.raises(TypeError):
        lvar("u") / lvar("v")
    with pytest.raises(TypeError):
        lvar("u") / 2
    with pytest.raises(TypeError):
        1 / lvar("u")


def test_a_subtraction_from_an_unsupported_operand_is_refused():
    assert lvar("u").__rsub__("a") is NotImplemented
    with pytest.raises(TypeError):
        "a" - lvar("u")


def test_as_coeff_stores_integral_rationals_as_int():
    half = Fraction(-3, 2)
    for value, expected in ((3, 3), (Fraction(6, 2), 3), (half, half)):
        got = as_coeff(value)
        assert got == expected and type(got) is type(expected), value


def test_unit_inverse_inverts_rationals_and_monomials_only():
    assert unit_inverse(Fraction(-2, 3)) == Fraction(-3, 2)
    assert type(unit_inverse(Fraction(1, 3))) is int
    assert unit_inverse(-1) == -1
    mono = LaurentPoly.monomial(Fraction(2, 5), {"u": 3, "b": -1})
    inv = unit_inverse(mono)
    assert inv == LaurentPoly.monomial(Fraction(5, 2), {"u": -3, "b": 1})
    assert mono * inv == LaurentPoly.const(1)
    assert unit_inverse(LaurentPoly.const(4)) == LaurentPoly.const(Fraction(1, 4))
    for non_unit in (0, Fraction(0), LaurentPoly(), lvar("u") + 1, "u"):
        assert unit_inverse(non_unit) is None


def test_coeff_div_divides_by_units_and_refuses_the_rest():
    b = lvar("b")
    assert coeff_div(b * b - b, b) == b - 1
    assert coeff_div(3, Fraction(3, 2)) == 2
    quotient = coeff_div(lvar("a"), b)
    assert isinstance(quotient, LaurentPoly) and quotient * b == lvar("a")
    for non_unit in (0, b + 1):
        with pytest.raises(ValueError):
            coeff_div(b, non_unit)


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
            coeff_div(p, divisor),
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
    assert type(LaurentPoly.const(Fraction(4, 2)).terms[encode_monomial({})]) is int


def test_accumulate_stores_integral_results_as_int():
    half = Fraction(1, 2)
    total = accumulate({"a": half}, {"a": half})
    assert total == {"a": 1} and type(total["a"]) is int
    for terms, k in (({"a": 2}, half), ({"a": half}, 2), ({"a": half}, Fraction(4))):
        product = accumulate({}, terms, k)
        assert type(product["a"]) is int, (terms, k)
    assert accumulate({}, {"a": 1}, Fraction(-1)) == {"a": -1}
    assert type(accumulate({}, {"a": 1}, Fraction(-1))["a"]) is int


def test_accumulate_never_leaves_a_zero():
    half = Fraction(1, 2)
    assert accumulate({"a": half, "b": 1}, {"a": -half, "b": 1}) == {"b": 2}
    assert accumulate({"a": 1}, {"a": 3, "b": 5}, 0) == {"a": 1}
    assert accumulate({"a": 1}, {"a": Fraction(1, 3)}, -3) == {}
    rng = random.Random(405)
    values = [1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)]
    emptied = 0
    for _ in range(500):
        acc, terms = (
            {key: rng.choice(values) for key in rng.sample("abcd", rng.randint(0, 4))}
            for _ in range(2)
        )
        k = rng.choice([None, 0, -1, 2, Fraction(-1, 2), Fraction(2)])
        expected = {key: Fraction(c) for key, c in acc.items()}
        for key, c in terms.items():
            expected[key] = expected.get(key, 0) + c * (1 if k is None else k)
        accumulate(acc, terms, k)
        assert acc == {key: c for key, c in expected.items() if c}
        assert all(acc.values())
        emptied += not acc
    assert emptied


def test_the_multiply_add_equals_the_product_then_the_scaling():
    # The three-factor loop against the two-step path: the LaurentPoly
    # product, then the rational scaling, then the sum.
    rng = random.Random(606)
    ks = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(6)]
    for _ in range(300):
        out, a, b = (_kernel_poly(rng) for _ in range(3))
        k = rng.choice(ks)
        acc = dict(out.terms)
        scalars._add_product(acc, a.terms, b.terms, k)
        assert acc == (out + (a * b) * k).terms
        assert _integral_fractions(LaurentPoly(acc)) == []
        # `out` aliased to either factor is read as it was before the call
        for first in (True, False):
            acc = dict(out.terms)
            factors = (acc, b.terms) if first else (b.terms, acc)
            scalars._add_product(acc, *factors, k)
            assert acc == (out + (out * b) * k).terms
        # a sum that cancels leaves an empty map
        acc = dict(((a * b) * -k).terms)
        scalars._add_product(acc, a.terms, b.terms, k)
        assert acc == {}
    half_x = LaurentPoly.monomial(Fraction(1, 2), {"x": 1})
    third_y = LaurentPoly.monomial(Fraction(2, 3), {"y": 1})
    acc: dict = {}
    scalars._add_product(acc, half_x.terms, third_y.terms, 3)
    assert acc == (lvar("x") * lvar("y")).terms
    assert [type(c) for c in acc.values()] == [int]


def test_accumulate_product_equals_accumulate_by_the_built_product():
    rng = random.Random(607)
    rationals = [1, -1, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]

    def coeff():
        return _kernel_poly(rng) if rng.random() < 0.6 else rng.choice(rationals)

    polys = 0
    for _ in range(300):
        x, y = coeff(), coeff()
        polys += isinstance(x, LaurentPoly) or isinstance(y, LaurentPoly)
        keys = rng.sample("abcd", rng.randint(1, 4))
        terms = {key: rng.choice(rationals) for key in keys}
        start = {key: coeff() for key in rng.sample("abcd", rng.randint(0, 4))}
        expected = accumulate(dict(start), terms, x * y)
        got = accumulate_product(dict(start), terms, x, y)
        assert got == expected
        assert all(got.values())
    assert polys
    # A factor that is a sum being built in `acc` is read as it was before.
    p, q = _kernel_poly(rng), _kernel_poly(rng)
    acc = accumulate({}, {"a": p}, q)
    frozen = LaurentPoly(dict(acc["a"].terms))
    accumulate_product(acc, {"a": 2, "b": -1}, acc["a"], acc["a"])
    assert acc == {"a": frozen + frozen * frozen * 2, "b": frozen * frozen * -1}


def test_frozen_drops_zeros_and_ends_the_in_place_sums():
    x = lvar("x")
    acc = accumulate({}, {"a": x, "b": 2}, x + 1)  # "a" is a sum built in place
    got = frozen({**acc, "z": 0, "p": LaurentPoly()})
    assert got == {"a": x * x + x, "b": x * 2 + 2} and got["a"] is acc["a"]
    assert all(type(c) is LaurentPoly for c in got.values())
    accumulate(acc, {"a": x}, x)  # a frozen sum is copied, not changed
    assert got["a"] == x * x + x and acc["a"] == x * x * 2 + x


def test_mixed_int_and_fraction_coefficients_combine_exactly():
    from onsaw.altpres import Wm, convert_to_ons
    from onsaw.onsager import A, bracket

    half = Fraction(1, 2)
    assert accumulate({"a": 1, "b": half}, {"a": half, "b": 2}) == {
        "a": Fraction(3, 2),
        "b": Fraction(5, 2),
    }
    assert accumulate({"a": 1}, {"a": 3, "b": half}, half) == {
        "a": Fraction(5, 2),
        "b": Fraction(1, 4),
    }
    assert accumulate({"a": half}, {"a": 1, "b": 3}, Fraction(-1, 2)) == {
        "b": Fraction(-3, 2)
    }
    p = lvar("x") * 3 + LaurentPoly.const(half)
    assert p + p * half - p == p * half
    assert bracket(A(0, 3), A(1, half)) == bracket(A(0), A(1)) * Fraction(3, 2)
    quarter = Fraction(1, 4)
    assert convert_to_ons(Wm(2)) == A(2, quarter) + A(0, half) + A(-2, quarter)


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
    ):
        assert type(value) is Fraction, value
    assert 1 / p.evaluate(bindings) == Fraction(1, 13)


def test_as_ratfunc_coercions():
    assert ratfunc_equal(as_ratfunc(Fraction(1, 2)) * 2, 1)
    u = lvar("u")
    assert ratfunc_equal(as_ratfunc(1) / as_ratfunc(u), RatFunc(1, u))


def test_coefficients_in_splits_by_powers_and_keeps_int_coefficients():
    u, w = lvar("u"), lvar("w")
    p = u * 3 + w * u * 2 + LaurentPoly.const(5) + lvar("u", -2) * Fraction(1, 2)
    split = p.coefficients_in("u")
    assert split == {
        1: w * 2 + LaurentPoly.const(3),
        0: LaurentPoly.const(5),
        -2: LaurentPoly.const(Fraction(1, 2)),
    }
    for e in (1, 0):
        assert all(type(c) is int for c in split[e].terms.values()), split[e]


@pytest.mark.parametrize("e", [2**31, -(2**31)])
def test_exponents_at_the_bound_raise(e):
    with pytest.raises(ValueError):
        lvar("x", e)
    with pytest.raises(ValueError):
        LaurentPoly.monomial(3, {"x": 1, "y": e})
    with pytest.raises(ValueError):
        lvar("x", e // 2) ** 2
    # one below the bound is accepted
    inside = e - 1 if e > 0 else e + 1
    assert lvar("x", inside) * lvar("x", -inside) == LaurentPoly.const(1)
    assert lvar("x", e // 2 - (1 if e > 0 else -1)) ** 2
    # a product may leave the bound; re-encoding such a monomial raises
    big = lvar("x", inside) * lvar("x", 1 if e > 0 else -1) * lvar("y")
    for reencode in (
        lambda: big.rename({"x": "z"}),
        lambda: big.coefficients_in("y"),
    ):
        with pytest.raises(ValueError):
            reencode()


def _reference_product(a: dict, b: dict) -> dict:
    """Product of {sorted (name, exp) tuple: coeff} maps, monomials multiplied
    through plain exponent dicts."""
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            exps = dict(m1)
            for name, e in m2:
                exps[name] = exps.get(name, 0) + e
            m = tuple(sorted((n, e) for n, e in exps.items() if e))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def test_packed_products_agree_with_exponent_dicts():
    # Mixed signs in neighbouring fields make the packed sums borrow and
    # carry; exponents next to the bound reach 2**32 in a product.
    rng = random.Random(505)
    names = [f"pk{i:02d}" for i in range(40)]
    rng.shuffle(names)
    near = 2**31 - 1

    def exponent():
        kind = rng.random()
        if kind < 0.3:
            return rng.randint(-3, 3)
        if kind < 0.9:
            return rng.randint(-(10**6), 10**6)
        return rng.choice([near, -near])

    def rand_poly():
        ref = {}
        for _ in range(rng.randint(1, 5)):
            exps = {n: exponent() for n in rng.sample(names, rng.randint(0, 6))}
            m = tuple(sorted((n, e) for n, e in exps.items() if e))
            ref[m] = ref.get(m, 0) + rng.choice([-2, -1, 1, 3])
        ref = {m: c for m, c in ref.items() if c}
        p = LaurentPoly()
        for m, c in ref.items():
            p = p + LaurentPoly.monomial(c, dict(m))
        return p, ref

    def decoded(p):
        return {tuple(sorted(decode_monomial(k).items())): c for k, c in p.terms.items()}

    for _ in range(300):
        (p, pref), (q, qref) = rand_poly(), rand_poly()
        assert decoded(p) == pref
        assert decoded(p * q) == _reference_product(pref, qref)
    assert decode_monomial(encode_monomial({})) == {}


def test_rendering_and_denominator_follow_names_not_the_registry():
    # q2 is registered before q1, so its field lies below q1's and the raw
    # keys order the two monomials against their names.
    assert "fresh_q1" not in scalars._shift_of and "fresh_q2" not in scalars._shift_of
    q2 = lvar("fresh_q2")
    q1 = lvar("fresh_q1")
    den = q2 + q1 * 2
    assert str(den) == "2*fresh_q1 + fresh_q2"
    assert str(q2 * q1 * 3) == "3*fresh_q1*fresh_q2"
    f = RatFunc(LaurentPoly.const(1), den)
    assert str(f) == "(1)/(2*fresh_q1 + fresh_q2)"
    assert f.den == den

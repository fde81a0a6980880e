"""The in-place accumulation core: agreement with element sums and the
guarantee that no shared element or cache entry is ever changed."""

import random
from fractions import Fraction

from onsaw.altpres import (
    Gt,
    QuotientA,
    Wm,
    Wp,
    _to_alt_sym,
    _to_ons_sym,
    bracket_alt,
    convert_to_alt,
    convert_to_ons,
)
from onsaw.elements import ZERO, AlgElem, accumulate
from onsaw.envelope import PBW, EnvElem
from onsaw.onsager import A, G, apply_autopoly, bracket, s_n_autopoly
from onsaw.quotient import QuotientO
from onsaw import scalars
from onsaw.scalars import LaurentPoly, RatFunc, lvar

CASES = 500
KEYS = [("A", n) for n in range(-2, 3)] + [("G", m) for m in range(1, 3)]


def rand_coeff(rng):
    roll = rng.random()
    c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if roll < 0.4:
        return c
    poly = LaurentPoly.monomial(c, {"x": rng.randint(-1, 2)})
    poly = poly + lvar("y") * rng.randint(-1, 1)
    if roll < 0.7:
        return poly
    return RatFunc(poly, lvar("x") + rng.randint(1, 2))


def rand_elem(rng):
    size = rng.randint(0, 4)
    return AlgElem({rng.choice(KEYS): rand_coeff(rng) for _ in range(size)})


def shown(terms: dict) -> list:
    """Keys in insertion order with the printed coefficients."""
    return [(key, str(c)) for key, c in terms.items()]


def test_accumulate_equals_a_chain_of_element_sums():
    rng = random.Random(201)
    cancelled = 0
    for _ in range(CASES):
        chain = ZERO
        acc = {}
        for _ in range(rng.randint(1, 5)):
            x = rand_elem(rng)
            k = rng.choice([None, Fraction(0), Fraction(-1), rand_coeff(rng)])
            if rng.random() < 0.3 and chain:
                # undo everything so far: the sum must cancel to zero
                x, k = chain, Fraction(-1)
            chain = chain + (x if k is None else x * k)
            accumulate(acc, x.terms, k)
            assert all(acc.values())
            assert shown(acc) == shown(chain.terms)
        cancelled += not acc
        assert str(AlgElem(acc)) == str(chain)
    assert cancelled > 0


def test_accumulate_is_the_kernel_routine():
    assert accumulate is scalars.accumulate


def snapshot(cache: dict) -> dict:
    return {key: shown(elem.terms) for key, elem in cache.items()}


def assert_kept(cache: dict, before: dict):
    after = snapshot(cache)
    for key, value in before.items():
        assert after[key] == value, key


def test_sums_leave_shared_elements_and_caches_unchanged():
    q = QuotientO.symbolic(2)
    q.reduce(A(5) + G(4))
    x = A(5) + A(6) * lvar("t") + G(4) * 3 + G(5)
    kept = shown(x.terms)
    q.reduce(x)
    q.reduce(bracket(A(4), A(-3)))
    apply_autopoly(s_n_autopoly(q.alphas), A(3))
    assert shown(x.terms) == kept

    qa = QuotientA.symbolic(2)
    qa.reduce(Wm(3) + Gt(2))
    qa.reduce(Wm(3) + Wm(4) * 2 + Gt(2) + Gt(3) + Wp(4))
    qa.reduce(convert_to_alt(A(4) + A(-3)))
    convert_to_ons(Wm(3) + Wp(3))

    env = PBW(QuotientO.symbolic(1))
    a0, a1, g1 = ("A", 0), ("A", 1), ("G", 1)
    for word in ((a0, a1, g1), (a1, a0, g1), (a1, a0), (g1, a1)):
        env.normalize_word(word)
    before = snapshot(env._normal)
    # each of these starts its sum from a cached normal form
    env.normalize_word((a1, g1, a0))
    env.normalize_word((g1, a1, a0))
    env.multiply(EnvElem({(a1,): Fraction(1)}), EnvElem({(a0,): lvar("t")}))
    env.normalize(EnvElem({(g1, a1): Fraction(1), (a1, a0): Fraction(2)}))
    assert_kept(env._normal, before)

    to_alt = {s: _to_alt_sym(s) for s in (("A", 4), ("A", -3), ("G", 3))}
    to_ons = {s: _to_ons_sym(s) for s in (("Wm", 3), ("Wp", 3), ("Gt", 2))}
    a4, a3, g3 = to_alt.values()
    wm3, wp3, gt2 = to_ons.values()
    convert_to_alt(A(4) + A(-3) * lvar("t") + G(3))
    convert_to_ons(Wm(3) - Wp(3) + Gt(2) * 2)
    a4 + a3 - g3
    (a4 * lvar("t")).scale(Fraction(1, 3))
    bracket_alt(a4, bracket_alt(a3, g3))
    qa.reduce(a4 + g3)
    wm3 + wp3 - gt2 * 5
    bracket(wm3, gt2)
    QuotientO.symbolic(2).reduce(wp3 + gt2)
    for sym, image in to_alt.items():
        assert image == _to_alt_sym.__wrapped__(sym), sym
    for sym, image in to_ons.items():
        assert image == _to_ons_sym.__wrapped__(sym), sym

    ZERO + A(1)
    ZERO - G(2)
    bracket(G(1), G(2))
    assert ZERO.terms == {}

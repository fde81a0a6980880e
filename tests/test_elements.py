"""The in-place accumulation core: agreement with element sums, sums that
read themselves, and the guarantee that no shared element, cache entry or
polynomial is ever changed."""

import random
import re
from fractions import Fraction
from pathlib import Path

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
from onsaw.elements import ZERO, AlgElem, SparseCombination, accumulate
from onsaw.envelope import PBW, EnvElem
from onsaw.onsager import A, G, apply_autopoly, bracket, s_n_autopoly
from onsaw.quotient import QuotientO
from onsaw import scalars
from onsaw.scalars import P_ONE, LaurentPoly, lvar
from onsaw.yangbaxter import build_B_alt, build_B_onsager, verify_frt

CASES = 500
KEYS = [("A", n) for n in range(-2, 3)] + [("G", m) for m in range(1, 3)]


def rand_coeff(rng):
    roll = rng.random()
    c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if roll < 0.4:
        return c
    poly = LaurentPoly.monomial(c, {"x": rng.randint(-1, 2)})
    return poly + lvar("y") * rng.randint(-1, 1)


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


def test_accumulate_reads_a_sum_it_is_updating_as_it_was():
    """k, or the added value at its own key, is the very sum being updated."""
    rng = random.Random(202)
    aliased = 0
    for _ in range(CASES):
        chain = ZERO
        acc = {}
        for _ in range(rng.randint(2, 6)):
            polys = [s for s, c in acc.items() if isinstance(c, LaurentPoly)]
            if not polys or rng.random() < 0.4:
                x = rand_elem(rng)
                k = rng.choice([None, rand_coeff(rng), lvar("x") - 2])
                chain = chain + (x if k is None else x * k)
                accumulate(acc, x.terms, k)
                continue
            s = rng.choice(polys)
            aliased += type(acc[s]) is scalars._Sum
            # s comes first, so the other keys are summed after it changed
            terms = {s: rand_coeff(rng)}
            terms.update((t, c) for t, c in rand_elem(rng).terms.items() if t != s)
            if rng.random() < 0.5:
                k = chain.terms[s]
                accumulate(acc, terms, acc[s])
            else:
                k = rng.choice([None, Fraction(-1), Fraction(2, 3), lvar("y")])
                terms[s] = chain.terms[s]
                accumulate(acc, {**terms, s: acc[s]}, k)
            x = AlgElem(terms)
            chain = chain + (x if k is None else x * k)
            assert all(acc.values())
            assert shown(acc) == shown(chain.terms)
        assert str(AlgElem(acc)) == str(chain)
    assert aliased > CASES // 2


def test_accumulate_is_the_kernel_routine():
    assert accumulate is scalars.accumulate


def snapshot(cache: dict) -> dict:
    return {key: shown(elem.terms) for key, elem in cache.items()}


def assert_kept(cache: dict, before: dict):
    after = snapshot(cache)
    for key, value in before.items():
        assert after[key] == value, key


def term_maps(x) -> list:
    """Copies of the term maps of x: an element, a polynomial or a rational."""
    if isinstance(x, LaurentPoly):
        return [dict(x.terms)]
    if not hasattr(x, "terms"):
        return [x]
    return [(key, term_maps(c)) for key, c in x.terms.items()]


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

    # verify_frt sums polynomial coefficients in place; none of its inputs,
    # nor the quotient's relations or the shared constants, may change
    t, s = lvar("t"), lvar("s")
    quotients = (
        (QuotientO.symbolic(3), build_B_onsager),
        (QuotientA.symbolic(2), build_B_alt),
    )
    for q, build in quotients:
        B = build(q)
        shared = [e for row in B.entries for e in row] + [B.den, P_ONE, ZERO]
        shared += list(q.alphas if isinstance(q, QuotientO) else q.betas)
        if isinstance(q, QuotientO):
            shared += [q.relation("A", p) for p in range(-4, 5)]
            # A(1), A(2), G(1) lie in the window: reduce seeds its sum with them
            x = A(6) * t + A(-4) * s + A(1) * (t + 1) + A(2) * s + G(1) * t + G(5)
        else:
            x = Wm(4) * t + Wp(3) * s + Wm(1) * (t + 1) + Gt(1) * s + Gt(3)
        shared.append(x)
        before = [term_maps(y) for y in shared]
        reduced = q.reduce(x)
        assert term_maps(x) == before[-1]
        assert reduced != x
        assert verify_frt(B).status == "pass"
        q.reduce(bracket(A(4), A(-3)) * t if isinstance(q, QuotientO) else Wm(3) * t)
        assert [term_maps(y) for y in shared] == before


def test_equality_compares_coefficient_values_across_their_types():
    """An int, a Fraction and a constant LaurentPoly of one value are equal
    coefficients, in either operand order, for both kinds of combination."""
    values = (2, Fraction(2), LaurentPoly.const(2))
    for make in (AlgElem, EnvElem):
        for key in (("A", 1), (("A", 1), ("G", 1))):
            for c in values:
                for d in values:
                    assert make({key: c}) == make({key: d})
                    assert not make({key: c}) != make({key: d})
                assert make({key: c}) != make({key: 3})
                assert make({key: c}) != make({key: c, ("G", 2): 1})


def test_an_algebra_element_never_equals_an_enveloping_one():
    terms = {("A", 1): 1}
    assert AlgElem(terms) != EnvElem(terms)
    assert EnvElem(terms) != AlgElem(terms)
    assert AlgElem() != EnvElem()


def test_repr_wraps_the_str_of_each_kind_of_combination():
    """The one `repr` wraps `str` in the class name; a bare combination, as
    `reps.rep_apply` builds to freeze its sums, shows its term dict."""
    assert repr(AlgElem({("A", 1): 2})) == "AlgElem(2*A(1))"
    assert repr(EnvElem({(("A", 1),): 2})) == "EnvElem((2)*A(1))"
    assert repr(SparseCombination({(0, 1): 3})) == "SparseCombination({(0, 1): 3})"


def test_only_scalars_names_the_in_place_sum():
    """Other modules end `accumulate`'s in-place sums through `frozen`."""
    naming = [
        path.name
        for path in sorted(Path(scalars.__file__).parent.glob("*.py"))
        if re.search(r"\b_Sum\b", path.read_text(encoding="utf-8"))
    ]
    assert naming == ["scalars.py"]


def test_every_combination_shares_one_add():
    assert AlgElem.__add__ is SparseCombination.__add__
    assert "__add__" not in vars(EnvElem)
    x, y = EnvElem.from_alg(A(0)), EnvElem.from_alg(A(1) * lvar("x"))
    assert type(x + y) is EnvElem and (x + y) - y == x
    assert x.__add__(A(0)) is NotImplemented and A(0).__add__(x) is NotImplemented

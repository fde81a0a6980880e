"""Randomized property suites over the exact kernel and both presentations.

Each suite draws at least 500 seeded cases, so failures are reproducible.
"""

import random
from fractions import Fraction

from onsaw.altpres import (
    QuotientA,
    alt_auto,
    alt_sym_bracket,
    beta_from_alpha,
    bracket_alt,
    convert_to_alt,
)
from onsaw.elements import AlgElem
from onsaw.envelope import EnvElem, PBW
from onsaw.matrices import Matrix, commutator, embed_leg
from onsaw.onsager import PHI, TAU0, TAU1, apply_auto, bracket, sym_bracket
from onsaw.quotient import QuotientO
from onsaw.scalars import LaurentPoly, RatFunc, ratfunc_equal

CASES = 500


def rand_fraction(rng, span=30):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_poly(rng, nvars=2, nterms=4, span=6):
    names = ["x", "y", "z"][:nvars]
    p = LaurentPoly()
    for _ in range(rng.randint(0, nterms)):
        exps = {n: rng.randint(-3, 3) for n in rng.sample(names, rng.randint(0, nvars))}
        p = p + LaurentPoly.monomial(rand_fraction(rng), exps)
    return p


def rand_ratfunc(rng):
    den = LaurentPoly()
    while not den:
        den = rand_poly(rng)
    return RatFunc(rand_poly(rng), den)


def rand_onsager_sym(rng, span):
    if rng.random() < 0.6:
        return ("A", rng.randint(-span, span))
    return ("G", rng.randint(1, span))


def rand_alt_sym(rng, span):
    kind = rng.choice(["Wm", "Wp", "Gt"])
    return (kind, rng.randint(0, span))


def rand_elem(rng, sym_gen, span, nterms=3):
    out = AlgElem()
    for _ in range(rng.randint(1, nterms)):
        out = out + AlgElem.basis(sym_gen(rng, span)) * rand_fraction(rng)
    return out


def test_scalar_ring_axioms():
    rng = random.Random(101)
    for _ in range(CASES):
        a, b, c = (rand_fraction(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        assert (a * b) * c == a * (b * c)


def test_laurent_ring_axioms():
    rng = random.Random(102)
    for _ in range(CASES):
        p, q, r = (rand_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)
        assert not (p + (-p))
        assert p * q == q * p
        c = rand_fraction(rng)
        assert p - q == p + (-q)
        assert c - p == c + (-p)  # LaurentPoly.__rsub__
        assert 2 - p == 2 + (-p)


def test_poly_eval_is_a_ring_homomorphism():
    rng = random.Random(103)
    count = 0
    while count < CASES:
        p, q = rand_poly(rng), rand_poly(rng)
        bindings = {
            n: Fraction(rng.randint(1, 9), rng.randint(1, 9))
            for n in ("x", "y")
        }
        assert (p * q).evaluate(bindings) == p.evaluate(bindings) * q.evaluate(
            bindings
        )
        assert (p + q).evaluate(bindings) == p.evaluate(bindings) + q.evaluate(
            bindings
        )
        count += 1


def test_ratfunc_equality_is_an_equivalence():
    rng = random.Random(104)
    for _ in range(CASES):
        f = rand_ratfunc(rng)
        assert ratfunc_equal(f, f)
        scale = LaurentPoly()
        while not scale:
            scale = rand_poly(rng)
        g = RatFunc(f.num * scale, f.den * scale)
        assert ratfunc_equal(f, g)
        assert ratfunc_equal(g, f)
        h = RatFunc(g.num * scale, g.den * scale)
        assert ratfunc_equal(g, h)
        assert ratfunc_equal(f, h)


def test_bracket_antisymmetry():
    rng = random.Random(105)
    for _ in range(CASES):
        x = rand_elem(rng, rand_onsager_sym, 12)
        y = rand_elem(rng, rand_onsager_sym, 12)
        assert (bracket(x, y) + bracket(y, x)).is_zero()
        assert x - y == x + (-y)


def test_jacobi_identity_onsager():
    rng = random.Random(106)
    for _ in range(CASES):
        x, y, z = (
            AlgElem.basis(rand_onsager_sym(rng, 8)) for _ in range(3)
        )
        total = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        assert total.is_zero()


def test_jacobi_identity_alt():
    rng = random.Random(107)
    for _ in range(CASES):
        x, y, z = (AlgElem.basis(rand_alt_sym(rng, 6)) for _ in range(3))
        total = (
            bracket_alt(x, bracket_alt(y, z))
            + bracket_alt(y, bracket_alt(z, x))
            + bracket_alt(z, bracket_alt(x, y))
        )
        assert total.is_zero()


def test_automorphisms_respect_the_bracket():
    rng = random.Random(108)
    words = [(PHI,), (TAU0,), (TAU1,)]
    for _ in range(CASES):
        word = rng.choice(words)
        x = AlgElem.basis(rand_onsager_sym(rng, 8))
        y = AlgElem.basis(rand_onsager_sym(rng, 8))
        lhs = apply_auto(word, bracket(x, y))
        rhs = bracket(apply_auto(word, x), apply_auto(word, y))
        assert lhs == rhs


def test_alt_automorphisms_respect_the_bracket():
    rng = random.Random(109)
    words = [(PHI,), (TAU0,), (TAU1,)]
    for _ in range(CASES):
        word = rng.choice(words)
        x = AlgElem.basis(rand_alt_sym(rng, 6))
        y = AlgElem.basis(rand_alt_sym(rng, 6))
        assert alt_auto(word, bracket_alt(x, y)) == bracket_alt(
            alt_auto(word, x), alt_auto(word, y)
        )


def test_involutions():
    syms = [("A", n) for n in range(-12, 13)] + [("G", m) for m in range(1, 13)]
    for sym in syms:
        x = AlgElem.basis(sym)
        for word in ((PHI, PHI), (TAU0, TAU0), (TAU1, TAU1)):
            assert apply_auto(word, x) == x
        assert apply_auto((TAU0, PHI, TAU1, PHI), x) == x
        assert apply_auto((TAU1, PHI, TAU0, PHI), x) == x


def test_reduce_idempotent_linear_and_ideal_compatible():
    rng = random.Random(110)
    families = (
        ([QuotientO.symbolic(N) for N in (1, 2, 3)], rand_onsager_sym, bracket),
        ([QuotientA.symbolic(N) for N in (1, 2, 3)], rand_alt_sym, bracket_alt),
    )
    for quotients, sym_gen, bracket_fn in families:
        for _ in range(CASES):
            q = rng.choice(quotients)
            x = rand_elem(rng, sym_gen, 8)
            y = rand_elem(rng, sym_gen, 8)
            rx = q.reduce(x)
            assert set(rx.terms) <= set(q.basis_syms())
            assert q.reduce(rx) == rx
            c = rand_fraction(rng)
            assert q.reduce(x * c + y) == rx * c + q.reduce(y)
            ry = q.reduce(y)
            assert q.reduce(bracket_fn(x, y)) == q.reduce(bracket_fn(rx, ry))


def test_embedded_operators_on_disjoint_legs_commute():
    rng = random.Random(111)
    for _ in range(60):
        m1 = Matrix(
            [[rand_fraction(rng, 5) for _ in range(4)] for _ in range(4)]
        )
        m2 = Matrix(
            [[rand_fraction(rng, 5) for _ in range(4)] for _ in range(4)]
        )
        a = embed_leg(m1, (1, 2), 4)
        b = embed_leg(m2, (3, 4), 4)
        assert commutator(a, b).is_zero()
    # a one-leg operator against a two-leg operator on the other two legs
    for _ in range(CASES):
        m1 = Matrix(
            [[rand_fraction(rng, 5) for _ in range(2)] for _ in range(2)]
        )
        m2 = Matrix(
            [[rand_fraction(rng, 5) for _ in range(4)] for _ in range(4)]
        )
        legs = [1, 2, 3]
        rng.shuffle(legs)
        a = embed_leg(m1, (legs[0],), 3)
        b = embed_leg(m2, (legs[1], legs[2]), 3)
        assert commutator(a, b).is_zero()


def test_pbw_confluence_randomized():
    rng = random.Random(112)
    quotients = {N: QuotientO.symbolic(N) for N in (1, 2)}
    strategies = {
        N: (PBW(q, "first"), PBW(q, "last")) for N, q in quotients.items()
    }
    for _ in range(CASES):
        N = rng.choice([1, 2])
        q = quotients[N]
        syms = q.basis_syms()
        word = tuple(rng.choice(syms) for _ in range(rng.randint(2, 5)))
        first, last = strategies[N]
        assert first.normalize_word(word) == last.normalize_word(word)


def test_pbw_commutator_matches_reduced_bracket_random_pairs():
    rng = random.Random(113)
    q = QuotientO.symbolic(2)
    env = PBW(q)
    syms = q.basis_syms()
    for _ in range(CASES):
        s, t = rng.choice(syms), rng.choice(syms)
        x, y = AlgElem.basis(s), AlgElem.basis(t)
        lhs = env.commutator(EnvElem.from_alg(x), EnvElem.from_alg(y))
        assert lhs == EnvElem.from_alg(q.bracket_reduced(x, y))
        other = EnvElem.from_alg(x * rand_fraction(rng)) + EnvElem.unit(
            rand_fraction(rng)
        )
        assert lhs - other == lhs + (-other)


def test_conversion_commutes_with_reduction_random_elements():
    rng = random.Random(114)
    targets = []
    for N in (1, 2, 3, 4):
        q = QuotientO.symbolic(N)
        targets.append((q, beta_from_alpha(q)))
    for _ in range(CASES):
        q, qa = rng.choice(targets)
        x = rand_elem(rng, rand_onsager_sym, 7)
        left = qa.reduce(convert_to_alt(x))
        right = qa.reduce(convert_to_alt(q.reduce(x)))
        assert left == right


def test_structure_constant_tables_are_antisymmetric():
    rng = random.Random(115)
    for _ in range(CASES):
        s = rand_onsager_sym(rng, 10)
        t = rand_onsager_sym(rng, 10)
        assert (sym_bracket(s, t) + sym_bracket(t, s)).is_zero()
        a = rand_alt_sym(rng, 8)
        b = rand_alt_sym(rng, 8)
        assert (alt_sym_bracket(a, b) + alt_sym_bracket(b, a)).is_zero()

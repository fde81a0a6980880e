"""The Onsager algebra on the basis {A_n, G_m} with its three automorphisms.

Structure constants:

    [A_n, A_m] = 4 G_{n-m}
    [G_n, A_m] = 2 A_{n+m} - 2 A_{m-n}
    [G_n, G_m] = 0

G symbols are stored with positive index only; G_0 = 0 and G_{-m} = -G_m are
applied at element construction, so equality of elements is a plain map
comparison.

The automorphisms act on the basis by

    Phi:  A_n -> A_{1-n},  G_m -> -G_m
    tau0: A_n -> A_{-n},   G_m -> -G_m
    tau1: A_n -> A_{2-n},  G_m -> -G_m

These closed forms are the unique automorphism extensions of the defining
cubic formulas on A_0, A_1; the defining formulas are kept as test oracles.
"""

from functools import partial

from .elements import ZERO, AlgElem, accumulate, linear_extension
from .reports import Report
from .scalars import accumulate_product


def A(n: int, coeff=1) -> AlgElem:
    return AlgElem({("A", int(n)): coeff})


def G(m: int, coeff=1) -> AlgElem:
    """G generator with normalization G_0 = 0, G_{-m} = -G_m."""
    m = int(m)
    if m == 0:
        return ZERO
    if m < 0:
        return AlgElem({("G", -m): -coeff})
    return AlgElem({("G", m): coeff})


def sym_bracket(s: tuple, t: tuple) -> AlgElem:
    """Bracket of two basis symbols, G-normalized."""
    k1, i = s
    k2, j = t
    if k1 == "A" and k2 == "A":
        return G(i - j, 4)
    if k1 == "G" and k2 == "A":
        return AlgElem({("A", i + j): 2, ("A", j - i): -2})
    if k1 == "A" and k2 == "G":
        return AlgElem({("A", j + i): -2, ("A", i - j): 2})
    if k1 == "G" and k2 == "G":
        return ZERO
    raise TypeError(f"not Onsager basis symbols: {s}, {t}")


def bracket(x: AlgElem, y: AlgElem, sym_bracket=sym_bracket) -> AlgElem:
    """Bilinear extension of the structure constants.

    Each pair of terms adds its symbol bracket scaled by cx*cy through
    `accumulate_product`, so a pair of polynomial coefficients is multiplied
    into the sum in place and cx*cy is never built.  `sym_bracket` is
    injectable so that verification suites can run negative controls against
    deliberately corrupted structure constants.
    """
    out = {}
    for s, cx in x.terms.items():
        for t, cy in y.terms.items():
            b = sym_bracket(s, t)
            if b:
                accumulate_product(out, b.terms, cx, cy)
    return AlgElem(out)


# --- automorphisms ----------------------------------------------------------

PHI = "phi"
TAU0 = "tau0"
TAU1 = "tau1"

_A_ACTION = {PHI: lambda n: 1 - n, TAU0: lambda n: -n, TAU1: lambda n: 2 - n}


def apply_auto_sym(name: str, sym: tuple) -> AlgElem:
    kind, idx = sym
    if kind == "A":
        return A(_A_ACTION[name](idx))
    if kind == "G":
        return G(idx, -1)
    raise TypeError(f"not an Onsager basis symbol: {sym}")


def apply_auto(word, x: AlgElem, apply_sym=apply_auto_sym) -> AlgElem:
    """Apply a word of automorphisms, leftmost applied last."""
    for name in reversed(tuple(word)):
        x = linear_extension(partial(apply_sym, name), x)
    return x


def shift_word(n: int) -> tuple:
    """The word for (tau1 Phi)^n; negative n uses (tau0 Phi) = (tau1 Phi)^-1."""
    if n >= 0:
        return (TAU1, PHI) * n
    return (TAU0, PHI) * (-n)


def apply_autopoly(autopoly, x: AlgElem, apply_sym=apply_auto_sym) -> AlgElem:
    """Apply a formal combination [(coeff, word), ...] of automorphism words."""
    out = {}
    for coeff, word in autopoly:
        accumulate(out, apply_auto(word, x, apply_sym).terms, coeff)
    return AlgElem(out)


def s_n_autopoly(alphas) -> list:
    """The annihilating operator sum(alpha_|n| (tau1 Phi)^n, n = -N..N)."""
    N = len(alphas) - 1
    return [(alphas[abs(n)], shift_word(n)) for n in range(-N, N + 1)]


def verify_dolan_grady(bracket_fn=bracket, gens=(A(0), A(1)), prefix="dg") -> Report:
    """Check both Dolan-Grady relations on the generator pair exactly; each
    must give residual 0.  Check ids are `<prefix>:0110` and `<prefix>:1001`."""
    report = Report()
    a0, a1 = gens
    for name, x, y in (("0110", a0, a1), ("1001", a1, a0)):
        nested = bracket_fn(x, bracket_fn(x, bracket_fn(x, y)))
        report.add(f"{prefix}:{name}", nested - bracket_fn(x, y) * 16)
    return report

"""The alternative presentation of the Onsager algebra and its quotients.

Generators are indexed Wm(k) (the lowering family), Wp(k) (the raising
family) and Gt(k), all with k >= 0, subject to

    [Wm(l), Wp(k)] = Gt(k+l)
    [Gt(k), Wm(l)] = 16 Wm(k+l+1) - 16 Wp(k+l)
    [Wp(l), Gt(k)] = 16 Wp(k+l+1) - 16 Wm(k+l)
    [Wm, Wm] = [Wp, Wp] = [Gt, Gt] = 0

The explicit change of basis to/from the {A_n, G_m} presentation is the pair
of binomial formulas below; the two maps are mutually inverse and intertwine
the brackets (verify_iso checks this mechanically on bounded index ranges).

Finite quotients are cut out by a coefficient vector (beta_0, ..., beta_N):
every family index >= N rewrites onto indices 0..N-1 through the single
upward recurrence X(m) = -(1/beta_N) sum_k beta_k X(k + m - N).  beta_N is a
nonzero rational or a monomial, so 1/beta_N is one too and reduction stays
in the Laurent ring.
"""

from fractions import Fraction
from math import comb, factorial

from .elements import ZERO, AlgElem, accumulate, linear_extension
from .onsager import PHI, TAU0, TAU1, A, G, apply_auto, apply_autopoly, bracket
from .quotient import QuotientO
from .reports import Report
from .scalars import coeff_div, lvar, unit_inverse


def Wm(k: int, coeff=1) -> AlgElem:
    if k < 0:
        raise ValueError("Wm index must be >= 0")
    return AlgElem({("Wm", int(k)): coeff})


def Wp(k: int, coeff=1) -> AlgElem:
    if k < 0:
        raise ValueError("Wp index must be >= 0")
    return AlgElem({("Wp", int(k)): coeff})


def Gt(k: int, coeff=1) -> AlgElem:
    if k < 0:
        raise ValueError("Gt index must be >= 0")
    return AlgElem({("Gt", int(k)): coeff})


def alt_sym_bracket(s: tuple, t: tuple) -> AlgElem:
    k1, i = s
    k2, j = t
    if k1 == k2:
        return ZERO
    if k1 == "Wm" and k2 == "Wp":
        return Gt(i + j)
    if k1 == "Wp" and k2 == "Wm":
        return Gt(i + j, -1)
    if k1 == "Gt" and k2 == "Wm":
        return AlgElem({("Wm", i + j + 1): 16, ("Wp", i + j): -16})
    if k1 == "Wm" and k2 == "Gt":
        return AlgElem({("Wm", i + j + 1): -16, ("Wp", i + j): 16})
    if k1 == "Wp" and k2 == "Gt":
        return AlgElem({("Wp", i + j + 1): 16, ("Wm", i + j): -16})
    if k1 == "Gt" and k2 == "Wp":
        return AlgElem({("Wp", i + j + 1): -16, ("Wm", i + j): 16})
    raise TypeError(f"not alternative-presentation symbols: {s}, {t}")


def bracket_alt(x: AlgElem, y: AlgElem, sym_bracket=alt_sym_bracket) -> AlgElem:
    return bracket(x, y, sym_bracket=sym_bracket)


# --- automorphisms ------------------------------------------------------------


def alt_auto_sym(name: str, sym: tuple) -> AlgElem:
    kind, k = sym
    if kind == "Gt":
        return Gt(k, -1)
    if name == PHI:
        return Wp(k) if kind == "Wm" else Wm(k)
    if name == TAU0:
        if kind == "Wm":
            return Wm(k)
        return Wm(k + 1, 2) - Wp(k)
    if name == TAU1:
        if kind == "Wp":
            return Wp(k)
        return Wp(k + 1, 2) - Wm(k)
    raise ValueError(f"unknown automorphism {name}")


def alt_auto(word, x: AlgElem) -> AlgElem:
    return apply_auto(word, x, apply_sym=alt_auto_sym)


AVERAGED_SHIFT = (
    (Fraction(1, 2), (TAU0, PHI)),
    (Fraction(1, 2), (TAU1, PHI)),
)


def averaged_shift(x: AlgElem, power: int = 1) -> AlgElem:
    """Apply ((tau0 Phi + tau1 Phi)/2)^power in the alternative presentation."""
    for _ in range(power):
        x = apply_autopoly(AVERAGED_SHIFT, x, apply_sym=alt_auto_sym)
    return x


# --- change of basis ----------------------------------------------------------


def c_coeff(p: int, k: int) -> int:
    """(-1)^p 2^(k-2p) (k-p)! / (p! (k-2p)!), defined for 0 <= 2p <= k."""
    if p < 0 or 2 * p > k:
        raise ValueError(f"c_coeff needs 0 <= 2p <= k, got p={p}, k={k}")
    value = comb(k - p, p) << (k - 2 * p)
    return -value if p % 2 else value


def _w_paper(n: int, coeff) -> AlgElem:
    """W with the paper-style integer label: n <= 0 is Wm(-n), n >= 1 is Wp(n-1)."""
    if n <= 0:
        return Wm(-n, coeff)
    return Wp(n - 1, coeff)


def _to_alt_sym(sym: tuple) -> AlgElem:
    kind, n = sym
    if kind == "A" and n >= 1:
        k = n - 1
        parts = [_w_paper(k - 2 * p + 1, c_coeff(p, k)) for p in range(k // 2 + 1)]
        parts += [
            _w_paper(-k + 2 * p + 1, -c_coeff(p, k - 1))
            for p in range((k - 1) // 2 + 1)
        ]
    elif kind == "A":
        k = -n
        parts = [_w_paper(2 * p - k, c_coeff(p, k)) for p in range(k // 2 + 1)]
        parts += [
            _w_paper(k - 2 * p, -c_coeff(p, k - 1))
            for p in range((k - 1) // 2 + 1)
        ]
    elif kind == "G":
        k = n - 1
        parts = [
            Gt(k - 2 * p, Fraction(-c_coeff(p, k), 4))
            for p in range(k // 2 + 1)
        ]
    else:
        raise TypeError(f"not an Onsager basis symbol: {sym}")
    return _sum(parts)


def _to_ons_sym(sym: tuple) -> AlgElem:
    kind, k = sym
    if kind == "Wm":
        scale = Fraction(1, 2**k)
        parts = [A(k - 2 * p, comb(k, p) * scale) for p in range(k + 1)]
    elif kind == "Wp":
        scale = Fraction(1, 2**k)
        parts = [A(k + 1 - 2 * p, comb(k, p) * scale) for p in range(k + 1)]
    elif kind == "Gt":
        scale = Fraction(2**2, 2**k)
        parts = [G(2 * p - k - 1, comb(k, p) * scale) for p in range(k + 1)]
    else:
        raise TypeError(f"not an alternative-presentation symbol: {sym}")
    return _sum(parts)


def _sum(parts) -> AlgElem:
    out = {}
    for part in parts:
        accumulate(out, part.terms, None)
    return AlgElem(out)


def convert_to_alt(x: AlgElem) -> AlgElem:
    return linear_extension(_to_alt_sym, x)


def convert_to_ons(y: AlgElem) -> AlgElem:
    return linear_extension(_to_ons_sym, y)


# --- quotients ------------------------------------------------------------------


class QuotientA:
    """N and the coefficient vector (beta_0, ..., beta_N); beta_N is a nonzero
    rational or a monomial (a unit of the Laurent ring)."""

    def __init__(self, betas):
        betas = tuple(Fraction(b) if isinstance(b, int) else b for b in betas)
        if len(betas) < 2:
            raise ValueError("need N >= 1, i.e. at least (beta_0, beta_1)")
        if not betas[-1]:
            raise ValueError("leading coefficient beta_N must be nonzero")
        if unit_inverse(betas[-1]) is None:
            raise ValueError(
                "leading coefficient beta_N must be a nonzero rational or a monomial"
            )
        self.betas = betas
        self.N = len(betas) - 1
        self._monic = tuple(coeff_div(-b, betas[-1]) for b in betas[:-1])
        self._reduced: dict = {}

    @classmethod
    def symbolic(cls, N: int) -> "QuotientA":
        return cls(tuple(lvar(f"beta{i}") for i in range(N + 1)))

    def basis_syms(self) -> list:
        return (
            [("Wm", k) for k in range(self.N)]
            + [("Wp", k) for k in range(self.N)]
            + [("Gt", k) for k in range(self.N)]
        )

    def reduce(self, x: AlgElem) -> AlgElem:
        return linear_extension(self._reduce_sym, x)

    def _reduce_sym(self, sym) -> AlgElem:
        """X(m) = sum_k monic[k] X(k + m - N), monic[k] = -beta_k / beta_N."""
        cached = self._reduced.get(sym)
        if cached is not None:
            return cached
        kind, m = sym
        if m < self.N:
            out = AlgElem.basis(sym)
        else:
            p = m - self.N
            out = self.reduce(
                AlgElem({(kind, k + p): c for k, c in enumerate(self._monic)})
            )
        self._reduced[sym] = out
        return out

    def bracket_reduced(self, x: AlgElem, y: AlgElem) -> AlgElem:
        return self.reduce(bracket_alt(x, y))

    def __repr__(self):
        return f"QuotientA(N={self.N})"


def beta_from_alpha(q: QuotientO) -> QuotientA:
    """Betas solved from the converted quotient relation.

    The relation sum(alpha_n A_{-n}) converts to a combination of Wm symbols
    alone; its coefficients are the betas.  The companion Wp relation is
    checked to carry the same vector.
    """
    relation_m = {}
    relation_p = {}
    for n in range(-q.N, q.N + 1):
        accumulate(relation_m, A(-n).terms, q.alpha(n))
        accumulate(relation_p, A(n + 1).terms, q.alpha(n))
    alt_m = convert_to_alt(AlgElem(relation_m))
    alt_p = convert_to_alt(AlgElem(relation_p))
    betas = [alt_m.coeff(("Wm", k)) for k in range(q.N + 1)]
    expect_m = {}
    expect_p = {}
    for k, b in enumerate(betas):
        accumulate(expect_m, Wm(k).terms, b)
        accumulate(expect_p, Wp(k).terms, b)
    expect_m = AlgElem(expect_m)
    expect_p = AlgElem(expect_p)
    if alt_m != expect_m or alt_p != expect_p:
        raise ValueError(
            "converted quotient relations are not a pure beta combination"
        )
    if not betas[-1]:
        raise ValueError("degenerate quotient: leading beta vanishes")
    return QuotientA(betas)


def beta_formula(q: QuotientO, k: int):
    """Closed-form beta_k in the alphas.

    The k = 0 sum starts with a term whose factorial argument is (-1)!; that
    term is fixed by the linear-solve oracle to be alpha_0 exactly, and the
    remaining terms follow the literal formula.
    """
    N = q.N
    if k % 2 == 0:
        half = k // 2
        total = Fraction(0)
        for p in range(half, N // 2 + 1):
            if p == 0 and half == 0:
                total = total + q.alpha(0)
                continue
            num = 2 * p * factorial(half + p - 1)
            c = Fraction((-1) ** (p - half) * num, factorial(p - half))
            total = total + q.alpha(2 * p) * c
        return total * Fraction(2**k, factorial(k))
    half = (k - 1) // 2
    total = Fraction(0)
    for p in range(half + 1, (N + 1) // 2 + 1):
        num = (2 * p - 1) * factorial(half + p - 1)
        c = Fraction((-1) ** (p - half - 1) * num, factorial(p - half - 1))
        total = total + q.alpha(2 * p - 1) * c
    return total * Fraction(2**k, factorial(k))


def beta_alpha_report(q: QuotientO) -> Report:
    """Oracle betas against the closed formulas, term conventions as above."""
    report = Report("beta-alpha", params={"N": q.N})
    qa = beta_from_alpha(q)
    for k in range(q.N + 1):
        formula = beta_formula(q, k)
        oracle = qa.betas[k]
        report.add_discrepancy(
            f"beta-alpha:N{q.N}:k{k}",
            formula == oracle,
            f"formula {formula} but oracle {oracle}",
        )
    return report


def reduction_diagram_report(q: QuotientO, kmax: int | None = None) -> Report:
    """convert_to_alt then reduce_alt equals reduce then convert_to_alt."""
    qa = beta_from_alpha(q)
    if kmax is None:
        kmax = q.N + 4
    report = Report("beta-alpha-diagram", params={"N": q.N, "kmax": kmax})
    syms = [("A", n) for n in range(-kmax, kmax + 1)] + [
        ("G", m) for m in range(1, kmax + 1)
    ]
    for sym in syms:
        x = AlgElem.basis(sym)
        left = qa.reduce(convert_to_alt(x))
        right = qa.reduce(convert_to_alt(q.reduce(x)))
        report.add(
            f"diagram:N{q.N}:{sym[0]}{sym[1]}", left == right, left - right
        )
    return report


# --- verification sweeps ---------------------------------------------------------


def verify_iso(kmax_bracket: int = 8, kmax_round: int = 20) -> Report:
    """Round trips, bracket intertwining, and the triangular change of basis."""
    report = Report(
        "iso", params={"kmax_bracket": kmax_bracket, "kmax_round": kmax_round}
    )
    ons_syms = [("A", n) for n in range(-kmax_round, kmax_round + 1)] + [
        ("G", m) for m in range(1, kmax_round + 1)
    ]
    bad = []
    for sym in ons_syms:
        x = AlgElem.basis(sym)
        if convert_to_ons(convert_to_alt(x)) != x:
            bad.append(sym)
    report.add("iso:round-trip-onsager", not bad, f"failing symbols {bad}")
    alt_syms = [
        (kind, k)
        for kind in ("Wm", "Wp", "Gt")
        for k in range(kmax_round + 1)
    ]
    bad = []
    for sym in alt_syms:
        y = AlgElem.basis(sym)
        if convert_to_alt(convert_to_ons(y)) != y:
            bad.append(sym)
    report.add("iso:round-trip-alt", not bad, f"failing symbols {bad}")

    pairs_syms = [("A", n) for n in range(-kmax_bracket, kmax_bracket + 1)] + [
        ("G", m) for m in range(1, kmax_bracket + 1)
    ]
    bad = []
    for s in pairs_syms:
        for t in pairs_syms:
            x, y = AlgElem.basis(s), AlgElem.basis(t)
            lhs = convert_to_alt(bracket(x, y))
            rhs = bracket_alt(convert_to_alt(x), convert_to_alt(y))
            if lhs != rhs:
                bad.append((s, t))
    report.add("iso:bracket-intertwine", not bad, f"failing pairs {bad[:4]}")
    report.extend(triangular_basis_report(12))
    return report


def triangular_basis_report(kmax: int) -> Report:
    """The three sector-by-sector changes of basis are triangular with nonzero
    diagonal: Wm(j) against {A_0, A_i + A_{-i}}, Wp(j) against
    {A_1, A_{1+i} + A_{1-i}}, Gt(j) against {G_{j+1}}."""
    report = Report("triangular", params={"kmax": kmax})

    def check(kind, paired):
        for j in range(kmax + 1):
            x = _to_ons_sym((kind, j))
            for i, (hi, lo) in enumerate(paired):
                chi = x.coeff(hi)
                if lo is not None and x.coeff(lo) != chi:
                    return False, f"{kind}({j}) not symmetric at {hi}/{lo}"
                if i > j and chi:
                    return False, f"{kind}({j}) has coefficient above the diagonal at {hi}"
                if i == j and not chi:
                    return False, f"{kind}({j}) has zero diagonal coefficient"
        return True, ""

    pairs_m = [(("A", 0), None)] + [
        (("A", i), ("A", -i)) for i in range(1, kmax + 2)
    ]
    ok, why = check("Wm", pairs_m)
    report.add("triangular:Wm", ok, why)
    pairs_p = [(("A", 1), None)] + [
        (("A", 1 + i), ("A", 1 - i)) for i in range(1, kmax + 2)
    ]
    ok, why = check("Wp", pairs_p)
    report.add("triangular:Wp", ok, why)
    pairs_g = [(("G", i + 1), None) for i in range(kmax + 2)]
    ok, why = check("Gt", pairs_g)
    report.add("triangular:Gt", ok, why)
    return report


def averaged_shift_report(kmax: int = 8) -> Report:
    """The averaged shift generates the whole family from Wm(0), Wp(0)."""
    report = Report("averaged-shift", params={"kmax": kmax})
    for k in range(kmax + 1):
        got = averaged_shift(Wm(0), k)
        report.add(f"avg-shift:Wm:{k}", got == Wm(k), got - Wm(k))
        got = averaged_shift(Wp(0), k)
        report.add(f"avg-shift:Wp:{k}", got == Wp(k), got - Wp(k))
        got = bracket_alt(Wm(0), averaged_shift(Wp(0), k))
        report.add(f"avg-shift:Gt:{k}", got == Gt(k), got - Gt(k))
    return report


def sprime_report(qa: QuotientA) -> Report:
    """Annihilation by the beta polynomial in the shift operator.

    Two normalizations are run: the doubled shift (tau0 Phi + tau1 Phi) as
    displayed alongside the quotient definition, and the halved version using
    the averaged shift.  Whichever fails is recorded as a discrepancy, not a
    failure; the halved version is the one implied by the shift action
    (tau0 Phi + tau1 Phi doubles each step) and must hold.
    """
    report = Report("sprime", params={"N": qa.N})
    for label, halved in (("displayed", False), ("halved", True)):
        for gen_name, gen in (("W0", Wm(0)), ("W1", Wp(0))):
            total = {}
            for n in range(qa.N + 1):
                shifted = averaged_shift(gen, n)
                if not halved:
                    shifted = shifted * 2**n
                accumulate(total, shifted.terms, qa.betas[n])
            residual = qa.reduce(AlgElem(total))
            check_id = f"sprime:{label}:{gen_name}:N{qa.N}"
            if halved:
                report.add(check_id, residual.is_zero(), residual)
            else:
                report.add_discrepancy(
                    check_id,
                    residual.is_zero(),
                    f"residual {residual}",
                )
    return report


APPENDIX_FIXTURES = (
    ("A0", ("A", 0), {("Wm", 0): Fraction(1)}),
    ("A1", ("A", 1), {("Wp", 0): Fraction(1)}),
    ("G1", ("G", 1), {("Gt", 0): Fraction(-1, 4)}),
    ("A-1", ("A", -1), {("Wm", 1): Fraction(2), ("Wp", 0): Fraction(-1)}),
    ("A2", ("A", 2), {("Wp", 1): Fraction(2), ("Wm", 0): Fraction(-1)}),
    ("G2", ("G", 2), {("Gt", 1): Fraction(-1, 2)}),
    (
        "A-2",
        ("A", -2),
        {("Wm", 2): Fraction(4), ("Wm", 0): Fraction(-1), ("Wp", 1): Fraction(-2)},
    ),
    (
        "A3",
        ("A", 3),
        {("Wp", 2): Fraction(4), ("Wp", 0): Fraction(-1), ("Wm", 1): Fraction(-2)},
    ),
    ("G3", ("G", 3), {("Gt", 2): Fraction(-1), ("Gt", 0): Fraction(1, 4)}),
)

_INVERSE_FIXTURES = (
    ("Wm1", ("Wm", 1), {("A", 1): Fraction(1, 2), ("A", -1): Fraction(1, 2)}),
    ("Wp1", ("Wp", 1), {("A", 0): Fraction(1, 2), ("A", 2): Fraction(1, 2)}),
    ("Gt1", ("Gt", 1), {("G", 2): Fraction(-2)}),
    (
        "Wm2",
        ("Wm", 2),
        {
            ("A", 2): Fraction(1, 4),
            ("A", 0): Fraction(1, 2),
            ("A", -2): Fraction(1, 4),
        },
    ),
    (
        "Wp2",
        ("Wp", 2),
        {
            ("A", 3): Fraction(1, 4),
            ("A", 1): Fraction(1, 2),
            ("A", -1): Fraction(1, 4),
        },
    ),
)


def appendix_fixtures_report() -> Report:
    """The nine explicit low-index conversions, checked in both directions,
    plus the inverse-direction displays.

    The printed inverse value for Gt(2) is compared as well: it disagrees
    with what the nine forward identities force (inverting G3 = -Gt(2) +
    Gt(0)/4 gives -G(3) - G(1), not -G(3) - 2 G(1)), so that comparison is
    recorded as a discrepancy rather than asserted.
    """
    report = Report("fixtures-appendix-a")
    for label, sym, alt_terms in APPENDIX_FIXTURES:
        x = AlgElem.basis(sym)
        expected = AlgElem(dict(alt_terms))
        got = convert_to_alt(x)
        report.add(f"appendix-a:to-alt:{label}", got == expected, got - expected)
        back = convert_to_ons(expected)
        report.add(f"appendix-a:to-ons:{label}", back == x, back - x)
    for label, sym, ons_terms in _INVERSE_FIXTURES:
        y = AlgElem.basis(sym)
        expected = AlgElem(dict(ons_terms))
        got = convert_to_ons(y)
        report.add(f"appendix-a:inverse:{label}", got == expected, got - expected)
        back = convert_to_alt(expected)
        report.add(f"appendix-a:inverse-back:{label}", back == y, back - y)
    printed_gt2 = AlgElem({("G", 3): Fraction(-1), ("G", 1): Fraction(-2)})
    derived_gt2 = convert_to_ons(Gt(2))
    report.add_discrepancy(
        "appendix-a:printed-Gt2",
        derived_gt2 == printed_gt2,
        f"conversion gives {derived_gt2}; the printed inverse display reads {printed_gt2}",
    )
    return report


def dolan_grady_alt_report() -> Report:
    """The two lowest generators satisfy the Dolan-Grady relations."""
    report = Report("dg-alt")
    w0, w1 = Wm(0), Wp(0)
    for name, x, y in (("dg-alt:0110", w0, w1), ("dg-alt:1001", w1, w0)):
        nested = bracket_alt(x, bracket_alt(x, bracket_alt(x, y)))
        residual = nested - bracket_alt(x, y) * 16
        report.add(name, residual.is_zero(), residual)
    return report

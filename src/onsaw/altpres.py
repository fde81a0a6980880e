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
The image of A_n for n >= 1 is the Phi mirror of that of A_{1-n}: Phi maps
the paper's W label m (m <= 0 is Wm(-m), m >= 1 is Wp(m-1)) to 1 - m.
The image of each basis symbol is computed once and memoised for the life of
the process (`_to_alt_sym`, `_to_ons_sym`); the cached elements are shared
and read-only.  The conversions clear denominators first (`_convert`): they
sum the products of coefficients scaled to integers and divide the sum once,
so no Fraction is built per term product.

Finite quotients are cut out by a coefficient vector (beta_0, ..., beta_N):
every family index >= N rewrites onto indices 0..N-1 through the single
upward recurrence X(m) = -(1/beta_N) sum_k beta_k X(k + m - N), applied by
`quotient.divide` to the highest index first: no per-symbol cache, no
recursion.  beta_N is a nonzero rational or a monomial, so 1/beta_N is one
too and reduction stays in the Laurent ring.  `beta_formula` gives the betas
of aw(3N) in its alphas as the Chebyshev-T expansion of P (t^n + t^-n is
2 T_n(U)): each beta_k is one sum over the n with n = k (mod 2).
"""

from fractions import Fraction
from functools import cache, partial
from math import comb, factorial, lcm

from .elements import ZERO, AlgElem, linear_extension
from .onsager import (
    PHI,
    TAU0,
    TAU1,
    A,
    G,
    apply_auto,
    apply_autopoly,
    bracket,
    sym_bracket,
)
from .quotient import QuotientO, divide
from .reports import InputError, Report
from .scalars import LaurentPoly, accumulate, as_coeff, coeff_div, lvar, sum_terms, unit_inverse


def _family(kind: str, k: int, coeff=1) -> AlgElem:
    if k < 0:
        raise InputError(f"{kind} index must be >= 0")
    return AlgElem({(kind, int(k)): coeff})


Wm = partial(_family, "Wm")
Wp = partial(_family, "Wp")
Gt = partial(_family, "Gt")


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


def bracket_alt(x: AlgElem, y: AlgElem) -> AlgElem:
    return bracket(x, y, sym_bracket=alt_sym_bracket)


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


def averaged_shift(x: AlgElem) -> AlgElem:
    """Apply (tau0 Phi + tau1 Phi)/2 in the alternative presentation."""
    return apply_autopoly(AVERAGED_SHIFT, x, apply_sym=alt_auto_sym)


# --- change of basis ----------------------------------------------------------


def c_coeff(p: int, k: int) -> int:
    """(-1)^p 2^(k-2p) (k-p)! / (p! (k-2p)!), defined for 0 <= 2p <= k."""
    if p < 0 or 2 * p > k:
        raise ValueError(f"c_coeff needs 0 <= 2p <= k, got p={p}, k={k}")
    value = comb(k - p, p) << (k - 2 * p)
    return -value if p % 2 else value


def _w_paper(n: int, coeff=1) -> AlgElem:
    """W with the paper-style integer label: n <= 0 is Wm(-n), n >= 1 is Wp(n-1)."""
    if n <= 0:
        return Wm(-n, coeff)
    return Wp(n - 1, coeff)


@cache
def _to_alt_sym(sym: tuple) -> AlgElem:
    kind, n = sym
    if kind == "A":
        # A_n (n >= 1) is the Phi image of A_{1-n}; Phi maps W label m to 1 - m.
        k, label = (n - 1, lambda m: 1 - m) if n >= 1 else (-n, lambda m: m)
        parts = [_w_paper(label(2 * p - k), c_coeff(p, k)) for p in range(k // 2 + 1)]
        parts += [
            _w_paper(label(k - 2 * p), -c_coeff(p, k - 1))
            for p in range((k - 1) // 2 + 1)
        ]
    elif kind == "G":
        k = n - 1
        parts = [
            Gt(k - 2 * p, as_coeff(Fraction(-c_coeff(p, k), 4)))
            for p in range(k // 2 + 1)
        ]
    else:
        raise TypeError(f"not an Onsager basis symbol: {sym}")
    return AlgElem(sum_terms(parts))


# kind -> (maker, index offset, index sign, factor): the image of kind(k) is
# sum_p factor C(k, p)/2^k maker(sign (k - 2p + offset)).
_ONS_FORMULA = {"Wm": (A, 0, 1, 1), "Wp": (A, 1, 1, 1), "Gt": (G, 1, -1, 4)}


@cache
def _to_ons_sym(sym: tuple) -> AlgElem:
    kind, k = sym
    if kind not in _ONS_FORMULA:
        raise TypeError(f"not an alternative-presentation symbol: {sym}")
    make, offset, sign, factor = _ONS_FORMULA[kind]
    scale = Fraction(factor, 2**k)
    parts = [
        make(sign * (k - 2 * p + offset), as_coeff(scale * comb(k, p)))
        for p in range(k + 1)
    ]
    return AlgElem(sum_terms(parts))


def _convert(image, x: AlgElem) -> AlgElem:
    """The linear extension of `image` applied to `x`, denominators cleared
    first (the content / primitive-part split of exact polynomial arithmetic).

    With Lc the lcm of the denominators of the rational coefficients of `x`
    and Lv that of the coefficients of the images, each product
    (c Lc)(v Lv) is an int, formed by int operations only, and the sum is
    divided once by Lc Lv: an int sum c becomes the quotient Fraction(c,
    Lc Lv) in one step, and a polynomial sum is scaled by 1/(Lc Lv).  A
    LaurentPoly coefficient c enters as c Lc.  The images are rational; they
    are read, never changed."""
    pairs = [(image(sym), c) for sym, c in x.terms.items()]
    # Lists, not generators: `lcm(*generator)` raised the peak RSS of `verify
    # all` by ~0.13 MB on Python 3.11.
    lc = lcm(*[c.denominator for _, c in pairs if not isinstance(c, LaurentPoly)])
    lv = lcm(*[v.denominator for img, _ in pairs for v in img.terms.values()])
    out: dict = {}
    for img, c in pairs:
        if isinstance(c, LaurentPoly):
            k = c if lc == 1 else c * lc
        else:
            k = c.numerator * (lc // c.denominator)
        terms = img.terms
        if lv != 1:
            terms = {s: v.numerator * (lv // v.denominator) for s, v in terms.items()}
        accumulate(out, terms, k)
    den = lc * lv
    if den != 1:
        inv = Fraction(1, den)
        out = {
            s: as_coeff(Fraction(c, den)) if type(c) is int else c * inv
            for s, c in out.items()
        }
    return AlgElem(out)


def convert_to_alt(x: AlgElem) -> AlgElem:
    return _convert(_to_alt_sym, x)


def convert_to_ons(y: AlgElem) -> AlgElem:
    return _convert(_to_ons_sym, y)


# --- quotients ------------------------------------------------------------------


class QuotientA:
    """N and the coefficient vector (beta_0, ..., beta_N); beta_N is a nonzero
    rational or a monomial (a unit of the Laurent ring)."""

    def __init__(self, betas):
        betas = tuple(betas)
        if len(betas) < 2:
            raise InputError("need N >= 1, i.e. at least (beta_0, beta_1)")
        if not betas[-1]:
            raise InputError("leading coefficient beta_N must be nonzero")
        if unit_inverse(betas[-1]) is None:
            raise ValueError(
                "leading coefficient beta_N must be a nonzero rational or a monomial"
            )
        self.betas = betas
        self.N = len(betas) - 1
        self._monic = tuple(coeff_div(b, betas[-1]) for b in betas[:-1]) + (1,)

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
        return divide(x, self._excess, self._divisor)

    def _excess(self, sym) -> int:
        if sym[0] not in ("Wm", "Wp", "Gt"):
            raise TypeError(f"not an alternative-presentation symbol: {sym}")
        return sym[1] - self.N + 1

    def _divisor(self, sym) -> AlgElem:
        """sum_k monic[k] X(k + m - N), monic[k] = beta_k / beta_N, led by X(m)."""
        kind, m = sym
        return AlgElem({(kind, k + m - self.N): c for k, c in enumerate(self._monic)})

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
    alt_m = convert_to_alt(q.relation("A", 0))  # alpha is symmetric: n -> -n
    alt_p = convert_to_alt(q.relation("A", 1))
    betas = [alt_m.coeff(("Wm", k)) for k in range(q.N + 1)]
    for kind, alt in (("Wm", alt_m), ("Wp", alt_p)):
        if alt != AlgElem({(kind, k): b for k, b in enumerate(betas)}):
            raise ValueError(
                "converted quotient relations are not a pure beta combination"
            )
    return QuotientA(betas)


def beta_formula(q: QuotientO, k: int):
    """Closed-form beta_k in the alphas, the Chebyshev-T expansion of P:

        beta_k = 2^k/k! sum_{n = k, k+2, ..., N} (-1)^m n (n-m-1)!/m! alpha_n,

    with m = (n - k)/2.  For k = 0 the n = 0 term has factorial argument
    (-1)!; the linear-solve oracle fixes it to be alpha_0 exactly.
    """
    total = q.alpha(0) if k == 0 else 0
    for n in range(k or 2, q.N + 1, 2):
        m = (n - k) // 2
        c = Fraction((-1) ** m * n * factorial(n - m - 1), factorial(m))
        total = total + q.alpha(n) * c
    return total * Fraction(2**k, factorial(k))


def beta_alpha_report(q: QuotientO) -> Report:
    """Oracle betas against the closed formulas, term conventions as above."""
    report = Report()
    qa = beta_from_alpha(q)
    for k in range(q.N + 1):
        formula = beta_formula(q, k)
        oracle = qa.betas[k]
        report.add_discrepancy(
            f"beta-alpha:N{q.N}:k{k}",
            formula != oracle and f"formula {formula} but oracle {oracle}",
        )
    return report


def _onsager_syms(k: int) -> list:
    """A_n for |n| <= k, then G_m for 1 <= m <= k."""
    return [("A", n) for n in range(-k, k + 1)] + [("G", m) for m in range(1, k + 1)]


def reduction_diagram_report(q: QuotientO) -> Report:
    """convert_to_alt then reduce_alt equals reduce then convert_to_alt."""
    qa = beta_from_alpha(q)
    kmax = q.N + 4
    report = Report()
    for sym in _onsager_syms(kmax):
        x = AlgElem.basis(sym)
        left = qa.reduce(convert_to_alt(x))
        right = qa.reduce(convert_to_alt(q.reduce(x)))
        report.add(f"diagram:N{q.N}:{sym[0]}{sym[1]}", left - right)
    return report


# --- verification sweeps ---------------------------------------------------------


def verify_iso(kmax_bracket: int = 8, kmax_round: int = 20) -> Report:
    """Round trips, bracket intertwining, and the triangular change of basis.

    Intertwining compares convert_to_alt([s, t]) with [img s, img t], s outer
    and t inner, [s, t] read off `sym_bracket` and each symbol's img =
    convert_to_alt(s) built once.  By bilinearity [img s, img t] is the linear
    extension over img t of a table, local to the call, that maps each symbol
    b of the images to [img s, b]."""
    report = Report()
    alt_syms = [(kind, k) for kind in ("Wm", "Wp", "Gt") for k in range(kmax_round + 1)]
    for label, syms, there, back in (
        ("onsager", _onsager_syms(kmax_round), convert_to_alt, convert_to_ons),
        ("alt", alt_syms, convert_to_ons, convert_to_alt),
    ):
        bad = [s for s in syms if back(there(AlgElem.basis(s))) != AlgElem.basis(s)]
        report.add(f"iso:round-trip-{label}", bad and f"failing symbols {bad}")

    pairs_syms = _onsager_syms(kmax_bracket)
    images = [convert_to_alt(AlgElem.basis(s)) for s in pairs_syms]
    support = dict.fromkeys(b for img in images for b in img.terms)
    bad = []
    for s, img_s in zip(pairs_syms, images):
        table = {b: bracket_alt(img_s, AlgElem.basis(b)) for b in support}
        for t, img_t in zip(pairs_syms, images):
            lhs = convert_to_alt(sym_bracket(s, t))
            if lhs != linear_extension(table.__getitem__, img_t):
                bad.append((s, t))
    report.add("iso:bracket-intertwine", bad and f"failing pairs {bad[:4]}")
    report.extend(triangular_basis_report())
    return report


def triangular_basis_report() -> Report:
    """The three sector-by-sector changes of basis are triangular with nonzero
    diagonal: Wm(j) against {A_0, A_i + A_{-i}}, Wp(j) against
    {A_1, A_{1+i} + A_{1-i}}, Gt(j) against {G_{j+1}}."""
    kmax = 12
    report = Report()

    def check(kind, paired):
        for j in range(kmax + 1):
            x = _to_ons_sym((kind, j))
            for i, (hi, lo) in enumerate(paired):
                chi = x.coeff(hi)
                if lo is not None and x.coeff(lo) != chi:
                    return f"{kind}({j}) not symmetric at {hi}/{lo}"
                if i > j and chi:
                    return f"{kind}({j}) has coefficient above the diagonal at {hi}"
                if i == j and not chi:
                    return f"{kind}({j}) has zero diagonal coefficient"
        return ""

    pairings = {
        "Wm": [(("A", i), ("A", -i) if i else None) for i in range(kmax + 2)],
        "Wp": [(("A", 1 + i), ("A", 1 - i) if i else None) for i in range(kmax + 2)],
        "Gt": [(("G", 1 + i), None) for i in range(kmax + 2)],
    }
    for kind, paired in pairings.items():
        report.add(f"triangular:{kind}", check(kind, paired))
    return report


def averaged_shift_report() -> Report:
    """The averaged shift generates the whole family from Wm(0), Wp(0); the
    k-th shift of each is built from the (k-1)-th by one more shift."""
    kmax = 8
    report = Report()
    wm, wp = Wm(0), Wp(0)
    for k in range(kmax + 1):
        if k:
            wm, wp = averaged_shift(wm), averaged_shift(wp)
        report.add(f"avg-shift:Wm:{k}", wm - Wm(k))
        report.add(f"avg-shift:Wp:{k}", wp - Wp(k))
        report.add(f"avg-shift:Gt:{k}", bracket_alt(Wm(0), wp) - Gt(k))
    return report


def sprime_report(qa: QuotientA) -> Report:
    """Annihilation by the beta polynomial in the shift operator.

    Two normalizations are run: the doubled shift (tau0 Phi + tau1 Phi) as
    displayed alongside the quotient definition, and the halved version using
    the averaged shift.  Whichever fails is recorded as a discrepancy, not a
    failure; the halved version is the one implied by the shift action
    (tau0 Phi + tau1 Phi doubles each step) and must hold.  The n-th averaged
    shifts of each generator, n <= N, are built once, each from the (n-1)-th;
    the halved run weights them by beta_n, the displayed run by 2^n beta_n.
    """
    report = Report()
    shifts = {"W0": [Wm(0)], "W1": [Wp(0)]}
    for powers in shifts.values():
        for _ in range(qa.N):
            powers.append(averaged_shift(powers[-1]))
    doubled = [b * 2**n for n, b in enumerate(qa.betas)]
    for label, weights in (("displayed", doubled), ("halved", qa.betas)):
        for gen_name, powers in shifts.items():
            total = {}
            for shifted, weight in zip(powers, weights):
                accumulate(total, shifted.terms, weight)
            residual = qa.reduce(AlgElem(total))
            check_id = f"sprime:{label}:{gen_name}:N{qa.N}"
            if label == "halved":
                report.add(check_id, residual)
            else:
                report.add_discrepancy(check_id, residual and f"residual {residual}")
    return report


APPENDIX_FIXTURES = (
    ("A0", ("A", 0), {("Wm", 0): 1}),
    ("A1", ("A", 1), {("Wp", 0): 1}),
    ("G1", ("G", 1), {("Gt", 0): Fraction(-1, 4)}),
    ("A-1", ("A", -1), {("Wm", 1): 2, ("Wp", 0): -1}),
    ("A2", ("A", 2), {("Wp", 1): 2, ("Wm", 0): -1}),
    ("G2", ("G", 2), {("Gt", 1): Fraction(-1, 2)}),
    ("A-2", ("A", -2), {("Wm", 2): 4, ("Wm", 0): -1, ("Wp", 1): -2}),
    ("A3", ("A", 3), {("Wp", 2): 4, ("Wp", 0): -1, ("Wm", 1): -2}),
    ("G3", ("G", 3), {("Gt", 2): -1, ("Gt", 0): Fraction(1, 4)}),
)

_INVERSE_FIXTURES = (
    ("Wm1", ("Wm", 1), {("A", 1): Fraction(1, 2), ("A", -1): Fraction(1, 2)}),
    ("Wp1", ("Wp", 1), {("A", 0): Fraction(1, 2), ("A", 2): Fraction(1, 2)}),
    ("Gt1", ("Gt", 1), {("G", 2): -2}),
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
    report = Report()
    for there_id, back_id, fixtures, there, back in (
        ("to-alt", "to-ons", APPENDIX_FIXTURES, convert_to_alt, convert_to_ons),
        ("inverse", "inverse-back", _INVERSE_FIXTURES, convert_to_ons, convert_to_alt),
    ):
        for label, sym, terms in fixtures:
            x, want = AlgElem.basis(sym), AlgElem(dict(terms))
            got, back_x = there(x), back(want)
            report.add(f"appendix-a:{there_id}:{label}", got - want)
            report.add(f"appendix-a:{back_id}:{label}", back_x - x)
    printed_gt2 = AlgElem({("G", 3): -1, ("G", 1): -2})
    derived_gt2 = convert_to_ons(Gt(2))
    report.add_discrepancy(
        "appendix-a:printed-Gt2",
        derived_gt2 != printed_gt2
        and f"conversion gives {derived_gt2}; the printed inverse display reads "
        f"{printed_gt2}",
    )
    return report


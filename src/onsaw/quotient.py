"""Finite quotients of the Onsager algebra by symmetric linear recurrences.

A quotient is fixed by N >= 1 and coefficients (alpha_0, ..., alpha_N) with
alpha_N = 1 and the implicit symmetric extension alpha_{-n} = alpha_n.  The
imposed relations make every A_m and G_m a combination of the 3N independent
elements {A_{-N+1}, ..., A_N, G_1, ..., G_N}; `reduce` divides onto that
normal-form span, the farthest symbol first, by the one-sided recurrences

    A_{N+p} = -sum_{n=-N}^{N-1} alpha_n A_{n+p}
    A_{p-N} = -sum_{n=-N+1}^{N} alpha_n A_{n+p}

and the G analogue, with no per-symbol cache and no recursion; the relation
instances come from (n, alpha_|n|) pairs stored once per quotient
(`QuotientO.relation`).  The table u_poly reproduces the same reduction
coefficients through an independent recurrence; the two are compared by
u_poly_report and any mismatch is a documented discrepancy (the reduction
oracle wins).
"""

from .elements import AlgElem
from .onsager import A, G, apply_autopoly, bracket, s_n_autopoly
from .reports import InputError, Report
from .scalars import accumulate, lvar


def divide(x: AlgElem, excess, divisor) -> AlgElem:
    """The normal form of x: its remainder on division by a monic relation.

    excess(sym) > 0 outside the normal-form window (TypeError on a foreign
    symbol); divisor(sym) is the relation instance led by 1*sym, its other
    symbols of strictly smaller excess.  Symbols are eliminated farthest
    first, by subtracting their coefficient times divisor(sym), so no level
    gains a symbol once it is cleared; within a level, order does not matter.
    """
    acc = dict(x.terms)
    for level in range(max(map(excess, acc), default=0), 0, -1):
        for sym in [s for s in acc if excess(s) == level]:
            accumulate(acc, divisor(sym).terms, -acc[sym])  # cancels sym
    return AlgElem(acc)


class QuotientO:
    """N and the coefficient vector (alpha_0, ..., alpha_N), alpha_N = 1."""

    def __init__(self, alphas):
        alphas = tuple(alphas)
        if len(alphas) < 2:
            raise InputError("need N >= 1, i.e. at least (alpha_0, alpha_1)")
        if alphas[-1] != 1:
            raise InputError("normalization requires alpha_N = 1")
        self.alphas = alphas
        self.N = len(alphas) - 1
        self._upoly: dict = {}
        # (n, alpha_|n|) for the n in -N..N with alpha_|n| != 0: the terms of
        # every relation instance
        self._pairs = tuple(
            (n, a) for n in range(-self.N, self.N + 1) if (a := self.alpha(n))
        )

    @staticmethod
    def alpha_names(N: int) -> list:
        """Names of the symbolic alpha_0..alpha_{N-1}, to match common usage:
        N=1 uses alpha, N=2 uses (alphap, alpha), larger N uses alpha0.."""
        if N == 1:
            return ["alpha"]
        if N == 2:
            return ["alphap", "alpha"]
        return [f"alpha{i}" for i in range(N)]

    @classmethod
    def symbolic(cls, N: int) -> "QuotientO":
        """Quotient with symbolic coefficients named by `alpha_names`."""
        return cls(tuple(lvar(n) for n in cls.alpha_names(N)) + (1,))

    def alpha(self, m: int):
        m = abs(m)
        return self.alphas[m] if m <= self.N else 0

    def basis_syms(self) -> list:
        return [("A", n) for n in range(-self.N + 1, self.N + 1)] + [
            ("G", m) for m in range(1, self.N + 1)
        ]

    # -- normal form -----------------------------------------------------

    def reduce(self, x: AlgElem) -> AlgElem:
        return divide(x, self._excess, self._divisor)

    def _excess(self, sym) -> int:
        kind, idx = sym
        if kind not in ("A", "G"):
            raise TypeError(f"not an Onsager basis symbol: {sym}")
        return max(idx - self.N, -self.N + 1 - idx if kind == "A" else 0)

    def _divisor(self, sym) -> AlgElem:
        """The relation instance led by sym, at its top or bottom end."""
        kind, idx = sym
        p = idx - self.N if idx > self.N else idx + self.N
        return self.relation(kind, p)

    def bracket_reduced(self, x: AlgElem, y: AlgElem) -> AlgElem:
        return self.reduce(bracket(x, y))

    def relation(self, kind: str, p: int) -> AlgElem:
        """The quotient relation sum(alpha_|n| X_{n+p}, n = -N..N), for the
        symbol kind X = "A" or "G", read off the stored (n, alpha_|n|) pairs.
        For G, G_0 = 0 and G_{-m} = -G_m: a term at a negative index is added,
        negated, at the positive one, so where the instance spans 0 its two
        halves fold.  TypeError for any other kind, the constructors A and G
        included."""
        if kind == "A":
            return AlgElem({("A", n + p): a for n, a in self._pairs})
        if kind != "G":
            raise TypeError(f"relation instances are of A or G, not {kind!r}")
        combo = {("G", n + p): a for n, a in self._pairs if n + p > 0}
        folded = {("G", -n - p): -a for n, a in self._pairs if n + p < 0}
        return AlgElem(accumulate(combo, folded))

    def __repr__(self):
        return f"QuotientO(N={self.N})"


# --- reduction-coefficient table ---------------------------------------------


def u_poly(q: QuotientO, p: int, j: int):
    """Reduction coefficient U_{p,j} computed by its own recurrence.

    Defined for p >= 0 and -N+1 <= j <= N by

        U_{0,j} = (-1)^{N+1} alpha_j
        U_{p,j} = sum_{k=0}^{p-1} (-1)^k alpha_{k-N+1} U_{p-1-k,j}
                  + (-1)^{N+p-1} alpha_{j+p} * [ j <= N-p ]

    with symmetric alpha lookup vanishing beyond index N (so k < 2N).  The
    column j of q._upoly fills bottom-up; an entry already there is kept.
    """
    N = q.N
    if p < 0 or not (-N + 1 <= j <= N):
        raise InputError(f"u_poly indices out of range: p={p}, j={j}")
    table = q._upoly
    for r in range(p + 1):
        if (r, j) in table:
            continue
        out = q.alpha(j + r) * (-1) ** (N + r - 1) if j <= N - r else 0
        for k in range(min(r, 2 * N)):
            if a := q.alpha(k - N + 1):
                term = a * table[(r - 1 - k, j)]
                out = out - term if k % 2 else out + term
        table[(r, j)] = out
    return table[(p, j)]


def u_poly_oracle(q: QuotientO, p: int) -> AlgElem:
    """Row p of the table read directly off reduce(A_{-N-p}), signed so that
    its coefficient of A_j is U_{p,j}: negated when p + N is odd."""
    row = q.reduce(A(-q.N - p))
    return -row if (p + q.N) % 2 else row


def u_poly_report(q: QuotientO, pmax: int) -> Report:
    """Recursion versus reduction oracle for all p <= pmax; the oracle wins."""
    report = Report()
    for p in range(pmax + 1):
        row = u_poly_oracle(q, p)
        for j in range(-q.N + 1, q.N + 1):
            rec, ora = u_poly(q, p, j), row.coeff(("A", j))
            detail = rec != ora and f"recursion {rec} but oracle {ora}"
            report.add_discrepancy(f"upoly:N{q.N}:p{p}:j{j}", detail)
    return report


def forward_reduction_report(q: QuotientO, pmax: int) -> Report:
    """reduce(A_{N+p+1}) and reduce(G_{N+p+1}) against the U-table formulas."""
    report = Report()
    for p in range(pmax + 1):
        sign = (-1) ** (p + q.N)
        expect_a = {}
        expect_g = {}
        for j in range(-q.N + 1, q.N + 1):
            u = u_poly(q, p, j)
            accumulate(expect_a, A(1 - j).terms, u * sign)
            accumulate(expect_g, G(j - 1).terms, u * -sign)
        for kind, got, expect in (
            ("A", q.reduce(A(q.N + p + 1)), AlgElem(expect_a)),
            ("G", q.reduce(G(q.N + p + 1)), AlgElem(expect_g)),
        ):
            report.add(f"upoly-forward:{kind}:N{q.N}:p{p}", got - expect)
    return report


# --- quotient relations -------------------------------------------------------


def verify_sn(q: QuotientO, autopoly=None) -> Report:
    """The operator sum(alpha_n (tau1 Phi)^n) must annihilate A_0 and A_1."""
    report = Report()
    if autopoly is None:
        autopoly = s_n_autopoly(q.alphas)
    for name, x in (("sn:A0", A(0)), ("sn:A1", A(1))):
        report.add(f"{name}:N{q.N}", q.reduce(apply_autopoly(autopoly, x)))
    return report


def implied_relations_report(q: QuotientO, pmax: int = 6) -> Report:
    """All shifted relation instances must reduce to zero, |p| <= pmax."""
    report = Report()
    for p in range(-pmax, pmax + 1):
        for kind in ("A", "G"):
            report.add(f"dav2:{kind}:N{q.N}:p{p}", q.reduce(q.relation(kind, p)))
    return report


def defining_relations(q: QuotientO) -> list:
    """All 3N(3N-1)/2 brackets of normal-form basis pairs, each reduced.

    Pairs are oriented with the later basis symbol first, so for N=1 the list
    carries [A_1, A_0], [G_1, A_0], [G_1, A_1].
    """
    syms = q.basis_syms()
    out = []
    for b in range(len(syms)):
        for a in range(b):
            lhs = (syms[b], syms[a])
            rhs = q.bracket_reduced(AlgElem.basis(syms[b]), AlgElem.basis(syms[a]))
            out.append((lhs, rhs))
    return out

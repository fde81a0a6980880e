"""Finite quotients of the Onsager algebra by symmetric linear recurrences.

A quotient is fixed by N >= 1 and coefficients (alpha_0, ..., alpha_N) with
alpha_N = 1 and the implicit symmetric extension alpha_{-n} = alpha_n.  The
imposed relations make every A_m and G_m a combination of the 3N independent
elements {A_{-N+1}, ..., A_N, G_1, ..., G_N}; `reduce` rewrites onto that
normal-form span using the two one-sided recurrences

    A_{N+p} = -sum_{n=-N}^{N-1} alpha_n A_{n+p}
    A_{p-N} = -sum_{n=-N+1}^{N} alpha_n A_{n+p}

and the G analogue.  The recursion table u_poly reproduces the same reduction
coefficients through an independent recurrence; the two are compared by
u_poly_report and any mismatch is a documented discrepancy (the reduction
oracle wins).
"""

from .elements import AlgElem, accumulate, linear_extension
from .onsager import A, G, apply_autopoly, bracket, s_n_autopoly
from .reports import Report
from .scalars import lvar


class QuotientO:
    """N and the coefficient vector (alpha_0, ..., alpha_N), alpha_N = 1."""

    def __init__(self, alphas):
        alphas = tuple(alphas)
        if len(alphas) < 2:
            raise ValueError("need N >= 1, i.e. at least (alpha_0, alpha_1)")
        if alphas[-1] != 1:
            raise ValueError("normalization requires alpha_N = 1")
        self.alphas = alphas
        self.N = len(alphas) - 1
        self._reduced: dict = {}
        self._upoly: dict = {}

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
        return linear_extension(self._reduce_sym, x)

    def _reduce_sym(self, sym) -> AlgElem:
        cached = self._reduced.get(sym)
        if cached is not None:
            return cached
        kind, idx = sym
        N = self.N
        make = {"A": A, "G": G}.get(kind)
        if make is None:
            raise TypeError(f"not an Onsager basis symbol: {sym}")
        if idx > N:
            out = self._recurrence(make, range(-N, N), idx - N)
        elif kind == "A" and idx < -N + 1:
            out = self._recurrence(make, range(-N + 1, N + 1), idx + N)
        else:
            out = AlgElem.basis(sym)
        self._reduced[sym] = out
        return out

    def _recurrence(self, make, ns, p) -> AlgElem:
        """reduce(-sum alpha_n X_{n+p}, n in ns), one side of a recurrence."""
        combo = {}
        for n in ns:
            accumulate(combo, make(n + p).terms, -self.alphas[abs(n)])
        return self.reduce(AlgElem(combo))

    def bracket_reduced(self, x: AlgElem, y: AlgElem) -> AlgElem:
        return self.reduce(bracket(x, y))

    def relation(self, make, p: int) -> AlgElem:
        """The quotient relation sum(alpha_|n| X_{n+p}, n = -N..N), X = make."""
        combo = {}
        for n in range(-self.N, self.N + 1):
            accumulate(combo, make(n + p).terms, self.alpha(n))
        return AlgElem(combo)

    def __repr__(self):
        return f"QuotientO(N={self.N})"


# --- reduction-coefficient table ---------------------------------------------


def u_poly(q: QuotientO, p: int, j: int):
    """Reduction coefficient U_{p,j} computed by its own recurrence.

    Defined for p >= 0 and -N+1 <= j <= N by

        U_{0,j} = (-1)^{N+1} alpha_j
        U_{p,j} = sum_{k=0}^{p-1} (-1)^k alpha_{k-N+1} U_{p-1-k,j}
                  + (-1)^{N+p-1} alpha_{j+p} * [ j <= N-p ]

    with symmetric alpha lookup vanishing beyond index N.
    """
    N = q.N
    if p < 0 or not (-N + 1 <= j <= N):
        raise ValueError(f"u_poly indices out of range: p={p}, j={j}")
    key = (p, j)
    cached = q._upoly.get(key)
    if cached is not None:
        return cached
    if p == 0:
        out = q.alpha(j) * (-1) ** (N + 1)
    else:
        out = 0
        for k in range(p):
            a = q.alpha(k - N + 1)
            if a:
                out = out + a * (u_poly(q, p - 1 - k, j) * (-1) ** k)
        if j <= N - p and q.alpha(j + p):
            out = out + q.alpha(j + p) * (-1) ** (N + p - 1)
    q._upoly[key] = out
    return out


def u_poly_oracle(q: QuotientO, p: int, j: int):
    """The same coefficient read directly off reduce(A_{-N-p})."""
    reduced = q.reduce(A(-q.N - p))
    sign = (-1) ** (p + q.N)
    return reduced.coeff(("A", j)) * sign


def u_poly_report(q: QuotientO, pmax: int) -> Report:
    """Recursion versus reduction oracle for all p <= pmax; the oracle wins."""
    report = Report("upoly", params={"N": q.N, "pmax": pmax})
    for p in range(pmax + 1):
        for j in range(-q.N + 1, q.N + 1):
            rec = u_poly(q, p, j)
            ora = u_poly_oracle(q, p, j)
            report.add_discrepancy(
                f"upoly:N{q.N}:p{p}:j{j}",
                rec == ora,
                f"recursion {rec} but oracle {ora}",
            )
    return report


def forward_reduction_report(q: QuotientO, pmax: int) -> Report:
    """reduce(A_{N+p+1}) and reduce(G_{N+p+1}) against the U-table formulas."""
    report = Report("upoly-forward", params={"N": q.N, "pmax": pmax})
    for p in range(pmax + 1):
        sign = (-1) ** (p + q.N)
        expect_a = {}
        expect_g = {}
        for j in range(-q.N + 1, q.N + 1):
            u = u_poly(q, p, j)
            accumulate(expect_a, A(1 - j).terms, u * sign)
            accumulate(expect_g, G(j - 1).terms, u * -sign)
        for kind, got, expect in (
            ("A", q.reduce(A(q.N + p + 1)), q.reduce(AlgElem(expect_a))),
            ("G", q.reduce(G(q.N + p + 1)), q.reduce(AlgElem(expect_g))),
        ):
            report.add(f"upoly-forward:{kind}:N{q.N}:p{p}", got == expect, got - expect)
    return report


# --- quotient relations -------------------------------------------------------


def verify_sn(q: QuotientO, autopoly=None) -> Report:
    """The operator sum(alpha_n (tau1 Phi)^n) must annihilate A_0 and A_1."""
    report = Report("sn", params={"N": q.N})
    if autopoly is None:
        autopoly = s_n_autopoly(q.alphas)
    for name, x in (("sn:A0", A(0)), ("sn:A1", A(1))):
        residual = q.reduce(apply_autopoly(autopoly, x))
        report.add(f"{name}:N{q.N}", residual.is_zero(), residual)
    return report


def implied_relations_report(q: QuotientO, pmax: int = 6) -> Report:
    """All shifted relation instances must reduce to zero, |p| <= pmax."""
    report = Report("dav2", params={"N": q.N, "pmax": pmax})
    for p in range(-pmax, pmax + 1):
        ra = q.reduce(q.relation(A, p))
        rg = q.reduce(q.relation(G, p))
        report.add(f"dav2:A:N{q.N}:p{p}", ra.is_zero(), ra)
        report.add(f"dav2:G:N{q.N}:p{p}", rg.is_zero(), rg)
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
            rhs = q.reduce(bracket(AlgElem.basis(syms[b]), AlgElem.basis(syms[a])))
            out.append((lhs, rhs))
    return out

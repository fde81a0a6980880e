"""The r-matrix, the non-standard classical Yang-Baxter machinery, and the
exchange-relation checks for the operator matrices of both presentations.

The exchange relation being verified throughout is

    [B_1(u), B_2(v)] = [r_21(v,u), B_1(u)] + [B_2(v), r_12(u,v)]

with B_1 = B (x) I, B_2 = I (x) B.  Products of B entries on different legs
collapse to Lie brackets, so the left side stays inside the Lie algebra.  All
checks clear every denominator first ((u-v)(uv-1) from the r-matrix and the
scalar prefactors of the operator matrices), leaving residual entries whose
coefficients are plain Laurent polynomials required to vanish identically.
"""

from dataclasses import dataclass
from fractions import Fraction

from .altpres import Gt, QuotientA, Wm, Wp, bracket_alt
from .elements import ZERO, AlgElem
from .matrices import Matrix, commutator, embed_leg, kron, partial_trace
from .onsager import A, G, bracket
from .quotient import QuotientO
from .reports import Report
from .scalars import LaurentPoly, RatFunc, lvar


# --- the r-matrix --------------------------------------------------------------


def r_matrix_num(u: str = "u", v="v"):
    """Numerator matrix and common denominator (u-v)(uv-1) of the r-matrix.

    `v` is a variable name or a coefficient (a rational or a polynomial)."""
    uu = lvar(u)
    vv = lvar(v) if isinstance(v, str) else v
    one = LaurentPoly.const(1)
    zero = LaurentPoly()
    diag = uu * (one - vv * vv)
    num = Matrix(
        [
            [diag, zero, zero, -2 * (uu - vv)],
            [zero, -diag, -2 * vv * (uu * vv - one), zero],
            [zero, -2 * uu * (uu * vv - one), -diag, zero],
            [-2 * uu * vv * (uu - vv), zero, zero, diag],
        ]
    )
    den = (uu - vv) * (uu * vv - one)
    return num, den


def r_matrix(u: str = "u", v: str = "v") -> Matrix:
    """The 4x4 r-matrix over rational functions in two spectral variables."""
    num, den = r_matrix_num(u, v)
    return num.map(lambda e: RatFunc(e, den))


def verify_cybe(r: tuple | None = None, u: str = "u", v: str = "v") -> Report:
    """The non-standard classical Yang-Baxter equation for a candidate r-matrix:

        [r_13, r_23] - [r_21, r_13] - [r_23, r_12] = 0

    with spectral arguments (u1,u3), (u2,u3), (u2,u1), (u1,u2).  The candidate
    is a pair (numerator Matrix, denominator) in u, v, as from r_matrix_num.
    With r_ab = N_ab / d_ab the cleared form is checked entrywise,

        [N13, N23] d12 d21 - [N21, N13] d23 d12 - [N23, N12] d13 d21 = 0;

    a numeric spot check on evaluated N_ab / d_ab confirms the verdict.
    """
    report = Report("cybe")
    num, den = r_matrix_num(u, v) if r is None else r

    def at(a, b, legs):
        mapping = {u: a, v: b}
        renamed = num.map(lambda e: e.rename(mapping))
        return embed_leg(renamed, legs, 3), den.rename(mapping)

    n13, d13 = at("u1", "u3", (1, 3))
    n23, d23 = at("u2", "u3", (2, 3))
    n12, d12 = at("u1", "u2", (1, 2))
    n21, d21 = at("u2", "u1", (2, 1))
    residual = (
        commutator(n13, n23).scale(d12 * d21)
        - commutator(n21, n13).scale(d23 * d12)
        - commutator(n23, n12).scale(d13 * d21)
    )
    bad = [(i, j) for i in range(8) for j in range(8) if residual[i, j]]
    report.add(
        "cybe:symbolic",
        not bad,
        f"nonzero residual at entries {bad[:6]}" + ("..." if len(bad) > 6 else ""),
    )

    bindings = {"u1": Fraction(2), "u2": Fraction(3), "u3": Fraction(5)}
    r13, r23, r12, r21 = (
        n.evaluate(bindings).scale(1 / d.evaluate(bindings))
        for n, d in ((n13, d13), (n23, d23), (n12, d12), (n21, d21))
    )
    numeric = commutator(r13, r23) - commutator(r21, r13) - commutator(r23, r12)
    report.add(
        "cybe:numeric-agrees",
        numeric.is_zero() == (not bad),
        "numeric evaluation disagrees with the symbolic verdict",
    )
    return report


def corrupted_r_matrix(u: str = "u", v: str = "v") -> tuple:
    """The r-matrix pair with the (1,4) numerator shifted by +1 (negative control)."""
    num, den = r_matrix_num(u, v)
    rows = [list(row) for row in num.entries]
    rows[0][3] = rows[0][3] + LaurentPoly.const(1)
    return Matrix(rows), den


# --- operator matrices -----------------------------------------------------------


@dataclass
class OperatorMatrix:
    """A 2x2 matrix of algebra elements with a common scalar denominator.

    The represented matrix is entries/den.  `algebra` supplies the ambient
    quotient's bracket_reduced and reduce; None means the bracket of the full
    algebra with no reduction.
    """

    entries: tuple
    den: LaurentPoly
    u: str
    algebra: object
    label: str

    def entry(self, i: int, j: int) -> AlgElem:
        """Entry as an element with rational-function coefficients."""
        den = self.den
        return self.entries[i][j].map_coeffs(lambda c: RatFunc(c, den))

    def rename_spectral(self, v: str) -> "OperatorMatrix":
        mapping = {self.u: v}

        def rename(c):
            return c.rename(mapping) if hasattr(c, "rename") else c

        entries = tuple(
            tuple(e.map_coeffs(rename) for e in row) for row in self.entries
        )
        return OperatorMatrix(entries, self.den.rename(mapping), v, self.algebra, self.label)

    def with_entry(self, i: int, j: int, value: AlgElem) -> "OperatorMatrix":
        rows = [list(row) for row in self.entries]
        rows[i][j] = value
        return OperatorMatrix(
            tuple(tuple(row) for row in rows), self.den, self.u, self.algebra, self.label
        )


def f_poly(q: QuotientO, p: int, u: str) -> LaurentPoly:
    """sum(alpha_j u^(p-j), j = p..N)."""
    out = LaurentPoly()
    for j in range(p, q.N + 1):
        out = out + lvar(u, p - j) * q.alphas[j]
    return out


def p_poly(q: QuotientO, u: str) -> LaurentPoly:
    """sum(alpha_|p| u^(-p), p = -N..N)."""
    out = LaurentPoly()
    for p in range(-q.N, q.N + 1):
        out = out + lvar(u, -p) * q.alpha(p)
    return out


def build_B_onsager(q: QuotientO, u: str = "u") -> OperatorMatrix:
    """The quotient operator matrix [[g, a_minus], [a_plus, -g]] / p(u)."""
    uu = lvar(u)
    uinv = lvar(u, -1)
    a_plus = ZERO
    a_minus = ZERO
    g = ZERO
    for p in range(1, q.N + 1):
        fp = f_poly(q, p, u)
        fp_inv = fp.invert_var(u)
        a_plus = a_plus + A(p) * fp - A(-p + 1) * (uu * fp_inv)
        a_minus = a_minus + A(-p + 1) * (uinv * fp) - A(p) * fp_inv
        g = g + G(p) * (fp + fp_inv - q.alphas[p])
    entries = ((g, a_minus), (a_plus, -g))
    return OperatorMatrix(entries, p_poly(q, u), u, q, f"B-onsager-N{q.N}")


def f_tilde_poly(qa: QuotientA, k: int, u: str) -> LaurentPoly:
    """sum(beta_p U^(p-k-1), p = k+1..N) with U = (u + 1/u)/2."""
    big_u = (lvar(u) + lvar(u, -1)) * Fraction(1, 2)
    out = LaurentPoly()
    for p in range(k + 1, qa.N + 1):
        out = out + (big_u ** (p - k - 1)) * qa.betas[p]
    return out


def p_tilde_poly(qa: QuotientA, u: str) -> LaurentPoly:
    """sum(beta_p U^p, p = 0..N) with U = (u + 1/u)/2."""
    big_u = (lvar(u) + lvar(u, -1)) * Fraction(1, 2)
    out = LaurentPoly()
    for p in range(qa.N + 1):
        out = out + (big_u**p) * qa.betas[p]
    return out


def build_B_alt(qa: QuotientA, u: str = "u") -> OperatorMatrix:
    """The quotient operator matrix of the alternative presentation,
    [[-g/4, w_plus/u - w_minus], [-u w_plus + w_minus, g/4]] / (2 p~(U)),
    stored scaled by 2^(N+1), which clears the 1/2 of U and the 1/4: the
    coefficients of 2^(N-1) f~_k and 2^N p~ are integer combinations of betas."""
    uu = lvar(u)
    uinv = lvar(u, -1)
    w_plus = ZERO
    w_minus = ZERO
    g = ZERO
    for k in range(qa.N):
        gk = f_tilde_poly(qa, k, u) * 2 ** (qa.N - 1)
        fk = gk * 4
        w_plus = w_plus + Wm(k) * fk
        w_minus = w_minus + Wp(k) * fk
        g = g + Gt(k) * gk
    entries = (
        (-g, w_plus * uinv - w_minus),
        (w_plus * -uu + w_minus, g),
    )
    den = p_tilde_poly(qa, u) * 2 ** (qa.N + 2)
    return OperatorMatrix(entries, den, u, qa, f"B-alt-N{qa.N}")


# --- exchange-relation checks ------------------------------------------------------


def _exchange_residual(bu, bv, den_u, den_v, u, v, bracket_fn):
    """All denominators cleared, the exchange relation reads

        Dr [Bu_ij, Bv_kl] + [r21(v,u), B1(u)] den_v - [B2(v), r12(u,v)] den_u = 0

    with Dr = (u-v)(uv-1) and hatted (numerator) r matrices.  B1 = B(u) (x) I
    and B2 = I (x) B(v) place the entries of B; nothing is multiplied."""
    rhat_12, dr = r_matrix_num(u, v)
    rhat_21 = embed_leg(r_matrix_num(v, u)[0], (2, 1), 2)
    pairs = [(i, k) for i in range(2) for k in range(2)]  # (i, k) is index 2i+k
    lie = Matrix([[bracket_fn(bu[i][j], bv[k][l]) for j, l in pairs] for i, k in pairs])
    b1 = Matrix([[bu[i][j] if k == l else ZERO for j, l in pairs] for i, k in pairs])
    b2 = Matrix([[bv[k][l] if i == j else ZERO for j, l in pairs] for i, k in pairs])
    term1 = commutator(rhat_21, b1).scale(den_v)
    term2 = commutator(b2, rhat_12).scale(den_u)
    return lie.scale(dr) + term1 - term2


def verify_frt(B: OperatorMatrix, v: str = "v") -> Report:
    """Exact exchange-relation check for a finite quotient operator matrix."""
    report = Report("frt", params={"label": B.label})
    Bv = B.rename_spectral(v)
    residual = _exchange_residual(
        B.entries,
        Bv.entries,
        B.den,
        Bv.den,
        B.u,
        v,
        B.algebra.bracket_reduced,
    )
    reduce = B.algebra.reduce
    for r in range(4):
        for c in range(4):
            entry = reduce(residual[r, c])
            report.add(
                f"frt:{B.label}:entry{r}{c}",
                entry.is_zero(),
                entry,
            )
    return report


def _truncation_filter(x: AlgElem, bounds: dict) -> AlgElem:
    return AlgElem(
        {s: c.truncate(bounds) for s, c in x.terms.items()}
    )


def verify_frt_series_onsager(D: int, u: str = "u", v: str = "v") -> Report:
    """Exchange relation for the full algebra with currents truncated at degree D.

    All residual coefficients of total u-degree <= D and v-degree <= D are
    exact and must vanish; higher monomials are truncation artefacts and are
    dropped.
    """
    if D < 2:
        raise ValueError("need truncation degree D >= 2")
    report = Report("frt-series-onsager", params={"D": D})

    def currents(var):
        g = ZERO
        a_minus = ZERO
        a_plus = ZERO
        for n in range(0, D + 1):
            if n >= 1:
                g = g + G(n) * lvar(var, n)
                a_plus = a_plus + A(n) * lvar(var, n)
            a_minus = a_minus + A(-n) * lvar(var, n)
        return ((g, a_minus), (a_plus, -g))

    one = LaurentPoly.const(1)
    residual = _exchange_residual(
        currents(u), currents(v), one, one, u, v, bracket
    )
    bounds = {u: D, v: D}
    for r in range(4):
        for c in range(4):
            entry = _truncation_filter(residual[r, c], bounds)
            report.add(f"frt-series-onsager:entry{r}{c}:D{D}", entry.is_zero(), entry)
    return report


def verify_frt_series_alt(D: int) -> Report:
    """Component-current form of the exchange relation for the alternative
    presentation, coefficientwise in U^-1, V^-1 up to index D:

        (U-V)[w+(u), w-(v)] = g(v) - g(u)
        (U-V)[g(u), w+/-(v)] +/- 16 (U w+/-(u) - V w+/-(v) - w-/+(u) + w-/+(v)) = 0
        [w+/-(u), w+/-(v)] = 0,  [g(u), g(v)] = 0
    """
    if D < 2:
        raise ValueError("need truncation degree D >= 2")
    report = Report("frt-series-alt", params={"D": D})
    U, V = "U", "V"

    def currents(var):
        wp = ZERO
        wmn = ZERO
        g = ZERO
        for k in range(D + 1):
            c = lvar(var, -k - 1)
            wp = wp + Wm(k) * c
            wmn = wmn + Wp(k) * c
            g = g + Gt(k) * c
        return wp, wmn, g

    wp_u, wm_u, g_u = currents(U)
    wp_v, wm_v, g_v = currents(V)
    diff = lvar(U) - lvar(V)

    relations = {
        "ww": bracket_alt(wp_u, wm_v) * diff - (g_v - g_u),
        "gw+": bracket_alt(g_u, wp_v) * diff
        + (wp_u * lvar(U) - wp_v * lvar(V) - wm_u + wm_v) * 16,
        "gw-": bracket_alt(g_u, wm_v) * diff
        - (wm_u * lvar(U) - wm_v * lvar(V) - wp_u + wp_v) * 16,
        "w+w+": bracket_alt(wp_u, wp_v),
        "w-w-": bracket_alt(wm_u, wm_v),
        "gg": bracket_alt(g_u, g_v),
    }
    bounds = {U: (-D, None), V: (-D, None)}
    for name, residual in relations.items():
        entry = _truncation_filter(residual, bounds)
        report.add(f"frt-series-alt:{name}:D{D}", entry.is_zero(), entry)
    return report


# --- commuting charges ----------------------------------------------------------------


@dataclass
class ChargeParams:
    kappa: object
    kappas: object
    mu: object

    @classmethod
    def symbolic(cls) -> "ChargeParams":
        return cls(lvar("kappa"), lvar("kappas"), lvar("mu"))

    @classmethod
    def rational(cls, kappa, kappas, mu) -> "ChargeParams":
        return cls(Fraction(kappa), Fraction(kappas), Fraction(mu))


def m_matrix(c: ChargeParams, x: str = "x") -> Matrix:
    """[[mu/x, kappa + kappas/x], [kappa + kappas x, mu x]]."""
    xx = lvar(x)
    xinv = lvar(x, -1)
    return Matrix(
        [
            [xinv * c.mu, xinv * c.kappas + c.kappa * LaurentPoly.const(1)],
            [xx * c.kappas + c.kappa * LaurentPoly.const(1), xx * c.mu],
        ]
    )


def charges(q: QuotientO, c: ChargeParams) -> list:
    """The commuting family I_0, ..., I_{N-1}."""
    out = [A(0) * c.kappa + A(1) * c.kappas + G(1) * c.mu]
    for p in range(1, q.N):
        element = (
            (A(p) + A(-p)) * c.kappa
            + (A(p + 1) + A(-p + 1)) * c.kappas
            + (G(p + 1) - G(p - 1)) * c.mu
        )
        out.append(element)
    return out


def verify_commuting(q: QuotientO, charge_list=None, c=None) -> Report:
    """reduce([I_p, I_q]) must vanish for every pair."""
    if c is None:
        c = ChargeParams.symbolic()
    if charge_list is None:
        charge_list = charges(q, c)
    report = Report("charges", params={"N": q.N})
    for i in range(len(charge_list)):
        for j in range(i + 1, len(charge_list)):
            residual = q.bracket_reduced(charge_list[i], charge_list[j])
            report.add(
                f"charges:commute:N{q.N}:I{i}I{j}", residual.is_zero(), residual
            )
    return report


def expand_b(q: QuotientO, c: ChargeParams, u: str = "u"):
    """Decompose tr(M(u) B(u)) over the charges.

    Returns (factors, report): factors[p] is the Laurent polynomial
    f_p(u) - f_p(1/u) multiplying I_p once the common prefactor 1/p(u) is
    cleared; the report asserts the cleared identity coefficientwise.
    """
    B = build_B_onsager(q, u)
    M = m_matrix(c, u)
    lhs = ZERO
    for i in range(2):
        for j in range(2):
            lhs = lhs + B.entries[j][i] * M[i, j]
    factors = []
    rhs = ZERO
    charge_list = charges(q, c)
    for p in range(q.N):
        fp = f_poly(q, p, u)
        h = fp - fp.invert_var(u)
        factors.append(h)
        rhs = rhs + charge_list[p] * h
    report = Report("charges-expansion", params={"N": q.N})
    residual = lhs - rhs
    report.add(f"charges:expansion:N{q.N}", residual.is_zero(), residual)
    return factors, report


# --- the auxiliary-matrix commutation identity ------------------------------------------


RED_INTERPRETATIONS = ("r12", "r21", "r12-swapped", "r21-swapped", "r12-transpose1")


def _transpose_leg1(m: Matrix) -> Matrix:
    rows = []
    for i in range(2):
        for k in range(2):
            row = []
            for j in range(2):
                for l in range(2):
                    row.append(m[2 * j + k, 2 * i + l])
            rows.append(row)
    return Matrix(rows)


def _red_candidate(interpretation: str, u: str, v: str) -> Matrix:
    """The numerator of one reading of rbar; its denominator is dropped."""
    base = r_matrix_num(u, v)[0]
    swapped = r_matrix_num(v, u)[0]
    if interpretation == "r12":
        return base
    if interpretation == "r21":
        return embed_leg(base, (2, 1), 2)
    if interpretation == "r12-swapped":
        return swapped
    if interpretation == "r21-swapped":
        return embed_leg(swapped, (2, 1), 2)
    if interpretation == "r12-transpose1":
        return _transpose_leg1(base)
    raise ValueError(
        f"unknown interpretation {interpretation!r}; choose from {RED_INTERPRETATIONS}"
    )


def verify_reD(
    c: ChargeParams | None = None,
    interpretation: str = "r12",
    u: str = "u",
    v: str = "v",
) -> Report:
    """[tr_1(rbar_12(u,v) M_1(u)), M_2(v)] for one candidate reading of rbar.

    The overlined matrix is not pinned down by its source; each reading is a
    legitimate experiment and the report simply records whether the identity
    holds for the chosen one, with a numeric consistency spot check.  rbar
    enters as its numerator: its denominator is a nonzero scalar, so it does
    not change whether the commutator vanishes.  The spot check evaluates
    rbar, M(u) and M(v) first and multiplies over Fraction, so it does not
    share the polynomial multiplication of the symbolic verdict.
    """
    if c is None:
        c = ChargeParams.symbolic()
    report = Report("reD", params={"interpretation": interpretation})
    matrices = (_red_candidate(interpretation, u, v), m_matrix(c, u), m_matrix(c, v))

    def identity_lhs(rbar, m_u, m_v):
        traced = partial_trace(rbar * kron(m_u, Matrix.identity(2)), 1)
        return commutator(traced, m_v)

    comm = identity_lhs(*matrices)
    bad = [(i, j) for i in range(2) for j in range(2) if comm[i, j]]
    report.add(
        f"reD:{interpretation}:symbolic",
        not bad,
        f"nonzero commutator entries at {bad}",
    )
    bindings = {
        u: Fraction(2),
        v: Fraction(3),
        "kappa": Fraction(1),
        "kappas": Fraction(2),
        "mu": Fraction(5),
    }
    numeric = identity_lhs(*(m.evaluate(bindings) for m in matrices))
    report.add(
        f"reD:{interpretation}:numeric-agrees",
        numeric.is_zero() == (not bad),
        "numeric evaluation disagrees with the symbolic verdict",
    )
    return report


def reD_survey(c: ChargeParams | None = None) -> dict:
    """Which candidate readings satisfy the identity (True/False per name)."""
    out = {}
    for name in RED_INTERPRETATIONS:
        rep = verify_reD(c, name)
        out[name] = all(
            ch.status == "pass" for ch in rep.checks if ch.id.endswith("symbolic")
        )
    return out

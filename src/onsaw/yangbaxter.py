"""The r-matrix, the non-standard classical Yang-Baxter machinery, and the
exchange-relation checks for the operator matrices of both presentations.

The exchange relation being verified throughout is

    [B_1(u), B_2(v)] = [r_21(v,u), B_1(u)] + [B_2(v), r_12(u,v)]

with B_1 = B (x) I, B_2 = I (x) B.  Products of B entries on different legs
collapse to Lie brackets, so the left side stays inside the Lie algebra.  All
checks clear every denominator first ((u-v)(uv-1) from the r-matrix and the
scalar prefactors of the operator matrices), leaving residual entries whose
coefficients are plain Laurent polynomials required to vanish identically.

The cleared residual C(u,v) of an operator matrix B satisfies the leg-flip
identity C(u,v) = P C(v,u) P, where P swaps the two tensor legs, so the
exchange checks build 10 of its 16 entries and rename u <-> v for the other 6.
The identity rests on three hypotheses, each checked elsewhere:

- the bracket is antisymmetric: test_bracket_antisymmetry,
  test_structure_constant_tables_are_antisymmetric and, for the gl2 bracket
  of `cybe`, test_unit_bracket_is_antisymmetric_and_satisfies_jacobi check
  it, and the `dg` suite checks the structure constants of the Onsager one;
- r21(v,u) = P r12(v,u) P: r21 is r12 embedded on the legs (2, 1), which
  test_swapped_legs_equal_flip_conjugation checks is conjugation by P, and
  the `cybe` suite checks the r-matrix itself;
- Dr(v,u) = -Dr(u,v): Dr = (u-v)(uv-1) is the denominator of r_matrix_num,
  which test_r_matrix_entries pins, and verify_cybe checks it of a candidate.

The renaming is sound only when u != v and neither occurs in a coefficient
of the quotient.  verify_frt and verify_frt_series_onsager take the spectral
names from their caller and raise ValueError otherwise; verify_cybe runs at u
and v (and w on its third leg), verify_reD at u and v, and expand_b at u.

Entry (2i+k, 2j+l) of C has the bracket [B_ij(u), B_kl(v)], and the built
entries share brackets where entries of B agree up to sign: the operator
matrices of both presentations, the series currents and the B(u) = r(u, w)
of `cybe` are traceless, B_11 = -B_00, so their 10 built entries need 6
brackets.  `_canonical` finds the equal entries at run time, by exact
comparison, so this adds no hypothesis, and any other B takes 10 brackets
through the same code.  The bracket is bilinear and each entry is reduced
after its sum, so every entry is the same, term for term, as with one
bracket per entry.

The operator matrices take their coefficients from the tails
t_k = sum(c_j x^(j-k), j = k..N) of (c_0, ..., c_N), which `_tails` computes
by t_N = c_N, t_(k-1) = c_(k-1) + x t_k.  The alphas at x = 1/u and x = u
give f_p(u) and f_p(1/u), the prefactor p(u) = f_0(u) + f_0(1/u) - alpha_0
and the charge factors f_p(u) - f_p(1/u); the betas at x = U = (u + 1/u)/2
give the prefactor p~(U) = t_0 and the components f~_k = t_(k+1).
"""

from fractions import Fraction

from .altpres import QuotientA, bracket_alt
from .elements import AlgElem
from .matrices import Matrix, commutator, embed_leg, partial_trace
from .onsager import A, G, bracket
from .quotient import QuotientO
from .reports import InputError, Report
from .scalars import P_ONE, LaurentPoly, accumulate, lvar


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


def _unit_bracket(s: tuple, t: tuple) -> AlgElem:
    """[E_ab, E_cd] = delta_bc E_ad - delta_da E_cb, for E_ab = ("E", (a, b))."""
    (a, b), (c, d) = s[1], t[1]
    return AlgElem({("E", (a, d)): int(b == c)}) - AlgElem({("E", (c, b)): int(d == a)})


def verify_cybe(r: tuple | None = None) -> Report:
    """The non-standard classical Yang-Baxter equation for a candidate r-matrix:

        [r_13, r_23] - [r_21, r_13] - [r_23, r_12] = 0

    with spectral arguments (u1,u3), (u2,u3), (u2,u1), (u1,u2).  The candidate
    is a pair (numerator Matrix N, denominator d) in u, v, as from
    r_matrix_num; d must change sign under u <-> v, else ValueError.  With u,
    v, w for u1, u2, u3, this is the exchange relation of B(u) = r(u, w), with
    B_ij = sum_ab N[2i+a, 2j+b](u, w) E_ab in gl2 on leg 3 and the candidate
    as r, so `_exchange_residual` builds d12 [N13, N23] + d23 [N21, N13] -
    d13 [N23, N12].  Times the nonzero d21 = -d12, this is the 8x8 cleared
    form [N13, N23] d12 d21 - [N21, N13] d23 d12 - [N23, N12] d13 d21, whose
    entry (2r+a, 2c+b) is the E_ab coefficient of residual entry (r, c).  A
    numeric spot check evaluates the 4x4 N_ab / d_ab at a rational point
    before `embed_leg` and multiplies over Fraction.
    """
    report = Report()
    num, den = r_matrix_num() if r is None else r
    if den.rename({"u": "v", "v": "u"}) != -den:
        raise ValueError(f"r-matrix denominator {den} is not odd under u <-> v")

    def r_at(x, y):  # the candidate at the spectral names (x, y)
        names = {"u": x, "v": y}
        return num.map(lambda e: e.rename(names)), den.rename(names)

    def gl2(x, y):
        return bracket(x, y, sym_bracket=_unit_bracket)

    n_uw, d_uw = r_at("u", "w")
    units = [(a, b) for a in range(2) for b in range(2)]

    def b_entry(i, j):  # sum_ab N[2i+a, 2j+b](u, w) E_ab
        return AlgElem({("E", (a, b)): n_uw[2 * i + a, 2 * j + b] for a, b in units})

    bu = [[b_entry(i, j) for j in range(2)] for i in range(2)]
    residual = _exchange_residual(bu, d_uw, "u", "v", gl2, lambda x: x, r_at)
    bad = sorted(
        (2 * r + a, 2 * c + b) for (r, c), x in residual.items() for _, (a, b) in x.terms
    )
    more = "..." if len(bad) > 6 else ""
    report.add("cybe:symbolic", bad and f"nonzero residual at entries {bad[:6]}{more}")

    def r_num(a, b):  # r_ab at (u_a, u_b), u = (2, 3, 5), on legs a and b of three
        at = {"u": (2, 3, 5)[a - 1], "v": (2, 3, 5)[b - 1]}
        return embed_leg(num.evaluate(at).scale(1 / den.evaluate(at)), (a, b), 3)

    r13, r23, r12, r21 = r_num(1, 3), r_num(2, 3), r_num(1, 2), r_num(2, 1)
    numeric = commutator(r13, r23) - commutator(r21, r13) - commutator(r23, r12)
    report.add(
        "cybe:numeric-agrees",
        numeric.is_zero() == bool(bad)
        and "numeric evaluation disagrees with the symbolic verdict",
    )
    return report


def corrupted_r_matrix() -> tuple:
    """The r-matrix pair with the (1,4) numerator shifted by +1 (negative control)."""
    num, den = r_matrix_num()
    rows = [list(row) for row in num.entries]
    rows[0][3] = rows[0][3] + LaurentPoly.const(1)
    return Matrix(rows), den


# --- operator matrices -----------------------------------------------------------


class OperatorMatrix:
    """A 2x2 matrix of algebra elements with a common scalar denominator.

    The represented matrix is entries/den.  `algebra` is the ambient quotient
    (QuotientO or QuotientA); verify_frt uses its bracket_reduced and reduce.
    """

    def __init__(
        self, entries: tuple, den: LaurentPoly, u: str, algebra, label: str
    ):
        self.entries = entries
        self.den = den
        self.u = u
        self.algebra = algebra
        self.label = label

    def with_entry(self, i: int, j: int, value: AlgElem) -> "OperatorMatrix":
        rows = [list(row) for row in self.entries]
        rows[i][j] = value
        return OperatorMatrix(
            tuple(tuple(row) for row in rows), self.den, self.u, self.algebra, self.label
        )


def _renamed(x: AlgElem, mapping: dict) -> AlgElem:
    """x with the variables of its polynomial coefficients renamed."""
    return x.map_coeffs(
        lambda c: c.rename(mapping) if isinstance(c, LaurentPoly) else c
    )


def _tails(coeffs, x) -> list:
    """[t_0, ..., t_N] with t_k = sum(c_j x^(j-k), j = k..N), by Horner."""
    out = [LaurentPoly()]  # t_(N+1) = 0, so every t_k is a LaurentPoly
    for c in reversed(coeffs):
        out.append(x * out[-1] + c)
    return out[:0:-1]  # t_0 first, t_(N+1) dropped


def build_B_onsager(q: QuotientO, u: str = "u") -> OperatorMatrix:
    """The quotient operator matrix [[g, a_minus], [a_plus, -g]] / p(u)."""
    uu = lvar(u)
    uinv = lvar(u, -1)
    f, f_inv = _tails(q.alphas, uinv), _tails(q.alphas, uu)
    a_plus, a_minus, g = {}, {}, {}
    for p in range(1, q.N + 1):
        a_plus[("A", p)] = f[p]
        a_plus[("A", 1 - p)] = -(uu * f_inv[p])
        a_minus[("A", 1 - p)] = uinv * f[p]
        a_minus[("A", p)] = -f_inv[p]
        g[("G", p)] = f[p] + f_inv[p] - q.alphas[p]
    g = AlgElem(g)
    entries = ((g, AlgElem(a_minus)), (AlgElem(a_plus), -g))
    den = f[0] + f_inv[0] - q.alphas[0]
    return OperatorMatrix(entries, den, u, q, f"B-onsager-N{q.N}")


def build_B_alt(qa: QuotientA, u: str = "u") -> OperatorMatrix:
    """The quotient operator matrix of the alternative presentation,
    [[-g/4, w_plus/u - w_minus], [-u w_plus + w_minus, g/4]] / (2 p~(U)),
    stored scaled by 2^(N+1), which clears the 1/2 of U and the 1/4: the
    coefficients of 2^(N-1) f~_k and 2^N p~ are integer combinations of betas."""
    uu = lvar(u)
    uinv = lvar(u, -1)
    tails = _tails(qa.betas, (uu + uinv) * Fraction(1, 2))  # [p~, f~_0, ...]
    w_plus, w_minus, g = {}, {}, {}
    for k in range(qa.N):
        gk = tails[k + 1] * 2 ** (qa.N - 1)
        w_plus[("Wm", k)] = w_minus[("Wp", k)] = gk * 4
        g[("Gt", k)] = gk
    w_plus, w_minus, g = AlgElem(w_plus), AlgElem(w_minus), AlgElem(g)
    entries = (
        (-g, w_plus * uinv - w_minus),
        (w_plus * -uu + w_minus, g),
    )
    den = tails[0] * 2 ** (qa.N + 2)
    return OperatorMatrix(entries, den, u, qa, f"B-alt-N{qa.N}")


# --- exchange-relation checks ------------------------------------------------------


_FLIP = (0, 2, 1, 3)  # the leg flip P on tensor indices: 2i+k -> 2k+i

# The entries of C(u,v) that `_exchange_residual` builds: the 4 fixed by the
# leg flip and one of each mirror pair, (2,3) and (3,2) rather than (1,3) and
# (3,1), so that for a traceless B their brackets are those of (0,1), (1,0).
_BUILT = (
    (0, 0), (0, 1), (0, 3), (1, 0), (1, 1), (1, 2), (2, 3), (3, 0), (3, 2), (3, 3)
)


def _canonical(bu) -> dict:
    """{(i, j): ((a, b), sign)} with bu[i][j] = sign * bu[a][b], where (a, b)
    is the first entry, in row-major order, equal to +-bu[i][j]: for the
    traceless B of the checks, (1, 1) maps to ((0, 0), -1) and every other
    entry to itself."""
    out = {}
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        x = bu[i][j]
        out[i, j] = next(
            ((e, sign) for e in out for sign in (1, -1) if x == bu[e[0]][e[1]] * sign),
            ((i, j), 1),
        )
    return out


def _exchange_residual(bu, den_u, u, v, bracket_fn, finish, r_at):
    """All denominators cleared, the exchange relation for B(u) = bu/den_u reads

        C(u,v) = Dr [Bu_ij, Bv_kl] + [r21(v,u), B1(u)] den_v - [B2(v), r12(u,v)] den_u = 0

    with (rhat_12, Dr) = r_at(u, v) and rhat_21 = r_at(v, u)[0] on legs (2, 1).
    B(v) = bv/den_v is B(u) with u renamed to v.  At row (i,k) and column
    (j,l), index 2i+k and 2j+l, B1 = B(u) (x) I and B2 = I (x) B(v) vanish off
    i = j and k = l, so the two commutator entries are the sums over a in {0, 1}

        [r21, B1] = r21[(i,k),(a,l)] bu_aj - bu_ia r21[(a,k),(j,l)]
        [B2, r12] = bv_ka r12[(i,a),(j,l)] - r12[(i,k),(j,a)] bv_al

    Each is summed by `accumulate` into the entry's dict, weighted by den_v
    and -den_u, next to the bracket weighted by Dr, so every polynomial
    coefficient is added in place and no matrix product is built.  Returns
    {(r, c): entry of C passed through `finish`}, in row-major order.

    C(u,v) = P C(v,u) P (see the module docstring): entry (sigma r, sigma c)
    is entry (r,c) with u and v swapped, sigma = _FLIP.  So only the 10
    entries of _BUILT are built, the 4 fixed by sigma and one of each mirror
    pair; the other 6 are renamed mirrors.  This needs the three hypotheses
    of the module docstring (an antisymmetric bracket_fn, r21(v,u) = P
    r12(v,u) P and Dr(v,u) = -Dr(u,v)), u != v, and a `finish` that commutes
    with swapping u and v; the callers check the names, and verify_cybe
    checks Dr.

    Entries of bu equal up to sign share a bracket: with bu_ij = s_x bu_x and
    bu_kl = s_y bu_y as `_canonical` finds them at run time, the bracket is
    s_x s_y [bu_x, bv_y], since bracket_fn is bilinear, so Dr [bu_x, bv_y] is
    built once per canonical pair (x, y) and added with its sign.  A traceless
    B needs 6 brackets for the 10 entries, any other B 10.  `finish` runs
    after the sum, so every entry is what the bracket of its own entries
    gives, term for term."""
    bv = tuple(tuple(_renamed(e, {u: v}) for e in row) for row in bu)
    den_v = den_u.rename({u: v})
    rhat_12, dr = r_at(u, v)
    rhat_21 = embed_leg(r_at(v, u)[0], (2, 1), 2)
    pairs = [(i, k) for i in range(2) for k in range(2)]  # (i, k) is index 2i+k
    minus_den_u = -den_u
    canonical = _canonical(bu)
    uses = {}  # canonical pair (x, y) -> [((r, c), s_x s_y)], in _BUILT order
    for r, c in _BUILT:
        (i, k), (j, l) = pairs[r], pairs[c]
        (x, s_x), (y, s_y) = canonical[i, j], canonical[k, l]
        uses.setdefault((x, y), []).append(((r, c), s_x * s_y))
    built = {}
    for (x, y), entries in uses.items():
        bracket_xy = bracket_fn(bu[x[0]][x[1]], bv[y[0]][y[1]])
        # An element, so its sums are frozen and each use adds it unchanged.
        scaled = AlgElem(accumulate({}, bracket_xy.terms, dr))
        for (r, c), sign in entries:
            (i, k), (j, l) = pairs[r], pairs[c]
            t1, t2 = {}, {}
            for a in range(2):
                accumulate(t1, bu[a][j].terms, rhat_21[r, 2 * a + l])
                accumulate(t1, bu[i][a].terms, -rhat_21[2 * a + k, c])
                accumulate(t2, bv[k][a].terms, rhat_12[2 * i + a, c])
                accumulate(t2, bv[a][l].terms, -rhat_12[r, 2 * j + a])
            acc = accumulate({}, t1, den_v)
            accumulate(acc, t2, minus_den_u)
            accumulate(acc, scaled.terms, None if sign == 1 else -1)
            built[r, c] = finish(AlgElem(acc))
    swap = {u: v, v: u}
    out = {}
    for r in range(4):
        for c in range(4):
            mirror = (_FLIP[r], _FLIP[c])
            out[r, c] = built[r, c] if (r, c) in built else _renamed(built[mirror], swap)
    return out


def verify_frt(B: OperatorMatrix, v: str = "v") -> Report:
    """Exact exchange-relation check for a finite quotient operator matrix.

    Raises ValueError when v is B.u or a quotient coefficient uses B.u or v."""
    q = B.algebra
    _check_spectral_names(B.u, v, q.alphas if isinstance(q, QuotientO) else q.betas)
    report = Report()
    residual = _exchange_residual(
        B.entries, B.den, B.u, v, q.bracket_reduced, q.reduce, r_matrix_num
    )
    for (r, c), entry in residual.items():
        report.add(f"frt:{B.label}:entry{r}{c}", entry)
    return report


def _check_spectral_names(u: str, v: str, coeffs=()) -> None:
    """ValueError unless u and v are two names that no coefficient uses."""
    if u == v:
        raise ValueError(f"the two spectral variables must differ, both are {u!r}")
    for c in coeffs:
        if isinstance(c, LaurentPoly) and any(
            e for name in (u, v) for e in c.coefficients_in(name)
        ):
            raise ValueError(
                f"a quotient coefficient {c} uses a spectral variable ({u!r} or {v!r})"
            )


def verify_frt_series_onsager(D: int, u: str = "u", v: str = "v") -> Report:
    """Exchange relation for the full algebra with currents truncated at degree D.

    All residual coefficients of total u-degree <= D and v-degree <= D are
    exact and must vanish; higher monomials are truncation artefacts and are
    dropped.  Raises InputError for D < 2 and ValueError for u == v.
    """
    if D < 2:
        raise InputError("need truncation degree D >= 2")
    _check_spectral_names(u, v)
    report = Report()

    powers = [lvar(u, n) for n in range(D + 1)]
    g = AlgElem({("G", n): powers[n] for n in range(1, D + 1)})
    a_minus = AlgElem({("A", -n): powers[n] for n in range(D + 1)})
    a_plus = AlgElem({("A", n): powers[n] for n in range(1, D + 1)})
    bounds = {u: (None, D), v: (None, D)}
    residual = _exchange_residual(
        ((g, a_minus), (a_plus, -g)),
        P_ONE,
        u,
        v,
        bracket,
        lambda x: x.map_coeffs(lambda c: c.truncate(bounds)),
        r_matrix_num,
    )
    for (r, c), entry in residual.items():
        report.add(f"frt-series-onsager:entry{r}{c}:D{D}", entry)
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
    report = Report()
    U, V = "U", "V"

    def currents(var):
        powers = [lvar(var, -k - 1) for k in range(D + 1)]
        return tuple(
            AlgElem({(kind, k): c for k, c in enumerate(powers)})
            for kind in ("Wm", "Wp", "Gt")
        )

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
        entry = residual.map_coeffs(lambda c: c.truncate(bounds))
        report.add(f"frt-series-alt:{name}:D{D}", entry)
    return report


# --- commuting charges ----------------------------------------------------------------


class ChargeParams:
    """The coefficients kappa, kappas and mu of M(x) and of the charges."""

    def __init__(self, kappa, kappas, mu):
        self.kappa = kappa
        self.kappas = kappas
        self.mu = mu

    @classmethod
    def symbolic(cls) -> "ChargeParams":
        return cls(lvar("kappa"), lvar("kappas"), lvar("mu"))


def m_matrix(c: ChargeParams, x: str = "x") -> Matrix:
    """[[mu/x, kappa + kappas/x], [kappa + kappas x, mu x]]."""
    xx = lvar(x)
    xinv = lvar(x, -1)
    return Matrix(
        [
            [xinv * c.mu, xinv * c.kappas + c.kappa],
            [xx * c.kappas + c.kappa, xx * c.mu],
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
    """[I_p, I_q] must vanish in the Onsager algebra, so in the quotient too,
    for every pair; the quotient enters the `charges` suite only through
    expand_b."""
    if c is None:
        c = ChargeParams.symbolic()
    if charge_list is None:
        charge_list = charges(q, c)
    report = Report()
    for i in range(len(charge_list)):
        for j in range(i + 1, len(charge_list)):
            residual = bracket(charge_list[i], charge_list[j])
            report.add(f"charges:commute:N{q.N}:I{i}I{j}", residual)
    return report


def expand_b(q: QuotientO, c: ChargeParams):
    """Decompose tr(M(u) B(u)) over the charges.

    Returns (factors, report): factors[p] is the Laurent polynomial
    f_p(u) - f_p(1/u) multiplying I_p once the common prefactor 1/p(u) is
    cleared; the report asserts the cleared identity coefficientwise.
    """
    u = "u"
    B = build_B_onsager(q, u)
    M = m_matrix(c, u)
    residual = {}  # tr(M B) - sum(I_p h_p)
    for i in range(2):
        for j in range(2):
            accumulate(residual, B.entries[j][i].terms, M[i, j])
    f, f_inv = _tails(q.alphas, lvar(u, -1)), _tails(q.alphas, lvar(u))
    factors = [f[p] - f_inv[p] for p in range(q.N)]
    for charge, h in zip(charges(q, c), factors):
        accumulate(residual, charge.terms, -h)
    report = Report()
    report.add(f"charges:expansion:N{q.N}", AlgElem(residual))
    return factors, report


# --- the auxiliary-matrix commutation identity ------------------------------------------


def verify_reD(c: ChargeParams | None = None) -> Report:
    """[tr_1(rbar_12(u,v) M_1(u)), M_2(v)] = 0, with a numeric spot check.

    rbar is r12, the numerator of r_matrix_num.  The transfer-matrix lemma
    (Sklyanin's trace argument, test_transfer_lemma in
    tests/test_yangbaxter.py) pins that reading: with B(u), B(v) formal,
    tr12((M(u) (x) M(v)) [r21(v,u), B1(u)]) and tr12((M(u) (x) M(v))
    [B2(v), r12(u,v)]) vanish for r12, and not for its leg flip or for r12
    with u and v swapped.  rbar enters as its numerator: its denominator is
    a nonzero scalar, so it does not change whether the commutator vanishes.
    The spot check evaluates rbar, M(u) and M(v) first and multiplies over
    Fraction, so it does not share the polynomial multiplication of the
    symbolic verdict.
    """
    if c is None:
        c = ChargeParams.symbolic()
    report = Report()
    matrices = (r_matrix_num()[0], m_matrix(c, "u"), m_matrix(c, "v"))

    def identity_lhs(rbar, m_u, m_v):
        traced = partial_trace(rbar * embed_leg(m_u, (1,), 2), 1)
        return commutator(traced, m_v)

    comm = identity_lhs(*matrices)
    bad = [(i, j) for i in range(2) for j in range(2) if comm[i, j]]
    report.add("reD:r12:symbolic", bad and f"nonzero commutator entries at {bad}")
    bindings = {
        "u": Fraction(2),
        "v": Fraction(3),
        "kappa": Fraction(1),
        "kappas": Fraction(2),
        "mu": Fraction(5),
    }
    numeric = identity_lhs(*(m.evaluate(bindings) for m in matrices))
    report.add(
        "reD:r12:numeric-agrees",
        numeric.is_zero() == bool(bad)
        and "numeric evaluation disagrees with the symbolic verdict",
    )
    return report


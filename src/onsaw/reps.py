"""Matrix representations of the finite quotients extracted from the r-matrix.

For evaluation points w_1, ..., w_N the scalar prefactor factorizes,

    p(u) = prod_j (u + 1/u - w_j - 1/w_j),

which fixes the quotient coefficients.  Summing one embedded r-matrix leg per
point, S(u) = sum_j r_{1,j+1}(u, w_j), reproduces the operator matrix with
its entries replaced by 2^N x 2^N matrices.  Clearing every denominator turns
the block identity into an equality of Laurent polynomials in u,

    num_S(u) = u^N (prod_j w_j) * sum_k c_k(u) pi(X_k),

so matching u-coefficients gives a linear system that peels off one generator
at a time (the extreme powers each carry a single unknown with an invertible
monomial coefficient).  The solved matrices have plain Laurent-polynomial
entries; every unused coefficient equation doubles as a consistency check,
and a rational sample value of u cross-checks all four blocks at once.
Sizes beyond N = 2 are supported but exercised only experimentally.
"""

from fractions import Fraction
from math import prod

from .elements import AlgElem
from .matrices import Matrix, commutator, embed_leg
from .quotient import QuotientO, defining_relations
from .reports import Report
from .scalars import LaurentPoly, as_coeff, lvar, unit_inverse
from .yangbaxter import build_B_onsager, p_poly, r_matrix_num


def _as_point(w):
    return lvar(w) if isinstance(w, str) else w


def rep_alphas(ws) -> list:
    """Quotient coefficients from the factorized prefactor; alpha_N comes out 1."""
    ws = [_as_point(w) for w in ws]
    product = LaurentPoly.const(1)
    uu = lvar("u")
    uinv = lvar("u", -1)
    for w in ws:
        w_inv = unit_inverse(w)
        if w_inv is None:
            raise ValueError(
                "evaluation points must be nonzero rationals or plain variables"
            )
        product = product * (uu + uinv - w - w_inv)
    alphas = []
    for p in range(len(ws) + 1):
        coeff = product.coefficient_of("u", -p)
        if coeff != product.coefficient_of("u", p):
            raise ValueError("prefactor expansion is not symmetric")
        alphas.append(as_coeff(coeff.const_value()) if coeff.is_const() else coeff)
    return alphas


def rep_quotient(ws) -> QuotientO:
    return QuotientO(rep_alphas(ws))


def _peel_solve(rows):
    """Solve sum_k row.coeffs[k] X_k = row.rhs by repeatedly peeling rows that
    carry a single unsolved unknown with an invertible (monomial) coefficient.

    rows: nonempty list of (coeffs list, rhs list), all of one shape; returns
    list of rhs-shaped solutions.  Leftover equations are verified exactly.
    """
    nunknowns = len(rows[0][0])
    solution = [None] * nunknowns
    rows = [
        (list(coeffs), list(rhs)) for coeffs, rhs in rows
    ]
    while any(s is None for s in solution):
        pick = None
        for coeffs, rhs in rows:
            live = [k for k in range(nunknowns) if solution[k] is None and coeffs[k]]
            if len(live) == 1:
                inv = unit_inverse(coeffs[live[0]])
                if inv is not None:
                    pick = (coeffs, rhs, live[0], inv)
                    break
        if pick is None:
            raise ValueError("singular extraction system (degenerate points)")
        coeffs, rhs, k, inv = pick
        solution[k] = [value * inv for value in rhs]
        for coeffs2, rhs2 in rows:
            c = coeffs2[k]
            if c:
                for e in range(len(rhs2)):
                    rhs2[e] = rhs2[e] - c * solution[k][e]
                coeffs2[k] = 0
    for coeffs, rhs in rows:
        if any(coeffs) or any(rhs):
            raise ValueError("inconsistent extraction system")
    return solution


def _cleared_sum(nums, dens):
    """sum_j nums[j] prod_{i != j} dens[i], the numerator of sum_j nums[j]/dens[j]."""
    one = LaurentPoly.const(1)
    total = None
    for j, num in enumerate(nums):
        piece = num.scale(prod(dens[:j] + dens[j + 1 :], start=one))
        total = piece if total is None else total + piece
    return total


def rep_build(ws):
    """Extract the generator matrices; returns (quotient, {symbol: Matrix})."""
    ws = [_as_point(w) for w in ws]
    N = len(ws)
    dim = 2**N
    u = "u"
    q = QuotientO(rep_alphas(ws))
    B = build_B_onsager(q, u)

    nums = []
    dens = []
    for j, w in enumerate(ws):
        num, den = r_matrix_num(u, w)
        nums.append(embed_leg(num, (1, j + 2), N + 1))
        dens.append(den)
    total_num = _cleared_sum(nums, dens)

    shift = lvar(u, N) * prod(ws, start=1)

    def extract(entry: AlgElem, a: int, b: int, syms: list) -> list:
        coeff_tables = [(entry.coeff(sym) * shift).coefficients_in(u) for sym in syms]
        rhs_tables = [
            total_num[a * dim + s, b * dim + t].coefficients_in(u)
            for s in range(dim)
            for t in range(dim)
        ]
        powers = set()
        for table in coeff_tables + rhs_tables:
            powers.update(table)
        zero = LaurentPoly()
        rows = []
        for e in sorted(powers):
            coeffs = [table.get(e, zero) for table in coeff_tables]
            rhs = [table.get(e, zero) for table in rhs_tables]
            rows.append((coeffs, rhs))
        flat = _peel_solve(rows)
        return [
            Matrix([values[s * dim : (s + 1) * dim] for s in range(dim)])
            for values in flat
        ]

    a_syms = [("A", n) for n in range(-N + 1, N + 1)]
    g_syms = [("G", m) for m in range(1, N + 1)]
    a_mats = extract(B.entries[0][1], 0, 1, a_syms)
    g_mats = extract(B.entries[0][0], 0, 0, g_syms)
    rep = dict(zip(a_syms, a_mats)) | dict(zip(g_syms, g_mats))
    return q, rep


def rep_apply(rep: dict, x: AlgElem) -> Matrix:
    dim = next(iter(rep.values())).rows
    out = Matrix.zeros(dim, dim, LaurentPoly())
    for sym, c in x.terms.items():
        out = out + rep[sym].scale(c)
    return out


def rep_check(q: QuotientO, rep: dict) -> Report:
    """Every defining relation of the quotient holds for the extracted matrices."""
    report = Report("rep", params={"N": q.N})
    bad = []
    for (s, t), rhs in defining_relations(q):
        if commutator(rep[s], rep[t]) != rep_apply(rep, rhs):
            bad.append((s, t))
    report.add(
        f"rep:relations:N{q.N}",
        not bad,
        f"commutator mismatch for pairs {bad[:4]}",
    )
    return report


_SAMPLE_VALUES = [Fraction(n) for n in (2, 3, 5, 7, 11, 13)] + [
    Fraction(3, 2),
    Fraction(5, 2),
]


def rep_matrix_identity_report(ws, q: QuotientO, rep: dict) -> Report:
    """Independent cross-check at a rational sample value of u: the identity
    p(u) S(u) = pi(B-hat(u)) holds for all four blocks at once, cleared of the
    leg denominators D_j: p sum_j N_j prod_{i != j} D_i = prod_i D_i pi(B-hat).

    (q, rep) is the representation rep_build(ws) extracted."""
    ws = [_as_point(w) for w in ws]
    N = len(ws)
    u = "u"
    B = build_B_onsager(q, u)
    p_of_u = p_poly(q, u)
    dim = 2**N
    value = None
    for candidate in _SAMPLE_VALUES:
        scale = p_of_u.subs(u, candidate)
        if scale:
            value = candidate
            break
    if value is None:
        raise ValueError("could not find an admissible sample value")
    nums = []
    dens = []
    for j, w in enumerate(ws):
        num, den = r_matrix_num(u, w)
        nums.append(embed_leg(num.map(lambda e: e.subs(u, value)), (1, j + 2), N + 1))
        dens.append(den.subs(u, value))
    total = _cleared_sum(nums, dens)
    den_all = prod(dens, start=LaurentPoly.const(1))
    report = Report("rep-identity", params={"N": N})
    ok = True
    for a in range(2):
        for b in range(2):
            expected = rep_apply(
                rep, B.entries[a][b].map_coeffs(lambda c: c.subs(u, value))
            )
            for s in range(dim):
                for t in range(dim):
                    got = scale * total[a * dim + s, b * dim + t]
                    if got != den_all * expected[s, t]:
                        ok = False
    report.add(
        f"rep:block-identity:N{N}",
        ok,
        f"block identity fails at u = {value}",
    )
    return report

"""Matrix representations of the finite quotients carried by r-matrix legs.

For evaluation points w_1, ..., w_N the scalar prefactor factorizes,

    p(u) = prod_j (u + 1/u - w_j - 1/w_j),

which fixes the quotient coefficients.  Summing one embedded r-matrix leg per
point, S(u) = sum_j r_{1,j+1}(u, w_j), reproduces the operator matrix with
its entries replaced by 2^N x 2^N matrices.  These matrices are known in
closed form: the loop realization A_n -> 2(t^n e + t^-n f),
G_k -> (t^k - t^-k) h of the Onsager algebra (Davies 1990), evaluated at
t = 1/w_j on tensor leg j,

    pi(A_n) = sum_j 2(w_j^-n e + w_j^n f),   pi(G_m) = sum_j (w_j^-m - w_j^m) h,

with plain Laurent-polynomial entries.  The certificate is the block identity
p(u) S(u) = pi(B-hat(u)), cleared of the leg denominators D_j and checked for
all four blocks as Laurent polynomials in u,

    p(u) sum_j N_j prod_{i != j} D_i = prod_i D_i pi(B-hat(u)).

It holds for every u, and it pins the representation down: the
u-coefficients of B-hat's entries are independent (each extreme power of u
carries a single generator with a monomial coefficient), so no other
matrices satisfy it.  The tests run both checks up to N = 3, where the
points w1, w2, w3 are symbols.
"""

from math import prod

from .elements import AlgElem, accumulate
from .matrices import Matrix, commutator, embed_leg
from .quotient import QuotientO, defining_relations
from .reports import InputError, Report
from .scalars import P_ONE, LaurentPoly, as_coeff, as_poly, frozen, lvar, unit_inverse
from .yangbaxter import build_B_onsager, r_matrix_num


def _as_point(w):
    return lvar(w) if isinstance(w, str) else as_poly(w)


def rep_alphas(ws) -> list:
    """Quotient coefficients from the factorized prefactor; alpha_N comes out 1."""
    ws = [_as_point(w) for w in ws]
    product = LaurentPoly.const(1)
    uu = lvar("u")
    uinv = lvar("u", -1)
    for w in ws:
        w_inv = unit_inverse(w)
        if w_inv is None:
            raise InputError(
                "evaluation points must be nonzero rationals or plain variables"
            )
        product = product * (uu + uinv - w - w_inv)
    split = product.coefficients_in("u")
    alphas = []
    for p in range(len(ws) + 1):
        coeff = split.get(-p, LaurentPoly())
        alphas.append(as_coeff(coeff.const_value()) if coeff.is_const() else coeff)
    return alphas


def _power(w: LaurentPoly, n: int) -> LaurentPoly:
    return w**n if n >= 0 else unit_inverse(w) ** -n


def rep_build(ws):
    """The loop realization at t = 1/w_j on tensor leg j (see the module
    docstring); returns (quotient, {symbol: Matrix})."""
    ws = [_as_point(w) for w in ws]
    N = len(ws)
    q = QuotientO(rep_alphas(ws))
    zero = LaurentPoly()
    rep = {}
    for kind, k in q.basis_syms():
        total = None
        for j, w in enumerate(ws):
            tk, tk_inv = _power(w, -k), _power(w, k)  # t^k, t^-k at t = 1/w
            if kind == "A":
                leg = Matrix([[zero, 2 * tk], [2 * tk_inv, zero]])
            else:
                leg = Matrix([[tk - tk_inv, zero], [zero, tk_inv - tk]])
            leg = embed_leg(leg, (j + 1,), N)
            total = leg if total is None else total + leg
        rep[kind, k] = total
    return q, rep


def _entries(m: Matrix, row: int = 0, col: int = 0) -> dict:
    """{(row + i, col + j): m[i, j]} over the nonzero entries of m."""
    rows = enumerate(m.entries)
    return {(row + i, col + j): e for i, r in rows for j, e in enumerate(r) if e}


def rep_apply(rep: dict, x: AlgElem) -> Matrix:
    """The matrix of x, the sum of c rep[sym] over its terms c sym.  One dict
    keyed by (row, column) holds every entry: `accumulate` adds c times each
    nonzero entry of rep[sym] into it in place, so no scaled or summed matrix
    is built, and `frozen` ends the sums."""
    dim = next(iter(rep.values())).rows
    out = {}
    for sym, c in x.terms.items():
        accumulate(out, _entries(rep[sym]), c)
    sums, zero = frozen(out), LaurentPoly()
    return Matrix([[sums.get((i, j), zero) for j in range(dim)] for i in range(dim)])


def rep_check(q: QuotientO, rep: dict) -> Report:
    """Every defining relation of the quotient holds for the matrices."""
    report = Report()
    bad = []
    for (s, t), rhs in defining_relations(q):
        if commutator(rep[s], rep[t]) != rep_apply(rep, rhs):
            bad.append((s, t))
    report.add(
        f"rep:relations:N{q.N}", bad and f"commutator mismatch for pairs {bad[:4]}"
    )
    return report


def rep_matrix_identity_report(ws, q: QuotientO, rep: dict) -> Report:
    """The block identity p(u) S(u) = pi(B-hat(u)) for all four blocks, cleared
    of the leg denominators D_j and exact in u:
    p sum_j N_j prod_{i != j} D_i = prod_i D_i pi(B-hat).

    (q, rep) is the representation rep_build(ws) gives."""
    ws = [_as_point(w) for w in ws]
    N = len(ws)
    dim = 2**N
    B = build_B_onsager(q, "u")
    legs = [r_matrix_num("u", w) for w in ws]
    dens = [den for _, den in legs]
    residual = {}  # the left side minus the right, keyed by (row, column)
    for j, (num, _) in enumerate(legs):
        factor = B.den * prod(dens[:j] + dens[j + 1 :], start=P_ONE)
        accumulate(residual, _entries(embed_leg(num, (1, j + 2), N + 1)), factor)
    minus_den_all = -prod(dens, start=P_ONE)
    for a in range(2):
        for b in range(2):
            block = rep_apply(rep, B.entries[a][b])
            accumulate(residual, _entries(block, a * dim, b * dim), minus_den_all)
    bad = sorted({(x // dim, y // dim) for x, y in residual})
    report = Report()
    report.add(
        f"rep:block-identity:N{N}", bad and f"block identity fails in blocks {bad}"
    )
    return report

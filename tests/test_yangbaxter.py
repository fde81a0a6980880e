"""The r-matrix, the consistency equation, exchange relations, and charges."""

from fractions import Fraction
from itertools import product

import pytest

from onsaw.altpres import Gt, QuotientA, Wm, Wp, alt_auto, beta_from_alpha
from onsaw.elements import ZERO, AlgElem
from onsaw.matrices import Matrix, commutator, embed_leg, kron
from onsaw.onsager import PHI, A, G, apply_auto, bracket
from onsaw.quotient import QuotientO
from onsaw.reports import FAIL, InputError
from onsaw.scalars import LaurentPoly, accumulate, decode_monomial, lvar
from onsaw.yangbaxter import (
    ChargeParams,
    OperatorMatrix,
    _renamed,
    _tails,
    _unit_bracket,
    build_B_alt,
    build_B_onsager,
    charges,
    corrupted_r_matrix,
    expand_b,
    m_matrix,
    r_matrix_num,
    verify_commuting,
    verify_cybe,
    verify_frt,
    verify_frt_series_alt,
    verify_frt_series_onsager,
    verify_reD,
)
from test_quotient import same_term_maps


def test_r_matrix_entries():
    num, den = r_matrix_num()
    u, v = lvar("u"), lvar("v")
    one = LaurentPoly.const(1)
    assert den == (u - v) * (u * v - one)
    assert num[0, 0] == u * (one - v * v)
    assert num[0, 3] == (u - v) * -2
    assert num[1, 2] == v * (u * v - one) * -2
    assert not num[0, 1]
    assert num[3, 3] == num[0, 0]


def test_r_matrix_numeric_values():
    num, den = r_matrix_num()
    bindings = {"u": Fraction(2), "v": Fraction(3)}
    assert den.evaluate(bindings) == -5
    values = num.evaluate(bindings).scale(1 / den.evaluate(bindings))
    assert values[0, 0] == Fraction(16, 5)
    assert values[0, 3] == Fraction(-2, 5)
    assert values[1, 2] == 6
    assert values[2, 1] == 4
    assert values[3, 0] == Fraction(-12, 5)
    assert values[1, 1] == Fraction(-16, 5)


def test_cybe_holds_symbolically():
    report = verify_cybe()
    assert report.status == "pass"


def test_cybe_negative_control():
    report = verify_cybe(corrupted_r_matrix())
    assert report.status == FAIL
    by_id = {c.id: c for c in report.checks}
    assert by_id["cybe:symbolic"].status == FAIL
    # the numeric spot check must agree with the symbolic verdict
    assert by_id["cybe:numeric-agrees"].status == "pass"


def refusing_polynomial_entries(method):
    """`method` (Matrix.__mul__ or Matrix.scale) that raises when either
    operand holds a LaurentPoly."""

    def guarded(self, other):
        cells = [a for m in (self, other) if isinstance(m, Matrix) for r in m.entries for a in r]
        if any(isinstance(a, LaurentPoly) for a in cells + [other]):
            raise AssertionError(f"Matrix.{method.__name__} on polynomial entries")
        return method(self, other)

    return guarded


def test_cybe_multiplies_no_polynomial_matrix(monkeypatch):
    """The cleared residual is summed entry by entry: with Matrix.__mul__ and
    Matrix.scale refusing polynomial entries, the r-matrix still passes and
    the corrupted one still fails."""
    for name in ("__mul__", "scale"):
        monkeypatch.setattr(Matrix, name, refusing_polynomial_entries(getattr(Matrix, name)))
    assert verify_cybe().status == "pass"
    report = verify_cybe(corrupted_r_matrix())
    assert [c.status for c in report.checks] == [FAIL, "pass"]


def test_cybe_numeric_verdict_multiplies_int_matrices(monkeypatch):
    """With every denominator cleared, the numeric spot check of the r-matrix
    and of its corruption multiplies matrices of ints only."""
    seen = set()
    mul = Matrix.__mul__

    def spy(self, other):
        seen.update(type(a) for m in (self, other) for row in m.entries for a in row)
        return mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", spy)
    assert [c.status for c in verify_cybe().checks] == ["pass", "pass"]
    assert [c.status for c in verify_cybe(corrupted_r_matrix()).checks] == [FAIL, "pass"]
    assert seen == {int}


def test_cybe_numeric_verdict_refuses_a_pole_at_its_point():
    """d = (u - v)(u + v - 5) is odd under u <-> v and vanishes at (2, 3)."""
    u, v = lvar("u"), lvar("v")
    num, _ = r_matrix_num()
    with pytest.raises(ZeroDivisionError, match="vanishes at"):
        verify_cybe((num, (u - v) * (u + v - LaurentPoly.const(5))))


@pytest.mark.parametrize("entry", [(i, j) for i in range(4) for j in range(4)])
def test_cybe_rejects_each_shifted_numerator_entry(entry, monkeypatch):
    num, den = r_matrix_num()
    rows = [list(row) for row in num.entries]
    rows[entry[0]][entry[1]] = rows[entry[0]][entry[1]] + LaurentPoly.const(1)
    report = verify_cybe((Matrix(rows), den))
    by_id = {c.id: c for c in report.checks}
    assert by_id["cybe:symbolic"].status == FAIL
    assert by_id["cybe:numeric-agrees"].status == "pass"
    assert_cybe_matches_the_cleared_form((Matrix(rows), den), monkeypatch)


def cleared_cybe_entries(r):
    """The nonzero entries, row-major, of the 8x8 cleared form
    [N13, N23] d12 d21 - [N21, N13] d23 d12 - [N23, N12] d13 d21 of the
    candidate r = (N, d), built from polynomial matrices with embed_leg and
    Matrix products, as the CYBE was decided before it went through
    `_exchange_residual`."""
    num, den = r
    at = []  # (N_ab embedded on legs a and b of three, d_ab) at (u_a, u_b)
    for legs in ((1, 3), (2, 3), (1, 2), (2, 1)):
        names = {"u": f"u{legs[0]}", "v": f"u{legs[1]}"}
        renamed = num.map(lambda e: e.rename(names))
        at.append((embed_leg(renamed, legs, 3), den.rename(names)))
    (n13, d13), (n23, d23), (n12, d12), (n21, d21) = at
    cleared = (
        commutator(n13, n23).scale(d12 * d21)
        - commutator(n21, n13).scale(d23 * d12)
        - commutator(n23, n12).scale(d13 * d21)
    )
    return [(i, j) for i in range(8) for j in range(8) if cleared[i, j]]


def assert_cybe_matches_the_cleared_form(r, monkeypatch):
    """`cybe:symbolic` reports the nonzero entries of the cleared form, and
    the E_ab coefficient of entry (r, c) of the residual that verify_cybe
    builds is nonzero exactly at entry (2r+a, 2c+b) of the cleared form."""
    import onsaw.yangbaxter as yb

    residuals = []
    build = yb._exchange_residual

    def recording(*args):
        residuals.append(build(*args))
        return residuals[-1]

    monkeypatch.setattr(yb, "_exchange_residual", recording)
    report = verify_cybe(r)
    expected = cleared_cybe_entries(r)
    (residual,) = residuals
    got = [
        (2 * row + a, 2 * col + b)
        for (row, col), x in residual.items()
        for _, (a, b) in x.terms
    ]
    assert sorted(got) == expected
    more = "..." if len(expected) > 6 else ""
    text = f"nonzero residual at entries {expected[:6]}{more}" if expected else ""
    assert next(c.residual for c in report.checks if c.id == "cybe:symbolic") == text


@pytest.mark.parametrize(
    "make", [r_matrix_num, corrupted_r_matrix], ids=["r-matrix", "corrupted"]
)
def test_cybe_reports_the_nonzero_entries_of_the_cleared_form(make, monkeypatch):
    assert_cybe_matches_the_cleared_form(make(), monkeypatch)


def test_cybe_rejects_a_denominator_that_is_not_odd_under_the_swap():
    num, den = r_matrix_num()
    with pytest.raises(ValueError, match="is not odd under u <-> v"):
        verify_cybe((num, den + LaurentPoly.const(1)))


def unit_matrix(a, b):
    return Matrix([[int((i, j) == (a, b)) for j in range(2)] for i in range(2)])


def test_unit_bracket_is_antisymmetric_and_satisfies_jacobi():
    """The gl2 bracket of `cybe` on the matrix units E_ab is antisymmetric on
    all 16 pairs, which the leg-flip mirror of `_exchange_residual` needs,
    satisfies Jacobi on all 64 triples, and is the commutator of the unit
    matrices, so the residual of verify_cybe is that of the CYBE."""
    units = [(a, b) for a in range(2) for b in range(2)]
    elem = {ab: AlgElem.basis(("E", ab)) for ab in units}

    def br(x, y):
        return bracket(x, y, sym_bracket=_unit_bracket)

    for s in units:
        for t in units:
            x = br(elem[s], elem[t])
            assert x == -br(elem[t], elem[s])
            matrix = Matrix([[0, 0], [0, 0]])
            for (_, ab), c in x.terms.items():
                matrix = matrix + unit_matrix(*ab).scale(c)
            assert matrix == commutator(unit_matrix(*s), unit_matrix(*t))
    for x in elem.values():
        for y in elem.values():
            for z in elem.values():
                jacobi = br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y))
                assert jacobi.is_zero()


def test_b_matrix_n1_closed_form():
    q = QuotientO.symbolic(1)
    B = build_B_onsager(q)
    u = lvar("u")
    uinv = lvar("u", -1)
    assert B.den == u + lvar("alpha") + uinv
    assert B.entries[0][0] == G(1)
    assert B.entries[1][1] == G(1, Fraction(-1))
    assert B.entries[0][1] == A(0) * uinv - A(1)
    assert B.entries[1][0] == A(0) * -u + A(1)


def test_b_matrix_entries_have_no_scalar_part_and_balanced_diagonal():
    for N in (1, 2, 3):
        B = build_B_onsager(QuotientO.symbolic(N))
        assert (B.entries[0][0] + B.entries[1][1]).is_zero()
        for row in B.entries:
            for entry in row:
                assert all(sym[0] in ("A", "G") for sym in entry.terms)


def test_operator_matrix_entry_accessor_divides_by_the_prefactor():
    q = QuotientO.symbolic(1)
    B = build_B_onsager(q)
    # the (0, 0) entry is G(1)/p(u): numerator G(1) over the prefactor
    assert B.entries[0][0] == G(1)
    assert B.den == lvar("u") + lvar("alpha") + lvar("u", -1)


def test_alt_operator_matrix_is_integral_and_equals_the_unscaled_formula():
    u, uinv = lvar("u"), lvar("u", -1)
    for N in (1, 2, 3, 4):
        qa = QuotientA.symbolic(N)
        B = build_B_alt(qa)
        polys = [B.den] + [c for row in B.entries for e in row for c in e.terms.values()]
        assert all(type(x) is int for poly in polys for x in poly.terms.values())
        # [[-g/4, w_plus/u - w_minus], [-u w_plus + w_minus, g/4]] / (2 p~(U))
        big_u = (u + uinv) * Fraction(1, 2)
        den = sum((big_u**p * qa.betas[p] for p in range(N + 1)), LaurentPoly()) * 2
        expected = {}
        for k in range(N):
            fk = sum(
                (big_u ** (p - k - 1) * qa.betas[p] for p in range(k + 1, N + 1)),
                LaurentPoly(),
            )
            expected[0, 0, ("Gt", k)] = fk * Fraction(-1, 4)
            expected[0, 1, ("Wm", k)] = fk * uinv
            expected[0, 1, ("Wp", k)] = -fk
            expected[1, 0, ("Wm", k)] = fk * -u
            expected[1, 0, ("Wp", k)] = fk
            expected[1, 1, ("Gt", k)] = fk * Fraction(1, 4)
        got = {
            (i, j, sym): c
            for i in range(2)
            for j in range(2)
            for sym, c in B.entries[i][j].terms.items()
        }
        assert got.keys() == expected.keys()
        for key, num in expected.items():
            assert got[key] * den == num * B.den, key


def test_tails_of_the_alphas_are_f_p():
    q2 = QuotientO.symbolic(2)
    alpha = lvar("alpha")
    f = _tails(q2.alphas, lvar("u", -1))
    assert f[1] == alpha + lvar("u", -1)
    assert f[2] == LaurentPoly.const(1)
    assert build_B_onsager(q2).den == (
        lvar("u", 2)
        + alpha * lvar("u")
        + lvar("alphap")
        + alpha * lvar("u", -1)
        + lvar("u", -2)
    )


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_tails_are_the_tail_sums_and_give_both_prefactors(N):
    q, qa = QuotientO.symbolic(N), QuotientA.symbolic(N)
    u, uinv = lvar("u"), lvar("u", -1)
    big_u = (u + uinv) * Fraction(1, 2)
    for coeffs in (q.alphas, qa.betas):
        for x in (uinv, u, big_u):
            tails = _tails(coeffs, x)
            assert len(tails) == N + 1
            for k, t in enumerate(tails):
                expected = sum(
                    (coeffs[j] * x ** (j - k) for j in range(k, N + 1)), LaurentPoly()
                )
                assert t == expected, (coeffs, x, k)
    p_u = sum((q.alpha(p) * lvar("u", -p) for p in range(-N, N + 1)), LaurentPoly())
    assert build_B_onsager(q).den == p_u
    p_tilde = sum((qa.betas[p] * big_u**p for p in range(N + 1)), LaurentPoly())
    assert build_B_alt(qa).den == p_tilde * 2 ** (N + 2)


def test_b_matrix_n2_matches_displayed_entries():
    q = QuotientO.symbolic(2)
    B = build_B_onsager(q)
    u = lvar("u")
    uinv = lvar("u", -1)
    alpha = lvar("alpha")
    one = LaurentPoly.const(1)
    g_entry = G(2) + G(1) * (u + alpha + uinv)
    assert B.entries[0][0] == g_entry
    a_minus = (
        A(-1) * uinv
        + A(0) * (uinv * (alpha + uinv))
        - A(1) * (u + alpha)
        - A(2)
    )
    assert B.entries[0][1] == a_minus
    # the raising entry carries (alpha + 1/u) A_1; the series expansion of
    # p(u) A+(u) fixes that coefficient (it has a 1/u term)
    a_plus = (
        A(-1) * -u
        - A(0) * (u * (u + alpha))
        + A(1) * (alpha + uinv)
        + A(2) * one
    )
    assert B.entries[1][0] == a_plus


def test_frt_holds_for_onsager_quotients():
    for N in (1, 2):
        q = QuotientO.symbolic(N)
        assert verify_frt(build_B_onsager(q)).status == "pass"


def test_frt_negative_control():
    B = build_B_onsager(QuotientO.symbolic(1))
    # flip the sign of the A_1 term in the (0,1) entry
    corrupted_entry = A(0) * lvar("u", -1) + A(1)
    corrupted = B.with_entry(0, 1, corrupted_entry)
    assert verify_frt(corrupted).status == FAIL


def test_frt_alt_side():
    for N in (1, 2):
        qa = QuotientA.symbolic(N)
        assert verify_frt(build_B_alt(qa)).status == "pass"


def test_frt_alt_with_derived_betas():
    qa = beta_from_alpha(QuotientO.symbolic(2))
    assert verify_frt(build_B_alt(qa)).status == "pass"


def test_tails_of_the_betas_are_p_tilde_and_f_tilde():
    big_u = (lvar("u") + lvar("u", -1)) * Fraction(1, 2)
    p_tilde, f_tilde_0 = _tails(QuotientA.symbolic(1).betas, big_u)
    assert p_tilde == lvar("beta0") + lvar("beta1") * big_u
    assert f_tilde_0 == lvar("beta1") * LaurentPoly.const(1)
    _, f_tilde_0, f_tilde_1 = _tails(QuotientA.symbolic(2).betas, big_u)
    assert f_tilde_0 == lvar("beta1") + lvar("beta2") * big_u
    assert f_tilde_1 == lvar("beta2") * LaurentPoly.const(1)


def test_frt_series_low_order():
    assert verify_frt_series_onsager(2).status == "pass"
    assert verify_frt_series_onsager(4).status == "pass"
    assert verify_frt_series_alt(2).status == "pass"
    assert verify_frt_series_alt(4).status == "pass"
    with pytest.raises(ValueError):
        verify_frt_series_onsager(1)
    with pytest.raises(ValueError):
        verify_frt_series_alt(0)


@pytest.mark.parametrize("D", range(2, 9))
def test_series_residuals_have_one_sign_of_exponent_before_truncation(D, monkeypatch):
    """No exponent of u or v in the Onsager series residual is negative, and
    none of U or V in the alternative one is positive, so `truncate` to
    |e| <= D keeps exactly what a bound on one side would keep."""
    seen = []
    truncate = LaurentPoly.truncate

    def spy(self, names, degree):
        seen.append((tuple(names), degree, self))
        return truncate(self, names, degree)

    monkeypatch.setattr(LaurentPoly, "truncate", spy)
    assert verify_frt_series_onsager(D).status == "pass"
    assert verify_frt_series_alt(D).status == "pass"
    sign = {("u", "v"): 1, ("U", "V"): -1}
    assert {names for names, _, _ in seen} == set(sign)
    for names, degree, poly in seen:
        assert degree == D
        for key in poly.terms:
            exps = decode_monomial(key)
            assert all(sign[names] * exps.get(name, 0) >= 0 for name in names)


def test_both_series_checks_refuse_degree_below_2_as_input_errors():
    for check in (verify_frt_series_onsager, verify_frt_series_alt):
        with pytest.raises(InputError, match="need truncation degree D >= 2"):
            check(1)


def test_frt_series_detects_corrupted_bracket():
    from onsaw.onsager import bracket, sym_bracket
    import onsaw.yangbaxter as yb

    def corrupted(s, t):
        value = sym_bracket(s, t)
        if s[0] == "A" and t[0] == "A":
            return value * Fraction(5, 4)
        return value

    original = yb.bracket
    yb.bracket = lambda x, y: bracket(x, y, sym_bracket=corrupted)
    try:
        assert yb.verify_frt_series_onsager(3).status == FAIL
    finally:
        yb.bracket = original


# --- the exchange residual against the full-matrix formula ----------------------


def full_residual(bu, bv, den_u, den_v, u, v, bracket_fn, finish):
    """All 16 entries of the cleared exchange residual, row-major, each passed
    through `finish`, built as whole matrices with no leg-flip mirror."""
    rhat_12, dr = r_matrix_num(u, v)
    rhat_21 = embed_leg(r_matrix_num(v, u)[0], (2, 1), 2)
    pairs = [(i, k) for i in range(2) for k in range(2)]
    lie = Matrix([[bracket_fn(bu[i][j], bv[k][l]) for j, l in pairs] for i, k in pairs])
    b1 = Matrix([[bu[i][j] if k == l else ZERO for j, l in pairs] for i, k in pairs])
    b2 = Matrix([[bv[k][l] if i == j else ZERO for j, l in pairs] for i, k in pairs])
    residual = (
        lie.scale(dr)
        + commutator(rhat_21, b1).scale(den_v)
        - commutator(b2, rhat_12).scale(den_u)
    )
    return [finish(residual[r, c]) for r in range(4) for c in range(4)]


def frt_reference(B, v="v"):
    mapping = {B.u: v}
    bv = tuple(tuple(_renamed(e, mapping) for e in row) for row in B.entries)
    q = B.algebra
    den_v = B.den.rename(mapping)
    return full_residual(
        B.entries, bv, B.den, den_v, B.u, v, q.bracket_reduced, q.reduce
    )


def series_reference(D, bracket_fn, u="u", v="v"):
    def currents(var):
        powers = [lvar(var, n) for n in range(D + 1)]
        g = AlgElem({("G", n): powers[n] for n in range(1, D + 1)})
        a_minus = AlgElem({("A", -n): powers[n] for n in range(D + 1)})
        a_plus = AlgElem({("A", n): powers[n] for n in range(1, D + 1)})
        return ((g, a_minus), (a_plus, -g))

    one = LaurentPoly.const(1)

    def finish(x):
        return AlgElem({s: c.truncate((u, v), D) for s, c in x.terms.items()})

    return full_residual(currents(u), currents(v), one, one, u, v, bracket_fn, finish)


def verdicts(entries):
    return [("pass", "") if e.is_zero() else (FAIL, str(e)) for e in entries]


def both_diagonal_entries_times_3(B):
    """B with g scaled by 3 in both diagonal entries: still traceless, so its
    exchange residual shares brackets, and it fails."""
    return B.with_entry(0, 0, B.entries[0][0] * 3).with_entry(1, 1, B.entries[1][1] * 3)


def operator_matrices_and_corruptions(N):
    """B-onsager and B-alt at N, each with its four one-entry-times-3
    corruptions and the traceless corruption of both diagonal entries."""
    for B in (build_B_onsager(QuotientO.symbolic(N)), build_B_alt(QuotientA.symbolic(N))):
        yield B
        for i in range(2):
            for j in range(2):
                yield B.with_entry(i, j, B.entries[i][j] * 3)
        yield both_diagonal_entries_times_3(B)


def is_flip_mirror(entries, sign, u="u", v="v"):
    """Entry (r, c) equals sign times entry (sigma r, sigma c) with u <-> v."""
    flip = (0, 2, 1, 3)
    swap = {u: v, v: u}
    return all(
        entries[4 * flip[r] + flip[c]]
        == entries[4 * r + c].map_coeffs(lambda p: p.rename(swap)) * sign
        for r in range(4)
        for c in range(4)
    )


@pytest.mark.parametrize("N", [1, 2, 3])
def test_verify_frt_matches_the_full_matrix_residual(N):
    failing = 0
    for B in operator_matrices_and_corruptions(N):
        expected = verdicts(frt_reference(B))
        assert [(c.status, c.residual) for c in verify_frt(B).checks] == expected
        failing += sum(status == FAIL for status, _ in expected)
    assert failing > 0


@pytest.mark.parametrize("D", [2, 3, 4])
def test_frt_series_matches_the_full_matrix_residual(D, monkeypatch):
    import onsaw.yangbaxter as yb
    from onsaw.onsager import bracket, sym_bracket

    assert verdicts(series_reference(D, bracket)) == [
        (c.status, c.residual) for c in verify_frt_series_onsager(D).checks
    ]

    def scaled(s, t):  # still antisymmetric, so the mirror still holds
        value = sym_bracket(s, t)
        return value * Fraction(5, 4) if s[0] == t[0] == "A" else value

    def corrupted(x, y):
        return bracket(x, y, sym_bracket=scaled)

    monkeypatch.setattr(yb, "bracket", corrupted)
    expected = verdicts(series_reference(D, corrupted))
    assert FAIL in {status for status, _ in expected}
    assert [(c.status, c.residual) for c in yb.verify_frt_series_onsager(D).checks] == expected


def counting_brackets(monkeypatch) -> list:
    """Make each `_exchange_residual` run append the number of its
    bracket_fn calls to the returned list."""
    import onsaw.yangbaxter as yb

    counts = []
    build = yb._exchange_residual

    def counting(bu, den_u, u, v, bracket_fn, *rest):
        calls = []

        def counted(x, y):
            calls.append((x, y))
            return bracket_fn(x, y)

        residual = build(bu, den_u, u, v, counted, *rest)
        counts.append(len(calls))
        return residual

    monkeypatch.setattr(yb, "_exchange_residual", counting)
    return counts


@pytest.mark.parametrize("N", [1, 2, 3])
def test_a_covariant_operator_matrix_takes_4_brackets(N, monkeypatch):
    """A Phi-covariant B builds 6 entries from 4 brackets, and so does B
    with both diagonal entries times 3, which stays covariant."""
    counts = counting_brackets(monkeypatch)
    for B in (build_B_onsager(QuotientO.symbolic(N)), build_B_alt(QuotientA.symbolic(N))):
        for target, status in [(B, "pass"), (both_diagonal_entries_times_3(B), FAIL)]:
            assert verify_frt(target).status == status
            assert counts[-1] == 4


@pytest.mark.parametrize("N", [1, 2, 3])
def test_a_traceless_operator_matrix_takes_6_brackets(N, monkeypatch):
    """B_01 times 3 leaves B traceless but neither Phi- nor
    inversion-covariant, so its 10 built entries share 6 brackets; one
    diagonal entry times 3 breaks the sharing and keeps B
    inversion-covariant, and its 7 built entries take 7 brackets."""
    counts = counting_brackets(monkeypatch)
    for B in (build_B_onsager(QuotientO.symbolic(N)), build_B_alt(QuotientA.symbolic(N))):
        runs = [(B.with_entry(0, 1, B.entries[0][1] * 3), FAIL, 6)]
        runs += [(B.with_entry(i, i, B.entries[i][i] * 3), FAIL, 7) for i in range(2)]
        for target, status, brackets in runs:
            assert verify_frt(target).status == status
            assert counts[-1] == brackets


def test_the_series_currents_and_the_cybe_matrix_take_6_brackets(monkeypatch):
    counts = counting_brackets(monkeypatch)
    assert verify_frt_series_onsager(4).status == "pass"
    assert verify_cybe().status == "pass"
    assert verify_cybe(corrupted_r_matrix()).status == FAIL
    assert counts == [6, 6, 6]


def test_each_bracket_is_done_before_the_next_is_formed(monkeypatch):
    """Called with a recording bracket_fn and finish, `_exchange_residual`
    forms a bracket (B), finishes the built entries that share it (F), and
    only then forms the next: on the path of both mirrors of B-onsager and
    B-alt at N = 2 the 4 brackets serve 2, 1, 1 and 1 entries, and the 6 of
    the series currents at D = 4 serve 3, 2, 2, 1, 1 and 1."""
    import onsaw.yangbaxter as yb

    def calls(bu, den_u, u, v, bracket_fn, finish, r, phi=None) -> str:
        log = []

        def recording_bracket(x, y):
            log.append("B")
            return bracket_fn(x, y)

        def recording_finish(x):
            log.append("F")
            return finish(x)

        yb._exchange_residual(
            bu, den_u, u, v, recording_bracket, recording_finish, r, phi
        )
        return "".join(log)

    for B in (build_B_onsager(QuotientO.symbolic(2)), build_B_alt(QuotientA.symbolic(2))):
        q = B.algebra
        args = (B.entries, B.den, B.u, "v", q.bracket_reduced, q.reduce, r_matrix_num(B.u, "v"))
        assert calls(*args, phi_of(q)) == "BFFBFBFBF"
    recorded = []
    build = yb._exchange_residual
    monkeypatch.setattr(yb, "_exchange_residual", lambda *a: recorded.append(a) or build(*a))
    verify_frt_series_onsager(4)
    (series,) = recorded
    assert calls(*series) == "BFFFBFFBFFBFBFBF"


def test_canonical_relates_only_b11_to_plus_or_minus_b00(monkeypatch):
    """`_canonical` maps (1, 1) to ((0, 0), -1) for a traceless B, to
    ((0, 0), 1) when one diagonal entry is negated and to itself when one is
    times 3; (0, 0), (0, 1) and (1, 0) always map to themselves."""
    import onsaw.yangbaxter as yb

    cases = []  # (bu, the image of (1, 1))
    for N in (1, 2, 3):
        for B in (build_B_onsager(QuotientO.symbolic(N)), build_B_alt(QuotientA.symbolic(N))):
            cases.append((B.entries, ((0, 0), -1)))
            for i, j in ((0, 0), (1, 1)):
                cases.append((B.with_entry(i, j, -B.entries[i][j]).entries, ((0, 0), 1)))
                cases.append((B.with_entry(i, j, B.entries[i][j] * 3).entries, ((1, 1), 1)))
            for i, j in ((0, 1), (1, 0)):
                for changed in (-B.entries[i][j], B.entries[i][j] * 3):
                    cases.append((B.with_entry(i, j, changed).entries, ((0, 0), -1)))
    recorded = []
    build = yb._exchange_residual

    def recording(bu, *rest):
        recorded.append(bu)
        return build(bu, *rest)

    monkeypatch.setattr(yb, "_exchange_residual", recording)
    verify_frt_series_onsager(4)
    verify_cybe()
    assert len(recorded) == 2
    cases += [(bu, ((0, 0), -1)) for bu in recorded]
    fixed = {e: (e, 1) for e in ((0, 0), (0, 1), (1, 0))}
    for bu, image in cases:
        assert yb._canonical(bu) == {**fixed, (1, 1): image}


def test_the_cleared_residual_is_its_own_leg_flip_mirror():
    nonzero = 0
    for N in (1, 2, 3):
        for B in operator_matrices_and_corruptions(N):
            entries = frt_reference(B)
            assert is_flip_mirror(entries, 1)
            if any(entries):
                nonzero += 1
                assert not is_flip_mirror(entries, -1)
    assert nonzero > 0


# --- the Phi mirror ------------------------------------------------------------------


def phi_of(q):
    """Phi on the elements of the presentation of q."""
    auto = apply_auto if isinstance(q, QuotientO) else alt_auto
    return lambda x: auto((PHI,), x)


def far_elements(q) -> list:
    """Basis symbols out to 2N past the window at every end it has, G up to
    3N (the relation folds for N < m <= 2N), and their sum with polynomial
    coefficients in u."""
    N = q.N
    if isinstance(q, QuotientO):
        xs = [A(n) for n in range(-3 * N, 3 * N + 2)]
        xs += [G(m) for m in range(1, 3 * N + 1)]
    else:
        xs = [make(k) for make in (Wm, Wp, Gt) for k in range(3 * N + 1)]
    total = {}
    for n, x in enumerate(xs):
        accumulate(total, x.terms, lvar("u", n % 5 - 2) - n)
    return xs + [AlgElem(total)]


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_reduce_commutes_with_phi_term_for_term(N):
    """q.reduce(Phi x) = Phi(q.reduce(x)), the equivariance the Phi mirror
    needs, for symbolic and rational coefficients in both presentations."""
    rationals = [Fraction(k + 2, 5) for k in range(N)]
    for q in (
        QuotientO.symbolic(N),
        QuotientO(rationals + [1]),
        QuotientA.symbolic(N),
        QuotientA(rationals + [Fraction(2, 3)]),
    ):
        phi = phi_of(q)
        for x in far_elements(q):
            assert same_term_maps(q.reduce(phi(x)), phi(q.reduce(x))), (q, x)


def d_sigma(x: str) -> Matrix:
    """D(x) sigma = [[0, 1], [x, 0]], D(x) = diag(1, x), sigma the row swap."""
    zero = LaurentPoly()
    return Matrix([[zero, LaurentPoly.const(1)], [lvar(x), zero]])


def test_the_r_matrix_and_not_its_corruption_is_invariant_under_conjugation_by_m():
    """M r = r M for M = D(u) sigma (x) D(v) sigma, by matrix products, and
    `_phi_covariant` agrees for r12 and r21 and for the corrupted r-matrix."""
    import onsaw.yangbaxter as yb

    m = kron(d_sigma("u"), d_sigma("v"))
    r12 = r_matrix_num()[0]
    r21 = embed_leg(r_matrix_num("v", "u")[0], (2, 1), 2)
    bad = corrupted_r_matrix()[0]
    assert m * r12 == r12 * m and m * r21 == r21 * m
    assert m * bad != bad * m
    for q in (QuotientO.symbolic(2), QuotientA.symbolic(2)):
        B = build_B_onsager(q) if isinstance(q, QuotientO) else build_B_alt(q)
        phi = phi_of(q)
        assert yb._phi_covariant(B.entries, "u", "v", phi, (r12, r21))
        assert not yb._phi_covariant(B.entries, "u", "v", phi, (r12, bad))


def test_each_entry_is_reached_from_exactly_one_built_representative():
    """`_walk` builds one entry per orbit of the mirrors it holds: 5 with the
    flip, tau (x -> 3 - x) and the inversion (a transposition), 6 with the
    flip and tau, 7 with the flip and the inversion, and 10 with the flip
    alone, and it reaches each other entry once through one mirror, from an
    entry built or reached before it.  This holds for the canonical pairs of
    a traceless B, of one with B_11 = B_00 and of one whose entries are all
    distinct, and the built entries come in the order of their canonical
    pairs; with all three mirrors a traceless B builds (0, 0), (1, 1),
    (0, 1), (0, 3) and (1, 2)."""
    import onsaw.yangbaxter as yb

    flip, tau = yb._FLIP, (3, 2, 1, 0)
    maps = {
        "flip": lambda a, b: (flip[a], flip[b]),
        "tau": lambda a, b: (tau[a], tau[b]),
        "inv": lambda a, b: (b, a),
    }
    entries = [(r, c) for r in range(4) for c in range(4)]
    B = build_B_onsager(QuotientO.symbolic(2))
    tied, untied = B.with_entry(1, 1, B.entries[0][0]), B.with_entry(1, 1, B.entries[1][1] * 3)
    for bu in (B.entries, tied.entries, untied.entries):
        canonical = yb._canonical(bu)
        pair_of = {
            (2 * i + k, 2 * j + l): (canonical[i, j][0], canonical[k, l][0])
            for i, j, k, l in product(range(2), repeat=4)
        }
        runs = ((("tau", "inv"), 5), (("tau",), 6), (("inv",), 7), ((), 10))
        for held, n_built in runs:
            rows = [(maps[name], name) for name in ("flip", *held)]
            built, mirrors = yb._walk(pair_of, rows)
            assert len(built) == n_built
            assert [pair_of[e] for e in built] == sorted(pair_of[e] for e in built)
            reached = list(built)
            for entry, (a, b), mirror in mirrors:
                assert (a, b) in reached
                assert entry == maps[mirror](a, b)
                # the flip wins where two reach: no other mirror gives a flip image
                assert mirror == "flip" or entry != maps["flip"](a, b)
                reached.append(entry)
            assert sorted(reached) == entries
            assert {m for _, _, m in mirrors} == {"flip", *held}
            if bu is B.entries and len(held) == 2:
                assert built == [(0, 0), (1, 1), (0, 1), (0, 3), (1, 2)]


def phi_covariant_corruptions(N):
    """B-onsager and B-alt at N with both diagonal entries, both off-diagonal
    entries or den times 3: each still Phi-covariant, and each fails."""
    for B in (build_B_onsager(QuotientO.symbolic(N)), build_B_alt(QuotientA.symbolic(N))):
        yield both_diagonal_entries_times_3(B)
        yield B.with_entry(0, 1, B.entries[0][1] * 3).with_entry(1, 0, B.entries[1][0] * 3)
        yield OperatorMatrix(B.entries, B.den * 3, B.u, B.algebra, B.label)


def spy_on_the_mirrors(monkeypatch) -> tuple:
    """Three lists that fill as checks run: the verdicts of the
    `_phi_covariant` and `_inversion_covariant` calls, and the residual of
    each `_exchange_residual` call."""
    import onsaw.yangbaxter as yb

    tau, inv, residuals = [], [], []

    def spying(verdicts, check):
        def spy(*args):
            verdicts.append(check(*args))
            return verdicts[-1]

        return spy

    build = yb._exchange_residual

    def recording(*args):
        residuals.append(build(*args))
        return residuals[-1]

    monkeypatch.setattr(yb, "_phi_covariant", spying(tau, yb._phi_covariant))
    monkeypatch.setattr(yb, "_inversion_covariant", spying(inv, yb._inversion_covariant))
    monkeypatch.setattr(yb, "_exchange_residual", recording)
    return tau, inv, residuals


def mirror_path_mismatches(monkeypatch, cases) -> list:
    """(label, entry) for each entry where verify_frt's residual differs from
    `frt_reference`, term for term, over `cases`, pairs (B, the mirrors that
    B must hold); each B must fail."""
    tau, inv, residuals = spy_on_the_mirrors(monkeypatch)
    bad, held = [], []
    for B, mirrors in cases:
        assert verify_frt(B).status == FAIL
        expected = frt_reference(B)
        got = residuals[-1]
        bad += [
            (B.label, key)
            for (key, x), e in zip(got.items(), expected)
            if not same_term_maps(x, e)
        ]
        held.append(mirrors)
    assert [("tau",) * t + ("inv",) * i for t, i in zip(tau, inv)] == held
    return bad


def phi_path_mismatches(monkeypatch) -> list:
    """The mismatches of the Phi-covariant corruptions at N = 1..3, which are
    inversion-covariant too and take the path of both mirrors."""
    cases = [(B, ("tau", "inv")) for N in (1, 2, 3) for B in phi_covariant_corruptions(N)]
    assert len(cases) == 18
    return mirror_path_mismatches(monkeypatch, cases)


def one_entry_mismatches(monkeypatch) -> list:
    """The mismatches of the 48 one-entry corruptions at N = 1..3, times 3 or
    negated: none is Phi-covariant, and the 24 diagonal ones are
    inversion-covariant and take the 7-entry path."""
    cases = []
    for N in (1, 2, 3):
        for B in (build_B_onsager(QuotientO.symbolic(N)), build_B_alt(QuotientA.symbolic(N))):
            for i, j, k in product(range(2), range(2), (3, -1)):
                held = ("inv",) if i == j else ()
                cases.append((B.with_entry(i, j, B.entries[i][j] * k), held))
    assert len(cases) == 48
    return mirror_path_mismatches(monkeypatch, cases)


def test_the_phi_path_equals_the_full_residual_term_for_term(monkeypatch):
    assert phi_path_mismatches(monkeypatch) == []


def test_the_phi_path_comparison_sees_a_dropped_factor(monkeypatch):
    """A mutant of `_tau_image` that takes Phi(entry (a, b)) for entry
    (3-a, 3-b) without u^(j-i) v^(l-k) fails the differential test, while
    `_phi_covariant` still checks the r-matrices with the factor."""
    import onsaw.yangbaxter as yb

    def without_the_factor(phi, u, v, a, b, x):
        return phi(x)

    monkeypatch.setattr(yb, "_tau_image", without_the_factor)
    assert phi_path_mismatches(monkeypatch)


def test_one_entry_corruptions_take_the_7_or_10_entry_path(monkeypatch):
    """B with one entry times 3 or negated is not Phi-covariant; it is
    inversion-covariant when the entry is diagonal, and either path equals
    the full residual term for term."""
    assert one_entry_mismatches(monkeypatch) == []


@pytest.mark.parametrize("dropped", ["u^2 v^2", "J_a J_b"])
def test_the_inversion_path_comparisons_see_a_dropped_factor(dropped, monkeypatch):
    """A mutant of `_inv_image` without u^2 v^2, or without the sign
    J_a J_b, fails both differential tests of the inversion, while
    `_inversion_covariant` still checks the r-matrices with both."""
    import onsaw.yangbaxter as yb

    def mutant(u, v, a, b, x):
        sign = 1 if dropped == "J_a J_b" else yb._J[a] * yb._J[b]
        exps = {} if dropped == "u^2 v^2" else {u: 2, v: 2}
        return yb._inverted(x, (u, v)).scale(LaurentPoly.monomial(sign, exps))

    monkeypatch.setattr(yb, "_inv_image", mutant)
    assert phi_path_mismatches(monkeypatch)
    assert one_entry_mismatches(monkeypatch)


def test_the_series_and_cybe_form_no_monomial_of_the_phi_mirror(monkeypatch):
    """Nor do they try the inversion mirror: neither could pass its check."""
    import onsaw.yangbaxter as yb

    def refuse(*args):
        raise AssertionError("a mirror of the operator matrices ran without a Phi")

    for name in ("_phi_covariant", "_tau_factor", "_tau_image"):
        monkeypatch.setattr(yb, name, refuse)
    for name in ("_inversion_covariant", "_inv_image", "_inverted"):
        monkeypatch.setattr(yb, name, refuse)
    monkeypatch.setattr(LaurentPoly, "monomial", refuse)
    monkeypatch.setattr(LaurentPoly, "inverted", refuse)
    assert verify_frt_series_onsager(4).status == "pass"
    assert verify_cybe().status == "pass"
    assert verify_cybe(corrupted_r_matrix()).status == FAIL


# --- the inversion mirror ------------------------------------------------------------


@pytest.mark.parametrize("N", [1, 2, 3])
def test_reduce_and_the_bracket_commute_with_the_inversion(N):
    """q.reduce(iota x) = iota(q.reduce(x)) and the reduced bracket of
    iota x and iota y is iota of that of x and y, for iota the inversion of u
    and v, the two equivariances the inversion mirror needs, in both
    presentations."""
    import onsaw.yangbaxter as yb

    def iota(x):
        return yb._inverted(x, ("u", "v"))

    for q in (QuotientO.symbolic(N), QuotientA.symbolic(N)):
        xs = far_elements(q)
        for x in xs:
            assert same_term_maps(q.reduce(iota(x)), iota(q.reduce(x))), (q, x)
        mixed = xs[-1].map_coeffs(lambda c: c * lvar("v", -1) + lvar("u", 3))
        for x in xs[:: max(1, len(xs) // 6)]:
            got = q.bracket_reduced(iota(mixed), iota(x))
            assert same_term_maps(got, iota(q.bracket_reduced(mixed, x))), (q, x)


def test_the_r_matrix_and_not_its_corruption_is_covariant_under_inversion():
    """u^2 v^2 r(1/u, 1/v) = -J r^T J for J = diag(1, -1) (x) diag(1, -1), by
    matrix products, and `_inversion_covariant` agrees for r12 and r21 and
    for the corrupted r-matrix."""
    import onsaw.yangbaxter as yb

    one = LaurentPoly.const(1)
    zero = LaurentPoly()
    j = kron(*[Matrix([[one, zero], [zero, -one]])] * 2)
    uv2 = LaurentPoly.monomial(1, {"u": 2, "v": 2})

    def covariant(r):
        transposed = Matrix(zip(*r.entries))
        return r.map(lambda e: e.inverted(("u", "v")) * uv2) == (j * transposed * j).scale(-1)

    r12 = r_matrix_num()[0]
    r21 = embed_leg(r_matrix_num("v", "u")[0], (2, 1), 2)
    bad = corrupted_r_matrix()[0]
    assert covariant(r12) and covariant(r21)
    assert not covariant(bad)
    for N in (1, 2, 3):
        for B in (build_B_onsager(QuotientO.symbolic(N)), build_B_alt(QuotientA.symbolic(N))):
            assert yb._inversion_covariant(B.entries, B.den, "u", "v", (r12, r21))
            assert not yb._inversion_covariant(B.entries, B.den, "u", "v", (r12, bad))


def test_inversion_covariance_of_the_operator_matrices_and_their_corruptions():
    """`_inversion_covariant` holds for both presentations at N = 1..3 and for
    the 18 Phi-covariant corruptions, and fails for den (1 + u) and for each
    off-diagonal entry times 3 or negated."""
    import onsaw.yangbaxter as yb

    rhats = (r_matrix_num()[0], embed_leg(r_matrix_num("v", "u")[0], (2, 1), 2))

    def covariant(B):
        return yb._inversion_covariant(B.entries, B.den, "u", "v", rhats)

    for N in (1, 2, 3):
        for B in (build_B_onsager(QuotientO.symbolic(N)), build_B_alt(QuotientA.symbolic(N))):
            assert covariant(B)
            assert not covariant(B._replace(den=B.den * (lvar("u") + 1)))
            for i, k in product(range(2), (3, -1)):
                assert not covariant(B.with_entry(i, 1 - i, B.entries[i][1 - i] * k))
        assert all(covariant(B) for B in phi_covariant_corruptions(N))


def test_the_cleared_residual_is_its_own_inversion_mirror():
    """Entry (b, a) of the full residual is J_a J_b u^2 v^2 times entry
    (a, b) with u and v inverted, for B-onsager, B-alt and their corruptions
    that change only diagonal entries, at N = 1..3."""
    j = (1, -1, -1, 1)  # J_a = (-1)^(i+k) at a = 2i+k
    nonzero = 0
    for N in (1, 2, 3):
        for B in (build_B_onsager(QuotientO.symbolic(N)), build_B_alt(QuotientA.symbolic(N))):
            corruptions = [B.with_entry(i, i, B.entries[i][i] * 3) for i in range(2)]
            for target in (B, *corruptions, both_diagonal_entries_times_3(B)):
                entries = frt_reference(target)
                nonzero += any(entries)
                for a, b in product(range(4), repeat=2):
                    factor = LaurentPoly.monomial(j[a] * j[b], {"u": 2, "v": 2})
                    image = entries[4 * a + b].map_coeffs(lambda c: c.inverted(("u", "v")))
                    assert entries[4 * b + a] == image.scale(factor)
    assert nonzero > 0


def test_the_exchange_checks_multiply_no_matrices(monkeypatch):
    def refuse(self, other):
        raise AssertionError("the exchange residual built a matrix product")

    monkeypatch.setattr(Matrix, "__mul__", refuse)
    assert verify_frt(build_B_onsager(QuotientO.symbolic(2))).status == "pass"
    assert verify_frt(build_B_alt(QuotientA.symbolic(2))).status == "pass"
    assert verify_frt_series_onsager(4).status == "pass"
    with pytest.raises(AssertionError, match="matrix product"):
        commutator(Matrix.identity(2), Matrix.identity(2))


def test_the_exchange_checks_build_the_r_matrix_once(monkeypatch):
    """verify_frt and verify_frt_series_onsager each call r_matrix_num once,
    at (u, v): r21 is r12 with u and v swapped, not a second r-matrix."""
    import onsaw.yangbaxter as yb

    calls = []
    build = yb.r_matrix_num
    monkeypatch.setattr(yb, "r_matrix_num", lambda *a: calls.append(a) or build(*a))
    for B in (build_B_onsager(QuotientO.symbolic(2)), build_B_alt(QuotientA.symbolic(2))):
        assert verify_frt(B).status == "pass"
        assert calls == [("u", "v")]
        calls.clear()
    assert verify_frt_series_onsager(4, "x", "y").status == "pass"
    assert calls == [("x", "y")]


@pytest.mark.parametrize("u, v", [("u", "v"), ("x", "y")])
def test_r21_is_the_swapped_r_matrix_on_legs_2_1(u, v, monkeypatch):
    """The rhat_21 that `_phi_covariant` receives from verify_frt equals
    embed_leg(r_matrix_num(v, u)[0], (2, 1), 2), the r-matrix built at
    (v, u), term for term, and rhat_12 is r_matrix_num(u, v)[0]."""
    import onsaw.yangbaxter as yb

    received = []
    check = yb._phi_covariant

    def spy(bu, u_, v_, phi, rhats):
        received.append(rhats)
        return check(bu, u_, v_, phi, rhats)

    monkeypatch.setattr(yb, "_phi_covariant", spy)
    assert verify_frt(build_B_onsager(QuotientO.symbolic(2), u), v).status == "pass"
    assert verify_frt(build_B_alt(QuotientA.symbolic(2), u), v).status == "pass"
    expected = (r_matrix_num(u, v)[0], embed_leg(r_matrix_num(v, u)[0], (2, 1), 2))
    assert len(received) == 2
    for rhats in received:
        for got, want in zip(rhats, expected):
            for a, b in product(range(4), repeat=2):
                assert same_term_maps(got[a, b], want[a, b]), (a, b)


def summed_bracket_last(bu, den_u, u, v, bracket_fn, finish, r):
    """`_exchange_residual` as it was before each entry started from its
    bracket, and with no mirror: entries equal up to sign found through
    y * sign, and each of the 16 entries summed as den_v t1 - den_u t2, its
    shared Dr-scaled bracket added last as a product by +-1.  The reference
    of the seeded sum."""
    canonical = {}
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        x = bu[i][j]
        canonical[i, j] = next(
            (
                (e, sign)
                for e in canonical
                for sign in (1, -1)
                if x == bu[e[0]][e[1]] * sign
            ),
            ((i, j), 1),
        )
    bv = tuple(tuple(_renamed(e, {u: v}) for e in row) for row in bu)
    den_v = den_u.rename({u: v})
    rhat_12, dr = r
    rhat_21 = embed_leg(rhat_12.map(lambda e: e.rename({u: v, v: u})), (2, 1), 2)
    pairs = [(i, k) for i in range(2) for k in range(2)]
    built = {}
    for r, c in product(range(4), repeat=2):
        (i, k), (j, l) = pairs[r], pairs[c]
        (x, s_x), (y, s_y) = canonical[i, j], canonical[k, l]
        scaled = accumulate({}, bracket_fn(bu[x[0]][x[1]], bv[y[0]][y[1]]).terms, dr)
        t1, t2 = {}, {}
        for a in range(2):
            accumulate(t1, bu[a][j].terms, rhat_21[r, 2 * a + l])
            accumulate(t1, bu[i][a].terms, -rhat_21[2 * a + k, c])
            accumulate(t2, bv[k][a].terms, rhat_12[2 * i + a, c])
            accumulate(t2, bv[a][l].terms, -rhat_12[r, 2 * j + a])
        acc = accumulate({}, t1, den_v)
        accumulate(acc, t2, -den_u)
        accumulate(acc, AlgElem(scaled).terms, None if s_x * s_y == 1 else -1)
        built[r, c] = finish(AlgElem(acc))
    return built


def exchange_inputs(monkeypatch):
    """Arguments of `_exchange_residual` whose residuals are nonzero: B-onsager
    and B-alt at N = 2 with one entry negated, the corrupted r-matrix as
    verify_cybe passes it, and the series currents with u A(1) added to g."""
    import onsaw.yangbaxter as yb

    out = []
    for B in (build_B_onsager(QuotientO.symbolic(2)), build_B_alt(QuotientA.symbolic(2))):
        q = B.algebra
        rest = (B.den, B.u, "v", q.bracket_reduced, q.reduce, r_matrix_num(B.u, "v"))
        for i in range(2):
            for j in range(2):
                out.append((B.with_entry(i, j, -B.entries[i][j]).entries, *rest))
    recorded = []
    build = yb._exchange_residual

    def recording(*args):
        recorded.append(args)
        return build(*args)

    monkeypatch.setattr(yb, "_exchange_residual", recording)
    verify_cybe(corrupted_r_matrix())
    verify_frt_series_onsager(4)
    monkeypatch.setattr(yb, "_exchange_residual", build)
    cybe, series = recorded
    out.append(cybe)
    ((g, a_minus), (a_plus, _)), *rest = series
    g = g + A(1) * lvar("u")
    out.append((((g, a_minus), (a_plus, -g)), *rest))
    return out


def test_each_entry_seeded_with_its_bracket_equals_the_bracket_added_last(monkeypatch):
    """Starting each built entry from its Dr-scaled bracket changes no entry:
    all 16 match the old per-entry sum term for term, coefficient types too."""
    import onsaw.yangbaxter as yb

    for args in exchange_inputs(monkeypatch):
        got, expected = yb._exchange_residual(*args), summed_bracket_last(*args)
        assert any(expected.values())
        assert list(got) == list(expected)
        for key, x in expected.items():
            assert same_term_maps(got[key], x), key


def term_products(monkeypatch) -> list:
    """Make every `scalars._add_product` call add len(a) * len(b) to the one
    entry of the returned list."""
    from onsaw import scalars

    count = [0]
    loop = scalars._add_product

    def counting(out, a, b, k=1):
        count[0] += len(a) * len(b)
        return loop(out, a, b, k)

    monkeypatch.setattr(scalars, "_add_product", counting)
    return count


@pytest.mark.parametrize(
    "run, budget",
    [
        (lambda: verify_frt(build_B_onsager(QuotientO.symbolic(3))), 3_840),
        (lambda: verify_frt(build_B_alt(QuotientA.symbolic(3))), 5_035),
        (lambda: verify_frt_series_onsager(8), 3_350),
    ],
    ids=["frt-onsager-N3", "frt-alt-N3", "frt-series-D8"],
)
def test_the_exchange_checks_multiply_no_more_term_products(run, budget, monkeypatch):
    """A ratchet on the term products of the multiply-add loop: the shared
    bracket seeds each entry instead of being added as a product, the
    operator matrices build 5 entries and take the other 11 from mirrors, and
    a change that adds products fails here."""
    count = term_products(monkeypatch)
    assert run().status == "pass"
    assert count[0] <= budget


@pytest.mark.parametrize("N", [1, 2])
def test_verify_frt_at_another_second_spectral_name(N):
    failing = 0
    for B in operator_matrices_and_corruptions(N):
        at_w = verify_frt(B, v="w").checks
        at_v = verify_frt(B).checks
        assert [c.status for c in at_w] == [c.status for c in at_v]
        entries = frt_reference(B, v="w")
        assert [c.residual for c in at_w] == [r for _, r in verdicts(entries)]
        back = [e.map_coeffs(lambda p: p.rename({"w": "v"})) for e in entries]
        assert [c.residual for c in at_v] == [r for _, r in verdicts(back)]
        failing += sum(c.status == FAIL for c in at_w)
    assert failing > 0


def test_frt_series_at_other_spectral_names(monkeypatch):
    import onsaw.yangbaxter as yb
    from onsaw.onsager import bracket, sym_bracket

    def outcome(*names):
        checks = yb.verify_frt_series_onsager(3, *names).checks
        return [(c.id, c.status) for c in checks]

    assert outcome("x", "y") == outcome()

    def scaled(s, t):
        value = sym_bracket(s, t)
        return value * Fraction(5, 4) if s[0] == t[0] == "A" else value

    monkeypatch.setattr(yb, "bracket", lambda x, y: bracket(x, y, sym_bracket=scaled))
    assert FAIL in {status for _, status in outcome()}
    assert outcome("x", "y") == outcome()


def test_verify_frt_rejects_v_equal_to_u():
    B = build_B_onsager(QuotientO.symbolic(1))
    for target in (B, B.with_entry(0, 1, B.entries[0][1] * 3)):
        with pytest.raises(ValueError, match="must differ"):
            verify_frt(target, v="u")


def test_frt_series_rejects_equal_spectral_names():
    with pytest.raises(ValueError, match="must differ"):
        verify_frt_series_onsager(3, "w", "w")


def test_verify_frt_rejects_spectral_names_in_the_quotient_coefficients():
    for B, v in (
        (build_B_onsager(QuotientO((lvar("u"), 1))), "v"),
        (build_B_onsager(QuotientO((lvar("v"), 1))), "v"),
        (build_B_alt(QuotientA((lvar("w") * lvar("u"), 1))), "w"),
        (build_B_alt(QuotientA((1, lvar("u", 2)))), "v"),
    ):
        with pytest.raises(ValueError, match="spectral variable"):
            verify_frt(B, v=v)


def test_charges_first_element():
    q = QuotientO.symbolic(2)
    c = ChargeParams.symbolic()
    family = charges(q, c)
    assert family[0] == A(0) * c.kappa + A(1) * c.kappas + G(1) * c.mu
    assert len(family) == 2
    assert family[1] == (
        (A(1) + A(-1)) * c.kappa + (A(2) + A(0)) * c.kappas + G(2) * c.mu
    )


def test_charges_commute():
    for N in (2, 3, 4, 5):
        assert verify_commuting(QuotientO.symbolic(N)).status == "pass"


def test_charges_negative_control():
    q = QuotientO.symbolic(2)
    c = ChargeParams.symbolic()
    family = charges(q, c)
    family[1] = family[1] + A(2) * c.kappa
    assert verify_commuting(q, family, c).status == FAIL


def test_expansion_over_charges_n1():
    q = QuotientO.symbolic(1)
    factors, report = expand_b(q, ChargeParams.symbolic())
    assert report.status == "pass"
    assert factors == [lvar("u", -1) - lvar("u")]


def test_expansion_over_charges_n2_n3():
    for N in (2, 3):
        _, report = expand_b(QuotientO.symbolic(N), ChargeParams.symbolic())
        assert report.status == "pass"


def test_m_matrix_closed_form():
    c = ChargeParams.symbolic()
    m = m_matrix(c, "x")
    x = lvar("x")
    xinv = lvar("x", -1)
    assert m[0, 0] == xinv * c.mu
    assert m[0, 1] == c.kappa + xinv * c.kappas
    assert m[1, 0] == c.kappa + x * c.kappas
    assert m[1, 1] == x * c.mu


def test_reD_plain_reading_holds():
    assert verify_reD().status == "pass"


def test_reD_numeric_check_is_independent_of_polynomial_multiplication(monkeypatch):
    # A multiplication that drops one term of every product of two
    # multi-term polynomials sways the symbolic verdict only; the numeric
    # check multiplies evaluated matrices and must then disagree with it.
    exact = LaurentPoly.__mul__

    def drops_a_term(self, other):
        out = exact(self, other)
        if (
            isinstance(other, LaurentPoly)
            and len(self.terms) > 1
            and len(other.terms) > 1
            and out.terms
        ):
            terms = dict(out.terms)
            del terms[next(iter(terms))]
            return LaurentPoly(terms)
        return out

    monkeypatch.setattr(LaurentPoly, "__mul__", drops_a_term)
    monkeypatch.setattr(LaurentPoly, "__rmul__", drops_a_term)
    status = {ch.id: ch.status for ch in verify_reD().checks}
    assert status["reD:r12:symbolic"] == FAIL
    assert status["reD:r12:numeric-agrees"] == FAIL


def test_reD_trivial_for_vanishing_parameters():
    c = ChargeParams(Fraction(0), Fraction(0), Fraction(0))
    assert verify_reD(c).status == "pass"


# --- the transfer-matrix lemma ------------------------------------------------------


def formal_B(name):
    """The 2x2 matrix of formal Lie symbols (name, "ij")."""
    return Matrix(
        [[AlgElem.basis((name, f"{i}{j}")) for j in range(2)] for i in range(2)]
    )


def transfer_traces(rhat_12, rhat_21, m_v=None):
    """tr12((M(u) (x) M(v)) t) for t1 = [rhat_21, B1(u)] and t2 = [B2(v), rhat_12],
    with B(u), B(v) formal and kappa, kappas, mu symbolic.  M(v) is m_v when
    given.  Returns [trace of t1, trace of t2]."""
    c = ChargeParams.symbolic()
    m_uv = kron(m_matrix(c, "u"), m_matrix(c, "v") if m_v is None else m_v)
    b1 = embed_leg(formal_B("bu"), (1,), 2)
    b2 = embed_leg(formal_B("bv"), (2,), 2)
    traces = []
    for t in (commutator(rhat_21, b1), commutator(b2, rhat_12)):
        product = m_uv * t
        traces.append(sum((product[i, i] for i in range(4)), ZERO))
    return traces


def reading_traces(reading, m_v=None):
    """transfer_traces for rhat_12 = reading(u, v), whose rhat_21 is the
    reading's own leg flip with u and v swapped."""
    rhat_21 = embed_leg(reading("v", "u"), (2, 1), 2)
    return transfer_traces(reading("u", "v"), rhat_21, m_v)


def r12(u, v):
    return r_matrix_num(u, v)[0]


def test_transfer_lemma():
    """Sklyanin's trace argument: each right-hand term t of the exchange
    relation has tr12((M(u) (x) M(v)) t) = 0 with B(u), B(v) formal, so
    t(u) = tr(M(u) B(u)) commutes with t(v) for every B that satisfies the
    exchange relation.  It holds for the reading rbar = r12 of verify_reD."""
    assert [t.is_zero() for t in reading_traces(r12)] == [True, True]


def test_transfer_lemma_rejects_a_wrong_M():
    c = ChargeParams.symbolic()
    rows = [list(row) for row in m_matrix(c, "v").entries]
    rows[0][1] = rows[0][1] + c.kappa
    assert [t.is_zero() for t in reading_traces(r12, Matrix(rows))] == [False, False]


def test_transfer_lemma_rejects_the_corrupted_r_matrix():
    rhat_21 = embed_leg(r12("v", "u"), (2, 1), 2)
    t1, t2 = transfer_traces(corrupted_r_matrix()[0], rhat_21)
    assert t1.is_zero() and not t2.is_zero()


@pytest.mark.parametrize(
    "reading",
    [
        pytest.param(lambda u, v: embed_leg(r12(u, v), (2, 1), 2), id="leg-flip"),
        pytest.param(lambda u, v: r12(v, u), id="u-v-swapped"),
    ],
)
def test_transfer_lemma_rejects_the_other_readings(reading):
    assert [t.is_zero() for t in reading_traces(reading)] == [False, False]

"""The mutation matrix (DeMillo, Lipton and Sayward 1978): each mutant puts
one deliberate fault into one layer, and every check listed for it must turn
to `fail`.  A check that passes under a mutant cannot see that fault.

Rows so far:

- `scalars._add_product`, the kernel's one multiply-add loop, leaves out one
  term product: the exchange checks of both presentations and of the series,
  the point-evaluation oracle of the bracket, and both verdicts of `cybe`
  and of `reD` must all see it.
- `yangbaxter.r_matrix_num` shifts its numerator entry (0, 3) by one: the
  symbolic verdicts of `cybe` and `reD`, the exchange checks and the
  transfer-matrix lemma must all see it.
- `altpres.alt_sym_bracket` scales [Gt(i), Wm(j)] by 17/16: the bracket
  intertwining of `iso` and the exchange check of the alternative
  presentation must see it.
- `quotient.divide`, the one normal-form loop of both presentations, adds
  each multiple of a divisor instead of subtracting it: the quotient
  relations, the forward reduction table, the reduction diagram, the halved
  `sprime` verdicts and the exchange checks of both presentations must see it.
- `QuotientA._monic` shifts its entry 0 by one in every alternative quotient
  built: the reduction diagram, the halved `sprime` verdicts and the exchange
  check of the alternative presentation must see it, and the checks of the
  Onsager quotients pass.
- `yangbaxter._unit_bracket`, the gl2 bracket on the third leg of `cybe`,
  drops its -delta_da E_cb term: both verdicts of `cybe` must see it, and the
  exchange checks of the `_add_product` row, which do not bracket matrix
  units, pass.
- `yangbaxter._canonical` keeps each entry's representative and drops its
  sign, so `_exchange_residual` reuses a shared bracket without the sign:
  the exchange checks of both presentations at N = 1..3 and of the series,
  and both verdicts of `cybe`, must see it.  The series builds 10 entries
  and fails at 13, 23, 31 and 32: the entries (2,3) and (3,2) whose brackets
  are the negated ones of (0,1) and (1,0), and their leg-flip mirrors.  The
  operator matrices hold tau and the inversion, and their 5 built entries
  reuse no nonzero bracket with sign -1, so they pass; the row checks them
  on the path of tau alone (`_inversion_covariant` patched to False), where
  they fail at 10, 13, 20 and 23: the built (2,3), whose bracket is the
  negated one of (0,1), its leg-flip mirror (1,3), its tau image (1,0) and
  that one's mirror (2,0).  On either path entries 11 and 22 pass: their
  bracket [g(u), g(v)] is zero, so its sign does not show.
- A coefficient of the memoised change of basis, in either direction: the
  1/4 at A(2) in the image of Wm(2) becomes 1/2, or the Gt(0) coefficient of
  the image of G(3) gains 1/3 (an odd denominator).  The round trips of `iso`
  and the appendix fixtures that read that image must see either; the first
  also the triangular check of Wm, the second the bracket intertwining and
  the reduction diagrams that convert G(3).  The images are cached before
  the mutant is installed, so a warm cache must not hide it.

The checks named in each row fail without raising; PBW normalization raises
ValueError on a symbol outside the window, so no row names a PBW check.
"""

from fractions import Fraction

import onsaw.cli as cli
import onsaw.yangbaxter as yb
from onsaw import altpres, quotient, scalars
from onsaw.altpres import (
    Gt,
    QuotientA,
    bracket_alt,
    convert_to_alt,
    reduction_diagram_report,
    sprime_report,
)
from onsaw.elements import AlgElem
from onsaw.matrices import Matrix
from onsaw.onsager import A, bracket, verify_dolan_grady
from onsaw.quotient import (
    QuotientO,
    forward_reduction_report,
    implied_relations_report,
    verify_sn,
)
from onsaw.reports import FAIL, Report
from test_altpres import corrupted
from test_onsager import bracket_mismatches_at_points
from test_yangbaxter import reading_traces


def drops_one_term_product(loop):
    """`loop` that leaves out the product of the first terms of its two
    factors whenever one of them has two or more terms."""

    def mutant(out, a, b, k=1):
        first = [next(iter(f.items())) for f in (a, b) if f]  # before `out` changes
        loop(out, a, b, k)
        if len(first) == 2 and len(a) + len(b) > 2:
            (m1, c1), (m2, c2) = first
            loop(out, {m1: c1}, {m2: -c2}, k)

    return mutant


def exchange_checks():
    """The checks of the `_add_product` row, with their inputs built before
    any mutant is installed, so only the check's own arithmetic is mutated."""
    onsager = yb.build_B_onsager(QuotientO.symbolic(2))
    alt = yb.build_B_alt(QuotientA.symbolic(2))
    return {
        "frt:B-onsager-N2": lambda: yb.verify_frt(onsager).status,
        "frt:B-alt-N2": lambda: yb.verify_frt(alt).status,
        "frt-series-onsager:D4": lambda: yb.verify_frt_series_onsager(4).status,
    }


def install_dropped_term_product(monkeypatch):
    mutant = drops_one_term_product(scalars._add_product)
    monkeypatch.setattr(scalars, "_add_product", mutant)


def test_the_exchange_checks_fail_when_a_term_product_is_dropped(monkeypatch):
    checks = exchange_checks()

    def statuses():
        return {name: run() for name, run in checks.items()}

    assert statuses() == dict.fromkeys(checks, "pass")
    install_dropped_term_product(monkeypatch)
    assert statuses() == dict.fromkeys(checks, "fail")


def test_the_bracket_oracle_fails_when_a_term_product_is_dropped(monkeypatch):
    assert bracket_mismatches_at_points(709) == {"onsager": 0, "alt": 0}
    install_dropped_term_product(monkeypatch)
    mismatches = bracket_mismatches_at_points(709)
    assert mismatches["onsager"] > 0 and mismatches["alt"] > 0


def test_the_mutant_drops_exactly_one_term_product():
    mutant = drops_one_term_product(scalars._add_product)
    out: dict = {}
    mutant(out, {1: 2, 3: 5}, {0: 7}, 3)
    assert out == {3: 105}  # 3*2*7 at key 1 is left out
    mutant(out, {2: 1}, {2: 1})
    assert out == {3: 105, 4: 1}  # a product of two single terms is kept
    aliased = {1: 1, 2: 1}
    mutant(aliased, aliased, {0: 1})
    assert aliased == {1: 1, 2: 2}  # the factor is read as it was


def check_statuses(report):
    return {check.id: check.status for check in report.checks}


def test_cybe_and_reD_fail_both_verdicts_when_a_term_product_is_dropped(monkeypatch):
    """The r-matrix is built before the mutant is installed, so the symbolic
    verdict multiplies through the mutant and the numeric one, which
    evaluates that r-matrix first and multiplies the values as matrices (over
    int for `cybe`, Fraction for `reD`), does not.
    Built under the mutant, the r-matrix is faulty for both verdicts alike,
    and both `:numeric-agrees` verdicts pass."""
    r = yb.r_matrix_num()
    monkeypatch.setattr(yb, "r_matrix_num", lambda: r)

    def statuses():
        return check_statuses(yb.verify_cybe(r).extend(yb.verify_reD()))

    ids = ["cybe:symbolic", "cybe:numeric-agrees"]
    ids += ["reD:r12:symbolic", "reD:r12:numeric-agrees"]
    assert statuses() == dict.fromkeys(ids, "pass")
    install_dropped_term_product(monkeypatch)
    assert statuses() == dict.fromkeys(ids, "fail")


def shifts_entry_03(r_matrix_num):
    """`r_matrix_num` with one added to its numerator entry (0, 3)."""

    def mutant(u="u", v="v"):
        num, den = r_matrix_num(u, v)
        rows = [list(row) for row in num.entries]
        rows[0][3] = rows[0][3] + 1
        return Matrix(rows), den

    return mutant


def test_the_r_matrix_checks_fail_when_an_r_matrix_entry_is_shifted(monkeypatch):
    """`:numeric-agrees` passes under this mutant, since both verdicts read
    the same faulty r-matrix; only the symbolic verdicts are asserted."""
    checks = exchange_checks()

    def symbolic(verify):
        return lambda: next(
            c.status for c in verify().checks if c.id.endswith(":symbolic")
        )

    checks["cybe:symbolic"] = symbolic(yb.verify_cybe)
    checks["reD:r12:symbolic"] = symbolic(yb.verify_reD)

    def lemma_trace(i):
        trace = reading_traces(lambda u, v: yb.r_matrix_num(u, v)[0])[i]
        return "pass" if trace.is_zero() else "fail"

    checks["transfer-lemma:t1"] = lambda: lemma_trace(0)
    checks["transfer-lemma:t2"] = lambda: lemma_trace(1)

    def statuses():
        return {name: run() for name, run in checks.items()}

    assert statuses() == dict.fromkeys(checks, "pass")
    monkeypatch.setattr(yb, "r_matrix_num", shifts_entry_03(yb.r_matrix_num))
    assert statuses() == dict.fromkeys(checks, "fail")


def scales_gt_wm(alt_sym_bracket):
    """`alt_sym_bracket` with [Gt(i), Wm(j)] multiplied by 17/16, in this
    argument order only."""

    def mutant(s, t):
        b = alt_sym_bracket(s, t)
        return b * Fraction(17, 16) if (s[0], t[0]) == ("Gt", "Wm") else b

    return mutant


def install_scaled_gt_wm(monkeypatch):
    mutant = scales_gt_wm(altpres.alt_sym_bracket)
    monkeypatch.setattr(altpres, "alt_sym_bracket", mutant)


def intertwine_residual():
    """The residual text of `iso:bracket-intertwine` ("" when it passes)."""
    report = altpres.verify_iso()
    return next(c.residual for c in report.checks if c.id == "iso:bracket-intertwine")


def test_the_alternative_bracket_checks_fail_when_a_constant_is_scaled(monkeypatch):
    """`dg-alt` passes under this mutant: its nested brackets of Wm(0) and
    Wp(0) never put a Gt on the left of a Wm, so it cannot see this fault."""
    alt = yb.build_B_alt(QuotientA.symbolic(2))
    checks = {
        "iso:bracket-intertwine": lambda: "fail" if intertwine_residual() else "pass",
        "frt:B-alt-N2": lambda: yb.verify_frt(alt).status,
    }

    def statuses():
        return {name: run() for name, run in checks.items()}

    def dg_alt():
        gens = (altpres.Wm(0), altpres.Wp(0))
        return verify_dolan_grady(bracket_alt, gens, "dg-alt").status

    assert statuses() == dict.fromkeys(checks, "pass") and dg_alt() == "pass"
    install_scaled_gt_wm(monkeypatch)
    assert statuses() == dict.fromkeys(checks, "fail") and dg_alt() == "pass"


def intertwine_by_pairs(kmax=8):
    """`iso:bracket-intertwine` pair by pair, as before the bracket table:
    convert_to_alt([x, y]) against [convert_to_alt(x), convert_to_alt(y)],
    s outer and t inner; the residual text it would report."""
    syms = [("A", n) for n in range(-kmax, kmax + 1)]
    syms += [("G", m) for m in range(1, kmax + 1)]
    bad = []
    for s in syms:
        for t in syms:
            x, y = AlgElem.basis(s), AlgElem.basis(t)
            lhs = convert_to_alt(bracket(x, y))
            if lhs != bracket_alt(convert_to_alt(x), convert_to_alt(y)):
                bad.append((s, t))
    return f"failing pairs {bad[:4]}"


def test_the_bracket_table_reports_what_the_pair_loop_reports(monkeypatch):
    assert intertwine_residual() == "" and intertwine_by_pairs() == "failing pairs []"
    install_scaled_gt_wm(monkeypatch)
    got = intertwine_residual()
    assert got.startswith("failing pairs [(('G', 1), ('A', -8)), (('G', 1), ('A', -7)), ")
    assert got == intertwine_by_pairs()


def normal_form_checks():
    """Checks that read a quotient's normal form, each building its quotient
    when it runs, so a mutant installed first reaches every reduction.  Only
    the halved `sprime` verdicts are read: the displayed ones are
    discrepancies on working code."""

    def q():
        return QuotientO.symbolic(2)

    def qa():
        return QuotientA.symbolic(2)

    def halved_sprime():
        checks = sprime_report(qa()).checks
        return Report(checks=[c for c in checks if ":halved:" in c.id]).status

    return {
        "sn:N2": lambda: verify_sn(q()).status,
        "dav2:N2": lambda: implied_relations_report(q(), 2).status,
        "upoly-forward:N2": lambda: forward_reduction_report(q(), 2).status,
        "frt:B-onsager-N2": lambda: yb.verify_frt(yb.build_B_onsager(q())).status,
        "frt:B-alt-N2": lambda: yb.verify_frt(yb.build_B_alt(qa())).status,
        "diagram:N2": lambda: reduction_diagram_report(q()).status,
        "sprime:halved:N2": halved_sprime,
    }


def statuses_of(checks):
    return {name: run() for name, run in checks.items()}


def flips_the_elimination_sign(divide):
    """`divide` that adds each multiple of a divisor instead of subtracting
    it: every divisor it is given is negated, so no leading symbol cancels."""
    return lambda x, excess, divisor: divide(x, excess, lambda sym: -divisor(sym))


def test_the_normal_form_checks_fail_when_the_elimination_sign_is_flipped(monkeypatch):
    checks = normal_form_checks()
    assert statuses_of(checks) == dict.fromkeys(checks, "pass")
    for module in (quotient, altpres):  # altpres imports `divide` by name
        monkeypatch.setattr(module, "divide", flips_the_elimination_sign(module.divide))
    assert statuses_of(checks) == dict.fromkeys(checks, "fail")


def shifts_monic_0(init):
    """`QuotientA.__init__` that adds one to entry 0 of `_monic`."""

    def mutant(self, betas):
        init(self, betas)
        self._monic = (self._monic[0] + 1,) + self._monic[1:]

    return mutant


def test_the_alternative_quotient_checks_fail_when_a_monic_entry_is_shifted(
    monkeypatch,
):
    checks = normal_form_checks()
    alt = ("frt:B-alt-N2", "diagram:N2", "sprime:halved:N2")
    assert statuses_of(checks) == dict.fromkeys(checks, "pass")
    monkeypatch.setattr(QuotientA, "__init__", shifts_monic_0(QuotientA.__init__))
    expected = {name: "fail" if name in alt else "pass" for name in checks}
    assert statuses_of(checks) == expected


def drops_the_delta_da_term(unit_bracket):
    """`_unit_bracket` without its -delta_da E_cb term: [E_ab, E_cd] =
    delta_bc E_ad."""

    def mutant(s, t):
        (a, b), (c, d) = s[1], t[1]
        restored = AlgElem({("E", (c, b)): int(d == a)})
        return unit_bracket(s, t) + restored

    return mutant


def test_cybe_alone_fails_when_the_unit_bracket_drops_a_term(monkeypatch):
    """`cybe:numeric-agrees` fails too: the numeric verdict multiplies unit
    matrices over int and still finds the r-matrix a solution, so the
    two verdicts disagree."""
    checks = exchange_checks()
    cybe = ["cybe:symbolic", "cybe:numeric-agrees"]

    def statuses():
        exchange = {name: run() for name, run in checks.items()}
        return exchange | check_statuses(yb.verify_cybe())

    assert statuses() == dict.fromkeys([*checks, *cybe], "pass")
    monkeypatch.setattr(yb, "_unit_bracket", drops_the_delta_da_term(yb._unit_bracket))
    assert statuses() == dict.fromkeys(checks, "pass") | dict.fromkeys(cybe, "fail")


def drops_the_sign(canonical):
    """`_canonical` with every sign 1: each entry maps to its representative
    as if it were equal to it, not to its negative."""

    def mutant(bu):
        return {entry: (rep, 1) for entry, (rep, _) in canonical(bu).items()}

    return mutant


def test_a_shared_bracket_reused_without_its_sign_fails(monkeypatch):
    """`cybe:numeric-agrees` fails too: the numeric verdict shares no bracket
    and still finds the r-matrix a solution, so the two verdicts disagree.
    The operator matrices fail on the path of tau alone and pass on the path
    of both mirrors, which reuses only the zero bracket with sign -1."""
    matrices = []
    for N in (1, 2, 3):
        matrices += [yb.build_B_onsager(QuotientO.symbolic(N))]
        matrices += [yb.build_B_alt(QuotientA.symbolic(N))]
    failing = {"cybe:symbolic", "cybe:numeric-agrees"}
    failing.update(f"frt-series-onsager:entry{rc}:D4" for rc in ("13", "23", "31", "32"))
    failing_on_tau = {
        f"frt:{B.label}:entry{rc}" for B in matrices for rc in ("10", "13", "20", "23")
    }

    def statuses():
        report = yb.verify_cybe().extend(yb.verify_frt_series_onsager(4))
        for B in matrices:
            report.extend(yb.verify_frt(B))
        return check_statuses(report)

    before = statuses()
    assert set(before.values()) == {"pass"} and failing | failing_on_tau <= before.keys()
    monkeypatch.setattr(yb, "_canonical", drops_the_sign(yb._canonical))
    assert statuses() == {c: "fail" if c in failing else "pass" for c in before}
    monkeypatch.setattr(yb, "_inversion_covariant", lambda *args: False)
    expected = {c: "fail" if c in failing | failing_on_tau else "pass" for c in before}
    assert statuses() == expected


def verify_all_statuses():
    opts = cli._build_parser().parse_args(["verify", "all"])
    cli._apply_config(opts, {})
    return check_statuses(cli.run_suite("all", opts))


def test_verify_all_fails_where_a_change_of_basis_coefficient_is_shifted(
    monkeypatch,
):
    before = verify_all_statuses()  # every image the suites read is now cached
    assert FAIL not in before.values()
    round_trips = {"iso:round-trip-alt", "iso:round-trip-onsager"}
    rows = [
        (
            "_to_ons_sym",
            ("Wm", 2),
            A(2) * Fraction(1, 4),
            round_trips
            | {"triangular:Wm", "appendix-a:inverse:Wm2", "appendix-a:to-ons:A-2"},
        ),
        (
            "_to_alt_sym",
            ("G", 3),
            Gt(0, Fraction(1, 3)),
            round_trips
            | {"iso:bracket-intertwine", "appendix-a:to-alt:G3"}
            | {"diagram:N1:G3", "diagram:N2:G3"}
            | {f"diagram:N3:G{m}" for m in (4, 5, 6, 7)}
            | {f"diagram:N4:G{m}" for m in (5, 6, 7, 8)},
        ),
    ]
    for name, sym, extra, failing in rows:
        mutant = corrupted(getattr(altpres, name), sym, extra)
        monkeypatch.setattr(altpres, name, mutant)
        expected = {c: FAIL if c in failing else before[c] for c in before}
        assert verify_all_statuses() == expected, name
        monkeypatch.undo()
    assert verify_all_statuses() == before

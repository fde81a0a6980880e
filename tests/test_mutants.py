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
"""

import onsaw.yangbaxter as yb
from onsaw import scalars
from onsaw.altpres import QuotientA
from onsaw.matrices import Matrix
from onsaw.quotient import QuotientO
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
    evaluates that r-matrix first and multiplies over Fraction, does not.
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

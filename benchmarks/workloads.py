"""The three benchmark workloads: seeded inputs, one pass, and the verdicts
each pass must reproduce.

A pass runs in a fresh interpreter (see ``onsaw_pass.py``) and builds fresh
quotient objects, because users run one verification per process and no pass
may profit from caches an earlier pass filled.

- ``verify-all``: ``onsaw verify all --format json`` in-process, stdout
  captured.  What users and CI run; every layer does a little.  Ignores the
  seed.  The report bytes must equal ``expected/verify_all.json``.
- ``frt-alt-symbolic``: ``verify_frt(build_B_alt(...))`` for symbolic beta
  quotients N = 3 and 4.  ``QuotientA.reduce`` divides by the symbolic
  ``beta_N``, so the work is ``RatFunc`` construction and polynomial
  multiplication.
- ``frt-onsager-series``: ``verify_frt(build_B_onsager(...))`` for symbolic
  alpha quotients N = 4 and 5 plus ``verify_frt_series_onsager(16)``.
  Polynomial coefficients only: no ``RatFunc`` is built.

Each FRT workload adds a negative control: an N = 2 operator matrix with one
seeded entry negated, whose verdict must be ``fail`` with the per-entry
pattern recorded in ``expected/frt_negative.json``.  The seed also chooses
the names of the symbolic coefficients and spectral variables, so monomial
order changes from seed to seed while the work stays isomorphic.
"""

import contextlib
import io
import json
import random
import string
from pathlib import Path

import onsaw
import onsaw.cli

EXPECTED = Path(__file__).resolve().parent / "expected"
NEGATIVE_N = 2
SERIES_D = 16
FRT_NS = {"frt-alt-symbolic": (3, 4), "frt-onsager-series": (4, 5)}
ENTRIES = [(r, c) for r in range(4) for c in range(4)]


def seeded_names(rng, count):
    """``count`` distinct lowercase names of one to four letters."""
    names = []
    while len(names) < count:
        length = rng.randint(1, 4)
        name = "".join(rng.choice(string.ascii_lowercase) for _ in range(length))
        if name not in names:
            names.append(name)
    return names


class Inputs:
    """Everything a pass needs, built before the timed region."""

    def __init__(self, workload, seed):
        if workload != "verify-all" and workload not in FRT_NS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        if workload == "verify-all":
            self.argv = ["verify", "all", "--format", "json"]
            self.expected_text = (EXPECTED / "verify_all.json").read_text(
                encoding="utf-8"
            )
            return
        rng = random.Random(f"{workload}:{seed}")
        ns = FRT_NS[workload]
        *coeffs, self.u, self.v = seeded_names(rng, max(ns) + 3)
        self.corrupt = rng.choice([(0, 0), (0, 1), (1, 0), (1, 1)])
        self.quotients = [self._quotient(N, coeffs) for N in ns]
        self.negative = self._quotient(NEGATIVE_N, coeffs)
        negative = json.loads((EXPECTED / "frt_negative.json").read_text("utf-8"))
        self.negative_fails = set(negative["failing_entries"]["%d%d" % self.corrupt])

    def _quotient(self, N, coeffs):
        if self.workload == "frt-alt-symbolic":
            return onsaw.QuotientA(tuple(onsaw.lvar(c) for c in coeffs[: N + 1]))
        alphas = tuple(onsaw.lvar(c) for c in coeffs[:N])
        return onsaw.QuotientO(alphas + (1,))

    def build_B(self, q):
        if self.workload == "frt-alt-symbolic":
            return onsaw.build_B_alt(q, u=self.u)
        return onsaw.build_B_onsager(q, u=self.u)


def run_pass(inp):
    """The measured work.  Returns what ``judge`` compares."""
    if inp.workload == "verify-all":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = onsaw.cli.main(inp.argv)
        return code, out.getvalue()
    reports = [onsaw.verify_frt(inp.build_B(q), v=inp.v) for q in inp.quotients]
    if inp.workload == "frt-onsager-series":
        reports.append(onsaw.verify_frt_series_onsager(SERIES_D, inp.u, inp.v))
    B = inp.build_B(inp.negative)
    i, j = inp.corrupt
    negative = onsaw.verify_frt(B.with_entry(i, j, -B.entries[i][j]), v=inp.v)
    return reports, negative


def expected_statuses(inp):
    """Check id -> expected status for an FRT workload."""
    label = "B-alt" if inp.workload == "frt-alt-symbolic" else "B-onsager"
    out = {}
    for N in FRT_NS[inp.workload]:
        for r, c in ENTRIES:
            out[f"frt:{label}-N{N}:entry{r}{c}"] = "pass"
    if inp.workload == "frt-onsager-series":
        for r, c in ENTRIES:
            out[f"frt-series-onsager:entry{r}{c}:D{SERIES_D}"] = "pass"
    for r, c in ENTRIES:
        status = "fail" if f"{r}{c}" in inp.negative_fails else "pass"
        out[f"negative:frt:{label}-N{NEGATIVE_N}:entry{r}{c}"] = status
    out["negative-control"] = "fail"
    return out


def _verdicts_of_json(text):
    # A list, not a dict: check ids in the full report are not unique.
    return [(c["id"], c["status"]) for c in json.loads(text)["checks"]]


def _mismatches(expected, got):
    """Checks whose verdict differs, counting missing and extra ids."""
    bad = sum(1 for k, v in expected.items() if got.get(k) != v)
    return bad + sum(1 for k in got if k not in expected)


def judge(inp, outcome):
    """(attempted, failed, notes): checks compared and verdicts that differ.

    ``notes`` lists what else went wrong (exit code, report bytes); a pass is
    correct when ``failed`` is 0 and ``notes`` is empty.
    """
    notes = []
    if inp.workload == "verify-all":
        code, text = outcome
        expected = _verdicts_of_json(inp.expected_text)
        try:
            got = _verdicts_of_json(text)
        except (ValueError, KeyError):
            got = []
            notes.append("report is not a JSON report")
        if code != 0:
            notes.append(f"exit code {code}, expected 0")
        if text != inp.expected_text:
            notes.append("report bytes differ from expected/verify_all.json")
        failed = sum(a != b for a, b in zip(expected, got))
        return len(expected), failed + abs(len(expected) - len(got)), notes
    reports, negative = outcome
    got = {c.id: c.status for r in reports for c in r.checks}
    for c in negative.checks:
        got["negative:" + c.id] = c.status
    got["negative-control"] = negative.status
    expected = expected_statuses(inp)
    return len(expected), _mismatches(expected, got), notes

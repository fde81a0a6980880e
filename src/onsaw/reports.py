"""Structured pass/fail/discrepancy reports shared by every verifier.

A report is a flat list of named checks.  A check passes iff its residual is
empty (but `cli._rep` appends, for `verify rep --w`, passing `rep:matrix`
checks that hold a matrix): `add` and `add_discrepancy` take the residual
alone (an element, a polynomial, a list of failures or a message, falsy when
nothing is wrong) and read the status off its truth value.  A check that does
not pass keeps the residual object and renders it by `str` once, the first
time its `residual` is read (by `to_dict`, `to_text` or a caller), so a report
that nobody writes out prints nothing.  The precondition is that a residual
does not change once added: every caller passes an element, a polynomial or
a string that it has just built and does not touch again.  The overall status
is "fail" iff any check failed; "discrepancy" marks a computed value
disagreeing with a printed reference value (this is recorded, never silently
dropped, but is not a verification failure).  Timing is 0 by default so that
rendered reports are byte-identical across runs; callers opt in to real
timings, in milliseconds to the microsecond, which text shows as an `(N ms)`
suffix.  `Report.extend` appends the checks of another report without copying
them, so it takes only a report that its caller has just built and then
drops.  `InputError` is the one input-fault type of the library.
"""

import json

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "discrepancy"


class InputError(ValueError):
    """A value from outside (an option, a parameter, a config file or an
    expression) that its command cannot take.  A library check raises it
    only where a command line can make it fail, and `onsaw` reports it as
    exit 2; any other ValueError is an internal invariant or an API
    precondition, and propagates."""


class Check:
    """One named verdict: its status, the residual that made it fail (or the
    detail of a discrepancy), and its time in milliseconds (0 untimed).

    `residual` is the text: a residual object given to the constructor is
    rendered by `str` on first read and the text kept."""

    __slots__ = ("id", "status", "_residual", "millis")

    def __init__(self, id: str, status: str, residual="", millis=0):
        self.id = id
        self.status = status
        self._residual = residual
        self.millis = millis

    @property
    def residual(self) -> str:
        if not isinstance(self._residual, str):
            self._residual = str(self._residual)
        return self._residual


class Report:
    """The checks of one suite, with the options they read as `params`."""

    def __init__(self, suite: str = "", checks=None, params=None, version: str = ""):
        self.suite = suite
        self.checks = [] if checks is None else checks
        self.params = {} if params is None else params
        self.version = version

    @property
    def status(self) -> str:
        if any(c.status == FAIL for c in self.checks):
            return FAIL
        if any(c.status == DISCREPANCY for c in self.checks):
            return DISCREPANCY
        return PASS

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def add(self, check_id: str, residual=""):
        check = Check(check_id, FAIL, residual) if residual else Check(check_id, PASS)
        self.checks.append(check)

    def add_discrepancy(self, check_id: str, detail=""):
        check = Check(check_id, DISCREPANCY, detail) if detail else Check(check_id, PASS)
        self.checks.append(check)

    def extend(self, other: "Report") -> "Report":
        """Append the checks of `other` to this report and return it.

        The checks are shared, not copied: a later change to one of them, such
        as `run_suite` stamping `millis`, shows in both reports.  Every caller
        passes a report it has just built and then drops it; `run_suite`
        stamps `millis` on a suite's report before `all` extends by it."""
        self.checks.extend(other.checks)
        return self

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "status": self.status,
            "version": self.version,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "checks": [
                {
                    "id": c.id,
                    "status": c.status,
                    "residual": c.residual,
                    "millis": c.millis,
                }
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, ensure_ascii=False)

    def to_text(self) -> str:
        lines = [f"suite {self.suite}: {self.status}"]
        for k, v in sorted(self.params.items()):
            lines.append(f"  param {k} = {v}")
        for c in self.checks:
            line = f"  [{c.status:>11}] {c.id}"
            if c.residual:
                line += f"  residual: {c.residual}"
            if c.millis:
                line += f"  ({c.millis:g} ms)"
            lines.append(line)
        return "\n".join(lines)

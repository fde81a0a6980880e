"""Command-line harness: verification suites, normal-form reduction, the
reduction-coefficient table, and basis conversion.

The suite table `_SUITE_RUNNERS` maps each suite to its runner, in the order of
`verify all`; `_NEGATIVE_CONTROLS` maps a suite to a corrupted run that must
fail, which `run_suite` records as the check `<suite>:negative-control`.
`run_suite` is the one place that names a report and lists its params.
Every command reads each option through `_opt` and each coefficient binding
(an expression's free symbols included) through `_coeffs`, which record the
names asked for; a run given one that nothing read is the input error
`suite <name> does not read <names>` (`<command> does not read <names>` for
`reduce`, `upoly` and `convert`), so a report's params are exactly the
options that took part in its verdict.

Exit codes: 0 on pass (discrepancies against printed reference values are
recorded in the report but are not failures), 1 on verification failure,
2 on an `InputError` (a bad option, parameter, config file or expression).
Any other exception is an internal error: it propagates with its traceback,
and the interpreter exits 1.
"""

import argparse
import sys
import time
from fractions import Fraction
from functools import partial

from . import __version__
from .altpres import (
    QuotientA,
    Wm,
    Wp,
    appendix_fixtures_report,
    averaged_shift_report,
    beta_alpha_report,
    beta_from_alpha,
    bracket_alt,
    convert_to_alt,
    convert_to_ons,
    reduction_diagram_report,
    sprime_report,
    verify_iso,
)
from .elements import AlgElem
from .envelope import PBW, aw3_fit, pbw_lie_compat_report, verify_quartic
from .exprs import eval_expr
from .onsager import bracket, sym_bracket, verify_dolan_grady
from .quotient import (
    QuotientO,
    forward_reduction_report,
    implied_relations_report,
    u_poly,
    u_poly_oracle,
    u_poly_report,
    verify_sn,
)
from .reports import FAIL, PASS, Check, InputError, Report
from .reps import rep_build, rep_check, rep_matrix_identity_report
from .scalars import as_coeff, lvar
from .yangbaxter import (
    ChargeParams,
    build_B_alt,
    build_B_onsager,
    corrupted_r_matrix,
    expand_b,
    verify_commuting,
    verify_cybe,
    verify_frt,
    verify_frt_series_alt,
    verify_frt_series_onsager,
    verify_reD,
)


def _parse_rational(text: str):
    """An exact rational: an int when integral, else a Fraction."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not an exact rational: {text!r} ({exc})") from None
    return as_coeff(value)


def _read_config(path: str) -> dict:
    out = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, eq, value = line.partition("=")
                if not eq or not key.strip():
                    raise InputError(f"{path}:{lineno}: expected key=value")
                out[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config file: {exc}") from None
    return out


# Options besides the bindings: --N, --trunc, --w and the config `alphas`.
_OPTIONS = ("N", "trunc", "w", "alphas")


def _opt(opts, name: str, default=None):
    """The option `name`, or `default` if not given; recorded in `opts.read`."""
    opts.read.add(name)
    value = getattr(opts, name)
    return default if value is None else value


def _coeffs(opts, names) -> tuple:
    """The value of each named coefficient from --param or the config, or
    else the symbol of that name; each name is recorded in `opts.bound`."""
    opts.bound.update(names)
    params = opts.params
    return tuple(params[name] if name in params else lvar(name) for name in names)


def _quotient(opts, N: int, alphas) -> QuotientO:
    if alphas is not None:
        if len(alphas) != N + 1:
            raise InputError(f"alpha vector must have length N+1 = {N + 1}")
        return QuotientO(alphas)
    return QuotientO(_coeffs(opts, QuotientO.alpha_names(N)) + (1,))


def _quotient_alt(opts, N: int) -> QuotientA:
    return QuotientA(_coeffs(opts, [f"beta{i}" for i in range(N + 1)]))


# --- suites -------------------------------------------------------------------


def _ns(opts, default):
    N = _opt(opts, "N")
    return default if N is None else [N]


def _quotients(opts, default):
    """The quotient for --N (with the configured alphas, if any), or a
    symbolic quotient for each N in `default`."""
    alphas = None if _opt(opts, "N") is None else _opt(opts, "alphas")
    return [_quotient(opts, N, alphas) for N in _ns(opts, default)]


def _per_quotient(default, *checks):
    """A runner that extends its report by each check, in turn, of each
    quotient `_quotients` gives."""

    def runner(opts) -> Report:
        report = Report()
        for q in _quotients(opts, default):
            for check in checks:
                report.extend(check(q))
        return report

    return runner


def _frt_alt(opts) -> Report:
    report = Report()
    for N in _ns(opts, [1, 2, 3]):
        report.extend(verify_frt(build_B_alt(_quotient_alt(opts, N))))
    return report


def _frt_series(opts) -> Report:
    D = _opt(opts, "trunc", 8)
    return verify_frt_series_onsager(D).extend(verify_frt_series_alt(D))


def _charges(opts) -> Report:
    report = Report()
    for q in _quotients(opts, [1, 2, 3, 4]):
        report.extend(verify_commuting(q))
        if q.N <= 3:
            report.extend(expand_b(q, _charge_params(opts))[1])
    return report


def _charge_params(opts) -> ChargeParams:
    return ChargeParams(*_coeffs(opts, ChargeParams._fields))


def _quartic(opts) -> Report:
    report = _per_quotient([1, 2], verify_quartic, pbw_lie_compat_report)(opts)
    q1 = QuotientO.symbolic(1)
    word = (("A", 1), ("G", 1), ("A", 0), ("A", 1), ("A", 0))
    first, last = (PBW(q1, strategy=s).normalize_word(word) for s in ("first", "last"))
    report.add(
        "quartic:pbw-confluence-spot", first != last and "rewrite strategies disagree"
    )
    return report


def _rep(opts) -> Report:
    """With --w, a `rep:matrix` check per symbol passes and holds its matrix as residual."""
    report = Report()
    w = _opt(opts, "w")
    for ws in [["w"], ["w1", "w2"]] if w is None else [w]:
        q, rep = rep_build(ws)
        report.extend(rep_check(q, rep))
        report.extend(rep_matrix_identity_report(ws, q, rep))
        if w is not None:
            for kind, k in q.basis_syms():
                rows = str(rep[kind, k]).replace("\n", "; ")
                report.checks.append(Check(f"rep:matrix:{kind}({k})", PASS, rows))
    return report


_SUITE_RUNNERS = {
    "cybe": lambda opts: verify_cybe(),
    "dg": lambda opts: verify_dolan_grady(),
    "frt-onsager": _per_quotient([1, 2, 3], lambda q: verify_frt(build_B_onsager(q))),
    "frt-alt": _frt_alt,
    "frt-series": _frt_series,
    "sn": _per_quotient([1, 2, 3, 4], verify_sn, implied_relations_report),
    "charges": _charges,
    "reD": lambda opts: verify_reD(_charge_params(opts)),
    "iso": lambda opts: verify_iso()
    .extend(averaged_shift_report())
    .extend(verify_dolan_grady(bracket_alt, (Wm(0), Wp(0)), "dg-alt")),
    "beta-alpha": _per_quotient(
        [1, 2, 3, 4],
        beta_alpha_report,
        reduction_diagram_report,
        lambda q: sprime_report(beta_from_alpha(q)),
    ),
    "quartic": _quartic,
    "aw3-fit": lambda opts: aw3_fit()[1],
    "rep": _rep,
    "upoly": _per_quotient(
        [1, 2, 3],
        partial(u_poly_report, pmax=10),
        partial(forward_reduction_report, pmax=8),
    ),
    "fixtures-appendix-a": lambda opts: appendix_fixtures_report(),
}


def _corrupted_sym_bracket(s, t):
    return sym_bracket(s, t) * (Fraction(5, 4) if s[0] == t[0] == "A" else 1)


def _corrupted_frt() -> Report:
    B = build_B_onsager(QuotientO.symbolic(1))
    return verify_frt(B.with_entry(0, 1, -B.entries[0][1]))


# Suite -> (negative control, residual if the control's report does not fail).
_NEGATIVE_CONTROLS = {
    "cybe": (
        lambda: verify_cybe(corrupted_r_matrix()),
        "corrupted r-matrix was not rejected",
    ),
    "dg": (
        lambda: verify_dolan_grady(
            lambda x, y: bracket(x, y, sym_bracket=_corrupted_sym_bracket)
        ),
        "corrupted structure constants were not rejected",
    ),
    "frt-onsager": (_corrupted_frt, "corrupted operator matrix was not rejected"),
}

SUITES = tuple(_SUITE_RUNNERS) + ("all",)


def run_suite(name: str, opts) -> Report:
    if name == "all":
        report = Report()
        for sub in _SUITE_RUNNERS:
            report.extend(run_suite(sub, opts))
    else:
        start = time.perf_counter()
        report = _SUITE_RUNNERS[name](opts)
        if name in _NEGATIVE_CONTROLS:
            control, residual = _NEGATIVE_CONTROLS[name]
            report.add(f"{name}:negative-control", control().status != FAIL and residual)
        if opts.timing and report.checks:
            report.checks[-1].millis = round(float(time.perf_counter() - start) * 1000, 3)
    report.suite = name
    report.params = {k: str(v) for k, v in opts.params.items()}
    for key in _OPTIONS:
        value = getattr(opts, key)
        if value is not None:
            seq = isinstance(value, (list, tuple))
            report.params[key] = ",".join(map(str, value)) if seq else str(value)
    report.version = __version__
    return report


# --- argument handling -------------------------------------------------------------


def _apply_config(args, config: dict):
    """Complete the parsed namespace in place: N (when --N is absent), alphas
    and params from the config, params overridden by --param, --w parsed
    into rationals, and the empty sets `read` and `bound` of a run's reads."""
    if args.N is None and "N" in config:
        try:
            args.N = int(config["N"])
        except ValueError:
            raise InputError("config N must be an integer") from None
    args.alphas = None
    args.params = {}
    for key, value in config.items():
        if key == "alphas":
            args.alphas = tuple(_parse_rational(part) for part in value.split(","))
        elif key != "N":
            args.params[key] = _parse_rational(value)
    for item in args.param or []:
        name, eq, value = item.partition("=")
        if not eq or not name.strip():
            raise InputError(f"--param expects name=value, got {item!r}")
        args.params[name.strip()] = _parse_rational(value)
    if args.w is not None:
        args.w = [_parse_rational(part) for part in args.w.split(",")]
    args.read, args.bound = set(), set()


def _element(args, presentation: str) -> AlgElem:
    element = eval_expr(args.expr, presentation, lambda name: _coeffs(args, [name])[0])
    if not isinstance(element, AlgElem):
        raise InputError(
            f"expression {args.expr!r} is a scalar, not an algebra element"
        )
    return element


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onsaw",
        description="exact verification suites for the Onsager algebra, its"
        " finite quotients, and their exchange-relation presentations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.set_defaults(N=None, trunc=None, w=None, timing=False)
    sub = parser.add_subparsers(dest="command", required=True)
    expr_help = "an expression starting with '-' must be written --expr=-A(0)"

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_reduce = sub.add_parser("reduce", help="reduce an expression to normal form")
    p_upoly = sub.add_parser("upoly", help="one reduction-table coefficient")
    for p in (p_verify, p_reduce, p_upoly):
        p.add_argument("--N", type=int)
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--trunc", type=int)
    w_help = "a list starting with '-' must be written --w=-1/2,5"
    p_verify.add_argument("--w", metavar="W1,W2,...", help=w_help)
    p_verify.add_argument(
        "--timing",
        action="store_true",
        help="record each suite's wall-clock millis on its last check"
        " (off by default so reports are stable)",
    )

    p_reduce.add_argument("--expr", required=True, help=expr_help)
    p_reduce.add_argument(
        "--presentation", choices=("onsager", "alt"), default="onsager"
    )

    p_upoly.add_argument("--p", type=int, required=True)
    p_upoly.add_argument("--j", type=int, required=True)

    p_convert = sub.add_parser("convert", help="convert between presentations")
    p_convert.add_argument("--dir", choices=("to-alt", "to-ons"), required=True)
    p_convert.add_argument("--expr", required=True, help=expr_help)

    for p in sub.choices.values():
        p.add_argument("--param", action="append", metavar="NAME=VALUE")
        p.add_argument("--config")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _apply_config(args, _read_config(args.config) if args.config else {})
        if args.command == "verify":
            report = run_suite(args.suite, args)
            text = report.to_json() if args.format == "json" else report.to_text()
            code = 0 if report.ok else 1
        elif args.command == "convert":
            element = _element(args, "onsager" if args.dir == "to-alt" else "alt")
            convert = convert_to_alt if args.dir == "to-alt" else convert_to_ons
            text, code = str(convert(element)), 0
        elif (N := _opt(args, "N")) is None:
            raise InputError("--N is required (or N in a config file)")
        elif args.command == "upoly":
            q = _quotient(args, N, _opt(args, "alphas"))
            value = u_poly(q, args.p, args.j)
            oracle = u_poly_oracle(q, args.p).coeff(("A", args.j))
            text, code = f"U[p={args.p}, j={args.j}] (N={N}) = {value}", 0
            if value != oracle:
                text, code = f"{text}\nDISCREPANCY: reduction oracle gives {oracle}", 1
        else:  # reduce: the subcommand is required, so no other is left
            element = _element(args, args.presentation)
            if args.presentation == "onsager":
                q = _quotient(args, N, _opt(args, "alphas"))
            else:
                q = _quotient_alt(args, N)
            text, code = str(q.reduce(element)), 0
        given = [key for key in _OPTIONS if getattr(args, key) is not None]
        unread = [key for key in given if key not in args.read]
        unread += [name for name in args.params if name not in args.bound]
        if unread:
            what = f"suite {args.suite}" if args.command == "verify" else args.command
            raise InputError(f"{what} does not read {', '.join(unread)}")
        print(text)
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness: verification suites, normal-form reduction, the
reduction-coefficient table, and basis conversion.

Exit codes: 0 on pass (discrepancies against printed reference values are
recorded in the report but are not failures), 1 on verification failure,
2 on input errors.
"""

import argparse
import sys
from fractions import Fraction

from . import __version__
from .altpres import (
    QuotientA,
    appendix_fixtures_report,
    averaged_shift_report,
    beta_alpha_report,
    beta_from_alpha,
    dolan_grady_alt_report,
    reduction_diagram_report,
    sprime_report,
    verify_iso,
)
from .envelope import PBW, aw3_fit, pbw_lie_compat_report, verify_quartic
from .exprs import ExprError, eval_expr
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
from .reports import FAIL, Report, timer
from .reps import rep_build, rep_check, rep_matrix_identity_report
from .scalars import lvar
from .yangbaxter import (
    RED_INTERPRETATIONS,
    build_B_alt,
    build_B_onsager,
    corrupted_r_matrix,
    expand_b,
    reD_survey,
    verify_commuting,
    verify_cybe,
    verify_frt,
    verify_frt_series_alt,
    verify_frt_series_onsager,
    verify_reD,
)

class InputError(Exception):
    pass


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not an exact rational: {text!r} ({exc})") from None


def _read_config(path: str) -> dict:
    out = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise InputError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise InputError(f"cannot read config file: {exc}") from None
    return out


def _quotient(N: int, params: dict, alphas) -> QuotientO:
    if alphas is not None:
        if len(alphas) != N + 1:
            raise InputError(f"alpha vector must have length N+1 = {N + 1}")
        return QuotientO(alphas)
    coeffs = [params.get(name, lvar(name)) for name in QuotientO.alpha_names(N)]
    return QuotientO(tuple(coeffs) + (Fraction(1),))


def _quotient_alt(N: int, params: dict) -> QuotientA:
    coeffs = []
    for i in range(N + 1):
        name = f"beta{i}"
        coeffs.append(params[name] if name in params else lvar(name))
    return QuotientA(tuple(coeffs))


def _corrupted_sym_bracket(s, t):
    value = sym_bracket(s, t)
    if s[0] == "A" and t[0] == "A":
        return value * Fraction(5, 4)
    return value


# --- suite implementations ----------------------------------------------------


def _suite_cybe(opts) -> Report:
    report = verify_cybe()
    negative = verify_cybe(corrupted_r_matrix())
    report.add(
        "cybe:negative-control",
        negative.status == FAIL,
        "corrupted r-matrix was not rejected",
    )
    return report


def _suite_dg(opts) -> Report:
    report = verify_dolan_grady()
    negative = verify_dolan_grady(
        bracket_fn=lambda x, y: bracket(x, y, sym_bracket=_corrupted_sym_bracket)
    )
    report.add(
        "dg:negative-control",
        negative.status == FAIL,
        "corrupted structure constants were not rejected",
    )
    return report


def _ns(opts, default):
    return [opts.N] if opts.N is not None else default


def _quotients(opts, default):
    """The quotient for --N (with the configured alphas, if any), or a
    symbolic quotient for each N in `default`."""
    for N in _ns(opts, default):
        yield _quotient(N, opts.params, opts.alphas if opts.N is not None else None)


def _suite_frt_onsager(opts) -> Report:
    report = Report("frt-onsager")
    for q in _quotients(opts, [1, 2, 3]):
        report.extend(verify_frt(build_B_onsager(q)))
    B = build_B_onsager(QuotientO.symbolic(1))
    corrupted = B.with_entry(0, 1, -B.entries[0][1])
    negative = verify_frt(corrupted)
    report.add(
        "frt-onsager:negative-control",
        negative.status == FAIL,
        "corrupted operator matrix was not rejected",
    )
    return report


def _suite_frt_alt(opts) -> Report:
    report = Report("frt-alt")
    for N in _ns(opts, [1, 2, 3]):
        qa = _quotient_alt(N, opts.params)
        report.extend(verify_frt(build_B_alt(qa)))
    return report


def _suite_frt_series(opts) -> Report:
    D = opts.trunc if opts.trunc is not None else 8
    report = Report("frt-series", params={"D": D})
    report.extend(verify_frt_series_onsager(D))
    report.extend(verify_frt_series_alt(D))
    return report


def _suite_sn(opts) -> Report:
    report = Report("sn")
    for q in _quotients(opts, [1, 2, 3, 4]):
        report.extend(verify_sn(q))
        report.extend(implied_relations_report(q, pmax=6))
    return report


def _suite_charges(opts) -> Report:
    report = Report("charges")
    for q in _quotients(opts, [1, 2, 3, 4]):
        report.extend(verify_commuting(q))
        if q.N <= 3:
            _, expansion = expand_b(q, _charge_params(opts.params))
            report.extend(expansion)
    return report


def _charge_params(params: dict):
    from .yangbaxter import ChargeParams

    return ChargeParams(
        params.get("kappa", lvar("kappa")),
        params.get("kappas", lvar("kappas")),
        params.get("mu", lvar("mu")),
    )


def _suite_reD(opts) -> Report:
    c = _charge_params(opts.params)
    if opts.interpretation == "all":
        report = Report("reD", params={"interpretation": "all"})
        for name, holds in reD_survey(c).items():
            report.add_discrepancy(
                f"reD:{name}",
                holds,
                "identity does not hold for this reading",
            )
        return report
    return verify_reD(c, opts.interpretation or "r12")


def _suite_iso(opts) -> Report:
    report = verify_iso()
    report.extend(averaged_shift_report())
    report.extend(dolan_grady_alt_report())
    return report


def _suite_beta_alpha(opts) -> Report:
    report = Report("beta-alpha")
    for q in _quotients(opts, [1, 2, 3, 4]):
        report.extend(beta_alpha_report(q))
        report.extend(reduction_diagram_report(q))
        report.extend(sprime_report(beta_from_alpha(q)))
    return report


def _suite_quartic(opts) -> Report:
    report = Report("quartic")
    for q in _quotients(opts, [1, 2]):
        report.extend(verify_quartic(q))
        report.extend(pbw_lie_compat_report(q))
    q1 = QuotientO.symbolic(1)
    first = PBW(q1, strategy="first")
    last = PBW(q1, strategy="last")
    word = (("A", 1), ("G", 1), ("A", 0), ("A", 1), ("A", 0))
    report.add(
        "quartic:pbw-confluence-spot",
        first.normalize_word(word) == last.normalize_word(word),
        "rewrite strategies disagree",
    )
    return report


def _suite_aw3_fit(opts) -> Report:
    _, report = aw3_fit()
    return report


def _suite_rep(opts) -> Report:
    from .reports import PASS, Check

    report = Report("rep")
    if opts.w:
        configs = [opts.w]
    else:
        configs = [["w"], ["w1", "w2"]]
    for ws in configs:
        q, rep = rep_build(ws)
        report.extend(rep_check(q, rep))
        report.extend(rep_matrix_identity_report(ws, q, rep))
        if opts.w:
            for sym in q.basis_syms():
                rows = "; ".join(
                    "[" + ", ".join(str(e) for e in row) + "]"
                    for row in rep[sym].entries
                )
                report.checks.append(
                    Check(f"rep:matrix:{sym[0]}({sym[1]})", PASS, rows)
                )
    return report


def _suite_upoly(opts) -> Report:
    report = Report("upoly")
    for q in _quotients(opts, [1, 2, 3]):
        report.extend(u_poly_report(q, pmax=10))
        report.extend(forward_reduction_report(q, pmax=8))
    return report


def _suite_fixtures(opts) -> Report:
    return appendix_fixtures_report()


_SUITE_RUNNERS = {
    "cybe": _suite_cybe,
    "dg": _suite_dg,
    "frt-onsager": _suite_frt_onsager,
    "frt-alt": _suite_frt_alt,
    "frt-series": _suite_frt_series,
    "sn": _suite_sn,
    "charges": _suite_charges,
    "reD": _suite_reD,
    "iso": _suite_iso,
    "beta-alpha": _suite_beta_alpha,
    "quartic": _suite_quartic,
    "aw3-fit": _suite_aw3_fit,
    "rep": _suite_rep,
    "upoly": _suite_upoly,
    "fixtures-appendix-a": _suite_fixtures,
}

SUITES = tuple(_SUITE_RUNNERS) + ("all",)


def run_suite(name: str, opts) -> Report:
    if name == "all":
        report = Report("all")
        for sub in _SUITE_RUNNERS:
            report.extend(run_suite(sub, opts))
        report.params = _report_params(opts)
        report.version = __version__
        return report
    runner = _SUITE_RUNNERS.get(name)
    if runner is None:
        raise InputError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if opts.timing:
        with timer() as t:
            report = runner(opts)
        if report.checks:
            report.checks[-1].millis = t.millis
    else:
        report = runner(opts)
    report.suite = name
    report.params = _report_params(opts)
    report.version = __version__
    return report


def _report_params(opts) -> dict:
    out = {k: str(v) for k, v in opts.params.items()}
    if opts.N is not None:
        out["N"] = str(opts.N)
    if opts.trunc is not None:
        out["trunc"] = str(opts.trunc)
    if opts.w:
        out["w"] = ",".join(str(w) for w in opts.w)
    if opts.interpretation:
        out["interpretation"] = opts.interpretation
    return out


# --- argument handling -------------------------------------------------------------


class _Options:
    def __init__(self, args, config):
        args_n = getattr(args, "N", None)
        self.N = args_n if args_n is not None else _config_int(config, "N")
        self.trunc = getattr(args, "trunc", None)
        self.interpretation = getattr(args, "interpretation", None)
        self.timing = getattr(args, "timing", False)
        self.params = {}
        self.alphas = None
        for key, value in config.items():
            if key in ("N",):
                continue
            if key == "alphas":
                self.alphas = tuple(
                    _parse_rational(part) for part in value.split(",")
                )
                continue
            self.params[key] = _parse_rational(value)
        for item in getattr(args, "param", None) or []:
            if "=" not in item:
                raise InputError(f"--param expects name=value, got {item!r}")
            name, _, value = item.partition("=")
            self.params[name.strip()] = _parse_rational(value)
        self.w = None
        if getattr(args, "w", None):
            self.w = [_parse_rational(part) for part in args.w.split(",")]


def _config_int(config, key):
    if key in config:
        try:
            return int(config[key])
        except ValueError:
            raise InputError(f"config {key} must be an integer") from None
    return None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onsaw",
        description="exact verification suites for the Onsager algebra, its"
        " finite quotients, and their exchange-relation presentations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--N", type=int, default=None)
    p_verify.add_argument(
        "--param", action="append", metavar="NAME=VALUE", default=None
    )
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--trunc", type=int, default=None)
    p_verify.add_argument("--w", default=None, metavar="W1,W2,...")
    p_verify.add_argument(
        "--interpretation",
        default=None,
        choices=RED_INTERPRETATIONS + ("all",),
    )
    p_verify.add_argument("--config", default=None)
    p_verify.add_argument(
        "--timing",
        action="store_true",
        help="record wall-clock millis (off by default so reports are stable)",
    )

    p_reduce = sub.add_parser("reduce", help="reduce an expression to normal form")
    p_reduce.add_argument("--N", type=int, required=True)
    p_reduce.add_argument("--expr", required=True)
    p_reduce.add_argument(
        "--presentation", choices=("onsager", "alt"), default="onsager"
    )
    p_reduce.add_argument(
        "--param", action="append", metavar="NAME=VALUE", default=None
    )
    p_reduce.add_argument("--config", default=None)

    p_upoly = sub.add_parser("upoly", help="one reduction-table coefficient")
    p_upoly.add_argument("--N", type=int, required=True)
    p_upoly.add_argument("--p", type=int, required=True)
    p_upoly.add_argument("--j", type=int, required=True)
    p_upoly.add_argument(
        "--param", action="append", metavar="NAME=VALUE", default=None
    )
    p_upoly.add_argument("--config", default=None)

    p_convert = sub.add_parser("convert", help="convert between presentations")
    p_convert.add_argument("--dir", choices=("to-alt", "to-ons"), required=True)
    p_convert.add_argument("--expr", required=True)
    p_convert.add_argument(
        "--param", action="append", metavar="NAME=VALUE", default=None
    )
    p_convert.add_argument("--config", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _read_config(args.config) if getattr(args, "config", None) else {}
        opts = _Options(args, config)
        if args.command == "verify":
            report = run_suite(args.suite, opts)
            if args.format == "json":
                print(report.to_json())
            else:
                print(report.to_text())
            return 0 if report.ok else 1
        if args.command == "reduce":
            element = eval_expr(args.expr, args.presentation, opts.params)
            if args.presentation == "onsager":
                q = _quotient(args.N, opts.params, opts.alphas)
                print(q.reduce(element))
            else:
                qa = _quotient_alt(args.N, opts.params)
                print(qa.reduce(element))
            return 0
        if args.command == "upoly":
            q = _quotient(args.N, opts.params, opts.alphas)
            value = u_poly(q, args.p, args.j)
            oracle = u_poly_oracle(q, args.p, args.j)
            print(f"U[p={args.p}, j={args.j}] (N={args.N}) = {value}")
            if value == oracle:
                return 0
            print(f"DISCREPANCY: reduction oracle gives {oracle}")
            return 1
        if args.command == "convert":
            presentation = "onsager" if args.dir == "to-alt" else "alt"
            element = eval_expr(args.expr, presentation, opts.params)
            from .altpres import convert_to_alt, convert_to_ons

            converted = (
                convert_to_alt(element)
                if args.dir == "to-alt"
                else convert_to_ons(element)
            )
            print(converted)
            return 0
        raise InputError(f"unknown command {args.command!r}")
    except (InputError, ExprError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

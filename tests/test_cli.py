"""Command-line behaviour: suites, exit codes, determinism, file config."""

import argparse
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import onsaw.cli as cli
import onsaw.quotient
from onsaw.altpres import (
    QuotientA,
    beta_alpha_report,
    beta_from_alpha,
    reduction_diagram_report,
    sprime_report,
)
from onsaw.envelope import pbw_lie_compat_report, verify_quartic
from onsaw.exprs import ExprError
from onsaw.onsager import verify_dolan_grady
from onsaw.quotient import (
    QuotientO,
    forward_reduction_report,
    implied_relations_report,
    u_poly_report,
    verify_sn,
)
from onsaw.reports import PASS, Check, InputError, Report
from onsaw.scalars import RatFunc, lvar
from onsaw.yangbaxter import (
    ChargeParams,
    build_B_alt,
    build_B_onsager,
    expand_b,
    verify_commuting,
    verify_frt,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_cybe_text(capsys):
    code, out, err = run(capsys, "verify", "cybe")
    assert code == 0
    assert "suite cybe: pass" in out
    assert "cybe:negative-control" in out


def test_verify_json_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "dg", "--format", "json")
    code2, out2, _ = run(capsys, "verify", "dg", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["suite"] == "dg"
    assert payload["status"] == "pass"
    assert {c["id"] for c in payload["checks"]} >= {"dg:0110", "dg:1001"}
    assert all(c["millis"] == 0 for c in payload["checks"])


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    def failing(opts):
        report = Report("dg")
        report.add("dg:forced", "forced failure")
        return report

    monkeypatch.setitem(cli._SUITE_RUNNERS, "dg", failing)
    code, out, _ = run(capsys, "verify", "dg")
    assert code == 1
    assert "suite dg: fail" in out


def test_a_negative_control_that_passes_fails_its_suite(capsys, monkeypatch):
    _, residual = cli._NEGATIVE_CONTROLS["dg"]
    monkeypatch.setitem(
        cli._NEGATIVE_CONTROLS, "dg", (lambda: verify_dolan_grady(), residual)
    )
    code, out, _ = run(capsys, "verify", "dg", "--format", "json")
    assert code == 1
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    control = checks["dg:negative-control"]
    assert control["status"] == "fail"
    assert control["residual"] == "corrupted structure constants were not rejected"


def test_verify_all_runs_each_negative_control_once(capsys, monkeypatch):
    calls = []
    for name, (control, residual) in list(cli._NEGATIVE_CONTROLS.items()):

        def counted(name=name, control=control):
            calls.append(name)
            return control()

        monkeypatch.setitem(cli._NEGATIVE_CONTROLS, name, (counted, residual))
    code, out, _ = run(capsys, "verify", "all", "--format", "json")
    assert code == 0
    assert sorted(calls) == ["cybe", "dg", "frt-onsager"]
    controls = [
        c["id"] for c in json.loads(out)["checks"] if "negative-control" in c["id"]
    ]
    assert controls == [f"{name}:negative-control" for name in calls]


def test_internal_key_error_is_not_reported_as_an_input_error(capsys, monkeypatch):
    def broken(opts):
        raise KeyError("internal")

    monkeypatch.setitem(cli._SUITE_RUNNERS, "dg", broken)
    with pytest.raises(KeyError):
        cli.main(["verify", "dg"])


def test_one_input_error_type_lives_in_the_library():
    assert issubclass(InputError, ValueError)
    assert issubclass(ExprError, InputError)
    assert cli.InputError is InputError
    defined_in_cli = [
        name
        for name, value in vars(cli).items()
        if isinstance(value, type) and value.__module__ == cli.__name__
    ]
    assert defined_in_cli == []


_BROKEN_DIVIDE = """
import sys
import onsaw.quotient
from onsaw import cli


def broken(*args):
    raise ValueError("internal invariant broken")


onsaw.quotient.divide = broken
sys.exit(cli.main(["verify", "sn", "--N", "1"]))
"""


def test_an_internal_value_error_is_not_an_input_error(capsys, monkeypatch):
    def broken(*args):
        raise ValueError("internal invariant broken")

    monkeypatch.setattr(onsaw.quotient, "divide", broken)
    with pytest.raises(ValueError, match="internal invariant broken") as exc:
        cli.main(["verify", "sn", "--N", "1"])
    assert not isinstance(exc.value, InputError)
    assert capsys.readouterr().err == ""

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _BROKEN_DIVIDE], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("Traceback")
    assert proc.stderr.endswith("ValueError: internal invariant broken\n")


# `dataclasses` and the modules it pulls in, none of which the checks use.
# Python 3.13 loads linecache at start-up, so only what the import adds counts.
_START_UP_EXCLUDED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "linecache")


def test_import_loads_only_the_modules_the_checks_use():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"sys.path.insert(0, {src!r})\n"
        "import onsaw, onsaw.cli\n"
        "added = set(sys.modules) - before\n"
        f"print(*[m for m in {_START_UP_EXCLUDED!r} if m in added])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_records_keep_their_constructors_and_defaults():
    check = Check("x", PASS)
    assert (check.id, check.status, check.residual, check.millis) == ("x", PASS, "", 0)
    assert Report(suite="x").suite == "x"
    first, second = Report(), Report()
    first.add("x")
    first.params["N"] = "1"
    assert (second.checks, second.params) == ([], {})
    assert first.extend(second) is first and len(first.checks) == 1
    assert second.extend(first).checks[0] is first.checks[0]

    c = ChargeParams(1, 2, 3)
    assert (c.kappa, c.kappas, c.mu) == (1, 2, 3)
    assert ChargeParams.symbolic().kappas == lvar("kappas")

    B = build_B_onsager(QuotientO.symbolic(1))
    entries = B.entries
    flipped = B.with_entry(0, 1, -entries[0][1])
    assert B.entries is entries and flipped.entries[0][1] == -entries[0][1]
    assert flipped.entries[0][1] != entries[0][1]
    assert [flipped.entries[i][j] for i, j in ((0, 0), (1, 0), (1, 1))] == [
        entries[i][j] for i, j in ((0, 0), (1, 0), (1, 1))
    ]
    assert (flipped.den, flipped.u, flipped.algebra, flipped.label) == (
        B.den,
        B.u,
        B.algebra,
        B.label,
    )


def test_unknown_suite_is_an_input_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "no-such-suite"])
    assert exc.value.code == 2


def test_bad_param_is_an_input_error(capsys):
    code, _, err = run(capsys, "verify", "dg", "--param", "alpha")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", "--N", "1", "--expr", "3"),
        ("reduce", "--N", "1", "--expr", "alpha"),
        ("reduce", "--N", "1", "--presentation", "alt", "--expr", "1/2"),
        ("convert", "--dir", "to-alt", "--expr", "3"),
        ("convert", "--dir", "to-ons", "--expr", "beta"),
    ],
)
def test_scalar_expression_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "scalar" in err


@pytest.mark.parametrize(
    "argv, column",
    [
        (("reduce", "--N", "1", "--expr", "9" * 5000 + "*A(0)"), 1),
        (("reduce", "--N", "1", "--expr", "A(" + "9" * 5000 + ")"), 3),
        (("convert", "--dir", "to-alt", "--expr", "1/" + "9" * 5000 + "*A(1)"), 3),
    ],
)
def test_a_numeral_past_the_int_string_limit_is_an_input_error(capsys, argv, column):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(old)
    assert (code, out) == (2, "")
    assert err == f"error: numeral of 5000 digits is too long (column {column})\n"


def _fake_clock(monkeypatch, step=Fraction(7, 1000)):
    """Make every perf_counter call advance the clock by exactly `step` s."""
    ticks = itertools.count()
    monkeypatch.setattr(time, "perf_counter", lambda: step * next(ticks))


def test_timing_stamps_the_last_check_of_a_suite(capsys, monkeypatch):
    _fake_clock(monkeypatch)
    code, out, _ = run(capsys, "verify", "dg", "--timing", "--format", "json")
    assert code == 0
    millis = [c["millis"] for c in json.loads(out)["checks"]]
    assert len(millis) > 1
    assert millis[-1] == 7 and not any(millis[:-1])


def test_timing_shows_in_text_only_on_the_stamped_check(capsys, monkeypatch):
    plain = run(capsys, "verify", "dg")[1].splitlines()
    _fake_clock(monkeypatch)
    code, out, _ = run(capsys, "verify", "dg", "--timing")
    assert code == 0
    assert out.splitlines() == plain[:-1] + [plain[-1] + "  (7 ms)"]


def test_timing_shows_a_suite_under_a_millisecond(capsys, monkeypatch):
    """`dg` takes under 1 ms; its time still shows in text and as a number in
    JSON, on the real clock and on one that ticks 0.4 ms."""
    plain = run(capsys, "verify", "dg")[1].splitlines()
    code, out, _ = run(capsys, "verify", "dg", "--timing")
    assert code == 0 and out.splitlines()[:-1] == plain[:-1]
    assert re.fullmatch(re.escape(plain[-1]) + r"  \([0-9.]+ ms\)", out.splitlines()[-1])
    _fake_clock(monkeypatch, Fraction(4, 10000))
    out = run(capsys, "verify", "dg", "--timing")[1]
    assert out.splitlines() == plain[:-1] + [plain[-1] + "  (0.4 ms)"]
    out = run(capsys, "verify", "dg", "--timing", "--format", "json")[1]
    assert json.loads(out)["checks"][-1]["millis"] == 0.4


def test_timing_of_all_stamps_one_check_per_suite(capsys, monkeypatch):
    _fake_clock(monkeypatch)
    code, out, _ = run(capsys, "verify", "all", "--timing", "--format", "json")
    assert code == 0
    millis = [c["millis"] for c in json.loads(out)["checks"] if c["millis"]]
    assert millis == [7] * 15


def test_converted_output_parses_back(capsys):
    """What `convert --dir to-alt` prints, `convert --dir to-ons` reads."""
    code, out, _ = run(capsys, "convert", "--dir", "to-alt", "--expr", "A(-1)")
    assert (code, out) == (0, "2*Wm(1) + -Wp(0)\n")
    code, out, _ = run(capsys, "convert", "--dir", "to-ons", "--expr", out.strip())
    assert (code, out) == (0, "A(-1)\n")


def test_param_binds_upoly_and_convert(capsys):
    code, out, _ = run(
        capsys, "upoly", "--N", "1", "--p", "1", "--j", "0", "--param", "alpha=2"
    )
    assert code == 0
    assert out.strip() == "U[p=1, j=0] (N=1) = 3"
    code, out, _ = run(
        capsys, "convert", "--dir", "to-alt", "--expr", "mu*A(0)", "--param", "mu=2"
    )
    assert code == 0
    assert out.strip() == "2*Wm(0)"


def test_reduce_command(capsys):
    code, out, _ = run(capsys, "reduce", "--N", "1", "--expr", "alpha*G(1) + G(2)")
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = run(capsys, "reduce", "--N", "1", "--expr", "A(-1)")
    assert code == 0
    assert out.strip() == "-1*alpha*A(0) + -A(1)"


def test_reduce_alt_presentation(capsys):
    code, out, _ = run(
        capsys,
        "reduce",
        "--N",
        "1",
        "--expr",
        "Gt(1)",
        "--presentation",
        "alt",
        "--param",
        "beta0=1",
        "--param",
        "beta1=2",
    )
    assert code == 0
    assert out.strip() == "-1/2*Gt(0)"


def test_reduce_alt_with_symbolic_betas_prints_laurent_coefficients(capsys):
    code, out, _ = run(
        capsys, "reduce", "--N", "1", "--presentation", "alt", "--expr", "W(-2)+Gt(1)"
    )
    assert code == 0
    assert out.strip() == "(-1*beta0*beta1^-1)*Gt(0) + (beta0^2*beta1^-2)*Wm(0)"
    argv = ("reduce", "--N", "1", "--presentation", "alt", "--expr", out.strip())
    again = run(capsys, *argv)
    assert again == (0, out, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "frt-onsager", "--N", "0"),
        ("verify", "frt-alt", "--N", "0"),
        ("verify", "sn", "--N", "0"),
        ("verify", "frt-series", "--trunc", "0"),
    ],
)
def test_zero_N_or_trunc_is_an_input_error_not_a_default(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error: need" in err


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (
            ("verify", "sn", "--N", "1", "--param", "alpha=1/x"),
            None,
            "not an exact rational: '1/x' (Invalid literal for Fraction: '1/x')",
        ),
        (("verify", "sn"), "N\n", "{config}:1: expected key=value"),
        (("verify", "sn"), "N=abc\n", "config N must be an integer"),
        (
            ("verify", "sn", "--N", "1"),
            "alphas=1,2,1\n",
            "alpha vector must have length N+1 = 2",
        ),
        (("reduce", "--N", "1", "--expr", "A(0))"), None, "trailing input ')' (column 5)"),
        (
            ("verify", "sn", "--N", "0"),
            None,
            "need N >= 1, i.e. at least (alpha_0, alpha_1)",
        ),
        (("verify", "sn", "--N", "1"), "alphas=1,2\n", "normalization requires alpha_N = 1"),
        (
            ("verify", "frt-alt", "--N", "0"),
            None,
            "need N >= 1, i.e. at least (beta_0, beta_1)",
        ),
        (
            ("verify", "frt-alt", "--N", "1", "--param", "beta1=0"),
            None,
            "leading coefficient beta_N must be nonzero",
        ),
        (
            ("verify", "quartic", "--N", "3"),
            None,
            "quartic presentations are stated for N = 1 and N = 2",
        ),
        (
            ("verify", "rep", "--w", "0"),
            None,
            "evaluation points must be nonzero rationals or plain variables",
        ),
        (("verify", "frt-series", "--trunc", "1"), None, "need truncation degree D >= 2"),
        (
            ("upoly", "--N", "1", "--p", "-1", "--j", "0"),
            None,
            "u_poly indices out of range: p=-1, j=0",
        ),
        (
            ("reduce", "--N", "1", "--presentation", "alt", "--expr", "Wp(-1)"),
            None,
            "Wp index must be >= 0 (column 1)",
        ),
        (
            ("convert", "--dir", "to-ons", "--expr", "Gt(-1)"),
            None,
            "Gt index must be >= 0 (column 1)",
        ),
        (("verify", "dg", "--N", "0"), None, "suite dg does not read N"),
        (("verify", "iso", "--N", "0"), None, "suite iso does not read N"),
        (("verify", "aw3-fit", "--N", "0"), None, "suite aw3-fit does not read N"),
        (
            ("verify", "fixtures-appendix-a", "--trunc", "0"),
            None,
            "suite fixtures-appendix-a does not read trunc",
        ),
        (
            ("verify", "frt-alt", "--N", "1", "--param", "alpha=5/7"),
            None,
            "suite frt-alt does not read alpha",
        ),
        (
            ("verify", "frt-alt", "--N", "1"),
            "alpha=5/7\n",
            "suite frt-alt does not read alpha",
        ),
        (("verify", "frt-alt"), "alphas=3,-2,1\n", "suite frt-alt does not read alphas"),
        (("verify", "sn"), "alphas=3,-2,1\n", "suite sn does not read alphas"),
        (("verify", "rep", "--N", "5", "--w", "2"), None, "suite rep does not read N"),
        (
            ("verify", "charges", "--N", "4", "--param", "kappa=7"),
            None,
            "suite charges does not read kappa",
        ),
        (("verify", "sn", "--param", "N=3/2"), None, "suite sn does not read N"),
        (
            ("verify", "sn", "--N", "1", "--param", "N=3/2"),
            None,
            "suite sn does not read N",
        ),
        (
            ("verify", "rep", "--w="),
            None,
            "not an exact rational: '' (Invalid literal for Fraction: '')",
        ),
        (
            ("reduce", "--presentation", "alt", "--expr", "W(-2)"),
            "N=1\nalphas=3,1\n",
            "reduce does not read alphas",
        ),
        (
            ("convert", "--dir", "to-alt", "--expr", "A(3)", "--param", "alpha=2"),
            None,
            "convert does not read alpha",
        ),
        (
            ("upoly", "--N", "1", "--p", "1", "--j", "0", "--param", "beta0=5"),
            None,
            "upoly does not read beta0",
        ),
        (
            ("convert", "--dir", "to-alt", "--expr", "A(3)"),
            "N=1\nalphas=3,1\n",
            "convert does not read N, alphas",
        ),
        (("reduce", "--N", "1", "--expr", "A(²)"), None, "unexpected character '²' (column 3)"),
        (("reduce", "--N", "1", "--expr", "3/²"), None, "unexpected character '²' (column 3)"),
        (
            ("convert", "--dir", "to-alt", "--expr", "A(٣)"),
            None,
            "unexpected character '٣' (column 3)",
        ),
        (
            ("verify", "sn"),
            b"\xff\xfeN=1\n",
            "cannot read config file: 'utf-8' codec can't decode byte 0xff"
            " in position 0: invalid start byte",
        ),
        (
            ("reduce", "--N", "1", "--expr", "A(0)", "--param", "=3"),
            None,
            "--param expects name=value, got '=3'",
        ),
        (("verify", "sn", "--N", "1"), "=3\n", "{config}:1: expected key=value"),
        (
            ("convert", "--dir", "to-ons", "--expr", "Wm(-1)"),
            None,
            "Wm index must be >= 0 (column 1)",
        ),
        (
            ("reduce", "--N", "1", "--expr", "A(1)^2"),
            None,
            "only a symbol takes a power (column 5)",
        ),
    ],
)
def test_input_faults_exit_2_with_one_error_line(
    tmp_path, capsys, argv, config, message
):
    if config is not None:
        path = tmp_path / "onsaw.cfg"
        path.write_bytes(config if isinstance(config, bytes) else config.encode())
        argv += ("--config", str(path))
        message = message.format(config=path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, what",
    [
        (("verify", "dg"), "suite dg"),
        (("reduce", "--N", "1", "--expr", "alpha*A(0)"), "reduce"),
        (("upoly", "--N", "1", "--p", "1", "--j", "0"), "upoly"),
        (("convert", "--dir", "to-alt", "--expr", "mu*A(0)"), "convert"),
    ],
)
def test_every_command_refuses_a_binding_it_does_not_read(capsys, argv, what):
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, "--param", "zz=1")
    assert (code, out, err) == (2, "", f"error: {what} does not read zz\n")


@pytest.mark.parametrize(
    "argv, config, params, code",
    [
        (("frt-series", "--trunc", "4"), None, {"trunc": "4"}, 0),
        (("rep", "--w", "2"), None, {"w": "2"}, 0),
        (("reD", "--param", "kappa=2"), None, {"kappa": "2"}, 0),
        (("charges", "--N", "2", "--param", "kappa=1"), None, {"N": "2", "kappa": "1"}, 0),
        (("sn", "--N", "1"), "N=1\nalpha=5/7\n", {"N": "1", "alpha": "5/7"}, 0),
        (("all", "--N", "1", "--param", "alpha=1/2"), None, {"N": "1", "alpha": "1/2"}, 0),
    ],
)
def test_a_report_lists_exactly_the_options_it_was_given(
    tmp_path, capsys, argv, config, params, code
):
    if config is not None:
        path = tmp_path / "onsaw.cfg"
        path.write_text(config, encoding="utf-8")
        argv += ("--config", str(path))
    got, out, err = run(capsys, "verify", *argv, "--format", "json")
    assert (got, err) == (code, "")
    assert json.loads(out)["params"] == params


def test_reduce_syntax_error_exit_code(capsys):
    code, _, err = run(capsys, "reduce", "--N", "1", "--expr", "A(1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "opening, closing, column",
    [("(", ")", 101), ("[A(0), ", "]", 701), ("-", "", 101)],
)
def test_deep_nesting_is_an_input_error(capsys, opening, closing, column):
    text = opening * 500 + "A(0)" + closing * 500
    code, out, err = run(capsys, "reduce", "--N", "1", f"--expr={text}")
    assert code == 2
    assert out == ""
    assert f"nested too deeply (column {column})" in err


def test_integral_rationals_are_ints(tmp_path):
    assert type(cli._parse_rational("3")) is int
    assert cli._parse_rational("6/2") == 3 and type(cli._parse_rational("6/2")) is int
    assert cli._parse_rational("3/2") == Fraction(3, 2)
    config = tmp_path / "onsaw.cfg"
    config.write_text("alphas = 3,-2,1\n", encoding="utf-8")
    args = cli._build_parser().parse_args(["upoly", "--N", "2", "--p", "0", "--j", "0"])
    cli._apply_config(args, cli._read_config(str(config)))
    q = cli._quotient(args, 2, args.alphas)
    assert q.alphas == (3, -2, 1) and all(type(a) is int for a in q.alphas)
    assert type(cli._quotient(args, 2, None).alphas[-1]) is int


# Mixed int/Fraction coefficients through upoly, an alternative-presentation
# reduce, a conversion and the printed matrices of a rational, negative,
# ordered pair of evaluation points: paths the golden report does not cover.
@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ("upoly", "--N", "1", "--p", "4", "--j", "1", "--param", "alpha=5/7"),
            "U[p=4, j=1] (N=1) = -649/2401\n",
        ),
        (
            ("reduce", "--N", "2", "--presentation", "alt", "--expr", "Wp(3)")
            + ("--param", "beta0=3/2", "--param", "beta2=-2/3"),
            "27/8*beta1*Wp(0) + (9/4 + 9/4*beta1^2)*Wp(1)\n",
        ),
        (
            ("convert", "--dir", "to-ons", "--expr", "Gt(2)+1/2*W(-3)"),
            "1/16*A(-3) + 3/16*A(-1) + 3/16*A(1) + 1/16*A(3) + -G(1) + -G(3)\n",
        ),
        (
            ("verify", "rep", "--w=-1/2,5"),
            "suite rep: pass\n"
            "  param w = -1/2,5\n"
            "  [       pass] rep:relations:N2\n"
            "  [       pass] rep:block-identity:N2\n"
            "  [       pass] rep:matrix:A(-1)  residual: "
            "[0, 10, -1, 0]; [2/5, 0, 0, -1]; [-4, 0, 0, 10]; [0, -4, 2/5, 0]\n"
            "  [       pass] rep:matrix:A(0)  residual: "
            "[0, 2, 2, 0]; [2, 0, 0, 2]; [2, 0, 0, 2]; [0, 2, 2, 0]\n"
            "  [       pass] rep:matrix:A(1)  residual: "
            "[0, 2/5, -4, 0]; [10, 0, 0, -4]; [-1, 0, 0, 2/5]; [0, -1, 10, 0]\n"
            "  [       pass] rep:matrix:A(2)  residual: "
            "[0, 2/25, 8, 0]; [50, 0, 0, 8]; [1/2, 0, 0, 2/25]; [0, 1/2, 50, 0]\n"
            "  [       pass] rep:matrix:G(1)  residual: "
            "[-63/10, 0, 0, 0]; [0, 33/10, 0, 0]; [0, 0, -33/10, 0]; [0, 0, 0, 63/10]\n"
            "  [       pass] rep:matrix:G(2)  residual: "
            "[-2121/100, 0, 0, 0]; [0, 2871/100, 0, 0]; [0, 0, -2871/100, 0]; "
            "[0, 0, 0, 2121/100]\n"
        ),
    ],
)
def test_rational_command_lines_print_the_pinned_text(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected, "")


def test_only_aw3_fit_builds_a_rational_function(monkeypatch):
    opts = cli._build_parser().parse_args(["verify", "all"])
    cli._apply_config(opts, {})
    built = []
    init = RatFunc.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(RatFunc, "__init__", counted)
    assert cli.run_suite("aw3-fit", opts).ok
    assert built  # so the refusal below is not vacuous

    def refuse(self, *args):
        raise AssertionError("a RatFunc was built")

    monkeypatch.setattr(RatFunc, "__init__", refuse)
    for name in cli._SUITE_RUNNERS:
        if name != "aw3-fit":
            assert cli.run_suite(name, opts).ok, name


def test_convert_commands(capsys):
    code, out, _ = run(capsys, "convert", "--dir", "to-alt", "--expr", "A(3)")
    assert code == 0
    assert out.strip() == "-2*Wm(1) + -Wp(0) + 4*Wp(2)"
    code, out, _ = run(capsys, "convert", "--dir", "to-ons", "--expr", "Gt(1)")
    assert code == 0
    assert out.strip() == "-2*G(2)"


def test_upoly_command(capsys):
    code, out, _ = run(capsys, "upoly", "--N", "1", "--p", "2", "--j", "0")
    assert code == 0
    assert "-2*alpha + alpha^3" in out


def test_upoly_reports_a_table_entry_that_disagrees_with_the_oracle(
    capsys, monkeypatch
):
    argv = ("upoly", "--N", "1", "--p", "2", "--j", "0")
    monkeypatch.setattr(cli, "u_poly", lambda q, p, j: lvar("alpha", 3))
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out == (
        "U[p=2, j=0] (N=1) = alpha^3\n"
        "DISCREPANCY: reduction oracle gives -2*alpha + alpha^3\n"
    )


@pytest.mark.parametrize(
    "argv", [("reduce", "--expr", "A(-1)"), ("upoly", "--p", "1", "--j", "0")]
)
def test_config_N_stands_in_for_the_flag(tmp_path, capsys, argv):
    config = tmp_path / "onsaw.cfg"
    config.write_text("N=1\n", encoding="utf-8")
    with_flag = run(capsys, *argv, "--N", "1")
    assert with_flag[0] == 0
    assert run(capsys, *argv, "--config", str(config)) == with_flag
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: --N is required (or N in a config file)\n"


# The library reports each suite runs on one quotient; the suite's own extra
# checks (its negative control, the PBW spot) are left out of the comparison.
_REPORTS_AT_N = {
    "frt-onsager": lambda q, qa: [verify_frt(build_B_onsager(q))],
    "frt-alt": lambda q, qa: [verify_frt(build_B_alt(qa))],
    "sn": lambda q, qa: [verify_sn(q), implied_relations_report(q, pmax=6)],
    "charges": lambda q, qa: [
        verify_commuting(q),
        expand_b(q, ChargeParams.symbolic())[1],
    ],
    "beta-alpha": lambda q, qa: [
        beta_alpha_report(q),
        reduction_diagram_report(q),
        sprime_report(beta_from_alpha(q)),
    ],
    "quartic": lambda q, qa: [verify_quartic(q), pbw_lie_compat_report(q)],
    "upoly": lambda q, qa: [
        u_poly_report(q, pmax=10),
        forward_reduction_report(q, pmax=8),
    ],
}


@pytest.mark.parametrize("suite", list(_REPORTS_AT_N))
def test_N_selects_the_quotient_of_the_library_reports(capsys, suite):
    code, out, _ = run(capsys, "verify", suite, "--N", "2", "--format", "json")
    assert code == 0
    extra = (f"{suite}:negative-control", "quartic:pbw-confluence-spot")
    got = [
        (c["id"], c["status"])
        for c in json.loads(out)["checks"]
        if c["id"] not in extra
    ]
    reports = _REPORTS_AT_N[suite](QuotientO.symbolic(2), QuotientA.symbolic(2))
    assert got == [(c.id, c.status) for r in reports for c in r.checks]


def test_config_file(tmp_path, capsys):
    config = tmp_path / "onsaw.cfg"
    config.write_text("# defaults\nN=1\nalpha=5/7\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "verify", "sn", "--N", "1", "--config", str(config)
    )
    assert code == 0
    assert "param alpha = 5/7" in out


def test_config_alphas_vector(tmp_path, capsys):
    config = tmp_path / "onsaw.cfg"
    config.write_text("alphas=3/2,1\n", encoding="utf-8")
    for suite, fmt in itertools.product(("sn", "frt-onsager"), ("text", "json")):
        argv = ("verify", suite, "--N", "1", "--format", fmt)
        code, out, _ = run(capsys, *argv, "--config", str(config))
        assert code == 0
        if fmt == "text":
            assert f"suite {suite}: pass" in out
            assert "param alphas = 3/2,1" in out
        else:
            assert json.loads(out)["params"]["alphas"] == "3/2,1"
        # the symbolic run of the same suite must not print the same report
        assert run(capsys, *argv)[1] != out


def test_missing_config_file(capsys):
    code, _, err = run(capsys, "verify", "dg", "--config", "/no/such/file")
    assert code == 2
    assert "config" in err


def test_rep_suite_with_rational_point(capsys):
    code, out, _ = run(capsys, "verify", "rep", "--w", "3/2")
    assert code == 0
    assert "rep:relations:N1" in out


def test_fixtures_suite_records_discrepancy_but_passes(capsys):
    code, out, _ = run(capsys, "verify", "fixtures-appendix-a")
    assert code == 0
    assert "suite fixtures-appendix-a: discrepancy" in out


ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "benchmarks/expected/verify_all.json"
README = ROOT / "README.md"


def test_verify_all_json_equals_the_golden_report(capsys):
    code, out, _ = run(capsys, "verify", "all", "--format", "json")
    assert code == 0
    got, expected = out.encode("utf-8"), GOLDEN.read_bytes()
    lines = itertools.zip_longest(
        got.splitlines(keepends=True), expected.splitlines(keepends=True)
    )
    for lineno, (a, b) in enumerate(lines, 1):
        assert a == b, (
            f"first difference at line {lineno}:\n"
            f"  got:      {a!r}\n  expected: {b!r}"
        )
    assert got == expected


def _readme_examples():
    """Each `onsaw ...` line of README's `Examples:` block, with the value its
    `# prints ...` comment names (None without one)."""
    text = README.read_text("utf-8")
    block = text.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        _, printed, value = comment.strip().partition("prints ")
        argv = shlex.split(command)[1:]
        yield pytest.param(argv, value if printed else None, id=command.strip())


@pytest.mark.parametrize("argv, value", _readme_examples())
def test_readme_examples_run(capsys, argv, value):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if value is not None:  # the value, after the label upoly prints before it
        assert out.strip().rpartition("= ")[2] == value


def test_readme_library_block_runs():
    """README's `## Library` block runs as written, and the two verdicts its
    comments name hold: 16 exchange-relation checks that all pass, and a
    passing representation check."""
    text = README.read_text("utf-8")
    block = text.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    names: dict = {}
    exec(block, names)
    report = names["verify_frt"](names["build_B_onsager"](names["q"]))
    assert len(report.checks) == 16
    assert all(check.status == "pass" for check in report.checks)
    assert names["rep_check"](names["quotient"], names["rep"]).status == "pass"


def test_readme_package_layout_names_each_module_once():
    """The top-level bullets of README's `Package layout` name exactly the
    modules of the package, each once."""
    text = README.read_text("utf-8")
    lines = text.split("\nPackage layout:\n\n", 1)[1].splitlines()
    block = itertools.takewhile(lambda line: line.startswith(("- ", "  ")), lines)
    named = [m[1] for line in block if (m := re.match(r"- `(\w+)`", line))]
    package = ROOT / "src" / "onsaw"
    modules = [path.stem for path in package.glob("*.py") if path.stem != "__init__"]
    assert sorted(named) == sorted(modules)


def test_readme_usage_lists_the_options_of_each_command():
    """README's `Command line` usage block names, for each command, exactly
    the long options of its subparser."""
    text = README.read_text("utf-8")
    block = text.split("## Command line\n\n```sh\n", 1)[1].split("```", 1)[0]
    usage = {}
    for line in block.splitlines():
        if line.startswith("onsaw "):
            command = line.split()[1]
        options = re.findall(r"--[A-Za-z][A-Za-z-]*", line)
        usage.setdefault(command, set()).update(options)
    (commands,) = (
        action
        for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    parsed = {
        name: {s for a in p._actions for s in a.option_strings if s.startswith("--")}
        - {"--help"}
        for name, p in commands.choices.items()
    }
    assert usage == parsed

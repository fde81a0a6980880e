"""Command-line behaviour: suites, exit codes, determinism, file config."""

import json
from pathlib import Path

import pytest

import onsaw.cli as cli
from onsaw.reports import Report


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
        report.add("dg:forced", False, "forced failure")
        return report

    monkeypatch.setitem(cli._SUITE_RUNNERS, "dg", failing)
    code, out, _ = run(capsys, "verify", "dg")
    assert code == 1
    assert "suite dg: fail" in out


def test_internal_key_error_is_not_reported_as_an_input_error(capsys, monkeypatch):
    def broken(opts):
        raise KeyError("internal")

    monkeypatch.setitem(cli._SUITE_RUNNERS, "dg", broken)
    with pytest.raises(KeyError):
        cli.main(["verify", "dg"])


def test_unknown_suite_is_an_input_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "no-such-suite"])
    assert exc.value.code == 2


def test_bad_param_is_an_input_error(capsys):
    code, _, err = run(capsys, "verify", "dg", "--param", "alpha")
    assert code == 2
    assert "error" in err


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


def test_reduce_syntax_error_exit_code(capsys):
    code, _, err = run(capsys, "reduce", "--N", "1", "--expr", "A(1")
    assert code == 2
    assert "error" in err


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
    code, out, _ = run(
        capsys, "verify", "sn", "--N", "1", "--config", str(config)
    )
    assert code == 0
    assert "suite sn: pass" in out


def test_missing_config_file(capsys):
    code, _, err = run(capsys, "verify", "dg", "--config", "/no/such/file")
    assert code == 2
    assert "config" in err


def test_rep_suite_with_rational_point(capsys):
    code, out, _ = run(capsys, "verify", "rep", "--w", "3/2")
    assert code == 0
    assert "rep:relations:N1" in out


def test_reD_interpretation_sweep(capsys):
    code, out, _ = run(capsys, "verify", "reD", "--interpretation", "all")
    assert code == 0
    assert "reD:r12" in out
    assert "discrepancy" in out


def test_fixtures_suite_records_discrepancy_but_passes(capsys):
    code, out, _ = run(capsys, "verify", "fixtures-appendix-a")
    assert code == 0
    assert "suite fixtures-appendix-a: discrepancy" in out


GOLDEN = Path(__file__).resolve().parents[1] / "benchmarks/expected/verify_all.json"


def test_verify_all_json_equals_the_golden_report(capsys):
    code, out, _ = run(capsys, "verify", "all", "--format", "json")
    assert code == 0
    assert out.encode("utf-8") == GOLDEN.read_bytes()

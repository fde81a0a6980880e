"""Self-tests of the benchmark harness.

    python3 -m pytest benchmarks/tests
"""

import json
import shutil
import subprocess
import sys

import pytest

import layers
import onsaw
import onsaw.onsager
import onsaw.scalars
import onsaw.yangbaxter
import run
import spans
import workloads


def traced_pass(inp):
    tracer = spans.Tracer()
    tracer.install(layers.targets())
    try:
        return workloads.run_pass(inp), tracer
    finally:
        tracer.restore()


def verdicts(outcome):
    reports, negative = outcome
    return [(c.id, c.status) for r in reports + [negative] for c in r.checks]


@pytest.fixture(scope="module")
def alt_pair():
    """An untraced and a traced pass of frt-alt-symbolic, seed 1."""
    plain = workloads.run_pass(workloads.Inputs("frt-alt-symbolic", 1))
    inp = workloads.Inputs("frt-alt-symbolic", 1)
    traced, _ = traced_pass(inp)
    return inp, plain, traced


def test_install_rebinds_aliases_imports_and_defaults_then_restores():
    before = spans.bindings()
    LP = onsaw.scalars.LaurentPoly
    tracer = spans.Tracer()
    tracer.install(layers.targets())
    try:
        assert LP.__mul__ is LP.__rmul__
        assert LP.__rmul__.__wrapped__ is not None
        assert onsaw.yangbaxter.bracket is onsaw.onsager.bracket
        assert onsaw.bracket is onsaw.onsager.bracket
        assert onsaw.onsager.bracket.__wrapped__ is not None
        default = onsaw.onsager.verify_dolan_grady.__defaults__[0]
        assert default is onsaw.onsager.bracket
        onsaw.verify_dolan_grady()
    finally:
        tracer.restore()
    assert tracer.calls["onsager.bracket"] == 8
    after = spans.bindings()
    assert len(after) == len(before)
    for (o1, k1, v1), (o2, k2, v2) in zip(before, after):
        assert o1 is o2 and k1 == k2 and v1 is v2, (o1, k1)


def test_self_time_on_a_nested_toy_tree(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(spans, "perf_counter", lambda: clock[0])
    tracer = spans.Tracer()

    def work(seconds):
        clock[0] += seconds

    def leaf():
        work(2)

    def rec(n):
        work(1)
        if n:
            rec(n - 1)

    def root():
        work(1)
        leaf()
        work(3)
        leaf()
        rec(2)

    leaf = tracer.wrap(leaf, "leaf")
    rec = tracer.wrap(rec, "rec")
    root = tracer.wrap(root, "root")
    root()
    assert tracer.self_s == {"root": 4, "leaf": 4, "rec": 3}
    assert tracer.total_s["root"] == 11
    assert tracer.calls == {"root": 1, "leaf": 2, "rec": 3}


def test_traced_and_untraced_verdicts_agree(alt_pair):
    _, plain, traced = alt_pair
    assert verdicts(plain) == verdicts(traced)
    assert ("frt:B-alt-N4:entry33", "pass") in verdicts(plain)
    assert plain[1].status == "fail"


def test_traced_and_untraced_verify_all_bytes_agree():
    inp = workloads.Inputs("verify-all", 0)
    plain = workloads.run_pass(inp)
    traced, tracer = traced_pass(inp)
    assert plain == traced == (0, inp.expected_text)
    assert workloads.judge(inp, traced) == (635, 0, [])
    assert tracer.calls["cli.suite_s.iso"] == 1


def test_wrong_expected_verdict_counts_as_failed(alt_pair):
    inp, plain, _ = alt_pair
    assert workloads.judge(inp, plain)[1:] == (0, [])
    inp.negative_fails = set()
    attempted, failed, _ = workloads.judge(inp, plain)
    assert failed > 0 and failed / attempted > 0

    wrong = workloads.Inputs("verify-all", 0)
    text = wrong.expected_text
    wrong.expected_text = text.replace('"status": "pass"', '"status": "fail"', 1)
    attempted, failed, notes = workloads.judge(wrong, (0, text))
    assert (attempted, failed) == (635, 1) and notes


def test_counts_repeat_across_traced_passes_of_one_seed():
    first, second = (
        run.spawn("frt-onsager-series", 5, 1, timeout=120) for _ in range(2)
    )
    for name in layers.EXACT:
        assert first["layers"][name] == second["layers"][name], name
    assert first["layers"]["scalars.poly_mul.term_products"] > 0
    assert first["layers"]["scalars.ratfunc.new"] == 0


def test_seed_changes_names_not_verdict_layout():
    a = workloads.Inputs("frt-onsager-series", 1)
    b = workloads.Inputs("frt-onsager-series", 2)
    assert (a.u, a.v) != (b.u, b.v)
    assert workloads.expected_statuses(a).keys() == workloads.expected_statuses(b).keys()


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmarks")
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "verify-all"]
        + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "src" in proc.stderr


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [tuple(m.values()) for m in spec["per_layer"]] == layers.METRICS

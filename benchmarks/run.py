"""onsaw benchmark: end-to-end timings of three verification workloads and,
with ``--trace 1``, per-layer counts and self times.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; onsaw is imported from its ``src/``.
``NAME`` is ``verify-all``, ``frt-alt-symbolic``, ``frt-onsager-series`` or
``all`` (each in turn).  The loop is closed and single-threaded: one pass at
a time, each in a fresh interpreter, started while the next one is expected
to finish within ``S`` seconds (and at least a few times).  Every pass checks
its verdicts against the expected ones; see ``workloads.py``.

Human-readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are ``wall_s``, ``setup_s`` and ``peak_rss_mb``
(medians over the passes); with ``--trace 1`` they are the per-layer metrics
of ``layers.METRICS``, from traced passes alternating with untraced ones.

``wall_s`` and ``setup_s`` are seconds at a reference machine speed: each
pass's raw time times ``PROBE_REF_S`` over the ``probe_s`` measured around
that pass.  On a shared machine whose speed drifts, the raw medians of two
sets of runs differ by more than the bounds; the probe-scaled ones do not.
The raw times are printed as ``wall_raw_s`` and ``setup_raw_s``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-all", "frt-alt-symbolic", "frt-onsager-series")
MIN_PASSES = 3
MIN_TRACED = 2
# A run must end within 180 s: start no pass after 150 s, stop one at 170 s.
START_LIMIT_S = 150
END_LIMIT_S = 170
PROBE_REF_S = 0.15  # the probe's time on the reference machine
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PRINTED = END_TO_END + (("wall_raw_s", "s"), ("setup_raw_s", "s"), ("probe_s", "s"))


class BenchError(Exception):
    pass


def spawn(workload, seed, trace, timeout, warmup=False):
    """Run one pass in a fresh interpreter and return its JSON result."""
    # A fixed hash seed per benchmark seed makes traced counts repeat exactly.
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    # Users run with cached bytecode, which the warm-up pass writes.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, str(HERE / "onsaw_pass.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--trace", str(trace)]
    cmd += ["--warmup"] if warmup else []
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not warmup:
        scale = PROBE_REF_S / result["probe_s"]
        result["wall_s"] = result["wall_raw_s"] * scale
        result["setup_s"] = result["setup_raw_s"] * scale
    return result


def spread(values):
    """Median, quartiles, maximum and count, for the human-readable lines."""
    m = median(values)
    if len(values) < 2:
        return f"median {m:.4f} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {m:.4f} (q1 {q1:.4f}, q3 {q3:.4f}, max {max(values):.4f}, n={len(values)})"


def run_passes(workload, seed, seconds, trace):
    """Passes of one workload until the time is used; returns
    (untraced results, traced results) in the order they ran."""
    start = time.monotonic()
    spawn(workload, seed, 0, timeout=START_LIMIT_S, warmup=True)
    untraced, traced = [], []
    durations = []
    while True:
        now = time.monotonic()
        short = len(untraced) < (1 if trace else MIN_PASSES) or (
            trace and len(traced) < MIN_TRACED
        )
        est = median(durations) if durations else 0.0
        if now - start + est > START_LIMIT_S or (not short and now + est > start + seconds):
            break
        traced_next = bool(trace) and len(traced) < len(untraced)
        t0 = time.monotonic()
        result = spawn(
            workload, seed, int(traced_next), timeout=END_LIMIT_S - (now - start)
        )
        durations.append(time.monotonic() - t0)
        (traced if traced_next else untraced).append(result)
    if not untraced or (trace and not traced):
        raise BenchError(f"{workload}: no complete pass within {START_LIMIT_S} s")
    return untraced, traced


def summarize(workload, seed, seconds, trace):
    """Run one workload; print its human-readable lines; return the result."""
    untraced, traced = run_passes(workload, seed, seconds, trace)
    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    notes = sorted({n for p in passes for n in p["notes"]})
    print(f"workload {workload}  seed {seed}  trace {trace}  passes {len(passes)}")
    print(
        "  kind      wall_s  setup_s  peak_rss_mb  wall_raw_s  setup_raw_s"
        "  probe_s  failed/attempted"
    )
    for kind, group in (("untraced", untraced), ("traced", traced)):
        for p in group:
            print(
                f"  {kind:8} {p['wall_s']:7.4f}  {p['setup_s']:7.4f}"
                f"  {p['peak_rss_mb']:11.2f}  {p['wall_raw_s']:10.4f}"
                f"  {p['setup_raw_s']:11.4f}  {p['probe_s']:7.4f}"
                f"  {p['failed']}/{p['attempted']}"
            )
    for name, unit in PRINTED:
        print(f"  {name} [{unit}]: {spread([p[name] for p in untraced])}")
    print(f"  check_fail_ratio [ratio]: {failed / attempted} ({failed}/{attempted})")
    for note in notes:
        print(f"  INCORRECT: {note}")

    correct = failed == 0 and not notes
    if not trace:
        metrics = {
            name: {"value": median([p[name] for p in untraced]), "unit": unit}
            for name, unit in END_TO_END
        }
    else:
        metrics, repeat_notes = layers.combine(
            [p["layers"] for p in traced],
            median([p["wall_s"] for p in traced])
            / median([p["wall_s"] for p in untraced]),
        )
        for note in repeat_notes:
            print(f"  INCORRECT: {note}")
        correct = correct and not repeat_notes
        for name, m in metrics.items():
            print(f"  {name} [{m['unit']}]: {m['value']}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: summarize(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    final = results if args.workload == "all" else results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

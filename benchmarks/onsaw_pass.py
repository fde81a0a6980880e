"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 benchmarks/onsaw_pass.py --workload NAME --seed N --trace 0|1
        --spawned T [--warmup]

``--spawned`` is the ``time.monotonic()`` reading the parent took just before
starting this process (CLOCK_MONOTONIC is shared by all processes), so
``setup_s`` covers interpreter start-up, importing onsaw and building the
workload's inputs.  ``--warmup`` stops after set-up, which leaves the
bytecode caches written before any timed pass.

``probe_s`` is the mean of a probe run just before and one just after the
pass.  Times are raw here; ``run.py`` scales them by the probe.
"""

import argparse
import gc
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def probe():
    """Machine-speed probe: a fixed pure-Python Fraction/dict loop that uses
    nothing from onsaw, timed to track drift of this shared machine.

    The collector is off while it runs, so its time does not depend on how
    much the pass left on the heap.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = {}
        step = Fraction(1, 3)
        for i in range(20000):
            key = (i % 61, i % 7)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 13 + 1, i % 11 + 1) * step
        elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    if len(acc) != 427:
        raise RuntimeError("probe loop produced an unexpected table")
    return elapsed


def import_onsaw():
    """Import onsaw from this checkout's src/ and nowhere else."""
    if not (SRC / "onsaw" / "__init__.py").is_file():
        raise SystemExit(f"onsaw sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import onsaw

    if not Path(onsaw.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"onsaw was imported from {onsaw.__file__}, not {SRC}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args(argv)

    import_onsaw()
    import workloads

    inp = workloads.Inputs(args.workload, args.seed)
    setup_raw_s = time.monotonic() - args.spawned
    if args.warmup:
        print(json.dumps({"setup_raw_s": setup_raw_s}))
        return 0

    probe_before = probe()
    tracer = None
    if args.trace:
        import layers
        import spans

        tracer = spans.Tracer()
        tracer.install(layers.targets())
    try:
        t0 = time.perf_counter()
        outcome = workloads.run_pass(inp)
        wall_raw_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_s = (probe_before + probe()) / 2
    attempted, failed, notes = workloads.judge(inp, outcome)
    result = {
        "wall_raw_s": wall_raw_s,
        "setup_raw_s": setup_raw_s,
        "peak_rss_mb": peak_rss_mb,
        "probe_s": probe_s,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
    }
    if tracer is not None:
        result["layers"] = layers.pass_metrics(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Scaling sweep: wall time of single verifications as their size grows.

    python3 benchmarks/sweep.py

On demand only; not a benchmark workload and not gated by any bound.  Each
point runs in a fresh interpreter (``--point KIND SIZE`` runs one) and must
report ``pass``.  The points cover the scaling level of the performance aims:
``frt-onsager`` N = 1..7, ``frt-alt`` N = 1..5, the truncated-series checks
at D = 8..32, and ``verify_iso`` against ``kmax_bracket``.
"""

import argparse
import json
import subprocess
import sys
import time

from onsaw_pass import ROOT, import_onsaw

POINTS = (
    [("frt-onsager", n) for n in range(1, 8)]
    + [("frt-alt", n) for n in range(1, 6)]
    + [("series-onsager", d) for d in (8, 16, 24, 32)]
    + [("series-alt", d) for d in (8, 16, 24, 32)]
    + [("iso", k) for k in (8, 12, 16)]
)


def run_point(kind, size):
    import_onsaw()
    import onsaw

    t0 = time.perf_counter()
    if kind == "frt-onsager":
        report = onsaw.verify_frt(onsaw.build_B_onsager(onsaw.QuotientO.symbolic(size)))
    elif kind == "frt-alt":
        report = onsaw.verify_frt(onsaw.build_B_alt(onsaw.QuotientA.symbolic(size)))
    elif kind == "series-onsager":
        report = onsaw.verify_frt_series_onsager(size)
    elif kind == "series-alt":
        report = onsaw.verify_frt_series_alt(size)
    elif kind == "iso":
        report = onsaw.verify_iso(kmax_bracket=size)
    else:
        raise SystemExit(f"unknown sweep kind {kind!r}")
    return {"wall_s": time.perf_counter() - t0, "status": report.status}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--point", nargs=2, metavar=("KIND", "SIZE"))
    args = parser.parse_args(argv)
    if args.point:
        print(json.dumps(run_point(args.point[0], int(args.point[1]))))
        return 0
    print(f"{'kind':15} {'size':>4} {'wall_s':>9}  status")
    ok = True
    for kind, size in POINTS:
        proc = subprocess.run(
            [sys.executable, __file__, "--point", kind, str(size)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=300,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 2
        point = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and point["status"] == "pass"
        print(f"{kind:15} {size:4} {point['wall_s']:9.3f}  {point['status']}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

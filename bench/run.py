"""pqlambert benchmark.

Usage (from the root of a checkout):
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 is a
separate run with span wrappers installed that reports the per-layer
metrics.  A readable summary goes first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Workloads: cli_cold, library_scalar and pq_peaks (see README.md).
The library is imported from ./src; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("cli_cold", "library_scalar", "pq_peaks"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "pqlambert", "__init__.py")):
        print("error: ./src/pqlambert not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [BENCH_DIR, src]
    os.environ.pop("PQLAMBERT_THREADS", None)
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    try:
        run = workloads.Run(args.workload, args.seed, args.seconds, src, tmp, OUT_DIR)
        metrics = workloads.WORKLOADS[args.workload](run, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    tally = run.tally
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"  attempted {tally.attempted}  failed {tally.failed}  "
          f"(outside the known defects {tally.unexpected})  "
          f"failed_frac {tally.failed / max(tally.attempted, 1):.3g}  "
          f"values checked {tally.values}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    for name, value in run.raw.items():
        print(f"  raw {name} {value!r}")
    print("  region shares: " + ", ".join(f"{k} {v:.3f}" for k, v in run.shares.items()))
    for line in tally.failures + run.notes:
        print(f"  ! {line}")
    result = {"correct": tally.unexpected == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

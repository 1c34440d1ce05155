"""Run the benchmark over several seeds and summarize each metric.

Usage (from the root of a checkout):
    python3 bench/baseline.py [--workloads a,b] [--seeds 1-10] [--seconds S]
                              [--write bench/BASELINE.json]

For every workload and end-to-end metric it prints the median over the
seeds and the spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to a third of
the metric's bound from BENCHMARK.json, and the operations attempted and
failed over all the seeds (two sets with the same seeds must agree on
these exactly).  --write records the medians and the counts with the
machine facts and the src/ line count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def machine_facts() -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def src_lines() -> int:
    total = 0
    for root, _, files in os.walk("src"):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--write", default=None)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        counts = {"attempted": 0, "failed": 0}
        for seed in seeds_from(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
            for key in counts:
                counts[key] += result[key]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[workload][name] = {"median": med, "spread": spread, "runs": vals}
            flag = "" if spread < bounds[name] / 3 or name == "setup_s" else "  <-- wide"
            print(f"{workload:15s} {name:14s} median {med:<14.6g} spread {spread:.4f} "
                  f"(bound/3 {bounds[name] / 3:.4f}){flag}  "
                  + " ".join(f"{v:.4g}" for v in vals))
        print(f"{workload:15s} attempted {counts['attempted']} failed {counts['failed']}")
        summary[workload]["counts"] = counts
    if args.write:
        record = {"seeds": args.seeds, "seconds": args.seconds,
                  "machine": machine_facts(), "src_lines": src_lines(),
                  "workloads": {w: {k: v if k == "counts" else
                                    {"median": v["median"], "spread": v["spread"]}
                                    for k, v in s.items()} for w, s in summary.items()}}
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

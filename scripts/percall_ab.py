#!/usr/bin/env python3
"""In-process A/B timing of two pqlambert source trees over the
library_scalar pools of the benchmark.

Usage:
    python scripts/percall_ab.py OLD_SRC NEW_SRC [--seeds 1 2 3 4] [--passes 5]
                                 [--kinds KIND ...]

OLD_SRC and NEW_SRC each hold a pqlambert package (a checkout's src/).
Both load into this one process under their own names, and every op of
the pools that bench/inputs.py draws for library_scalar is bound to both,
the way bench/workloads.py binds it.  Each op is timed on both trees, and
the tree called first alternates from op to op and from pass to pass:
timed back to back, a copy called second reads faster (an A/A run of two
identical copies put the second about 11 % ahead), because the first call
warms the caches for it.

Prints, per kind and over all ops, the median and the 99th percentile of
the call time on each tree in microseconds, each with its change; the cost
of psi_derivative grows with its order n, so it gets one more row per
order.  Then the number of ops whose results differ (repr of the value,
sign of zero included, or the exception's class and message).

--kinds keeps only the ops of the kinds named.  In the full mix a call
also pays for the cache state the calls before it left behind, so a
change to one kind can shift the others by a few percent; timed alone,
an unchanged kind reads the same on both trees.
"""

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import inputs  # noqa: E402
import workloads  # noqa: E402


def load(src: str, name: str):
    """The pqlambert package under src, imported as the package ``name``."""
    init = Path(src).resolve() / "pqlambert" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def p99(values) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[-1]


def outcome(fn, args):
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4])
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--kinds", nargs="+")
    args = parser.parse_args(argv)

    trees = (load(args.old_src, "pqlambert_old"), load(args.new_src, "pqlambert_new"))
    ops = [op for seed in args.seeds for op in inputs.library_scalar(seed, workloads.SCALAR_POOL)
           if not args.kinds or op.kind in args.kinds]
    bound = [tuple(workloads.bind(tree, op) for tree in trees) for op in ops]
    differ = sum(outcome(*old) != outcome(*new) for old, new in bound)

    perf = time.perf_counter_ns
    per_op = [([], []) for _ in ops]  # op -> ([old ns], [new ns])
    for p in range(args.passes):
        for i, pair in enumerate(bound):
            first = (i + p) % 2
            for side in (first, 1 - first):
                fn, call_args = pair[side]
                t0 = perf()
                try:
                    fn(*call_args)
                except Exception:  # an error is an outcome too, compared by outcome()
                    pass
                per_op[i][side].append(perf() - t0)

    groups = {"all": range(len(ops))}
    for i, op in enumerate(ops):
        groups.setdefault(op.kind, []).append(i)
        if op.kind == "psi_derivative":
            groups.setdefault(f"psi_derivative n={op.args[3]}", []).append(i)
    print(f"{'kind':<20}{'calls':>7}{'old p50':>9}{'new p50':>9}{'change':>8}"
          f"{'old p99':>9}{'new p99':>9}{'change':>8}  (us)")
    for kind in sorted(groups):
        old, new = ([t for i in groups[kind] for t in per_op[i][side]] for side in (0, 1))
        line = f"{kind:<20}{len(old):>7}"
        for stat in (statistics.median, p99):
            s_old, s_new = stat(old) / 1e3, stat(new) / 1e3
            line += f"{s_old:>9.2f}{s_new:>9.2f}{100.0 * (s_new / s_old - 1.0):>+7.1f}%"
        print(line)
    print(f"results that differ: {differ} of {len(ops)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

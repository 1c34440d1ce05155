#!/usr/bin/env python3
"""In-process A/B timing of two pqlambert source trees over the
library_scalar pools of the benchmark.

Usage:
    python scripts/percall_ab.py OLD_SRC NEW_SRC [--seeds 1 2 3 4] [--passes 5]

OLD_SRC and NEW_SRC each hold a pqlambert package (a checkout's src/).
Both load into this one process under their own names, and every op of
the pools that bench/inputs.py draws for library_scalar is bound to both,
the way bench/workloads.py binds it.  Each op is timed on both trees, and
the tree called first alternates from op to op and from pass to pass:
timed back to back, a copy called second reads faster (an A/A run of two
identical copies put the second about 11 % ahead), because the first call
warms the caches for it.

Prints, per kind and over all ops, the median call time on each tree in
microseconds and the change, then the number of ops whose results differ
(repr of the value, sign of zero included, or the exception's class and
message).
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
    args = parser.parse_args(argv)

    trees = (load(args.old_src, "pqlambert_old"), load(args.new_src, "pqlambert_new"))
    ops = [op for seed in args.seeds for op in inputs.library_scalar(seed, workloads.SCALAR_POOL)]
    bound = [tuple(workloads.bind(tree, op) for tree in trees) for op in ops]
    differ = sum(outcome(*old) != outcome(*new) for old, new in bound)

    perf = time.perf_counter_ns
    times = {}  # kind -> ([old ns], [new ns])
    for p in range(args.passes):
        for i, (op, pair) in enumerate(zip(ops, bound)):
            kind_times = times.setdefault(op.kind, ([], []))
            first = (i + p) % 2
            for side in (first, 1 - first):
                fn, call_args = pair[side]
                t0 = perf()
                try:
                    fn(*call_args)
                except Exception:  # an error is an outcome too, compared by outcome()
                    pass
                kind_times[side].append(perf() - t0)

    times["all"] = tuple([t for old_new in times.values() for t in old_new[side]]
                         for side in (0, 1))
    print(f"{'kind':<16}{'calls':>8}{'old us':>10}{'new us':>10}{'change':>9}")
    for kind, (old, new) in times.items():
        m_old, m_new = statistics.median(old) / 1e3, statistics.median(new) / 1e3
        print(f"{kind:<16}{len(old):>8}{m_old:>10.2f}{m_new:>10.2f}"
              f"{100.0 * (m_new / m_old - 1.0):>+8.1f}%")
    print(f"results that differ: {differ} of {len(ops)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

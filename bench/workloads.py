"""The three workloads, each as an untraced run (end-to-end metrics) and a
traced run (per-layer metrics).

cli_cold        cycles of short ``pqlambert`` processes covering every verb
library_scalar  a closed loop of single scalar library calls, new a each call
pq_peaks        the peak-scaling experiment, n = 2^10 .. 2^22, in process

All load comes from this one process and thread; CLI children run one at
a time (a closed loop with a single client).  Cycle-based workloads run
whole cycles and stop once ``seconds`` of measured time are spent or less
than half a cycle remains, so every run measures the same mix.  A run
repeats a fixed, seeded set of operations and counts each one once in
attempted and failed, so both depend on the seed alone, not on how many
operations fit the time.
Every timing is scaled to reference units (``calibrate``; README.md,
"Timing and noise").
"""

from __future__ import annotations

import math
import os
import random
import resource
import statistics
import time
from array import array
from fractions import Fraction

import calibrate
import check
import children
import inputs

SETUP_REPS = 3
SCALAR_POOL = 4096           # every entry is oracle-checked after the timed loop
PQ_CYCLES = 2                # distinct (a, z) of a pq_peaks run, each run at least once
SCALAR_CHECK_SET = 300
CHECK_SET_ROWS = 64          # rows of each sweep in the fixed check set
CHUNK = 1000                 # library_scalar calls between two speed references
                             # (not a divisor of the pool, so chunk mixes vary)

SETUP_CODE = {
    "cli_cold": "import pqlambert.cli",
    "library_scalar": (
        "import pqlambert as P\n"
        "P.psi(0.37, P.BranchId.PRINCIPAL, 0.5); P.psi(0.37, P.BranchId.LOWER, -0.1)\n"
        "P.omega(0.37, -2.0); P.forward(0.37, 1.0); P.lambert_w(P.BranchId.LOWER, -0.2)\n"
        "P.omega_finite_n(1024, 0.37, -2.0); P.param_alpha(0.37, 2.0)\n"
        "P.psi_derivative(0.37, P.BranchId.PRINCIPAL, 0.5, 3)"),
    "pq_peaks": "import pqlambert as P\nP.peak_drift(4096, 0.37, -2.0)",
}


class Run:
    """Shared state of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, src: str, tmp: str,
                 out_dir: str):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.src, self.tmp, self.out_dir = src, tmp, out_dir
        self.tally = check.Tally()
        self.check_tally = check.Tally()
        self.shares: dict = {}
        self.notes: list[str] = []
        self.raw: dict = {}

    def setup_s(self) -> float:
        speed = calibrate.ProcessSpeed(self.src, self.tmp)
        times = []
        for _ in range(SETUP_REPS):
            times.append(children.timed_import(SETUP_CODE[self.workload], self.src, self.tmp))
            speed.sample()
        self.raw["setup_s"] = statistics.median(times)
        return statistics.median(times) * speed.factor()


def tail(values) -> float:
    """Mean of the slowest quarter: the cycle-based workloads time too few
    operations for a percentile to leave ten samples beyond it."""
    vals = sorted(values)
    return statistics.fmean(vals[-max(1, math.ceil(len(vals) / 4)):])


def stop_after(seconds: float, run_cycle, min_cycles: int = 1) -> None:
    spent, i = 0.0, 0
    while True:
        last = run_cycle(i)
        spent += last
        i += 1
        if i >= min_cycles and (spent >= seconds or seconds - spent < 0.5 * last):
            return


# ------------------------------------------------------------ library calls

def _param(P, a):
    return P.AsymmetryParam.from_rational(a.numerator, a.denominator) \
        if isinstance(a, Fraction) else a


def bind(P, op):
    """(function, args) for one op, looked up on the modules at bind time."""
    k, args = op.kind, op.args
    br = {"principal": P.BranchId.PRINCIPAL, "lower": P.BranchId.LOWER}
    if k in ("psi", "psi_cf"):
        a, b, x = args
        fn = P.branches.psi if k == "psi" else P.branches.psi_closed_form
        return fn, (_param(P, a), br[b], x)
    if k in ("omega", "omega_cf"):
        a, z = args
        fn = P.branches.omega if k == "omega" else P.branches.omega_closed_form
        return fn, (_param(P, a), z)
    if k == "forward":
        return P.core.forward, args
    if k == "lambert_w":
        return P.core.lambert_w, (br[args[0]], args[1])
    if k == "omega_finite_n":
        return P.branches.omega_finite_n, args
    if k == "psi_derivative":
        a, b, x, n = args
        return P.calculus.psi_derivative, (a, br[b], x, n)
    if k == "param_alpha":
        return P.parametrize.param_alpha, args
    if k == "pq":
        return pq_experiment, (P, *args)
    raise ValueError(k)


def call(P, op):
    fn, args = bind(P, op)
    try:
        return fn(*args)
    except Exception as exc:  # the checker judges every library error
        return exc


def pq_experiment(P, n, a, z):
    """One point of the peak-scaling experiment."""
    params = P.pqbinom.PqParams.from_transition(n, a, z)
    dist = P.pqbinom.build_distribution(params)
    masses = dist.masses()
    drift = P.pqbinom.peak_drift(n, a, z)
    wbar = P.branches.omega_finite_n(n, a, z)
    k = round(n * (1.0 - a) / 2.0)
    at_bar = P.pqbinom.PqParams.from_transition(n, a, z, wbar)
    resid = P.pqbinom.equal_ratio_residual(at_bar, k)
    return params, dist, masses, drift, wbar, at_bar.p, resid


def pq_summary(check, result) -> dict:
    """The checkable facts of one pq experiment (computed untimed)."""
    import numpy as np
    if isinstance(result, BaseException):
        return result
    params, dist, masses, drift, wbar, p_bar, resid = result
    n = params.n
    return {"p": params.p, "q": params.q, "peaks": tuple(dist.peaks),
            "samples": [(k, float(dist.log_coeffs[k]))
                        for k in check.pq_samples(n, dist.peaks)],
            "max_log_coeff": float(np.abs(dist.log_coeffs).max()),
            "mass_sum": float(np.sum(masses)), "drift": drift,
            "omega_bar": wbar, "p_bar": p_bar, "residual": resid}


def check_library_op(run: Run, P, op, result, tally) -> bool:
    if op.kind == "pq":
        verdicts = check.check_pq_result(op, pq_summary(check, result))
    else:
        verdicts = check.check_op(op, result)
    return tally.record(verdicts, f"{op.kind}{op.args}", op=op, key=op)


def check_set(run: Run, P, ops) -> None:
    for op in ops:
        check_library_op(run, P, op, call(P, op), run.check_tally)


# ------------------------------------------------------------ library_scalar

def _scalar_loop(bound, seconds, limit=None, rec=None):
    """Closed loop over ``bound`` until ``seconds`` of measured call time and
    at least one pass over it (or until ``limit`` calls).  Per chunk of
    CHUNK calls it keeps the median and p99 call time in reference
    nanoseconds and the calls per reference second, so the loop's own
    memory does not grow with the call count.  Also
    returns the last result of every pool entry, the call count and the raw
    and reference seconds spent."""
    perf = time.perf_counter_ns
    n = len(bound)
    p50s, p99s, rates = array("d"), array("d"), array("d")
    results = [None] * n
    calls = 0
    spent = scaled = 0.0
    budget = seconds * 1e9
    speed = calibrate.Speed()
    chunk = array("q", bytes(8 * CHUNK))
    i = 0
    while True:
        m = 0
        while m < CHUNK:
            fn, args = bound[i]
            if rec is not None:
                rec.op_id = calls
            t0 = perf()
            try:
                r = fn(*args)
            except Exception as exc:
                r = exc
            chunk[m] = perf() - t0
            m += 1
            results[i] = r
            calls += 1
            i = 0 if i + 1 == n else i + 1
            if calls == limit:
                break
        factor = speed.factor()
        ordered = sorted(chunk[:m])
        total = sum(ordered)
        spent += total
        scaled += total * factor
        p50s.append(statistics.median(ordered) * factor)
        p99s.append(ordered[math.ceil(0.99 * m) - 1] * factor)
        rates.append(m / (total * factor / 1e9))
        if (limit is None and spent >= budget and calls >= n) or calls == limit:
            return p50s, p99s, rates, results, calls, spent / 1e9, scaled / 1e9


def _scalar_check(run: Run, ops, results) -> None:
    """Check the last result of every pool entry against the oracle, once
    per entry (results are deterministic per entry)."""
    for op, result in zip(ops, results):
        run.tally.record(check.check_op(op, result), f"{op.kind}{op.args}",
                         track_ulps=False, op=op)


def library_scalar(run: Run, traced: bool) -> dict:
    import pqlambert as P
    ops = inputs.library_scalar(run.seed, SCALAR_POOL)
    run.shares = inputs.region_shares(ops)
    bound = [bind(P, op) for op in ops]
    _scalar_loop(bound, 0.0, limit=256)                      # warm-up
    seconds = run.seconds / 2 if traced else run.seconds
    p50s, p99s, rates, results, calls, raw_s, scaled_s = _scalar_loop(bound, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {}
    if traced:
        import spans
        rec = spans.Recorder()
        spans.install(rec)
        bound = [bind(P, op) for op in ops]
        *_, raw_t, scaled_t = _scalar_loop(bound, 1e9, limit=calls, rec=rec)
        metrics = traced_metrics(run, rec, raw_t, scaled_t / scaled_s - 1.0)
    _scalar_check(run, ops, results)
    if not traced:
        check_set(run, P, inputs.library_scalar(inputs.CHECK_SEED, SCALAR_CHECK_SET))
        run.raw["items_per_s"] = calls / raw_s
        metrics = end_to_end(run, rss_mb, statistics.median(p50s) / 1e6,
                             statistics.median(p99s) / 1e6, statistics.median(rates))
    return metrics


# ----------------------------------------------------------------- pq_peaks

def pq_peaks(run: Run, traced: bool) -> dict:
    import pqlambert as P
    cycles = inputs.pq_peaks(run.seed, PQ_CYCLES)
    run.shares = inputs.region_shares(op for c in cycles for op in c)
    call(P, inputs.Op("pq", (1024, 0.37, -2.0)))                # warm-up
    seconds = run.seconds / 2 if traced else run.seconds
    raw_times, cycle_times, rates, done = [], [], [], []
    speed = calibrate.Speed(calibrate.array_kernel_s, calibrate.REFERENCE_ARRAY_S)

    def one_cycle(i):
        spent, coeffs = 0.0, 0
        for op in cycles[i % PQ_CYCLES]:
            t0 = time.perf_counter()
            result = call(P, op)
            spent += time.perf_counter() - t0
            coeffs += 2 * (op.args[0] + 1)       # build_distribution + peak_drift
            done.append(op)
            check_library_op(run, P, op, result, run.tally)
            del result
        scaled = spent * speed.factor()
        raw_times.append(spent)
        cycle_times.append(scaled)
        rates.append(coeffs / scaled)
        return spent

    stop_after(seconds, one_cycle, PQ_CYCLES)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if traced:
        import spans
        rec = spans.Recorder()
        spans.install(rec)
        wall_t = 0.0
        for i, op in enumerate(done):
            rec.op_id = i
            t0 = time.perf_counter()
            call(P, op)
            wall_t += time.perf_counter() - t0
        overhead = wall_t * speed.factor() / sum(cycle_times) - 1.0
        return traced_metrics(run, rec, wall_t, overhead)
    rng = random.Random(inputs.CHECK_SEED)
    a, z = inputs.draw_mid_a(rng), -rng.uniform(0.5, 20.0)
    check_set(run, P, [inputs.Op("pq", (n, a, z)) for n in (2 ** 12, 2 ** 16, 2 ** 20)])
    run.raw["op_p50_ms"] = 1e3 * statistics.median(raw_times)
    return end_to_end(run, rss_mb, 1e3 * statistics.median(cycle_times),
                      1e3 * tail(cycle_times), statistics.median(rates))


# ------------------------------------------------------------ CLI workloads

def check_invocation(run: Run, inv, res) -> None:
    code, stdout = res.code, res.stdout
    verb = inv.verb
    if verb == "eval":
        verdicts = check.check_eval(inv, code, stdout)
    elif verb == "series":
        verdicts = check.check_series_output(inv, code, stdout)
    elif verb == "integrate":
        verdicts = check.check_integrate(inv, code, stdout)
    elif verb == "envelope":
        verdicts = check.check_envelope(inv, code, stdout)
    elif verb == "selfcheck":
        verdicts = check.check_selfcheck(inv, code, stdout)
    elif verb == "sweep":
        verdicts = check.check_sweep(inv, code, stdout, range(inv.info["count"]))
    elif verb == "pqdist":
        verdicts = check.check_pqdist(inv, code, stdout)
    else:
        raise ValueError(verb)
    if code not in (0, 2) and res.stderr:
        run.notes.append(f"{verb}: {res.stderr.strip()[-200:]}")
    run.tally.record(verdicts, f"pqlambert {' '.join(inv.argv)}", track_ulps=False,
                     op=inv.info.get("op"), key=inv)


def cli_cold(run: Run, traced: bool) -> dict:
    walls, rss, done = [], [], []
    seconds = run.seconds / 2 if traced else run.seconds
    # the processes are mostly start-up, which drifts with the reference child
    speed = calibrate.ProcessSpeed(run.src, run.tmp)
    cycle = inputs.cli_cold(run.seed * 1_000_003, run.tmp)

    def one_cycle(i):
        spent = 0.0
        for inv in cycle:
            res = children.cli(inv.argv, run.src, run.tmp)
            walls.append(res.wall_s)
            if len(walls) % 2 == 1:
                speed.sample()
            rss.append(res.maxrss_kb)
            spent += walls[-1]
            done.append(inv)
            check_invocation(run, inv, res)
        return spent

    stop_after(seconds, one_cycle)
    run.shares = inputs.region_shares(done)
    if traced:
        return cli_traced(run, done, sum(walls))
    cli_check_set(run)
    run.raw.update(op_p50_ms=1e3 * statistics.median(walls), items_per_s=len(walls) / sum(walls))
    walls = [w * speed.factor() for w in walls]
    return end_to_end(run, max(rss) / 1024, 1e3 * statistics.median(walls),
                      1e3 * tail(walls), len(walls) / sum(walls))


def cli_check_set(run: Run) -> None:
    """In-process evaluation, through the same public functions and routes
    as the CLI verbs, of the fixed inputs behind max_err_ulps."""
    import pqlambert as P
    ops = []
    for inv in inputs.cli_cold(inputs.CHECK_SEED, run.tmp):
        if inv.verb == "eval":
            ops.append(inv.info["op"])
        elif inv.verb == "sweep":
            info = inv.info
            grid = check.sweep_grid(info["lo"], info["hi"], info["count"], info["scale"])
            step = max(1, len(grid) // CHECK_SET_ROWS)
            ops += [check.sweep_op(info["function"], info["a"], t) for t in grid[::step]]
        elif inv.verb == "pqdist":
            ops.append(inputs.Op("pq", (inv.info["n"], inv.info["a"], inv.info["z"])))
    check_set(run, P, ops)


def cli_traced(run: Run, done, wall_u: float) -> dict:
    """Re-run the same invocations in traced children and merge their spans."""
    import numpy as np
    import spans
    import json
    stats, counters = {}, {}
    names_all, parts = [], []
    wall_t = 0.0
    for i, inv in enumerate(done):
        path = os.path.join(run.tmp, "spans.npz")
        res = children.traced_cli(inv.argv, run.src, run.tmp, path)
        wall_t += res.wall_s
        if res.code not in (0, 2):
            run.notes.append(f"traced {inv.verb} exited {res.code}: {res.stderr[-200:]}")
            continue
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            arrays = {k: data[k] for k in data.files if k != "meta"}
        spans.merge_stats(stats, spans.layer_stats(meta["names"], arrays))
        spans.merge_counters(counters, meta["counters"])
        remap = np.array([_name_index(names_all, n) for n in meta["names"]] or [0])
        offset = sum(len(p["start"]) for p in parts)
        arrays["name_id"] = remap[arrays["name_id"]] if len(arrays["name_id"]) else arrays["name_id"]
        arrays["parent"] = np.where(arrays["parent"] >= 0, arrays["parent"] + offset, -1)
        arrays["op"] = np.full_like(arrays["op"], i)
        parts.append(arrays)
    merged = {k: np.concatenate([p[k] for p in parts]) for k in parts[0]} if parts else {}
    if merged:
        spans.save(os.path.join(run.out_dir, f"spans-{run.workload}.npz"), names_all, merged)
    metrics = spans.per_layer_metrics(stats, counters, wall_t)
    metrics.update(import_metrics(run))
    metrics["trace.overhead_frac"] = (wall_t / wall_u - 1.0, "frac")
    return metrics


def _name_index(names, name):
    if name not in names:
        names.append(name)
    return names.index(name)


# ---------------------------------------------------------------- metrics

def import_metrics(run: Run) -> dict:
    times = children.import_times(run.src, run.tmp)
    out = {f"import.{m}_us": (float(times.get(m, 0)), "us")
           for m in children.IMPORTTIME_MODULES}
    out["cli.import_s"] = (children.timed_import("import pqlambert.cli", run.src, run.tmp), "s")
    return out


def traced_metrics(run: Run, rec, raw_wall_s: float, overhead: float) -> dict:
    """Per-layer metrics of an in-process traced run; ``overhead`` is the
    traced against the untraced time of the same operations, minus one."""
    import spans
    arrays = rec.arrays()
    spans.save(os.path.join(run.out_dir, f"spans-{run.workload}.npz"), rec.names, arrays)
    metrics = spans.per_layer_metrics(spans.layer_stats(rec.names, arrays),
                                      rec.counters(), raw_wall_s)
    metrics.update(import_metrics(run))
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics


def end_to_end(run: Run, rss_mb, p50_ms, tail_ms, items_per_s) -> dict:
    tally = run.tally
    tally.merge(run.check_tally)
    return {
        "setup_s": (run.setup_s(), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "correct_frac": (1.0 - tally.failed / max(tally.attempted, 1), "frac"),
        "max_err_ulps": (run.check_tally.max_err_ulps, "ulps"),
        "op_p50_ms": (p50_ms, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "items_per_s": (items_per_s, "1/s"),
    }


WORKLOADS = {
    "cli_cold": cli_cold,
    "library_scalar": library_scalar,
    "pq_peaks": pq_peaks,
}

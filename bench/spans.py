"""Span tracing from outside the library.

``install`` replaces each traced public function, wherever a pqlambert
module holds a reference to it, with a wrapper that records a span (name,
start, end, parent, op id).  Spans stay in memory in flat arrays and are
written out when the run ends; ``layer_stats`` turns them into per-function
calls, self time (span duration minus its child spans) and failures.  No
file of the library changes: the wrappers are installed at run time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

FUNCTIONS = (
    "branches.psi", "branches.omega", "branches.omega_finite_n",
    "branches.psi_closed_form", "branches.omega_closed_form",
    "core.forward", "core.forward_dw", "core.lambert_w", "core.branch_constants",
    "core.as_param",
    "_rootfind.newton_bracketed",
    "series.taylor_at_zero", "series.branch_point_series",
    "series.asymptotic_tail_coeffs", "series.bell",
    "selfcheck.run_selfcheck",
    "calculus.psi_derivative", "calculus.integral_omega_quadrature",
    "calculus.integral_psi_quadrature",
    "parametrize.param_alpha",
    "pqbinom.build_distribution", "pqbinom.PqDistribution.masses",
    "pqbinom.peak_drift", "pqbinom.equal_ratio_residual",
)
CLI_VERBS = ("eval", "sweep", "series", "integrate", "pqdist", "envelope", "selfcheck")
CACHES = {"core.constants_cache": ("core", "_constants_for"),
          "calculus.pn_cache": ("calculus", "_pn_cached")}


def span_name(full: str) -> str:
    """Span and metric name of a traced function: without the leading
    underscore of "_rootfind", since a metric name starts with a letter."""
    return full.lstrip("_")


class Recorder:
    """In-memory span store; one instance per traced run or child."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.failed = array("b")
        self._stack: list[int] = []
        self.op_id = 0
        self.g_evals = 0
        self.solves = 0
        self.cache_before: dict = {}

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, failed: bool) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.failed[idx] = 1

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                self.close(idx, failed)
        return traced

    def arrays(self) -> dict:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=float),
                "end": np.frombuffer(self.end, dtype=float),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "op": np.frombuffer(self.op, dtype=np.int64),
                "failed": np.frombuffer(self.failed, dtype=np.int8)}

    def counters(self) -> dict:
        out = {"g_evals": self.g_evals, "solves": self.solves}
        for key, (mod, attr) in CACHES.items():
            info = getattr(sys.modules[f"pqlambert.{mod}"], attr).cache_info()
            hits0, misses0 = self.cache_before.get(key, (0, 0))
            out[key] = (info.hits - hits0, info.misses - misses0)
        return out


def _replace_everywhere(orig, new) -> None:
    for name, mod in list(sys.modules.items()):
        if name == "pqlambert" or name.startswith("pqlambert."):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)


def install(rec: Recorder) -> None:
    """Wrap every traced function and the CLI verb callbacks (if loaded)."""
    for full in FUNCTIONS:
        mod_name, _, attr = full.partition(".")
        mod = importlib.import_module(f"pqlambert.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, rec.wrap(span_name(full), getattr(cls, meth)))
            continue
        orig = getattr(mod, attr)
        if full == "_rootfind.newton_bracketed":
            new = rec.wrap(span_name(full), _counting_solver(rec, orig))
        else:
            new = rec.wrap(span_name(full), orig)
        _replace_everywhere(orig, new)
    cli = sys.modules.get("pqlambert.cli")
    if cli is not None:
        for verb in CLI_VERBS:
            cmd = cli.main.commands[verb]
            cmd.callback = rec.wrap(f"cli.{verb}", cmd.callback)
    for key, (mod, attr) in CACHES.items():
        info = getattr(sys.modules[f"pqlambert.{mod}"], attr).cache_info()
        rec.cache_before[key] = (info.hits, info.misses)


def _counting_solver(rec: Recorder, solver):
    """newton_bracketed with a counter on its ``fun`` argument."""
    @functools.wraps(solver)
    def counted(fun, *args, **kwargs):
        def g(w):
            rec.g_evals += 1
            return fun(w)
        rec.solves += 1
        return solver(g, *args, **kwargs)
    return counted


def layer_stats(names, arrays) -> dict:
    """Per span name: calls, self seconds and failed calls."""
    start, end, parent = arrays["start"], arrays["end"], arrays["parent"]
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_s = dur - child
    out = {}
    for nid, name in enumerate(names):
        mask = arrays["name_id"] == nid
        out[name] = {"calls": int(mask.sum()), "self_s": float(self_s[mask].sum()),
                     "failed": int(arrays["failed"][mask].sum())}
    return out


def merge_stats(total: dict, part: dict) -> None:
    for name, s in part.items():
        t = total.setdefault(name, {"calls": 0, "self_s": 0.0, "failed": 0})
        for key in t:
            t[key] += s[key]


def merge_counters(total: dict, part: dict) -> None:
    for key, val in part.items():
        if isinstance(val, (tuple, list)):
            prev = total.get(key, (0, 0))
            total[key] = (prev[0] + val[0], prev[1] + val[1])
        else:
            total[key] = total.get(key, 0) + val


def per_layer_metrics(stats: dict, counters: dict, wall_s: float) -> dict:
    """The per_layer metric dict (name -> (value, unit)) for one traced run.

    Self time is reported as a share of the traced wall time, so a layer a
    workload never enters reads 0 % rather than a constant duration.
    """
    out = {}
    for name in tuple(map(span_name, FUNCTIONS)) + tuple(f"cli.{v}" for v in CLI_VERBS):
        s = stats.get(name, {"calls": 0, "self_s": 0.0, "failed": 0})
        out[f"{name}.calls"] = (s["calls"], "count")
        out[f"{name}.self_pct"] = (100.0 * s["self_s"] / wall_s, "%")
        if not name.startswith("cli."):
            out[f"{name}.failed"] = (s["failed"], "count")
    out["rootfind.g_evals_per_solve"] = (
        counters.get("g_evals", 0) / max(counters.get("solves", 0), 1), "count")
    for key in CACHES:
        hits, misses = counters.get(key, (0, 0))
        out[f"{key}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "frac")
    out["trace.wall_s"] = (wall_s, "s")
    return out


def save(path: str, names, arrays) -> None:
    np.savez(path, names=np.array(names, dtype=object), **arrays)

"""Machine-speed references for the timing metrics.

The reference machine is shared, and its speed drifts by 20-50 % over tens
of seconds to minutes.  Each timing is therefore scaled by a reference
measured in the same run with the same kind of work, which no library
change can move:

- ``Speed``: in-process call times (library_scalar).  After every chunk of
  calls it times a fixed pure-Python kernel with the same instruction mix
  (function calls, float math, small frozen objects, a safeguarded Newton
  loop), and scales the chunk by REFERENCE_S / (mean kernel time before and
  after the chunk).
- ``Speed(array_kernel_s, REFERENCE_ARRAY_S)``: in-process cycle times of
  the pq builds (pq_peaks), which are dominated by whole-array numpy passes
  over up to 2^22 doubles.  The kernel makes the same kind of passes
  (expm1, log, cumsum, exp, sum) over an array of that size.
- ``ProcessSpeed``: times of processes dominated by start-up (cli_cold and
  setup_s).  Start-up drifts in a way the in-process kernel does not see,
  so a reference child that imports the library's dependencies but not the
  library runs between measured children, and every time of the run is
  scaled by REFERENCE_CHILD_S / (median reference child time).

The pure-Python kernel and the reference child do not track the pq
builds (scaling by them made a 2^20 build's spread worse), hence the array
kernel.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

import children

REFERENCE_S = 0.0026        # one kernel run on an idle core of the reference machine
REFERENCE_ARRAY_S = 0.075   # one array kernel run on the reference machine
REFERENCE_CHILD = "import numpy, click, json, csv, fractions, dataclasses"
REFERENCE_CHILD_S = 0.27    # the reference child's wall time on the idle machine


@dataclass(frozen=True)
class _Param:
    a: float

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(self.a)


def _solve(p: _Param, x: float) -> float:
    """w with w*exp(w) = x by safeguarded Newton (x > 0)."""
    lo, hi = 0.0, max(1.0, math.log1p(x))
    w = 0.5 * (lo + hi)
    for _ in range(60):
        e = math.exp(w)
        g, dg = w * e - x, (w + 1.0) * e
        if g > 0.0:
            hi = w
        else:
            lo = w
        cand = w - g / dg
        if not lo <= cand <= hi:
            cand = 0.5 * (lo + hi)
        if abs(cand - w) <= 1e-15 * (1.0 + abs(w)):
            return cand * p.a
        w = cand
    return w * p.a


def kernel_s() -> float:
    """Seconds one run of the fixed reference kernel takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(800):
        acc += _solve(_Param(0.25 + (i % 7) / 10.0), 0.5 + i * 0.25)
    return time.perf_counter() - t0


def _array_pass(n: int) -> float:
    t0 = time.perf_counter()
    buf = np.arange(1, n + 1, dtype=float)
    np.multiply(buf, -1.0 / n, out=buf)
    np.expm1(buf, out=buf)
    np.abs(buf, out=buf)
    np.log(buf, out=buf)
    np.cumsum(buf, out=buf)
    np.multiply(buf, 1.0 / abs(buf[-1]), out=buf)
    np.exp(buf, out=buf)
    float(buf.sum())
    return time.perf_counter() - t0


def array_kernel_s(n: int = 2 ** 22) -> float:
    """Seconds one run of the fixed array kernel takes now: the median of
    three passes, since a single pass jitters about as much as a pq cycle.
    Each pass works in place on one fresh array, so the kernel adds only
    32 MB to the process's peak RSS, and every value stays finite and
    normal."""
    return statistics.median(_array_pass(n) for _ in range(3))


class Speed:
    """Kernel timings around consecutive measured intervals: call
    ``factor()`` right after each interval."""

    def __init__(self, kernel=kernel_s, reference_s: float = REFERENCE_S):
        self.kernel, self.reference_s = kernel, reference_s
        self.before = kernel()

    def factor(self) -> float:
        """reference_s / (mean kernel time around the last interval)."""
        after = self.kernel()
        ref = 0.5 * (self.before + after)
        self.before = after
        return self.reference_s / ref


class ProcessSpeed:
    """Reference child processes run between measured ones."""

    def __init__(self, src: str, tmp: str):
        self.src, self.tmp = src, tmp
        self.samples: list[float] = []

    def sample(self) -> None:
        res = children.run([sys.executable, "-c", REFERENCE_CHILD], self.src, self.tmp)
        if res.code != 0:
            raise RuntimeError(f"reference child failed: {res.stderr.strip()[-300:]}")
        self.samples.append(res.wall_s)

    def factor(self) -> float:
        """REFERENCE_CHILD_S / (median reference child time of the run)."""
        return REFERENCE_CHILD_S / statistics.median(self.samples)

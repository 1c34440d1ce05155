"""Log-domain p,q-binomial coefficients, the normalized distribution with
peak detection, and the bridge from the asymmetry/transition parameters.

numpy is imported inside the functions that build arrays, so the scalar
parts (PqParams, equal_ratio_residual) and every module that imports this
one start without it."""

from __future__ import annotations

import bisect
import math
from collections import namedtuple
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

from . import _LAZY, branches
from .core import (DomainError, RangeError, _LN2, _LOG_DBL_MAX, _check_int, _check_z, _real,
                   as_param)

if TYPE_CHECKING:  # for the annotations only
    import numpy as np

__all__ = list(_LAZY["pqbinom"])

N_MAX = 2 ** 24          # practical cap for building full distributions
_EXP_FLOOR = -746.0      # exp(x) rounds to +0.0 for every x below about -745.13
_BLOCK = 2 ** 14         # log-ratios per block of the peak scan, a few in L2 cache


class DegenerateRatioError(DomainError):
    """The equal-coefficient ratio has a vanishing denominator."""


class PqParams(namedtuple("PqParams", "n p q provenance")):
    """Parameters (n, p, q) of a p,q-binomial coefficient sequence.

    ``provenance`` records (a, y, z) when built through the transition
    parameterization p = 1 + 2y/n, q = 1 + 2z/n with z < 0.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, n: int, p: float, q: float, provenance: tuple | None = None):
        self = super().__new__(cls, n, p, q, provenance)
        _check_int("n", self.n, 1)
        if not (self.p > 0.0 and self.q > 0.0):
            raise DomainError("p and q must be positive")
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise DomainError("p and q must be finite")
        if self.p == self.q:
            raise DomainError("p = q is degenerate (the definition divides by p^j - q^j)")
        if self.provenance is not None:
            a, y, z = self.provenance
            _check_z(z)
            if self.p != 1.0 + 2.0 * y / self.n or self.q != 1.0 + 2.0 * z / self.n:
                raise DomainError("provenance does not reproduce p, q exactly")
        return self

    @classmethod
    def from_transition(cls, n: int, a, z: float, y: float | None = None) -> "PqParams":
        """Build p, q from the asymmetry/transition parameterization.

        ``y`` defaults to the transition value omega(a, z), which places the
        distribution peaks near k/n = (1 -+ a)/2.
        """
        _check_int("n", n, 1)
        ap = as_param(a)
        z = _real("z", z)
        if y is None:
            y = branches.omega(ap, z)
        q = 1.0 + 2.0 * z / n
        if q <= 0.0:
            raise DomainError(f"q = 1 + 2z/n = {q!r} must be positive")
        return cls(n=n, p=1.0 + 2.0 * y / n, q=q, provenance=(ap.a, y, z))


class PqDistribution(NamedTuple):
    """Normalized p,q-binomial distribution in the log domain.

    ``log_coeffs[k]`` is the natural log of the k-th coefficient,
    symmetric under k <-> n-k by construction; ``log_norm`` is the
    log-sum-exp normalizer; ``peaks`` lists the strict local maxima
    (1 or 2 of them), plateaus collapsing to their smallest index.
    The repr leaves out the n+1 log-coefficients.
    """

    params: PqParams
    log_coeffs: np.ndarray
    log_norm: float
    peaks: tuple

    def __repr__(self):
        return (f"PqDistribution(params={self.params!r}, log_norm={self.log_norm!r}, "
                f"peaks={self.peaks!r})")

    def masses(self) -> np.ndarray:
        """Probability masses exp(log_coeffs - log_norm), summing to 1."""
        return _exp_in_place(self.log_coeffs - self.log_norm)


def _exp_in_place(x: np.ndarray) -> np.ndarray:
    """np.exp(x) written over x, bit for bit.

    numpy's exp is several times slower on arguments whose result
    underflows, and far from a peak most log-masses do, so exp runs only
    above _EXP_FLOOR and the rest is set to the +0.0 exp would return.
    """
    import numpy as np

    live = x > _EXP_FLOOR
    np.exp(x, out=x, where=live)
    np.copyto(x, 0.0, where=~live)
    return x


def _log_abs_diff_terms(log_hi: float, log_ratio: float, first: int, count: int) -> np.ndarray:
    """log |hi^m - lo^m| = m*log(hi) + log(1 - (lo/hi)^m) for the ``count``
    integers m from ``first`` on, vectorized in m.

    ``log_ratio`` = log(lo/hi) < 0.  The second term switches between
    log(-expm1(t)) and log1p(-exp(t)) at t = -log(2) to stay accurate for
    ratios near 1 and near 0 alike; t = m*log_ratio descends, so the first
    form covers a prefix and the second the rest.  The call holds one
    array of ``count`` entries: m*log(hi) is added _BLOCK entries at a time.
    """
    import numpy as np

    out = np.arange(first, first + count, dtype=float)
    out *= log_ratio
    cut = bisect.bisect_left(out, True, key=lambda t: t <= -_LN2)
    near, far = out[:cut], out[cut:]
    np.expm1(near, out=near)
    np.negative(near, out=near)
    np.log(near, out=near)
    np.exp(far, out=far)
    np.negative(far, out=far)
    np.log1p(far, out=far)
    for lo in range(0, count, _BLOCK):
        hi = min(lo + _BLOCK, count)
        out[lo:hi] += np.arange(first + lo, first + hi, dtype=float) * log_hi
    return out


def _log_ratio(lo: float, hi: float) -> float:
    """log(lo/hi) < 0 as log(lo) - log(hi), or as log(lo/hi) where the two
    logs round to the same value (lo and hi a few ulps apart)."""
    return math.log(lo) - math.log(hi) or math.log(lo / hi)


def log_pq_binomial(params: PqParams, k: int) -> float:
    """Natural log of the p,q-binomial coefficient (n, k).

    Sum over j of log((hi^(n-k+j) - lo^(n-k+j))/(hi^j - lo^j)) with
    hi = max(p,q): numerator and denominator always carry the same sign,
    so the coefficient is positive for any p != q > 0.
    """
    n = params.n
    _check_int("k", k, 0, n)
    if k == 0:
        return 0.0
    import numpy as np

    hi = max(params.p, params.q)
    lo = min(params.p, params.q)
    log_hi = math.log(hi)
    log_ratio = _log_ratio(lo, hi)
    num = _log_abs_diff_terms(log_hi, log_ratio, n - k + 1, k)
    den = _log_abs_diff_terms(log_hi, log_ratio, 1, k)
    return float(np.sum(num - den))


def _scan_peaks(blocks, tol: float) -> tuple:
    """Local maxima of a sequence C(0..n) from its adjacent log-ratios, in blocks.

    Ratio i is log C(i+1)/C(i).  Ratios within ``tol`` of zero count as
    flat, and a rise followed by a fall, with or without a flat run
    between them, makes one peak.  Within the flat run the peak settles
    on the first index whose next ratio is not positive, so exact ties
    keep the smallest index.  Boundary maxima count.  A block edge carries
    the last rise or fall and where the flat run after a rise settles.
    """
    import numpy as np

    peaks = []
    rising, settle, lo = True, None, 0  # a rise before C(0) counts
    for r in blocks:
        up = r > tol
        nz = np.flatnonzero(up | (r < -tol))
        up = up[nz]
        # each fall right after a rise ends a peak at the run's first
        # ratio <= 0, which is at the latest the falling one itself
        for f in np.flatnonzero(~up & np.append(rising, up[:-1])).tolist():
            start = int(nz[f - 1]) + 1 if f else 0
            if f or settle is None:
                settle = lo + start + int(np.argmax(r[start:nz[f] + 1] <= 0.0))
            peaks.append(settle)
        if nz.size:
            rising, settle = bool(up[-1]), None
        if rising and settle is None:
            start = int(nz[-1]) + 1 if nz.size else 0
            nonpos = np.flatnonzero(r[start:] <= 0.0)
            settle = lo + start + int(nonpos[0]) if nonpos.size else None
        lo += r.size
    if rising:  # a fall after C(n)
        peaks.append(lo if settle is None else settle)
    return tuple(peaks)


def _ratio_blocks(n: int, terms):
    """The adjacent log-ratios d[n-1-i] - d[i], i = 0..n-1, _BLOCK at a
    time, where terms(m, count) returns d[m-1:m-1+count]."""
    for lo in range(0, n, _BLOCK):
        count = min(_BLOCK, n - lo)
        yield terms(n - lo - count + 1, count)[::-1] - terms(lo + 1, count)


def _factor_logs(params: PqParams) -> tuple[float, float, float]:
    """log hi, log(lo/hi) and the flat tolerance of the adjacent log-ratios.

    The factor terms are d[m-1] = log|hi^m - lo^m|, m = 1..n, and
    log C(k)/C(k-1) = d[n-k] - d[k-1] is one subtraction, exactly
    antisymmetric and free of any prefix-sum drift; ratios within 4 ulps
    of the largest term magnitude count as flat.
    """
    n = params.n
    if n > N_MAX:
        raise DomainError(f"n = {n} exceeds the practical cap {N_MAX}")
    hi = max(params.p, params.q)
    lo = min(params.p, params.q)
    log_hi = math.log(hi)
    log_ratio = _log_ratio(lo, hi)
    # each d[m] is good to a few ulps of its larger summand, at most
    # n*|log hi| or, at m = 1, |log(1 - lo/hi)|
    scale = max(n * abs(log_hi), abs(math.log(-math.expm1(log_ratio))))
    return log_hi, log_ratio, 4.0 * math.ulp(scale)


def build_distribution(params: PqParams) -> PqDistribution:
    """Build all n+1 log-coefficients, the normalizer, and the peak list.

    With d[m-1] = log|hi^m - lo^m|, the log-coefficients come from prefix
    sums S of d: log C(k) = S(n) - S(n-k) - S(k).  This is O(n),
    overflow-free, and bit-exactly symmetric under k <-> n-k.  The peaks
    come from the adjacent log-ratios (see _factor_logs), scanned in
    blocks sliced from d, so the working set peaks at about 2.25 arrays
    of n+1 doubles, in the log-sum-exp.
    """
    import numpy as np

    n = params.n
    log_hi, log_ratio, tol = _factor_logs(params)
    d = _log_abs_diff_terms(log_hi, log_ratio, 1, n)
    peaks = _scan_peaks(_ratio_blocks(n, lambda m, count: d[m - 1:m - 1 + count]), tol)
    s = np.empty(n + 1)
    s[0] = 0.0
    np.cumsum(d, out=s[1:])
    del d
    h = n // 2 + 1
    log_coeffs = np.empty(n + 1)
    half = log_coeffs[:h]
    np.subtract(s[n], s[n::-1][:h], out=half)
    half -= s[:h]
    del s
    log_coeffs[h:] = log_coeffs[:(n + 1) // 2][::-1]
    # max-shifted log-sum-exp; numpy's pairwise sum keeps the error O(log n)
    shift = float(log_coeffs.max())
    terms = _exp_in_place(log_coeffs - shift)
    log_norm = shift + math.log(float(terms.sum()))
    log_coeffs.flags.writeable = False
    return PqDistribution(params=params, log_coeffs=log_coeffs,
                          log_norm=log_norm, peaks=peaks)


def equal_ratio_residual(params: PqParams, k: int) -> float:
    """(p^(n-k+1) - p^k)/(q^(n-k+1) - q^k) - 1, evaluated in the log domain.

    Zero exactly when coefficients k-1 and k are equal.  Defined for
    1 <= k <= n (the ratio is invariant under k <-> n-k+1); the canonical
    range of the equal-coefficient equation is k <= n/2.
    """
    n = params.n
    _check_int("k", k, 1, n)
    p, q = params.p, params.q
    d = n + 1 - 2 * k
    if d == 0:
        raise DegenerateRatioError(
            f"k = (n+1)/2 = {k} makes numerator and denominator both vanish")
    if q == 1.0:
        raise DegenerateRatioError("q = 1 makes the denominator vanish")
    if p == 1.0:
        return -1.0
    lp, lq = math.log(p), math.log(q)
    log_num = k * lp + _log_abs_expm1(d * lp)
    log_den = k * lq + _log_abs_expm1(d * lq)
    sign = 1.0 if (p - 1.0) * (q - 1.0) > 0.0 else -1.0
    if log_num - log_den > _LOG_DBL_MAX:
        raise RangeError(f"the coefficient ratio exceeds the double range for {params!r}")
    return sign * math.exp(log_num - log_den) - 1.0


def _log_abs_expm1(t: float) -> float:
    """log|exp(t) - 1|, which is t to double precision where exp(t) overflows.

    core._log_abs_em1 would move the last bits of 176 of 2880 seeded
    equal_ratio_residual results; either kernel puts the moved ones within
    1.6e-15 of max(|ratio|, 1), so this copy stays and keeps their bits."""
    return t if t > _LOG_DBL_MAX else math.log(abs(math.expm1(t)))


def peak_drift(n: int, a, z: float) -> tuple[int, float]:
    """Lower peak index and its normalized offset from k/n = (1-a)/2.

    Takes the peaks of the distribution at y = omega(a, z), the same as
    build_distribution's, from the log-ratio scan alone, and measures
    |k_peak - n(1-a)/2| / n; the offset shrinks toward 0 as n grows.  Each
    block of factor terms is computed when the scan reaches it, bit for
    bit the slice build_distribution takes, so the working set is a few
    blocks, whatever n is.
    """
    ap = as_param(a)
    log_hi, log_ratio, tol = _factor_logs(PqParams.from_transition(n, ap, z))
    peaks = _scan_peaks(_ratio_blocks(n, partial(_log_abs_diff_terms, log_hi, log_ratio)), tol)
    k_peak = min(peaks)
    offset = abs(k_peak - n * (1.0 - ap.a) / 2.0) / n
    return k_peak, offset

"""Tests for the p,q-binomial coefficients, distribution, and peaks."""

import math
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pqlambert.core import AsymmetryParam, DomainError, RangeError, as_param
from pqlambert.branches import omega, omega_finite_n
from pqlambert.pqbinom import (
    DegenerateRatioError,
    PqParams,
    _BLOCK,
    _factor_logs,
    _log_abs_diff_terms,
    _ratio_blocks,
    _scan_peaks,
    build_distribution,
    equal_ratio_residual,
    log_pq_binomial,
    peak_drift,
)

A_HALF = AsymmetryParam.from_rational(1, 2)


def seed_factor_terms(n, p, q):
    """Reference copy of the original builder's masked factor terms
    d[m-1] = log|hi^m - lo^m|, m = 1..n."""
    hi, lo = max(p, q), min(p, q)
    log_hi = math.log(hi)
    log_ratio = math.log(lo) - math.log(hi)
    m = np.arange(1, n + 1, dtype=float)
    t = m * log_ratio
    out = np.empty_like(t, dtype=float)
    near = t > -math.log(2.0)
    out[near] = np.log(-np.expm1(t[near]))
    out[~near] = np.log1p(-np.exp(t[~near]))
    return m * log_hi + out


def seed_log_coeffs(n, p, q):
    """Reference copy of the original builder's formula: masked factor
    terms, prefix sums, gathered half, mirrored upper half, log-sum-exp."""
    d = seed_factor_terms(n, p, q)
    s = np.concatenate(([0.0], np.cumsum(d)))
    k = np.arange(0, n // 2 + 1)
    half = s[n] - s[n - k] - s[k]
    log_coeffs = np.concatenate((half, half[: (n + 1) // 2][::-1]))
    shift = float(log_coeffs.max())
    log_norm = shift + math.log(float(np.exp(log_coeffs - shift).sum()))
    return log_coeffs, log_norm


def loop_peaks(ratios, tol):
    """Plain-loop reference scan over adjacent log-ratios."""
    n = len(ratios)
    trend = [1 if r > tol else -1 if r < -tol else 0 for r in ratios]
    peaks = []
    for k in range(n + 1):
        rises = k == 0 or trend[k - 1] == 1
        j = k
        while j < n and trend[j] == 0:
            j += 1
        falls = j == n or trend[j] == -1
        if rises and falls:
            settle = [i for i in range(k, j) if ratios[i] <= 0.0]
            peaks.append(settle[0] if settle else j)
    return tuple(peaks)


def whole_array_peaks(ratios, tol):
    """Reference copy of the whole-array scan that the streamed one
    replaced: an int8 trend with boundary sentinels and the index array
    of its nonzero entries."""
    trend = np.empty(ratios.size + 2, dtype=np.int8)
    trend[0], trend[-1] = 1, -1
    np.subtract((ratios > tol).view(np.int8), (ratios < -tol).view(np.int8),
                out=trend[1:-1])
    nz = np.flatnonzero(trend)
    s = trend[nz]
    at = np.flatnonzero((s[:-1] == 1) & (s[1:] == -1))
    peaks = []
    for start, stop in zip(nz[at].tolist(), (nz[at + 1] - 1).tolist()):
        nonpos = np.flatnonzero(ratios[start:stop] <= 0.0)
        peaks.append(start + int(nonpos[0]) if nonpos.size else stop)
    return tuple(peaks)


def traced_peak(fn, *args):
    """The peak of tracemalloc's traced memory during one call."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def scan(ratios, tol, cuts=()):
    """The streamed scan over ``ratios`` handed over as blocks split at ``cuts``."""
    return _scan_peaks(np.split(np.asarray(ratios, dtype=float), list(cuts)), tol)


def every_split(size):
    """One block, each single cut, and one block per ratio."""
    return [()] + [(c,) for c in range(1, size)] + [range(1, size)]


def mp_log_ratio(n, p, q, k, mp):
    """Exact log C(k)/C(k-1) = log((p^(n-k+1) - q^(n-k+1))/(p^k - q^k))."""
    p, q = mp.mpf(p), mp.mpf(q)
    return mp.log((p ** (n - k + 1) - q ** (n - k + 1)) / (p ** k - q ** k))


def mp_log_coefficient(n, p, q, k, mp):
    """Extended-precision direct product oracle."""
    p, q = mp.mpf(p), mp.mpf(q)
    acc = mp.mpf(1)
    for j in range(1, k + 1):
        acc *= (p ** (n - k + j) - q ** (n - k + j)) / (p ** j - q ** j)
    return float(mp.log(acc))


class TestPqParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            PqParams(n=0, p=1.0, q=0.5)
        with pytest.raises(DomainError):
            PqParams(n=4, p=0.7, q=0.7)
        with pytest.raises(DomainError):
            PqParams(n=4, p=-0.1, q=0.5)

    def test_transition_provenance_exact(self):
        params = PqParams.from_transition(128, A_HALF, -3.0)
        a, y, z = params.provenance
        assert params.p == 1.0 + 2.0 * y / 128
        assert params.q == 1.0 + 2.0 * z / 128
        assert y == pytest.approx(omega(A_HALF, -3.0), rel=1e-15)
        assert params.p > params.q > 0.0

    def test_transition_rejects_bad_z(self):
        with pytest.raises(DomainError):
            PqParams.from_transition(4, A_HALF, -5.0)  # q <= 0
        with pytest.raises(DomainError):
            PqParams.from_transition(64, A_HALF, 1.0)


class TestLogCoefficient:
    def test_small_identities(self):
        # (p^2 - q^2)/(p - q) = p + q and the empty product at k = 0
        params = PqParams(n=2, p=1.37, q=0.41)
        assert log_pq_binomial(params, 1) == pytest.approx(math.log(1.78), rel=1e-14)
        assert log_pq_binomial(params, 0) == 0.0
        assert log_pq_binomial(params, 2) == 0.0

    def test_reduces_to_binomial_when_q_to_1(self):
        # at q -> 1, p -> 1 the coefficients approach C(n, k)
        params = PqParams(n=10, p=1.0 + 1e-9, q=1.0 - 1e-9)
        assert log_pq_binomial(params, 4) == pytest.approx(math.log(210.0), abs=1e-6)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_extended_precision_oracle(self, n, mp50):
        for (p, q) in ((1.1, 0.9), (0.97, 0.55), (1.5, 1.2), (0.2, 3.0),
                       (1.0001, 0.9999)):
            params = PqParams(n=n, p=p, q=q)
            dist = build_distribution(params)
            for k in range(n + 1):
                ref = mp_log_coefficient(n, p, q, k, mp50)
                assert abs(log_pq_binomial(params, k) - ref) <= 1e-11
                assert abs(float(dist.log_coeffs[k]) - ref) <= 1e-11

    def test_validation(self):
        params = PqParams(n=8, p=1.1, q=0.9)
        with pytest.raises(DomainError):
            log_pq_binomial(params, 9)
        with pytest.raises(DomainError):
            log_pq_binomial(params, -1)


class TestDistribution:
    def test_symmetry_exact(self):
        for n, z in ((64, -3.0), (1023, -5.0), (1024, -5.0)):
            dist = build_distribution(PqParams.from_transition(n, A_HALF, z))
            assert bool(np.all(dist.log_coeffs == dist.log_coeffs[::-1]))

    def test_normalization(self):
        for n in (16, 256, 4096):
            dist = build_distribution(PqParams.from_transition(n, A_HALF, -4.0))
            assert float(dist.masses().sum()) == pytest.approx(1.0, abs=1e-12)

    def test_bimodal_peaks_near_quarters(self):
        n = 2 ** 10
        dist = build_distribution(PqParams.from_transition(n, A_HALF, -5.0))
        assert len(dist.peaks) == 2
        k_lo, k_hi = dist.peaks
        assert abs(k_lo - 0.25 * n) <= 0.02 * n
        assert abs(k_hi - 0.75 * n) <= 0.02 * n
        assert k_lo + k_hi == n  # symmetric pair

    def test_zero_limit_twin_peaks_straddle_center(self):
        n = 2 ** 10
        dist = build_distribution(PqParams.from_transition(n, AsymmetryParam(0.0), -5.0))
        assert len(dist.peaks) == 2
        k_lo, k_hi = dist.peaks
        assert k_lo < n // 2 < k_hi
        assert k_lo + k_hi == n

    def test_unimodal_peak_at_center(self):
        assert build_distribution(PqParams(n=64, p=1.001, q=0.999)).peaks == (32,)
        assert build_distribution(PqParams(n=63, p=1.001, q=0.999)).peaks == (31,)

    @given(st.integers(4, 200), st.floats(0.05, 3.0), st.floats(0.05, 3.0))
    @example(n=4, p=0.05, q=0.05000000000000001)  # log(p) == log(q): was a ValueError
    @settings(max_examples=300, deadline=None)
    def test_one_or_two_peaks_never_more(self, n, p, q):
        if p == q:
            return
        dist = build_distribution(PqParams(n=n, p=p, q=q))
        assert len(dist.peaks) in (1, 2)
        assert float(dist.masses().sum()) == pytest.approx(1.0, abs=1e-12)
        assert bool(np.all(dist.log_coeffs == dist.log_coeffs[::-1]))

    def test_immutable(self):
        dist = build_distribution(PqParams(n=8, p=1.1, q=0.9))
        with pytest.raises(ValueError):
            dist.log_coeffs[0] = 1.0

    def test_cap(self):
        with pytest.raises(DomainError):
            build_distribution(PqParams(n=2 ** 24 + 1, p=1.1, q=0.9))

    def test_working_set(self):
        # the factor terms, then the prefix sums beside them, then the
        # log-coefficients beside the log-sum-exp terms and its masks:
        # about 2.25 arrays of n+1 doubles; the scan adds only blocks
        n = 2 ** 20
        params = PqParams.from_transition(n, 0.37, -2.0)
        build_distribution(PqParams(n=64, p=1.1, q=0.9))  # imports outside the trace
        assert traced_peak(build_distribution, params) < 2.4 * 8 * (n + 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 4097, 2 ** 16])
    def test_bit_identical_to_seed_formula(self, n):
        cases = [(1.1, 0.9), (0.2, 3.0), (1.0, 0.5), (1.0001, 0.9999)]
        if n > 8:  # q = 1 + 2z/n > 0 and p = 1 + 2y/n > 0
            for a, z in ((A_HALF, -5.0), (0.37, -2.0), (0.9, -0.5), (0.0, -3.0)):
                params = PqParams.from_transition(n, a, z)
                cases.append((params.p, params.q))
        for p, q in cases:
            dist = build_distribution(PqParams(n=n, p=p, q=q))
            ref_coeffs, ref_norm = seed_log_coeffs(n, p, q)
            assert np.array_equal(dist.log_coeffs, ref_coeffs), (n, p, q)
            assert dist.log_norm == ref_norm, (n, p, q)

    @pytest.mark.parametrize("n, a, z", [
        (65536, 0.1465, -29.598),
        (4096, 0.37, -2.0),
        (4097, A_HALF, -5.0),
        (1024, 0.0, -5.0),
        (2 ** 14, 0.9, -0.5),
    ])
    def test_peaks_are_exact_local_maxima(self, n, a, z, mp50):
        params = PqParams.from_transition(n, a, z)
        dist = build_distribution(params)
        for k in dist.peaks:
            if k >= 1:
                assert mp_log_ratio(n, params.p, params.q, k, mp50) >= 0, k
            if k < n:
                assert mp_log_ratio(n, params.p, params.q, k + 1, mp50) <= 0, k

    def test_drifted_peak_regression(self, mp50):
        # differences of the prefix-summed log-coefficients drift by about
        # 1e-10 here and would flatten the top from k = 27928 on, where the
        # exact log C(k+1)/C(k) is still +1.9e-13
        params = PqParams.from_transition(65536, 0.1465, -29.598)
        dist = build_distribution(params)
        assert min(dist.peaks) == 27954
        assert mp_log_ratio(65536, params.p, params.q, 27929, mp50) > 0


class TestMasses:
    @pytest.mark.parametrize("n", [2 ** 10, 2 ** 20])
    def test_equal_to_plain_exp(self, n):
        # exp runs only above -746 in masses(); below it plain exp gives +0.0
        for params in (PqParams.from_transition(n, 0.37, -2.0),
                       PqParams(n=n, p=1.5, q=0.5)):
            dist = build_distribution(params)
            x = dist.log_coeffs - dist.log_norm
            got = dist.masses()
            assert got.tobytes() == np.exp(x).tobytes(), params
        # the last case has arguments on both sides of the floor
        assert (x < -746.0).any() and (x > -745.0).any()


class TestPeakScan:
    CASES = [
        [0.0],                                  # n = 1: C(0) = C(1)
        [1.0],
        [-1.0],
        [0.0, 0.0, 0.0, 0.0],                   # all flat
        [-1.0, -2.0, 0.5, 1.0],                 # both boundaries are maxima
        [1.0, 2.0, 0.0, 0.0, -1.0, -3.0],       # exact tie: smallest index
        [1.0, 1e-15, 2e-15, -1e-15, -1.0],      # settles where ratios turn
        [1.0, 1e-15, 2e-15, -1.0],              # settles at the fall
        [1.0, 0.0, 0.0, 1.0, -1.0],             # flat run between two rises
        [1.0, -1.0, 1.0, -1.0],                 # twin peaks
        [1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0],  # twin plateaus
        [0.0, 0.0, -1.0, 1.0, 0.0],             # flat start, flat end
        [1e-14, -1e-14, 1.0, -1.0],             # within tolerance is flat
    ]

    @pytest.mark.parametrize("ratios", CASES)
    def test_matches_loop_reference(self, ratios):
        for cuts in every_split(len(ratios)):
            assert scan(ratios, 1e-13, cuts) == loop_peaks(ratios, 1e-13), cuts

    def test_random_sign_patterns(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            size = int(rng.integers(1, 40))
            ratios = rng.integers(-2, 3, size=size) * 0.5 + rng.normal(0.0, 0.1, size)
            for cuts in every_split(size):
                assert scan(ratios, 0.5, cuts) == loop_peaks(ratios.tolist(), 0.5), cuts

    def test_handcrafted_expectations(self):
        for ratios, tol, peaks in (([0.0], 0.0, (0,)),
                                   ([-1.0, -2.0, 0.5, 1.0], 0.0, (0, 4)),
                                   ([1.0, 2.0, 0.0, 0.0, -1.0], 0.0, (2,)),
                                   ([1.0, 1e-15, -1e-15, -1.0], 1e-13, (2,)),
                                   ([1e-15, 1e-15], 1e-13, (2,))):
            for cuts in every_split(len(ratios)):
                assert scan(ratios, tol, cuts) == peaks, (ratios, cuts)


class TestPeakScanBlockEdges:
    """Real distributions whose peaks, flat tops or centres sit on an edge
    between two scan blocks, one entry before it or one after it."""

    B = _BLOCK

    @staticmethod
    def reference_peaks(params):
        """The whole-array scan over the original builder's factor terms."""
        d = seed_factor_terms(params.n, params.p, params.q)
        return whole_array_peaks(d[::-1] - d, _factor_logs(params)[2])

    @staticmethod
    def on_demand_peaks(params):
        """The scan over factor terms computed a block at a time, as
        peak_drift reads them."""
        log_hi, log_ratio, tol = _factor_logs(params)
        terms = partial(_log_abs_diff_terms, log_hi, log_ratio)
        return _scan_peaks(_ratio_blocks(params.n, terms), tol)

    def check_transition(self, n, a, z):
        params = PqParams.from_transition(n, a, z)
        peaks = build_distribution(params).peaks
        assert peaks == self.reference_peaks(params), (n, a, z)
        assert peak_drift(n, a, z)[0] == min(peaks), (n, a, z)
        return peaks

    def check_params(self, params):
        peaks = build_distribution(params).peaks
        assert peaks == self.reference_peaks(params) == self.on_demand_peaks(params), params
        return peaks

    @pytest.mark.parametrize("shift", [-1, 0, 1, 2 * _BLOCK + 1])
    def test_lengths_around_the_block(self, shift):
        n = self.B + shift
        for a, z in ((0.37, -2.0), (A_HALF, -5.0), (0.0, -3.0), (0.9, -0.5), (1e-8, -4.0)):
            self.check_transition(n, a, z)
        for p, q in ((1.1, 0.9), (1.0, 0.5), (1.001, 0.999), (0.2, 3.0)):
            self.check_params(PqParams(n, p, q))

    @pytest.mark.parametrize("n, a, lower", [
        (3 * _BLOCK + 1, 0.3332126, _BLOCK - 1),
        (3 * _BLOCK + 1, 0.3331824, _BLOCK),
        (3 * _BLOCK + 1, 0.3331219, _BLOCK + 1),
        (5 * _BLOCK + 1, 0.1998550, 2 * _BLOCK - 1),
        (5 * _BLOCK + 1, 0.1998248, 2 * _BLOCK),
        (5 * _BLOCK + 1, 0.1997946, 2 * _BLOCK + 1),
    ])
    def test_lower_peak_on_an_edge(self, n, a, lower):
        assert min(self.check_transition(n, a, -2.0)) == lower

    @pytest.mark.parametrize("n, q, top", [
        # p = 1: the ratios fall flat long before the top, which sits
        # where lo^m underflows, so the flat run crosses the edge
        (3 * _BLOCK + 1, 0.95553852, _BLOCK - 1),
        (3 * _BLOCK + 1, 0.95554042, _BLOCK),
        (3 * _BLOCK + 1, 0.95554232, _BLOCK + 1),
        # here the whole second block lies inside the flat run
        (5 * _BLOCK + 1, 0.97751672, 2 * _BLOCK - 1),
        (5 * _BLOCK + 1, 0.97751719, 2 * _BLOCK),
        (5 * _BLOCK + 1, 0.97751767, 2 * _BLOCK + 1),
    ])
    def test_flat_top_settles_on_an_edge(self, n, q, top):
        assert self.check_params(PqParams(n, 1.0, q)) == (top,)

    @pytest.mark.parametrize("shift", [-1, 1, 3])
    def test_centre_of_odd_n_on_an_edge(self, shift):
        # the centre ratio of an odd n is exactly 0: a tie on the top of a
        # unimodal distribution, a flat step in the valley of a bimodal one
        n = 2 * self.B + shift
        centre = (n - 1) // 2
        assert self.check_params(PqParams(n, 1.001, 0.999)) == (centre,)
        lower, upper = self.check_transition(n, 0.0, -2.0)
        assert lower < centre < upper


class TestEqualRatioResidual:
    def test_zero_iff_consecutive_equal(self):
        n = 512
        y = omega_finite_n(n, A_HALF, -4.0)
        params = PqParams.from_transition(n, A_HALF, -4.0, y)
        k = round(n * 0.25)
        assert abs(equal_ratio_residual(params, k)) <= 1e-10
        assert abs(log_pq_binomial(params, k) - log_pq_binomial(params, k - 1)) <= 1e-10
        # away from the solution the residual is visibly nonzero
        assert abs(equal_ratio_residual(params, k + 30)) > 1e-3

    def test_invariant_under_index_reflection(self):
        params = PqParams.from_transition(512, AsymmetryParam(0.0), -4.0)
        for k in (1, 100, 256):
            r1 = equal_ratio_residual(params, k)
            r2 = equal_ratio_residual(params, 512 - k + 1)
            assert r1 == pytest.approx(r2, abs=1e-12)

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateRatioError):
            equal_ratio_residual(PqParams(n=10, p=0.9, q=1.0), 2)

    def test_middle_index_is_zero_over_zero(self):
        # k = (n+1)/2 makes both differences vanish
        with pytest.raises(DegenerateRatioError):
            equal_ratio_residual(PqParams(n=3, p=1.1, q=0.9), 2)
        with pytest.raises(DegenerateRatioError):
            equal_ratio_residual(PqParams(n=9, p=1.0, q=0.9), 5)

    def test_ratio_beyond_the_double_range(self):
        # p^d and the ratio pass the double range: RangeError, not OverflowError
        with pytest.raises(RangeError):
            equal_ratio_residual(PqParams(8, 1e300, 0.5), 3)
        with pytest.raises(RangeError):
            equal_ratio_residual(PqParams(8, 1e100, 0.5), 3)
        # both powers overflow, their ratio (p/q)^(n-k+1) = 1e6 does not
        assert equal_ratio_residual(PqParams(8, 1e300, 1e299), 3) == pytest.approx(1e6 - 1,
                                                                                    rel=1e-9)

    def test_trivial_numerator(self):
        assert equal_ratio_residual(PqParams(n=10, p=1.0, q=0.9), 2) == -1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            equal_ratio_residual(PqParams(n=10, p=1.1, q=0.9), 0)
        with pytest.raises(DomainError):
            equal_ratio_residual(PqParams(n=10, p=1.1, q=0.9), 11)


class TestPeakDrift:
    def test_half_at_1024(self):
        k_peak, offset = peak_drift(2 ** 10, A_HALF, -5.0)
        assert abs(k_peak - 256) <= 8
        assert offset <= 0.01

    def test_zero_limit_never_exactly_centered(self):
        k_peak, offset = peak_drift(2 ** 10, AsymmetryParam(0.0), -5.0)
        assert k_peak < 512
        assert offset > 0.0

    @pytest.mark.parametrize("n, a, z", [
        (63, 0.37, -2.0),
        (4097, A_HALF, -5.0),
        (2 ** 16, 0.9, -0.5),
        (2 ** 16, 0.0, -3.0),
        (65536, 0.1465, -29.598),   # the drifted-peak regression case
    ])
    def test_peak_matches_full_build(self, n, a, z):
        k_peak, offset = peak_drift(n, a, z)
        dist = build_distribution(PqParams.from_transition(n, a, z))
        assert k_peak == min(dist.peaks)
        assert offset == abs(k_peak - n * (1.0 - as_param(a).a) / 2.0) / n

    def test_cap(self):
        with pytest.raises(DomainError):
            peak_drift(2 ** 24 + 1, 0.37, -2.0)

    def test_working_set_leaves_out_the_factor_terms(self):
        # the streamed scan holds a few blocks of 2^14 factor terms and
        # log-ratios, about 1.5 arrays of n+1 doubles at n = 2^16 (0.8 MB);
        # factor terms held for all n through the scan would make it 3.6
        n = 2 ** 16
        peak_drift(64, 0.37, -2.0)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            peak_drift(n, 0.37, -2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.75 * 8 * (n + 1)

    def test_working_set_is_a_few_blocks(self):
        # every block of factor terms is computed when the scan reaches it,
        # so the traced peak does not grow with n
        peak_drift(64, 0.37, -2.0)  # imports and caches outside the trace
        small = traced_peak(peak_drift, 2 ** 18, 0.37, -2.0)
        n = 2 ** 20
        peak = traced_peak(peak_drift, n, 0.37, -2.0)
        assert peak < 0.25 * 8 * (n + 1)
        assert peak <= small + 1e6

    def test_offset_shrinks_with_n(self):
        offsets = [peak_drift(2 ** k, A_HALF, -5.0)[1] for k in (10, 12, 14)]
        assert offsets[2] <= offsets[0] * 1.1
        assert all(o2 <= o1 * 1.1 for o1, o2 in zip(offsets, offsets[1:]))


def _probe(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on this source tree with the given arguments."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, check=True)


class TestLazyNumpy:
    @pytest.mark.parametrize("code", [
        "import pqlambert.cli",
        "import pqlambert as pq\n"
        "pq.psi(0.37, pq.BranchId.PRINCIPAL, 1.0)\n"
        "pq.omega(0.37, -2.0)\n"
        "pq.omega_finite_n(1000, 0.37, -2.0)\n"
        "params = pq.PqParams.from_transition(1000, 0.37, -2.0)\n"
        "pq.equal_ratio_residual(params, 315)",
    ])
    def test_numpy_not_imported(self, code):
        res = _probe("-c", code + "\nimport sys\nprint('numpy' in sys.modules)")
        assert res.stdout.strip() == "False"

    def test_loaded_by_first_build(self):
        res = _probe("-c", "import sys\nimport pqlambert as pq\n"
                     "pq.build_distribution(pq.PqParams(n=8, p=1.1, q=0.9))\n"
                     "print('numpy' in sys.modules)")
        assert res.stdout.strip() == "True"

    def test_eval_omega_process(self):
        # -X importtime lists every module the process imports on stderr
        res = _probe("-X", "importtime", "-m", "pqlambert.cli",
                     "eval", "omega", "--a", "0.37", "--z", "-5")
        assert res.stdout.startswith("function,")
        imported = [line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines()]
        assert "pqlambert.branches" in imported
        assert not [m for m in imported if m.split(".")[0] in ("numpy", "scipy")]

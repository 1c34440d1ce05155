"""Built-in identity suites: round trips, involution, closed-form
agreement, parametrization residuals, series consistency, integral
identities, bound envelopes, and coefficient checks.

Library functions are resolved through their modules at call time, so a
fault injected into any module is caught by the relevant suite.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import branches, calculus, core, parametrize, pqbinom, series

__all__ = ["SuiteResult", "run_selfcheck"]

_SQRT2 = math.sqrt(2.0)


class SuiteResult(NamedTuple):
    name: str
    passed: bool
    worst: float
    threshold: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name:<32s} worst={self.worst:.3e} allowed={self.threshold:.1e}"


def _grid(lo, hi, count):
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _log_grid(lo, hi, count):
    """Geometric grid between negative endpoints lo < hi < 0."""
    la, lb = math.log(-lo), math.log(-hi)
    return [-math.exp(la + (lb - la) * i / (count - 1)) for i in range(count)]


def _suite_forward(level):
    worst = 0.0
    for af in (0.1, 0.3, 0.5, 0.7, 0.9):
        bc = core.branch_constants(af)
        worst = max(worst, abs(core.forward(af, bc.w_min) - bc.f_min) / abs(bc.f_min))
        for n in range(1, 7):
            x, w = core.special_point(af, n)
            worst = max(worst, abs(core.forward(af, w) - x) / max(abs(x), 1e-300))
    return worst, 1e-13


def _suite_lambert(level):
    worst = 0.0
    count = 200 if level == "fast" else 2000
    for i in range(count):
        w = -1.0 + 31.0 * i / (count - 1)
        x = w * math.exp(w)
        back = core.lambert_w(core.BranchId.PRINCIPAL, x)
        worst = max(worst, abs(back - w) / max(1.0, abs(w)))
        wl = -1.0 - 29.0 * i / (count - 1)
        xl = wl * math.exp(wl)
        backl = core.lambert_w(core.BranchId.LOWER, xl)
        worst = max(worst, abs(backl - wl) / max(1.0, abs(wl)))
    return worst, 1e-12


def _suite_psi_roundtrip(level):
    worst = 0.0
    count = 60 if level == "fast" else 400
    for af in (0.15, 0.5, 0.85):
        bc = core.branch_constants(af)
        for x in _grid(bc.f_min, 10.0, count):
            w = branches.psi(af, core.BranchId.PRINCIPAL, x)
            worst = max(worst, abs(core.forward(af, w) - x) / max(abs(x), abs(bc.f_min)))
        for x in _grid(bc.f_min, -1e-9, count):
            w = branches.psi(af, core.BranchId.LOWER, x)
            worst = max(worst, abs(core.forward(af, w) - x) / max(abs(x), 1e-300))
    return worst, 1e-12


def _suite_closed_forms(level):
    worst = 0.0
    count = 100 if level == "fast" else 1000
    for num, den in ((1, 3), (1, 2), (1, 5), (3, 5), (1, 7)):
        a = core.AsymmetryParam.from_rational(num, den)
        bc = core.branch_constants(a)
        for x in _grid(bc.f_min, 10.0, count):
            v1 = branches.psi_closed_form(a, core.BranchId.PRINCIPAL, x)
            v2 = branches.psi(a, core.BranchId.PRINCIPAL, x)
            worst = max(worst, abs(v1 - v2) / max(1.0, abs(v2)))
        for x in _grid(bc.f_min, 0.0, count + 1)[:-1]:
            v1 = branches.psi_closed_form(a, core.BranchId.LOWER, x)
            v2 = branches.psi(a, core.BranchId.LOWER, x)
            worst = max(worst, abs(v1 - v2) / max(1.0, abs(v2)))
    return worst, 1e-11


def _suite_involution(level):
    worst = 0.0
    count = 80 if level == "fast" else 400
    for af in (0.1, 0.3, 0.5, 0.7, 0.9):
        bc = core.branch_constants(af)
        worst = max(worst, abs(branches.omega(af, bc.w_min) - bc.w_min))
        for z in _log_grid(-30.0, -1e-6, count):
            back = branches.omega(af, branches.omega(af, z))
            worst = max(worst, abs(back - z) / max(1.0, abs(z)))
    return worst, 1e-10


def _suite_alpha_param(level):
    worst = 0.0
    count = 100 if level == "fast" else 1000
    for af in (0.2, 0.5, 0.8):
        for i in range(count):
            alpha = math.exp(10.0 ** (-5.0 + 6.0 * i / (count - 1)))
            pt = parametrize.param_alpha(af, alpha)
            worst = max(worst, abs(core.forward(af, pt.psi0) - pt.x) / max(abs(pt.x), 1e-300))
            worst = max(worst, abs(core.forward(af, pt.psi1) - pt.x) / max(abs(pt.x), 1e-300))
            worst = max(worst, abs(pt.psi0 - math.log(alpha) - pt.psi1))
    return worst, 1e-12


def _suite_series(level):
    # each sub-check is normalized by its own allowance; pass iff max <= 1
    worst = 0.0
    # exact low-order anchors of the branch-point expansion at a = 1/2
    s = series.branch_point_series(0.5, "psi0", 5)
    golden = (_SQRT2, -2.0 / 3.0, 41.0 / (72.0 * _SQRT2), -29.0 / 108.0,
              9241.0 / (34560.0 * _SQRT2))
    for got, want in zip(s.coeffs, golden):
        worst = max(worst, abs(got - want) / abs(want) / 1e-10)
    for af in (0.25, 0.6):
        bc = core.branch_constants(af)
        tz = series.taylor_at_zero(af, 12)
        for x in _grid(-0.4 * abs(bc.f_min), 0.4 * abs(bc.f_min), 21):
            ref = branches.psi(af, core.BranchId.PRINCIPAL, x)
            tail = abs(tz.coeffs[-1] * x ** tz.order)
            worst = max(worst, abs(tz.evaluate(x) - ref) / max(10.0 * tail, 1e-13))
        bp = series.branch_point_series(af, "psi1", 12)
        for x in _grid(bc.f_min * 0.9999, bc.f_min * 0.99, 11):
            ref = branches.psi(af, core.BranchId.LOWER, x)
            worst = max(worst, abs(bp.evaluate(x) - ref) / max(1.0, abs(ref)) / 1e-10)
        om = series.branch_point_series(af, "omega", 12)
        for z in _grid(bc.w_min * 1.05, bc.w_min * 0.95, 11):
            worst = max(worst, abs(om.evaluate(z) - branches.omega(af, z)) / 1e-10)
        worst = max(worst, abs(series.asymptotic_psi0(af, 1e8, 3)
                               - branches.psi(af, core.BranchId.PRINCIPAL, 1e8)) / 1e-10)
        worst = max(worst, abs(series.asymptotic_psi1(af, -1e-9, 3)
                               - branches.psi(af, core.BranchId.LOWER, -1e-9)) / 1e-10)
    return worst, 1.0


def _suite_integrals(level):
    worst = 0.0
    avals = (0.0, 0.5) if level == "fast" else (0.0, 0.2, 1.0 / 3.0, 0.5, 0.6, 0.875)
    for af in avals:
        closed = calculus.integral_omega(af)
        quadv = calculus.integral_omega_quadrature(af, 1e-6)
        worst = max(worst, abs(quadv - closed) / abs(closed))
    for af in ((0.5,) if level == "fast" else (0.2, 0.5, 0.8)):
        for br in (core.BranchId.PRINCIPAL, core.BranchId.LOWER):
            closed = calculus.integral_psi(af, br)
            quadv = calculus.integral_psi_quadrature(af, br)
            worst = max(worst, abs(quadv - closed) / max(1.0, abs(closed)))
    return worst, 1e-6


def _suite_derivatives(level):
    worst = 0.0
    for af in (0.3, 0.6):
        bc = core.branch_constants(af)
        want = series.derivative_series_check(af)
        got = [0.0] + [calculus.psi_derivative(af, core.BranchId.PRINCIPAL, 0.0, n)
                       for n in (1, 2, 3)]
        for g, w in zip(got, want):
            worst = max(worst, abs(g - w) / max(1.0, abs(w)))
        for x in (0.3 * bc.f_min, 0.5, 2.0):
            h = 1e-6 * max(1.0, abs(x))
            fd = (calculus.psi_primitive(af, core.BranchId.PRINCIPAL, x + h)
                  - calculus.psi_primitive(af, core.BranchId.PRINCIPAL, x - h)) / (2 * h)
            w = branches.psi(af, core.BranchId.PRINCIPAL, x)
            worst = max(worst, abs(fd - w) / max(1.0, abs(fd)))
            # the paper's P_n formula, well conditioned on the principal branch
            # at moderate a, against the series reversion
            ch, sh = math.cosh(af * w), math.sinh(af * w)
            for n, poly in enumerate(calculus.pn_sequence(af, 8), start=1):
                want = poly(ch, sh) * math.exp(-n * w) / (af * ch + sh) ** (2 * n - 1)
                got = calculus.psi_derivative(af, core.BranchId.PRINCIPAL, x, n)
                worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    return worst, 1e-7


def _suite_envelopes(level):
    worst = 0.0
    count = 60 if level == "fast" else 300
    for af in (0.1, 0.45, 0.9):
        thr = series._envelope_threshold(af)
        for i in range(count):
            x = thr * 1000.0 ** (i / (count - 1))
            lo, hi = series.psi0_bounds(af, x)
            v = branches.psi(af, core.BranchId.PRINCIPAL, x)
            slack = 32.0 * math.ulp(max(1.0, abs(v)))
            worst = max(worst, lo - v - slack, v - hi - slack, 0.0)
        lo_end = -0.5 * ((1.0 - af) / (6.0 * af + 2.0)) ** ((1.0 - af) / (2.0 * af))
        for i in range(1, count):
            x = lo_end * (1.0 - (i - 1.0) / count)
            lo, hi, llo = series.psi1_bounds(af, x)
            v = branches.psi(af, core.BranchId.LOWER, x)
            slack = 32.0 * math.ulp(max(1.0, abs(v)))
            worst = max(worst, lo - v - slack, v - hi - slack, llo - v - slack, 0.0)
    return worst, 0.0  # any positive excess is a failure


def _suite_pq_coefficients(level):
    worst = 0.0
    sizes = (8, 16, 32) if level == "fast" else (8, 16, 32, 48, 64)
    for n in sizes:
        for (p, q) in ((1.1, 0.9), (0.97, 0.55), (1.0001, 0.9999)):
            params = pqbinom.PqParams(n=n, p=p, q=q)
            dist = pqbinom.build_distribution(params)
            if len(dist.peaks) not in (1, 2):
                return math.inf, 1e-10
            for k in range(n + 1):
                direct = math.log(math.prod(
                    (p ** (n - k + j) - q ** (n - k + j)) / (p ** j - q ** j)
                    for j in range(1, k + 1)))
                worst = max(worst, abs(dist.log_coeffs[k] - direct))
            worst = max(worst, abs(float(dist.masses().sum()) - 1.0))
    return worst, 1e-10


def _suite_peak_scaling(level):
    worst = 0.0
    a_half = core.AsymmetryParam.from_rational(1, 2)
    w_inf = branches.omega(0.5, -5.0)
    err_small = abs(branches.omega_finite_n(2 ** 10, a_half, -5.0) - w_inf)
    big = 2 ** 14 if level == "fast" else 2 ** 20
    err_big = abs(branches.omega_finite_n(big, a_half, -5.0) - w_inf)
    if err_big >= err_small:
        return math.inf, 1.0
    worst = max(worst, err_big / 1e-3)
    if level == "full":
        offsets = [pqbinom.peak_drift(2 ** k, a_half, -5.0)[1] for k in (10, 12, 14)]
        for i in range(len(offsets) - 1):
            if offsets[i + 1] > offsets[i] * 1.1:
                return math.inf, 1.0
    return worst, 1.0


_SUITES = [
    ("forward map identities", _suite_forward),
    ("lambert round trip", _suite_lambert),
    ("branch round trip", _suite_psi_roundtrip),
    ("closed-form agreement", _suite_closed_forms),
    ("transition involution", _suite_involution),
    ("alpha parametrization", _suite_alpha_param),
    ("series consistency", _suite_series),
    ("integral identities", _suite_integrals),
    ("derivatives and primitive", _suite_derivatives),
    ("bound envelopes", _suite_envelopes),
    ("pq coefficients", _suite_pq_coefficients),
    ("peak scaling", _suite_peak_scaling),
]


def run_selfcheck(level: str = "fast") -> list[SuiteResult]:
    """Run every suite at the given level ("fast" or "full")."""
    if level not in ("fast", "full"):
        raise core.UnsupportedError(f"level must be 'fast' or 'full', got {level!r}")
    results = []
    for name, fn in _SUITES:
        try:
            worst, threshold = fn(level)
            passed = worst <= threshold
        except Exception as exc:  # a crash inside a suite is a failure
            worst, threshold, passed = math.inf, 0.0, False
            name = f"{name} [{type(exc).__name__}]"
        results.append(SuiteResult(name=name, passed=passed, worst=worst,
                                   threshold=threshold))
    return results

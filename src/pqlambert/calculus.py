"""Derivatives of the inverse branches by Lagrange inversion of the local
forward series (the paper's polynomial recurrence P_n stays as a
cross-check), the primitive function, closed-form definite integrals, and
numeric quadrature for the transition-function integral identity."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from . import _LAZY, branches
from .core import (
    AccuracyError,
    AsymmetryParam,
    BranchId,
    DomainError,
    RangeError,
    SingularityError,
    _TINY,
    _a_value,
    _check_branch_domain,
    _check_int,
    _check_rel_tol,
    _interior_a,
    _is_principal,
    as_param,
    branch_constants,
)
from .series import _inverse_derivative, _local_coeffs

__all__ = list(_LAZY["calculus"])

DERIVATIVE_ORDER_MAX = 8
_TS_T_MAX = 4.0   # tanh-sinh nodes beyond t = 4 lie within 1e-37*r of an endpoint
_TS_LEVELS = 10   # finest step 2^-10: at most 8193 nodes per integral
_S_UNDERFLOW = 1074.0 * math.log(2.0)  # exp(-s) is the least subnormal here
# integral_psi_quadrature needs N >= this/rel_tol doubles in [f_min, 0]: over
# rel_tol in [1e-10, 1e-3] it measured up to 56/N off (3.6/N principal), at
# most 0.21*rel_tol from this cutoff up (0.63*rel_tol from 64/rel_tol up).
_QUAD_MIN_DOUBLES = 128.0


class PnPolynomial(NamedTuple):
    """Numerator polynomial of the n-th derivative formula.

    Sparse map from (i, j) to the coefficient of X^i Y^j, where
    X = cosh(a*psi) and Y = sinh(a*psi).  P_1 = 1, and each step of the
    recurrence raises the total degree by at most one.
    """

    n: int
    a: AsymmetryParam
    terms: dict

    def __call__(self, x: float, y: float) -> float:
        return sum(c * x ** i * y ** j for (i, j), c in self.terms.items())

    def degree(self) -> int:
        return max(i + j for (i, j) in self.terms)


def pn_first(a) -> PnPolynomial:
    return PnPolynomial(n=1, a=as_param(a), terms={(0, 0): 1.0})


def pn_next(p: PnPolynomial) -> PnPolynomial:
    """One step of the derivative recurrence:

    P_{n+1} = P_n*((a-3na)X + (a^2-n-2na^2)Y)
              + dP_n/dX*(a^2 XY + a Y^2) + dP_n/dY*(a XY + a^2 X^2).
    """
    a = p.a.a
    n = p.n
    cx = a - 3.0 * n * a
    cy = a * a - n - 2.0 * n * a * a
    out: dict = {}

    def add(i, j, c):
        if c != 0.0:
            key = (i, j)
            out[key] = out.get(key, 0.0) + c

    for (i, j), c in p.terms.items():
        add(i + 1, j, c * cx)
        add(i, j + 1, c * cy)
        if i:
            add(i, j + 1, i * c * a * a)   # dX term * a^2 X Y
            add(i - 1, j + 2, i * c * a)   # dX term * a Y^2
        if j:
            add(i + 1, j, j * c * a)       # dY term * a X Y
            add(i + 2, j - 1, j * c * a * a)  # dY term * a^2 X^2
    return PnPolynomial(n=n + 1, a=p.a, terms=out)


@lru_cache(maxsize=256)
def _pn_cached(a_value: float, nmax: int) -> tuple:
    seq = [pn_first(AsymmetryParam(a_value))]
    for _ in range(nmax - 1):
        seq.append(pn_next(seq[-1]))
    return tuple(seq)


def pn_sequence(a, nmax: int) -> tuple:
    """P_1 .. P_nmax for a fixed asymmetry (cached)."""
    aa = _interior_a(a)
    _check_int("nmax", nmax, 1, DERIVATIVE_ORDER_MAX)
    return _pn_cached(aa, nmax)


def psi_derivative(a, branch: BranchId, x: float, n: int = 1) -> float:
    """n-th derivative of the selected inverse branch at x.

    Inverts the forward series at w = psi(x), f(w + h) - x = sum_k c_k h^k
    with c_k = f^(k)(w)/k!, into psi(x + y) - w = sum_m d_m y^m, and
    returns n!*d_n, formed alone in O(n^2) by the Lagrange-Burmann formula
    n*d_n = [h^(n-1)] (sum_k c_k h^(k-1))^(-n) (series._inverse_derivative).
    The c_k enter scaled by c_1 = f'(w), and 1/c_1 is applied last, so the
    result overflows (raising RangeError) only where the derivative itself
    does.  f'(w) vanishes at the branch point, so x = f_min is rejected as
    a singularity.  The paper's closed form
    P_n(cosh(a*psi), sinh(a*psi)) * exp(-n*psi) /
    (a*cosh(a*psi) + sinh(a*psi))^(2n-1), with P_n from pn_sequence, gives
    the same values but cancels on the lower branch and near a = 1.
    """
    aa = _interior_a(a)
    _check_int("n", n, 1, DERIVATIVE_ORDER_MAX)
    bc, x = _check_branch_domain(aa, branch, x)
    w = branches._solve_branch(aa, bc, branch, x)
    if w == bc.w_min:  # the solver's branch-point band
        raise SingularityError(
            f"derivative is singular at the branch point x = {bc.f_min!r}")
    try:
        inv_c1, r = _local_coeffs(aa, w, n)
    except OverflowError as exc:
        raise RangeError(f"derivative magnitude overflows at x = {x!r}") from exc
    value = _inverse_derivative(r)
    for _ in range(n):  # the partial products lie between the first and the last
        value *= inv_c1
    if not math.isfinite(value):
        raise RangeError(f"derivative magnitude overflows at x = {x!r}")
    return value


def psi_primitive(a, branch: BranchId, x: float) -> float:
    """Antiderivative of the selected branch:

    x*psi(x) - x/(1-a^2) + a*x*coth(a*psi(x))/(1-a^2),
    with the limits a/(1-a^2) at x=0 (principal) and
    f_min*(w_min - 2/(1-a^2)) at the branch point where coth = -1/a.
    Where a term of that sum overflows (large x), the value is taken as
    x*(psi + (a*coth(a*psi) - 1)/(1-a^2)), with a*coth(t) - 1 =
    2a*exp(-2t)/(-expm1(-2t)) - (1-a) free of cancellation for t > 0, and
    RangeError is raised only where it leaves the double range.
    """
    aa = _interior_a(a)
    bc, x = _check_branch_domain(aa, branch, x)
    one_m = 1.0 - aa * aa
    if x == 0.0:
        return aa / one_m
    psiv = branches._solve_branch(aa, bc, branch, x)
    if psiv == bc.w_min:  # the solver's branch-point band
        return bc.f_min * (bc.w_min - 2.0 / one_m)
    # at a subnormal a, a*psi keeps a few bits (or is 0): take the a -> 0 limit x/psi
    coth_term = x / psiv if aa < _TINY else aa * (x / math.tanh(aa * psiv))
    value = x * psiv - x / one_m + coth_term / one_m
    if math.isfinite(value):
        return value
    t = -2.0 * aa * psiv  # only x >> 1 gets here, so psi > 0 and t < 0
    k = (2.0 * aa * math.exp(t) / -math.expm1(t) - (1.0 - aa)) / ((1.0 - aa) * (1.0 + aa))
    value = x * (psiv + k)
    if not math.isfinite(value):
        raise RangeError(f"primitive magnitude overflows at x = {x!r}")
    return value


def integral_psi(a, branch: BranchId) -> float:
    """Closed form of the branch integral over [f_min, 0].

    Principal: (a + 2*f_min)/(1-a^2) - f_min*w_min;
    lower:     2*f_min/(1-a^2) - f_min*w_min.
    Where f_min is subnormal (-0.0 at a = 5e-324) the sum is taken for
    the integral over a, with f_min/a from w_min, and multiplied by a last.
    """
    aa = _interior_a(a)
    bc = branch_constants(aa)
    f_min, unit = bc.f_min, 1.0
    if f_min > -_TINY:
        f_min, unit = -math.exp(bc.w_min) / math.sqrt((1.0 - aa) * (1.0 + aa)), aa
    lead = aa / unit if _is_principal(branch) else 0.0
    return ((lead + 2.0 * f_min) / (1.0 - aa * aa) - f_min * bc.w_min) * unit


def _tanh_sinh(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Tanh-sinh (double-exponential) quadrature of f over [lo, hi].

    x = c + r*tanh(pi/2*sinh(t)) makes the integrand decay double
    exponentially in t, so the trapezoid rule in t converges fast even
    with integrable endpoint singularities.  Nodes are placed by their gap
    r*(1 - tanh(u)) to the endpoint, and one that rounds onto it is
    skipped.  Each level halves the step; the error estimate is the
    difference between two successive levels.  Returns (value, error) once
    the error is at most tol*max(1, |value|), from level 3 on; raises
    AccuracyError when level _TS_LEVELS is reached first.
    """
    c, r = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def node_sum(t, step):
        acc = 0.0
        while t <= _TS_T_MAX:
            e = math.exp(-math.pi * math.sinh(t))  # 1 - tanh(u) = 2e/(1+e)
            gap = 2.0 * r * e / (1.0 + e)
            weight = 2.0 * math.pi * math.cosh(t) * e / (1.0 + e) ** 2
            for x in (lo + gap, hi - gap):
                if lo < x < hi:
                    acc += weight * f(x)
            t += step
        return r * acc

    h = 1.0
    total = 0.5 * math.pi * r * f(c) + node_sum(h, h)
    value = h * total
    for level in range(1, _TS_LEVELS + 1):
        h *= 0.5
        total += node_sum(h, 2.0 * h)
        prev, value = value, h * total
        err = abs(value - prev)
        if level >= 3 and err <= tol * max(1.0, abs(value)):
            return value, err
    raise AccuracyError(
        f"tanh-sinh rule did not converge on [{lo!r}, {hi!r}] by level {_TS_LEVELS}",
        value=value, estimate=err)


def integral_psi_quadrature(a, branch: BranchId, rel_tol: float = 1e-9) -> float:
    """Numeric check of integral_psi by tanh-sinh quadrature.

    The square-root behavior at the branch point is removed with the
    substitution x = f_min + t^2; the lower branch additionally maps its
    logarithmic endpoint at 0 through x = -exp(-s).  Raises AccuracyError
    where [f_min, 0] holds fewer than _QUAD_MIN_DOUBLES/rel_tol doubles
    (f_min > -6.3e-319 at rel_tol = 1e-3): psi is sampled too coarsely.
    """
    aa = _interior_a(a)
    _check_rel_tol(rel_tol)
    bc = branch_constants(aa)
    fmin = bc.f_min
    if -fmin < _QUAD_MIN_DOUBLES * 2.0 ** -1074 / rel_tol:
        raise AccuracyError(f"[f_min, 0] = [{fmin!r}, 0] holds too few doubles "
                            f"to resolve rel_tol = {rel_tol!r}")

    def by_t(t):
        return 2.0 * t * branches._solve_branch(aa, bc, branch, fmin + t * t)

    if _is_principal(branch):
        val, _ = _tanh_sinh(by_t, 0.0, math.sqrt(-fmin), rel_tol / 4.0)
        return val
    # lower branch: [f_min, f_min/2] via t, [f_min/2, 0) via x = -exp(-s)
    v1, _ = _tanh_sinh(by_t, 0.0, math.sqrt(-fmin / 2.0), rel_tol / 8.0)
    s0 = -math.log(-fmin / 2.0)
    # the exp(-60) tail is far below any allowed tolerance; at a < 3.1e-297
    # the range ends before -exp(-s) underflows (a 1e-20 tail at a = 1e-300)
    s_max = min(s0 + 60.0, _S_UNDERFLOW)

    def by_s(s):
        xv = -math.exp(-s)
        return branches._solve_branch(aa, bc, branch, xv) * math.exp(-s)

    v2, _ = _tanh_sinh(by_s, s0, s_max, rel_tol / 8.0)
    return v1 + v2


def integral_omega(a) -> float:
    """Closed form of the transition-function integral over (-inf, 0):

    pi^2 / (3*(a^2 - 1)); diverges at a = 1.
    """
    aa = _a_value(a)
    if aa == 1.0:
        raise DomainError("the integral diverges at a = 1")
    return math.pi ** 2 / (3.0 * (aa * aa - 1.0))


def integral_omega_quadrature(a, rel_tol: float) -> float:
    """Tanh-sinh quadrature of the transition function over (-inf, 0).

    Tail model: toward -inf the integrand decays like a pure exponential
    (e^((1-a)z) for a > 0; z*e^z at a = 0), so the cut at -z_cut carries an
    analytic correction omega(-z_cut)/(1-a) (times (z+1)/z at a = 0).
    Toward 0^- the substitution z = -exp(-s) turns the logarithmic blowup
    into a smooth exponentially decaying integrand, truncated at s = 60
    with negligible remainder.  Raises AccuracyError when the combined
    error estimate exceeds rel_tol times the result.
    """
    aa = _a_value(a)
    if aa == 1.0:
        raise DomainError("the integral diverges at a = 1")
    _check_rel_tol(rel_tol)

    # cut where the integrand itself is below rel_tol/10 (exponential tail)
    z_cut = 30.0
    while abs(branches.omega(aa, -z_cut)) > rel_tol / 10.0 and z_cut < 4000.0:
        z_cut *= 1.5
    omega_cut = branches.omega(aa, -z_cut)
    if aa > 0.0:
        tail_left = omega_cut / (1.0 - aa)
    else:
        tail_left = omega_cut * (z_cut + 1.0) / z_cut
    tail_left_err = 0.5 * abs(tail_left)

    v1, e1 = _tanh_sinh(lambda z: branches.omega(aa, z), -z_cut, -1.0, rel_tol / 4.0)

    def by_s(s):
        return branches.omega(aa, -math.exp(-s)) * math.exp(-s)

    v2, e2 = _tanh_sinh(by_s, 0.0, 60.0, rel_tol / 4.0)
    tail_right_err = 65.0 * math.exp(-60.0)

    value = v1 + v2 + tail_left
    estimate = e1 + e2 + tail_left_err + tail_right_err
    if estimate > rel_tol * abs(value):
        raise AccuracyError(
            f"achieved error estimate {estimate!r} exceeds rel_tol*|I|",
            value=value, estimate=estimate)
    return value

"""Numerical evaluation of the two inverse branches psi_0/psi_-1 of
sinh(a*w)*exp(w), their closed forms at special rational a, the branch
transition function omega, and its finite-n analogue."""

from __future__ import annotations

import enum
import math
import sys
from collections import namedtuple

from ._rootfind import newton_bracketed
from .core import (
    BranchConstants,
    BranchId,
    DomainError,
    UnsupportedError,
    _BAND,
    _LN2,
    _LOG_DBL_MAX,
    _LOG_TINY,
    _LOWER,
    _PRINCIPAL,
    _TINY,
    _a_value,
    _check_branch_domain,
    _check_int,
    _check_z,
    _constants_for,
    _f,
    _log_abs_em1,
    _log_form,
    _lower_log,
    as_param,
    lambert_w,
)

__all__ = [
    "ClosedFormTag",
    "PsiQuery",
    "omega",
    "omega_closed_form",
    "omega_finite_n",
    "psi",
    "psi_closed_form",
]

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)
_HALF_MAX = 0.5 * sys.float_info.max
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10  # hi has 32 zero bits


class ClosedFormTag(enum.Enum):
    """Which special rational (num, den) asymmetry, if any, a parameter matches exactly."""

    A13 = (1, 3)
    A12 = (1, 2)
    A15 = (1, 5)
    A35 = (3, 5)
    A17 = (1, 7)
    NONE = None

    @classmethod
    def classify(cls, a) -> "ClosedFormTag":
        exact = as_param(a).exact
        return _NONE if exact is None else _TAG_OF.get(exact.as_integer_ratio(), _NONE)


_TAG_OF = {tag.value: tag for tag in ClosedFormTag}  # (num, den) -> tag
_NONE = ClosedFormTag.NONE


class PsiQuery(namedtuple("PsiQuery", "a branch x")):
    """Validated evaluation request for one inverse branch: ``a`` (an
    AsymmetryParam), ``branch`` and ``x`` (a float on that branch)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, a, branch: BranchId, x: float):
        a = as_param(a)
        return super().__new__(cls, a, branch, _check_branch_domain(a.a, branch, x)[1])


def _bp_seed(bc, t: float, sign: float, a: float) -> float:
    """Four-term branch-point series seed in the scaled coordinate t."""
    s = math.sqrt(t)
    c3 = (11.0 - 3.0 * a * a) / (18.0 * _SQRT2)
    c4 = -(43.0 - 27.0 * a * a) / 135.0
    return bc.w_min + sign * _SQRT2 * s - (2.0 / 3.0) * t + sign * c3 * t * s + c4 * t * t


def _asym0_seed(a: float, x: float) -> float:
    """Three-term large-x expansion of the principal branch, for 1 <= x <= DBL_MAX/2."""
    two_x = 2.0 * x
    y = two_x ** (-2.0 * a / (1.0 + a))
    ap1 = 1.0 + a
    return (math.log(two_x) / ap1 + y / ap1
            + (1.0 - 3.0 * a) * y * y / (2.0 * ap1 * ap1)
            + (10.0 * a * a - 7.0 * a + 1.0) * y ** 3 / (3.0 * ap1 ** 3))


def _asym1_seed(a: float, x: float) -> float:
    """Three-term small-|x| expansion of the lower branch."""
    z = (-2.0 * x) ** (2.0 * a / (1.0 - a))
    am1 = 1.0 - a
    return (math.log(-2.0 * x) / am1 + z / am1
            + (1.0 + 3.0 * a) * z * z / (2.0 * am1 * am1)
            + (10.0 * a * a + 7.0 * a + 1.0) * z ** 3 / (3.0 * am1 ** 3))


def _far_root(a: float, bc: BranchConstants, branch: BranchId, x: float) -> float:
    """Branch value where the residual f(w) - x of _solve_branch cannot resolve
    w: x or a subnormal, f or f' overflowing near the root.  f(a, y)/a =
    y*e^((1-a)y)*xi(2a*y), xi(t) = expm1(t)/t, keeps every bit of a subnormal
    2a*y.  Principal roots with x/a < 1 solve f/a = x/a, from y = x/a; every
    other root solves the log form log|f/a| = l (core._log_form), with
    l = log|x/a| formed from the binary exponents of x and a."""
    u = x / a
    if branch is _PRINCIPAL and u < 1.0:
        def g(y):
            t = 2.0 * a * y
            xi = math.expm1(t) / t if t else 1.0
            e = math.exp((1.0 - a) * y)
            return y * e * xi - u, e * ((1.0 + a) * y * xi + 1.0)

        # y < f(y)/a for y > 0 and for w_min < y < 0, so the root lies
        # between u and 0 or w_min; at x = +-0, g(u) = 0 returns x itself,
        # sign included (an underflowed -0.0)
        lo, hi = (0.0, u) if u > 0.0 else (bc.w_min, u)
        return newton_bracketed(g, lo, hi, u, increasing=True)
    mx, ex = math.frexp(abs(x))
    ma, ea = math.frexp(a)
    k = ex - ea  # k*_LN2_HI is exact
    l = k * _LN2_HI + (k * _LN2_LO + math.log(mx / ma))

    def h(y):
        r, yr = _log_form(a, l, y)
        return r, yr / y

    # bounds from expm1(t)/(2a) < e^t/(2a) (principal) and 1/(2a) (lower),
    # from xi(t) >= e^(t/2) (principal), and f(a, 0.5)/a < 1 <= x/a
    lo = l + math.log(2.0 * a)
    if branch is _PRINCIPAL:
        lo /= 1.0 + a  # the root to rounding for large t
        seed = l - math.log1p(l)  # below W0(e^l), the root at t = 0
        return newton_bracketed(h, max(lo, 0.5), max(l, 1.0),
                                seed if 2.0 * a * seed <= 1.0 else lo, increasing=True)
    return newton_bracketed(h, lo / (1.0 - a), bc.w_min, l - math.log(-l), increasing=True)


def _solve_branch(a: float, bc: BranchConstants, branch: BranchId, x: float) -> float:
    """Branch value at a validated x for 0 < a < 1, given the constants bc of a."""
    fmin, wmin, scale = bc
    if x - fmin <= _BAND * abs(fmin):  # the branch point: the one snap to w_min
        # f_min rounds to -0.0 only at a = 5e-324; x = +-0 lies above the
        # true f_min there, on the principal root 0
        return wmin if fmin else x
    if abs(x) < _TINY or a < _TINY:
        return _far_root(a, bc, branch, x)

    def g(w):
        e = math.exp((1.0 - a) * w)
        s = math.expm1(2.0 * a * w)
        return 0.5 * e * s - x, 0.5 * e * ((1.0 + a) * s + 2.0 * a)

    t = (x - fmin) / scale  # in [0, 1/(1-a^2))
    t_max = 1.0 / ((1.0 - a) * (1.0 + a))
    if branch is _PRINCIPAL:
        if x < 0.0:
            if t <= 0.6 * t_max:
                seed = _bp_seed(bc, t, 1.0, a)
            else:
                # |x| < 0.4|L_a| < radius of the Taylor series at 0
                u = x / a
                seed = u - u * u + (9.0 - a * a) * u ** 3 / 6.0
            return newton_bracketed(g, wmin, 0.0, seed, increasing=True)
        if x > _HALF_MAX:  # f'(w) = (1+a)x + ... overflows near the root
            return _far_root(a, bc, branch, x)
        # 0.5*log1p(2x) is the elementary a=1 lower bound
        seed = _asym0_seed(a, x) if x >= 1.0 else 0.5 * math.log1p(2.0 * x)
        # f raises OverflowError once (1-a)*w or 2a*w passes log(DBL_MAX)
        w_cap = _LOG_DBL_MAX / max(1.0 - a, 2.0 * a)
        hi = min(max(seed, 0.0) + 1.0, w_cap)
        step = 1.0
        while _f(a, hi) < x:
            if hi == w_cap:
                return _far_root(a, bc, branch, x)
            hi = min(hi + step, w_cap)
            step *= 2.0
        return newton_bracketed(g, 0.0, hi, seed, increasing=True)
    # lower branch: monotone decreasing on (-inf, w_min]
    if t <= 0.5 * t_max:
        seed = _bp_seed(bc, t, -1.0, a)
    else:
        seed = _asym1_seed(a, x)
    lo = min(seed, wmin) - 1.0
    step = 1.0
    while _f(a, lo) < x:
        lo -= step
        step *= 2.0
    return newton_bracketed(g, lo, wmin, seed, increasing=False)


def psi(a, branch: BranchId, x: float) -> float:
    """Inverse of the forward map on one real branch.

    Solves sinh(a*w)*exp(w) = x for w, with the principal branch returning
    w >= w_min (defined for x >= f_min) and the lower branch w <= w_min
    (defined for f_min <= x < 0).  Safeguarded Newton iteration inside a
    guaranteed monotonicity bracket; seeds come from the branch-point
    series near f_min, the large/small-x expansions, or the Taylor series
    at zero, whichever region applies.
    """
    aa = _a_value(a)
    bc, x = _check_branch_domain(aa, branch, x)
    if aa == 1.0:
        return 0.5 * (math.log1p(2.0 * x) if 2.0 * x < math.inf else math.log(x) + _LN2)
    return _solve_branch(aa, bc, branch, x)


def _cbrt(t: float) -> float:
    return math.copysign(abs(t) ** (1.0 / 3.0), t)


def _psi_13(branch: BranchId, x: float) -> float:
    root = math.sqrt(max(2.0 * x + 0.25, 0.0))
    if branch is _PRINCIPAL:
        # log(0.5 + root) with 0.5 + root = 1 + 2x/(0.5 + root): no cancellation as x -> 0
        return 1.5 * math.log1p(2.0 * x / (0.5 + root))
    # 1/2 - root rewritten to avoid cancellation as x -> 0^-
    return 1.5 * math.log(-2.0 * x / (0.5 + root))


def _psi_12(branch: BranchId, x: float) -> float:
    if branch is _PRINCIPAL:
        if x >= _SQRT3 / 9.0:
            # log(2/sqrt(3)*cosh(theta/3)), theta = acosh(y), y = 3*sqrt(3)x, as
            # log(2/sqrt(3)) + log1p(2sinh^2(theta/6)), and theta as
            # log(y) + log1p(sqrt(1 - 1/y^2)): finite up to the largest double
            r = 1.0 / (3.0 * _SQRT3) / x
            theta = (1.5 * math.log(3.0) + math.log(x)
                     + math.log1p(math.sqrt(max((1.0 - r) * (1.0 + r), 0.0))))
            return math.log(4.0 / 3.0) + 2.0 * math.log1p(2.0 * math.sinh(theta / 6.0) ** 2)
        # 2/sqrt(3)*cos(acos(3*sqrt(3)x)/3) == 1 - 2sin^2(d/2) - sin(d)/sqrt(3)
        # with d = -asin(3*sqrt(3)x)/3; log1p keeps full relative accuracy
        # as psi -> 0 with x
        d = -math.asin(max(min(3.0 * _SQRT3 * x, 1.0), -1.0)) / 3.0
        return 2.0 * math.log1p(-2.0 * math.sin(0.5 * d) ** 2 - math.sin(d) / _SQRT3)
    # cos((acos(3*sqrt(3)x) + 4*pi)/3) == sin(asin(-3*sqrt(3)x)/3) for x < 0
    u = math.asin(max(min(-3.0 * _SQRT3 * x, 1.0), -1.0))
    return 2.0 * math.log(2.0 / _SQRT3 * math.sin(u / 3.0))


def _acos_shifted(x: float) -> float:
    """acos(1 + 27x) for -2/27 <= x <= 0, via the half-angle form.

    acos(1 - e) = 2*asin(sqrt(e/2)) avoids the catastrophic conditioning of
    acos near argument 1.
    """
    return 2.0 * math.asin(min(math.sqrt(max(-13.5 * x, 0.0)), 1.0))


def _psi_15(branch: BranchId, x: float) -> float:
    if branch is _PRINCIPAL:
        if math.copysign(1.0, x) > 0.0:  # x >= +0.0; -0.0 keeps its sign below
            # 2/3*cosh(v/3) + 1/3 == 1 + 4/3*sinh^2(v/6), v = acosh(1+27x)
            # = 2*asinh(sqrt(13.5x)); sqrt(13.5)*sqrt(x) cannot overflow
            sh = math.sinh(math.asinh(math.sqrt(13.5) * math.sqrt(x)) / 3.0)
            return 2.5 * math.log1p(4.0 / 3.0 * sh * sh)
        # 2/3*cos(u/3) + 1/3 == 1 - 4/3*sin^2(u/6), u = acos(1+27x)
        u = _acos_shifted(x)
        return 2.5 * math.log1p(-4.0 / 3.0 * math.sin(u / 6.0) ** 2)
    # cos((acos(1+27x)+4*pi)/3) + 1/2 == sin^2(u/6) + sqrt(3)/2*sin(u/3), u = acos(1+27x)
    u = _acos_shifted(x)
    return 2.5 * math.log(2.0 / 3.0 * math.sin(u / 6.0) ** 2 + math.sin(u / 3.0) / _SQRT3)


def _aux_35(x: float) -> float:
    """Real root of v^3 + 2xv - 1/8 = 0 via the depressed-cubic radicals."""
    e = 4.0 * (8.0 * x / 3.0) ** 3  # s^2 = 1 + e
    if e <= 0.0:
        # x <= 0: s < 1 and 1-s = -e/(1+s) avoids cancellation as x -> 0^-
        s = math.sqrt(max(1.0 + e, 0.0))
        return (_cbrt(-e / (1.0 + s)) + _cbrt(1.0 + s)) / _cbrt(16.0)
    # x > 0: cbrt(1-s)+cbrt(1+s) rationalized to 2/((1+s)^(2/3) + e^(1/3) + (s-1)^(2/3))
    s = math.sqrt(1.0 + e)
    den = (1.0 + s) ** (2.0 / 3.0) + e ** (1.0 / 3.0) + (e / (1.0 + s)) ** (2.0 / 3.0)
    return 2.0 / (den * _cbrt(16.0))


def _psi_35(branch: BranchId, x: float) -> float:
    v = _aux_35(x)
    tv = 2.0 * v
    root = math.sqrt(max(2.0 - tv ** 1.5, 0.0))
    if branch is _PRINCIPAL:
        return 2.5 * math.log((tv ** 0.75 + root) / (2.0 * tv ** 0.25))
    return 2.5 * math.log((tv ** 0.75 - root) / (2.0 * tv ** 0.25))


def _aux_17(x: float) -> float:
    s2 = (2.0 * x / 3.0) ** 3 + (x / 8.0) ** 2
    s = math.sqrt(max(s2, 0.0))
    if x <= 0.0:
        # -x/8 - s = (-8x^3/27)/(-x/8 + s): keeps the small root exact as x -> 0^-
        hi = -x / 8.0 + s
        small = 0.0 if hi == 0.0 else (-8.0 * x ** 3 / 27.0) / hi
        return _cbrt(hi) + _cbrt(small)
    # for x>0 the two cube roots nearly cancel; rationalize their difference
    hi = s + x / 8.0
    lo = (2.0 * x / 3.0) ** 3 / hi  # s - x/8, rationalized
    den = hi ** (2.0 / 3.0) + (lo * hi) ** (1.0 / 3.0) + lo ** (2.0 / 3.0)
    return -x / (4.0 * den)


def _psi_17(branch: BranchId, x: float) -> float:
    v = _aux_17(x)
    r1 = math.sqrt(max(2.0 * v + 0.25, 0.0))
    r2 = math.sqrt(max(-2.0 * v + 0.5 + 0.5 / math.sqrt(8.0 * v + 1.0), 0.0))
    if branch is _PRINCIPAL:
        return 3.5 * math.log((r1 + r2) / 2.0 + 0.25)
    return 3.5 * math.log((r1 - r2) / 2.0 + 0.25)


_CLOSED_FORMS = {
    ClosedFormTag.A13: _psi_13,
    ClosedFormTag.A12: _psi_12,
    ClosedFormTag.A15: _psi_15,
    ClosedFormTag.A35: _psi_35,
    ClosedFormTag.A17: _psi_17,
}


def psi_closed_form(a, branch: BranchId, x: float) -> float:
    """Closed-form branch values at a in {1/3, 1/2, 1/5, 3/5, 1/7}.

    The substitution Y = exp(2w/(n+m)) with a = (n-m)/(n+m) turns the
    defining equation into Y^n - Y^m = 2x, solvable by quadratic, Cardano,
    or Ferrari radicals for these five rationals.  The parameter must carry
    an exact rational tag (see AsymmetryParam.from_rational); floats are
    never matched approximately.
    """
    p = as_param(a)
    tag = ClosedFormTag.classify(p)
    if tag is _NONE:
        raise UnsupportedError(
            "closed forms exist only for a in {1/3, 1/2, 1/5, 3/5, 1/7} "
            "constructed as exact rationals")
    bc, x = _check_branch_domain(p.a, branch, x)
    # the solver takes the branch-point band, where the square-root
    # sensitivity blows up, and subnormal x, of which the radicals keep no bit
    if x - bc.f_min <= _BAND * abs(bc.f_min) or abs(x) < _TINY:
        return _solve_branch(p.a, bc, branch, x)
    try:
        w = _CLOSED_FORMS[tag](branch, x)
    except (ArithmeticError, ValueError):
        w = math.nan
    # where a radical of the 1/3, 3/5 or 1/7 forms leaves the double range
    # (x near the largest double, or just below 0) the solver takes over
    return w if math.isfinite(w) else _solve_branch(p.a, bc, branch, x)


_EXP_M64 = math.exp(-64.0)


def omega(a, z: float) -> float:
    """Branch transition function: the other solution with the same map value.

    For z < 0 returns the y != z (except at the fixed point w_min) with
    sinh(a*y)*exp(y) = sinh(a*z)*exp(z), taking the principal branch when
    z < w_min and the lower branch otherwise.  Where a*max(|z|, 1024) <=
    2^-27, f(a, w)/a = w*exp(w)*sinh(a*w)/(a*w) is w*exp(w) to rounding, so
    there (a = 0 included) it swaps the real Lambert W branches of z*exp(z).
    """
    aa = _a_value(a)
    z = _check_z(z)
    if aa == 1.0:
        raise DomainError("transition function undefined at a=1: single branch only")
    bc = _constants_for(aa)
    if z == bc.w_min:  # near a = 1, f(w_min) misses f_min by more than the band
        return z
    # the a -> 0 band: |z|, |y| < max(|z|, 752), (a*y)^2/6 < 2^-56, w_min = -1
    if aa <= 2.0 ** -37 and aa * max(-z, 1024.0) <= 2.0 ** -27:
        if z < _LOG_TINY:
            # e^z is subnormal, so z*e^z loses up to 340 ulps, and below
            # z = -745 it is -0.0 and W0 returns +0.0.  (z*e^(z+64))*e^-64,
            # with z + 64 exact, is within an ulp; W0 of it is itself
            return z * math.exp(z + 64.0) * _EXP_M64
        return lambert_w(_PRINCIPAL if z < -1.0 else _LOWER, z * math.exp(z))
    x = _f(aa, z)  # forward(aa, z): z < 0 is finite, so no check or overflow
    if z < bc.w_min:
        if abs(x) < _TINY:
            # x is subnormal and a > 2^-37 or z < -2^10, so y = W0(x/a) and
            # x/a < 3e-297 is its own W0; x/a in log form, free of x's underflow
            return -math.exp((1.0 - aa) * z + math.log(-math.expm1(2.0 * aa * z) / (2.0 * aa)))
        return _solve_branch(aa, bc, _PRINCIPAL, x)
    if abs(x) < _TINY:
        # |z| < 3e-297 here, so log|x/a| = log(-z) to rounding
        return _lower_log(aa, math.log(-z))
    return _solve_branch(aa, bc, _LOWER, x)


def _omega_13(z: float) -> float:
    return 1.5 * _log_abs_em1(2.0 * z / 3.0)


def _omega_12(z: float) -> float:
    branch = _PRINCIPAL if z < -math.log(3.0) else _LOWER
    return _psi_12(branch, _f(0.5, z))


def _omega_15(z: float) -> float:
    branch = _PRINCIPAL if z < -2.5 * math.log(1.5) else _LOWER
    return _psi_15(branch, _f(0.2, z))


OMEGA_CLOSED_FORMS = {ClosedFormTag.A13: _omega_13, ClosedFormTag.A12: _omega_12,
                      ClosedFormTag.A15: _omega_15}


def omega_closed_form(a, z: float) -> float:
    """Closed-form transition function for a in {1/3, 1/2, 1/5}.

    a=1/3 collapses to the single formula (3/2)*log(1 - exp(2z/3)); the
    other two compose the closed-form branches with the forward map,
    switching pieces at z = w_min.
    """
    tag = ClosedFormTag.classify(a)
    z = _check_z(z)
    if tag not in OMEGA_CLOSED_FORMS:
        raise UnsupportedError(
            "closed-form transition exists only for a in {1/3, 1/2, 1/5} "
            "constructed as exact rationals")
    try:
        w = OMEGA_CLOSED_FORMS[tag](z)
    except (ArithmeticError, ValueError):
        w = math.nan
    # where f(z) is subnormal, the branch radicals keep none of its bits
    return w if math.isfinite(w) else omega(a, z)


def omega_finite_n(n: int, a, z: float) -> float:
    """Finite-n transition value: equalizes two consecutive p,q-coefficients.

    With p = 1 + 2y/n, q = 1 + 2z/n and k = round(n*(1-a)/2) (banker's
    rounding), solves (p^(n-k+1) - p^k) / (q^(n-k+1) - q^k) = 1 for the root
    y other than the trivial y = z.  That is omega's level-set equation at a
    shifted asymmetry: with d = n + 1 - 2k >= 1, a_n = d/(n+1) and
    v(y) = (n+1)/2 * log1p(2y/n), (1-a_n)*v = k*log(p) and 2*a_n*v = d*log(p),
    so p^(n-k+1) - p^k = p^k*(p^d - 1) = 2*sinh(a_n*v)*exp(v).  Ratio 1 means
    f(a_n, v(y)) = f(a_n, v(z)), so y = (n/2)*expm1(2*omega(a_n, v(z))/(n+1)).
    The numerator's maximizer maps to w_min(a_n); as n grows, a_n -> a,
    v -> z and y -> omega(a, z).  A root within half an ulp of -n/2 is
    returned as -n/2, where p = 1 + 2y/n is 0.
    """
    aa = _a_value(a)
    _check_int("n", n, 2)
    z = _check_z(z)
    s = 2.0 * z / n
    if 1.0 + s <= 0.0:
        raise DomainError(f"q = 1 + 2z/n = {1.0 + s!r} must be positive")
    k = round(n * (1.0 - aa) / 2.0)
    if not 1 <= k <= n // 2:
        raise DomainError(f"k = round(n(1-a)/2) = {k} outside [1, n//2]")
    a_n = (n + 1 - 2 * k) / (n + 1)
    # v(z); where s = 2z/n is subnormal, log1p(s) = s and (n+1)z/n rounds once
    w = omega(a_n, 0.5 * (n + 1) * math.log1p(s) if s < -_TINY else (n + 1) * z / n)
    t = 2.0 * w / (n + 1)
    # below |t| = 1e-20 expm1(t) = t, and n*w/(n+1) keeps a subnormal w's bits
    return 0.5 * n * math.expm1(t) if abs(t) > 1e-20 else n * w / (n + 1)

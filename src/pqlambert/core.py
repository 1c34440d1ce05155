"""Validated parameters, the forward map sinh(a*w)*exp(w), its branch
constants, special points, and a real-branch Lambert W solver."""

from __future__ import annotations

import enum
import math
import sys
from functools import lru_cache
from typing import NamedTuple

__all__ = [
    "AccuracyError",
    "AsymmetryParam",
    "BranchConstants",
    "BranchId",
    "ConvergenceError",
    "DomainError",
    "ParamKind",
    "RangeError",
    "SingularityError",
    "UnsupportedError",
    "as_param",
    "branch_constants",
    "forward",
    "forward_dw",
    "lambert_w",
    "special_point",
]

_EXP_MAX = 709.0  # exp(t) overflows double precision just above this
_LOG_DBL_MAX = 709.78  # math.exp and math.expm1 overflow just above 709.7827
_LN2 = math.log(2.0)
_EPS = math.ulp(1.0)
_TINY = sys.float_info.min  # the least normal double
_LOG_TINY = math.log(sys.float_info.min)  # e^t is subnormal below this
INV_E = math.exp(-1.0)


def _log_abs_em1(t: float) -> float:
    """log|e^t - 1| for t != 0, to full relative accuracy at both ends of each sign."""
    if t < 0.0:
        return math.log(-math.expm1(t)) if t > -_LN2 else math.log1p(-math.exp(t))
    return math.log(math.expm1(t)) if t <= 33.0 else t + math.log1p(-math.exp(-t))


class DomainError(ValueError):
    """Argument lies outside the mathematical domain of the function."""


class RangeError(OverflowError):
    """Result magnitude exceeds the double-precision exponent range."""


class ConvergenceError(RuntimeError):
    """An iteration failed to converge on valid input (treated as a bug)."""


class SingularityError(DomainError):
    """Evaluation requested at a non-removable singularity."""


class UnsupportedError(ValueError):
    """No closed form or special handling exists for the given parameter."""


class AccuracyError(RuntimeError):
    """Requested tolerance could not be certified.

    Carries the computed ``value`` and the achieved error ``estimate``.
    """

    def __init__(self, message: str, value: float | None = None,
                 estimate: float | None = None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


class ParamKind(enum.Enum):
    INTERIOR = "interior"      # 0 < a < 1
    ZERO_LIMIT = "zero_limit"  # a = 0: the classical Lambert W case
    ONE_LIMIT = "one_limit"    # a = 1: single increasing branch


class BranchId(enum.Enum):
    """Selector for the two real inverse branches.

    PRINCIPAL returns values >= the minimizer, LOWER values <= it.
    """

    PRINCIPAL = "principal"
    LOWER = "lower"


# a module global reads in a tenth of the time of an Enum member (a descriptor on 3.11)
_PRINCIPAL, _LOWER = BranchId.PRINCIPAL, BranchId.LOWER


def _real(name: str, value) -> float:
    """float(value), raising DomainError where value is not a real number."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a real number, got {value!r}") from None


def _finite(name: str, value) -> float:
    """float(value), raising DomainError unless it is a finite real number."""
    if value.__class__ is not float:  # an exact float is taken as given: -0.0 keeps its sign
        value = _real(name, value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


class AsymmetryParam:
    """Asymmetry parameter of the forward map, validated to lie in [0, 1].

    ``exact`` holds the rational value when constructed through
    :meth:`from_rational`; closed-form dispatch keys on it exactly, never
    on a floating-point comparison.  ``kind`` (a ParamKind) is derived at
    construction and takes no part in equality, hashing or repr.  The
    instance is immutable and, unlike the other records, not a tuple.
    """

    __slots__ = ("a", "exact", "kind")

    def __init__(self, a: float, exact=None):
        if isinstance(a, bool) or not isinstance(a, (int, float)):
            raise DomainError(f"asymmetry parameter must be a real number, got {a!r}")
        a = _a_value(_real("asymmetry parameter", a))
        if exact is not None and float(exact) != a:
            raise DomainError("exact rational does not match the float value")
        setter = object.__setattr__
        setter(self, "a", a)
        setter(self, "exact", exact)
        setter(self, "kind", ParamKind.ZERO_LIMIT if a == 0.0 else
               ParamKind.ONE_LIMIT if a == 1.0 else ParamKind.INTERIOR)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.exact) == (other.a, other.exact)

    def __hash__(self):
        return hash((self.a, self.exact))

    def __repr__(self):
        return f"{type(self).__name__}(a={self.a!r}, exact={self.exact!r})"

    def __reduce__(self):
        return type(self), (self.a, self.exact)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    @classmethod
    def from_rational(cls, num: int, den: int) -> "AsymmetryParam":
        from fractions import Fraction

        try:
            frac = Fraction(num, den)
        except (TypeError, ZeroDivisionError):
            raise DomainError(f"needs integers num/den, den != 0, got {num!r}/{den!r}") from None
        return cls(float(frac), frac)


def _a_value(a) -> float:
    """Validated float value of the asymmetry a: the one range rule returns a float in
    [0, 1] as given, with no AsymmetryParam built; other input goes through as_param."""
    if a.__class__ is not float:
        return as_param(a).a
    if not 0.0 <= a <= 1.0:
        _finite("asymmetry parameter", a)
        raise DomainError(f"asymmetry parameter must lie in [0, 1], got {a!r}")
    return a


def as_param(a) -> AsymmetryParam:
    """Coerce a float, int, Fraction, or AsymmetryParam into an AsymmetryParam."""
    if isinstance(a, AsymmetryParam):
        return a
    # whoever holds a Fraction has loaded its module; others need not load it
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(a, fractions.Fraction):
        return AsymmetryParam(float(a), a)
    return AsymmetryParam(a)


def _interior_a(a) -> float:
    """_a_value(a), raising DomainError unless 0 < a < 1."""
    aa = _a_value(a)
    if aa == 0.0 or aa == 1.0:
        raise DomainError(f"requires 0 < a < 1, got a = {aa!r}")
    return aa


def _check_int(name: str, value, lo: int, hi: int | None = None) -> None:
    """Raise DomainError unless value is an int in [lo, hi] (a bool is not)."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or value < lo or (hi is not None and value > hi)):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise DomainError(f"{name} must be an integer {span}, got {value!r}")


def _check_z(z) -> float:
    """float(z), raising DomainError unless it is finite and negative."""
    if z.__class__ is not float:
        z = _real("z", z)
    if not -math.inf < z < 0.0:
        raise DomainError(f"transition function requires finite z < 0, got {z!r}")
    return z


def _check_rel_tol(rel_tol: float) -> None:
    """Raise DomainError unless a quadrature tolerance lies in [1e-10, 1e-3]."""
    if not 1e-10 <= _real("rel_tol", rel_tol) <= 1e-3:
        raise DomainError(f"rel_tol must be in [1e-10, 1e-3], got {rel_tol!r}")


def _is_principal(branch) -> bool:
    """True for PRINCIPAL, False for LOWER; UnsupportedError otherwise."""
    if branch is not _PRINCIPAL and branch is not _LOWER:
        raise UnsupportedError(f"unknown branch {branch!r}")
    return branch is _PRINCIPAL


_BAND = 8.0 * _EPS  # relative width of the band above f_min that counts as the branch point


class BranchConstants(NamedTuple):
    """Branch-point data of the forward map for a fixed asymmetry.

    ``f_min`` is the (negative) minimum value attained at ``w_min``;
    ``scale`` = f_min*(a^2-1) > 0 sets the natural scale of the
    square-root expansions around the branch point.
    """

    f_min: float
    w_min: float
    scale: float


def forward(a, w: float) -> float:
    """Forward map f(a, w) = sinh(a*w)*exp(w).

    Evaluated as exp((1-a)*w)*expm1(2*a*w)/2, which is free of subtractive
    cancellation for every w and reduces to the correct limits at a=0
    (identically 0) and a=1 (expm1(2w)/2).

    Above (1+a)*w = 709 it is evaluated as exp((1+a)*w - ln 2)*(-expm1(-2aw)),
    which stays finite up to (1+a)*w of about 710.47 (further for tiny a).
    Raises RangeError where the value itself exceeds the double range.
    """
    aa = _a_value(a)
    w = _finite("w", w)
    if aa == 0.0:
        return 0.0
    if (1.0 + aa) * w > _EXP_MAX:
        return _exp_top(aa, w, -math.expm1(-2.0 * aa * w))
    return _f(aa, w)


def _f(a: float, w: float) -> float:
    """The forward map's kernel exp((1-a)*w)*expm1(2*a*w)/2, unchecked."""
    return 0.5 * math.exp((1.0 - a) * w) * math.expm1(2.0 * a * w)


def forward_dw(a, w: float) -> float:
    """Partial derivative of the forward map with respect to w.

    Uses d/dw f = ((1+a)*expm1(2aw) + 2a) * exp((1-a)w) / 2, exact at the
    minimizer where the two exponential terms cancel.
    """
    aa = _a_value(a)
    w = _finite("w", w)
    if aa == 0.0:
        return 0.0
    if (1.0 + aa) * w > _EXP_MAX:
        return _exp_top(aa, w, ((1.0 + aa) * -math.expm1(-2.0 * aa * w)
                                + 2.0 * aa * math.exp(-2.0 * aa * w)))
    return 0.5 * math.exp((1.0 - aa) * w) * ((1.0 + aa) * math.expm1(2.0 * aa * w) + 2.0 * aa)


def _exp_top(aa: float, w: float, factor: float) -> float:
    """exp((1+a)*w)/2 * factor for (1+a)*w > _EXP_MAX, where the products
    of exp((1-a)*w) and expm1(2aw) can overflow though the value is finite;
    RangeError only when the value leaves the double range."""
    t = (1.0 + aa) * w - _LN2
    if t > _LOG_DBL_MAX:  # exp(t) alone overflows; a small factor (tiny a) may not
        t, factor = t + math.log(factor), 1.0
    value = math.exp(t) * factor if t <= _LOG_DBL_MAX else math.inf
    if value == math.inf:
        raise RangeError(f"(1+a)*w = {(1.0 + aa) * w!r} exceeds the exponent range")
    return value


@lru_cache(maxsize=512)
def _constants_for(a: float) -> BranchConstants:
    if a == 0.0:
        # Lambert limit: constants of w*exp(w), whose branch point is (-1/e, -1).
        return BranchConstants(-INV_E, -1.0, INV_E)
    w_min = (math.log1p(-a) - math.log1p(a)) / (2.0 * a)  # log((1-a)/(1+a))/(2a)
    f_min = -a / math.sqrt((1.0 - a) * (1.0 + a)) * math.exp(w_min)
    # tuple.__new__ skips the NamedTuple's Python-level __new__
    return tuple.__new__(BranchConstants, (f_min, w_min, f_min * (a * a - 1.0)))


def branch_constants(a) -> BranchConstants:
    """Branch constants (minimum value, minimizer, expansion scale).

    Defined in closed form for 0 < a < 1.  At a = 0 the continuity limit of
    the scaled problem is returned (the Lambert W branch point -1/e at -1).
    At a = 1 the forward map is strictly increasing and has no minimum.
    """
    aa = _a_value(a)
    if aa == 1.0:
        raise DomainError("branch constants undefined at a=1: the map has no minimum")
    return _constants_for(aa)


def _check_branch_domain(aa: float, branch: BranchId,
                         x) -> tuple[BranchConstants | None, float]:
    """Raise UnsupportedError for an unknown branch and DomainError unless
    x lies on the branch of the validated asymmetry aa; return the branch
    constants of aa (the call's one lookup, None at a = 1) and float(x)."""
    if branch is not _PRINCIPAL and branch is not _LOWER:
        raise UnsupportedError(f"unknown branch {branch!r}")
    x = _finite("x", x)
    if 0.0 < aa < 1.0:
        bc = _constants_for(aa)
        f_min = bc.f_min
        if x < f_min - _BAND * abs(f_min):
            raise DomainError(f"x = {x!r} below the branch-point value L_a = {f_min!r}")
        if branch is _LOWER and x >= 0.0:
            raise DomainError(f"lower branch requires x < 0, got {x!r}")
        return bc, x
    if aa == 0.0:
        raise DomainError(
            "inverse branches are undefined at a=0 (the forward map vanishes); "
            "rescale through lambert_w instead")
    if branch is _LOWER:
        raise DomainError("the lower branch does not exist at a=1")
    if x <= -0.5:
        raise DomainError(f"principal branch at a=1 requires x > -1/2, got {x!r}")
    return None, x


def special_point(a, n: int) -> tuple[float, float]:
    """Exact lower-branch sample (x_n, w_n) with w_n = n * w_min.

    The n-th derivative of the forward map vanishes at n*w_min, and the
    map value there has the closed form
    x_n = ((1-a)/(1+a))^(n(1-a)/(2a)) * (((1-a)/(1+a))^n - 1) / 2,
    so that the lower branch satisfies psi(x_n) = n*w_min.
    """
    aa = _interior_a(a)
    _check_int("n", n, 1)
    log_ratio = math.log1p(-aa) - math.log1p(aa)
    prefactor = math.exp(n * (1.0 - aa) / (2.0 * aa) * log_ratio)
    x = 0.5 * prefactor * math.expm1(n * log_ratio)
    w = n * _constants_for(aa).w_min
    return x, w


def _lambert_halley(x: float, w: float, lo: float = -math.inf,
                    hi: float = math.inf) -> float:
    """Polish a Lambert W estimate with Halley iteration on w*e^w - x.

    Iterates are pulled back toward the [lo, hi] interval so the solution
    cannot hop to the other real branch.  A two-cycle at the rounding
    floor (typical just off the branch point) terminates the iteration.
    """
    prev = math.nan
    for _ in range(100):
        ew = math.exp(w)
        r = w * ew - x
        if r == 0.0:
            return w
        wp1 = w + 1.0
        if wp1 == 0.0:
            return w
        denom = ew * wp1 - (w + 2.0) * r / (2.0 * wp1)
        if denom == 0.0:
            return w
        dw = r / denom
        cand = w - dw
        if cand < lo:
            cand = 0.5 * (w + lo)
        elif cand > hi:
            cand = 0.5 * (w + hi)
        if abs(cand - w) <= 4.0 * _EPS * (1.0 + abs(cand)) or cand == prev:
            return cand
        prev = w
        w = cand
    raise ConvergenceError(f"Lambert W iteration failed for x={x!r}")


def _log_form(a: float, l: float, y: float) -> tuple[float, float]:
    """h(y) = (1-a)*y + log|y*xi(2a*y)| - l and y*h'(y) = (1-a)*y + e^t/xi(t),
    t = 2a*y, xi(t) = expm1(t)/t: the log form log|f(a, y)/a| = l of either
    branch, resolved where f(a, y) is subnormal or overflows; at a = 0 it is
    w + log|w| = l (Corless et al. 1996).  h is increasing and concave on
    each branch.  Above t = 1, log|y*xi| is t + log1p(-e^-t) - log(2a) and
    e^t/xi is t/(1 - e^-t), so no term overflows, and (1-a)*y + t is
    y + t/2, whose y - l is exact near the root."""
    t = 2.0 * a * y
    if t > 1.0:
        return (y - l + 0.5 * t - math.log(2.0 * a) + math.log1p(-math.exp(-t)),
                (1.0 - a) * y + t / -math.expm1(-t))
    xi = math.expm1(t) / t if t else 1.0
    return (1.0 - a) * y + math.log(abs(y * xi)) - l, (1.0 - a) * y + math.exp(t) / xi


def _lower_log(a: float, l: float) -> float:
    """Lower-branch root of the log form h(y) = 0 (_log_form) for 0 <= a < 1
    and l < -708 (at a = 0, W-1 of -exp(l)), where f(a, y) is subnormal:
    the start l - log(-l) is within 0.01 of the a = 0 root, and three Newton
    steps reach the root to rounding for every a."""
    y = l - math.log(-l)
    for _ in range(3):
        h, yh = _log_form(a, l, y)
        y -= h * y / yh
    return y


# 1/e - INV_E: INV_E + _E_LO is 1/e to about 2^-106
_E_LO = -1.2428753672788363e-17
# R(y) = y*e^y - expm1(y) = y^2 * sum_{k>=2} (k-1)/k! * y^(k-2): Horner
# coefficients, highest first; the first term left out is 2e-21 relative at |y| = 0.076
_R_SERIES = tuple((k - 1) / math.factorial(k) for k in range(12, 1, -1))
# w + 1 = q - q^2/3 + 11q^3/72 - ... with q = +-sqrt(2(e*x + 1)) (Corless et
# al. 1996, section 4), highest first: 5e-12 relative at e*x + 1 = _D_NEAR
_W_BRANCH_SERIES = (-1963 / 204120, 680863 / 43545600, -221 / 8505, 769 / 17280,
                    -43 / 540, 11 / 72, -1 / 3, 1.0)
_D_NEAR = math.e * 1e-3  # e*x + 1 up to which lambert_w takes _lambert_near


def _lambert_near(principal: bool, x: float) -> float:
    """W(x) within 1e-3 of the branch point -1/e.  With y = w + 1, w*e^w = x
    reads R(y) = y*e^y - expm1(y) = D, where D = e*(x + 1/e) is formed as
    ((x + INV_E) + _E_LO)*e, x + INV_E exact by Sterbenz's lemma, and R is
    summed as its series: neither side cancels, so y keeps its relative
    accuracy as it goes to 0.  The branch-point series in q = +-sqrt(2D) is
    within 5.4e-12 relative of y here (|y| < 0.076), so one Newton step,
    R'(y) = y*e^y, leaves an error near 1e-24."""
    d = ((x + INV_E) + _E_LO) * math.e
    if d <= 0.0:
        return -1.0
    q = math.sqrt(2.0 * d) if principal else -math.sqrt(2.0 * d)
    y = 0.0
    for c in _W_BRANCH_SERIES:
        y = y * q + c
    y *= q
    r = 0.0
    for c in _R_SERIES:
        r = r * y + c
    return y - (y * y * r - d) / (y * math.exp(y)) - 1.0


def lambert_w(branch: BranchId, x: float) -> float:
    """Real Lambert W: solves w*exp(w) = x.

    PRINCIPAL covers x >= -1/e with w >= -1; LOWER covers -1/e <= x < 0
    with w <= -1.  Within 1e-3 of the branch point -1/e, one Newton step
    on an error-free form of w*e^w = x (_lambert_near).  Elsewhere Halley
    iteration from a piecewise initial guess: a square-root expansion near
    the branch point, a rational guess for moderate x, and
    log(x) - log(log(x)) style asymptotics otherwise.  At a subnormal x the
    lower branch solves its log form instead.
    """
    x = _finite("x", x)
    # d = e*x + 1 measures the distance to the branch point in natural units
    d = math.e * x + 1.0
    if d < 0.0:
        if d < -32.0 * _EPS:
            raise DomainError(f"x = {x!r} below the branch point -1/e")
        d = 0.0
    if d <= _D_NEAR:
        return _lambert_near(_is_principal(branch), x)
    if _is_principal(branch):
        if x == 0.0:
            return 0.0
        if d <= 0.2:
            pbp = math.sqrt(2.0 * d)
            w = -1.0 + pbp * (1.0 - pbp * (1.0 / 3.0 - pbp * 11.0 / 72.0))
        elif x < 3.0:
            w = x / (1.0 + x)
        else:
            l1 = math.log(x)
            l2 = math.log(l1)
            w = l1 - l2 + l2 / l1
        return _lambert_halley(x, max(w, -1.0), lo=-1.0)
    if x >= 0.0:
        raise DomainError(f"lower branch requires -1/e <= x < 0, got {x!r}")
    if x > -_TINY:
        return _lower_log(0.0, math.log(-x))
    if d <= 0.3:
        pbp = math.sqrt(2.0 * d)
        w = -1.0 - pbp * (1.0 + pbp * (1.0 / 3.0 + pbp * 11.0 / 72.0))
    else:
        l1 = math.log(-x)
        l2 = math.log(-l1)
        w = l1 - l2 + l2 / l1
    return _lambert_halley(x, min(w, -1.0), hi=-1.0)

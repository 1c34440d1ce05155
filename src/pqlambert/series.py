"""Series machinery: one truncated power-series reversion engine and the
expansions it generates (the Taylor series of the principal branch at
zero, the square-root expansions at the branch point, the transition
series and the large/small argument asymptotics), the local series behind
calculus.psi_derivative with the Lagrange inversion that takes its one
needed coefficient, the partial Bell polynomials, and the rigorous
two-sided envelopes around the logarithmic leading terms."""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from . import _LAZY
from .core import (
    BranchId,
    DomainError,
    RangeError,
    UnsupportedError,
    _LN2,
    _LOG_TINY,
    _TINY,
    _check_branch_domain,
    _check_int,
    _finite,
    _interior_a,
    _real,
    as_param,
    branch_constants,
)

__all__ = list(_LAZY["series"])

_SUBNORMAL_SCALE = 2.0 ** 600  # _local_coeffs' scale for a subnormal a

TAYLOR_ORDER_MAX = 40   # double precision is exhausted well before this
BRANCH_POINT_ORDER_MAX = 12
TAIL_TERMS_MAX = {"psi0": 4, "psi1": 3}  # most asymptotic tail terms per branch


class SeriesKind(enum.Enum):
    TAYLOR_AT_ZERO = "taylor_at_zero"
    BRANCH_POINT_PSI0 = "branch_point_psi0"
    BRANCH_POINT_PSI1 = "branch_point_psi1"
    BRANCH_POINT_OMEGA = "branch_point_omega"
    ASYMPTOTIC_PSI0 = "asymptotic_psi0"
    ASYMPTOTIC_PSI1 = "asymptotic_psi1"


class SeriesExpansion(namedtuple("SeriesExpansion", "kind a coeffs order arg_transform "
                                                    "value_offset valid_radius")):
    """Ordered coefficients of one expansion plus its argument mapping.

    ``kind`` is a SeriesKind and ``a`` an AsymmetryParam.  ``coeffs`` has
    exactly ``order`` entries.  ``arg_transform`` and ``value_offset``
    document the mapping in text; :meth:`evaluate` applies it.
    ``valid_radius`` bounds the transformed argument for which the series
    converges (branch-point kinds) or is intended (asymptotics).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, kind: SeriesKind, a, coeffs: tuple, order: int, arg_transform: str,
                value_offset: str, valid_radius: float):
        self = super().__new__(cls, kind, a, coeffs, order, arg_transform, value_offset,
                               valid_radius)
        if len(self.coeffs) != self.order:
            raise DomainError("coefficient count must equal the order")
        if not all(math.isfinite(c) for c in self.coeffs):
            raise RangeError("coefficients must be finite")
        return self

    def evaluate(self, x: float) -> float:
        """Evaluate the expansion at the function's natural argument."""
        aa = self.a.a
        if self.kind is SeriesKind.TAYLOR_AT_ZERO:
            return _horner(self.coeffs, x)
        if self.kind in (SeriesKind.BRANCH_POINT_PSI0, SeriesKind.BRANCH_POINT_PSI1):
            bc = branch_constants(self.a)
            t = (x - bc.f_min) / bc.scale
            if t < 0.0:
                raise DomainError(f"argument below the branch point: {x!r}")
            return bc.w_min + _horner(self.coeffs, math.sqrt(t))
        if self.kind is SeriesKind.BRANCH_POINT_OMEGA:
            bc = branch_constants(self.a)
            return bc.w_min + _horner(self.coeffs, x - bc.w_min)
        if self.kind is SeriesKind.ASYMPTOTIC_PSI0:
            log_2x, y = _log_pow_2x(x, -2.0 * aa / (1.0 + aa))
            return log_2x / (1.0 + aa) + _horner(self.coeffs, y)
        y = (-2.0 * x) ** (2.0 * aa / (1.0 - aa))
        return math.log(-2.0 * x) / (1.0 - aa) + _horner(self.coeffs, y)


def bell(n: int, k: int, args) -> float:
    """Partial exponential Bell polynomial B_{n,k}(x_1, ..., x_{n-k+1}).

    Computed from the recurrence
    B_{n,k} = sum_j C(n-1, j-1) * x_j * B_{n-j,k-1}.  Returns 0 for k > n
    (no partition of n into more than n blocks), 1 for n = k = 0.  The
    arguments must be finite, and RangeError is raised where the value
    leaves the double range.
    """
    _check_int("n", n, 0)
    _check_int("k", k, 0)
    if k > n:
        return 0.0
    if n == 0:
        return 1.0
    if k == 0:
        return 0.0
    args = [_finite("args", v) for v in args]
    if len(args) < n - k + 1:
        raise DomainError(f"need at least {n - k + 1} arguments, got {len(args)}")
    table = {(0, 0): 1.0}
    for nn in range(1, n + 1):
        kmax = min(nn, k)
        for kk in range(1, kmax + 1):
            if nn - kk > n - k:
                continue  # unreachable from (n, k); would need extra arguments
            s = 0.0
            for j in range(1, nn - kk + 2):
                prev = table.get((nn - j, kk - 1), 0.0)
                if prev:
                    s += math.comb(nn - 1, j - 1) * args[j - 1] * prev
            table[(nn, kk)] = s
    if not math.isfinite(table[(n, k)]):
        raise RangeError(f"B_{n},{k} leaves the double range")
    return table[(n, k)]


def _log_pow_2x(x: float, c: float) -> tuple[float, float]:
    """log(2x) and (2x)**c for x > 0, finite where 2x passes the largest double."""
    if 2.0 * x < math.inf:
        return math.log(2.0 * x), (2.0 * x) ** c
    return math.log(x) + _LN2, 2.0 ** c * x ** c


def _horner(coeffs, t: float) -> float:
    """sum_k coeffs[k-1] * t^k, innermost coefficient first."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = t * (c + acc)
    return acc


def _revert(c, rhs=None) -> list:
    """Truncated series reversion by undetermined coefficients.

    Returns d_1..d_n (n = len(c)) of the series h(y) = sum_m d_m y^m that
    solves sum_k c_k h^k = g(y), with c_k = c[k-1] and c_1 != 0, and
    g(y) = sum_m rhs[m-1] y^m (g(y) = y when rhs is None).  [y^m] h^k for
    k >= 2 needs only d_1..d_{m-k+1}, so d_m follows from one division;
    the powers of h are kept and extended by one order per step, O(n^3).
    """
    n = len(c)
    g = [1.0] + [0.0] * (n - 1) if rhs is None else rhs
    d = [0.0] * (n + 1)
    powers = [None, d] + [[0.0] * (n + 1) for _ in range(n - 1)]  # [y^m] h^k
    for m in range(1, n + 1):
        acc = g[m - 1]
        for k in range(2, m + 1):
            prev = powers[k - 1]
            s = 0.0
            for j in range(1, m - k + 2):
                s += d[j] * prev[m - j]
            powers[k][m] = s
            acc -= c[k - 1] * s
        d[m] = acc / c[0]
    return d[1:]


def _inverse_derivative(r) -> float:
    """n-th derivative at 0 of the inverse of h -> sum_k r_k h^k, where
    r_k = r[k-1], r_1 = 1 and n = len(r).

    Lagrange-Burmann inversion gives n! d_n = (n-1)! [h^(n-1)] R(h)^(-n)
    with R(h) = sum_k r_k h^(k-1), and Miller's recurrence gives the power
    in O(n^2): p_0 = 1, p_k = (1/k) sum_{j=1..k} ((1-n)j - k) r_{j+1} p_{k-j}.
    Only the last coefficient is formed; _revert builds every d_m.
    """
    n = len(r)
    p = [1.0]
    for k in range(1, n):
        s = 0.0
        for j in range(1, k + 1):
            s += ((1 - n) * j - k) * r[j] * p[k - j]
        p.append(s / k)
    return math.factorial(n - 1) * p[-1]


def _local_coeffs(a: float, w: float, n: int) -> tuple[float, list]:
    """Forward series at w: f(a, w + h) - f(a, w) = c_1 * sum_k r_k h^k.

    Returns 1/c_1 and r_1..r_n (r_1 = 1), where c_k = f^(k)(w)/k! =
    (1-a)^k e^((1-a)w) expm1(t_k) / (2 k!) with t_k = k*L + 2a*w and
    L = log((1+a)/(1-a)), free of cancellation.  Above the minimizer
    (t_1 > 0) the same c_k is (1+a)^k e^((1+a)w) (-expm1(-t_k)) / (2 k!).
    The exponential factor cancels from r_k, so nothing overflows where
    the inverse series is finite; w = w_min (c_1 = 0) is excluded.  At a
    subnormal a, where 2a*w keeps a few bits, the t_k are taken scaled by
    2^600 (L is 2a exactly there, and expm1(t_k) is t_k): the r_k are
    ratios and do not see the scale, and 1/c_1 takes it back.
    """
    lr = math.log1p(a) - math.log1p(-a)
    tw = 2.0 * a * w
    scale = 1.0
    if a < _TINY:
        scale = _SUBNORMAL_SCALE
        lr, tw = lr * scale, 2.0 * (a * scale) * w
    if lr + tw < 0.0:
        base, sgn, log_pre = 1.0 - a, 1.0, (1.0 - a) * w
    else:
        base, sgn, log_pre = 1.0 + a, -1.0, (1.0 + a) * w
    e1 = math.expm1(sgn * (lr + tw))
    r = [1.0]
    bk = fact = 1.0
    for k in range(2, n + 1):
        bk *= base
        fact *= k
        r.append(bk * math.expm1(sgn * (k * lr + tw)) / (fact * e1))
    if -log_pre < _LOG_TINY:  # exp(-log_pre) underflows; 1/c_1 may not (tiny a)
        log_inv = -log_pre - math.log(0.5 * base * abs(e1)) + math.log(scale)
        return math.copysign(math.exp(log_inv), sgn * e1), r
    return sgn * 2.0 * math.exp(-log_pre) / (base * e1) * scale, r


def taylor_at_zero(a, order: int) -> SeriesExpansion:
    """Taylor coefficients of the principal branch about x = 0.

    Reversion of the forward series at w = 0, whose x^k coefficient is
    ((1+a)^k - (1-a)^k)/(2 k!); the n-th returned entry is the coefficient
    of x^n.  The radius of convergence is bounded by |f_min|.
    """
    aa = _interior_a(a)
    _check_int("order", order, 1, TAYLOR_ORDER_MAX)
    inv_c1, r = _local_coeffs(aa, 0.0, order)
    coeffs = []
    scale = 1.0
    for d in _revert(r):
        scale *= inv_c1
        coeffs.append(d * scale)
    return SeriesExpansion(
        kind=SeriesKind.TAYLOR_AT_ZERO, a=as_param(a), coeffs=tuple(coeffs), order=order,
        arg_transform="x", value_offset="0",
        valid_radius=abs(branch_constants(aa).f_min))


def derivative_series_check(a) -> list:
    """[psi0(0), psi0'(0), psi0''(0), psi0'''(0)] in closed form.

    Cross-validation anchor shared with the derivative recurrence:
    0, 1/a, -2/a^2, (9a^2 - a^4)/a^5.  Below a = 2.9e-62, where a^5 is
    subnormal or 0, these powers cannot form the values (of order 1/a^3,
    past the double range from a = 3.7e-103 down), and RangeError is raised.
    """
    aa = _interior_a(a)
    if aa ** 5 < _TINY:
        raise RangeError(f"a^5 underflows at a = {aa!r}")
    return [0.0, 1.0 / aa, -2.0 / aa ** 2, (9.0 * aa ** 2 - aa ** 4) / aa ** 5]


def _forward_scaled_coeffs(aa: float, nmax: int) -> list:
    """u_n of (f(a, y + w_min) - f_min)/scale = sum_{n>=2} u_n y^n.

    The scaled expansion collapses to u_n = ((1+a)^(n-1)-(1-a)^(n-1))/(2a n!),
    starting from u_2 = 1/2, independent of the branch constants.  The
    difference is summed as its binomial expansion, whose terms
    C(n-1, j) a^(j-1), j odd, are all positive: no cancellation at any a.
    """
    u = [0.0, 0.0]
    fact = 1.0
    for n in range(2, nmax + 1):
        fact *= n
        u.append(sum(math.comb(n - 1, j) * aa ** (j - 1) for j in range(1, n, 2)) / fact)
    return u


def _sqrt_series(w, order: int) -> list:
    v = [math.sqrt(w[0])]
    for n in range(1, order + 1):
        s = sum(v[i] * v[n - i] for i in range(1, n))
        v.append((w[n] - s) / (2.0 * v[0]))
    return v


def branch_point_series(a, which: str, order: int) -> SeriesExpansion:
    """Square-root expansions at the branch point, or the transition series.

    With t = (x - f_min)/scale = u(y), y = psi - w_min, and u's quadratic
    coefficient 1/2, sqrt(t) = |y|*v(y) for the power series
    v = sqrt(u(y)/y^2).  ``which`` selects "psi0"/"psi1" (series in
    s = sqrt(t) of psi(a, t*scale + f_min) - w_min, the reversion of
    s = +y*v(y) and of s = -y*v(y)) or "omega" (series in u of
    omega(a, u + w_min) - w_min: the root Y of Y*v(Y) = -u*v(u); the scale
    factor cancels).  psi1 reverts the negated inputs of psi0, so the
    odd-coefficient sign flip between them holds bit for bit.
    """
    aa = _interior_a(a)
    _check_int("order", order, 1, BRANCH_POINT_ORDER_MAX)
    if which not in ("psi0", "psi1", "omega"):
        raise UnsupportedError(f"which must be 'psi0', 'psi1' or 'omega', got {which!r}")
    v = _sqrt_series(_forward_scaled_coeffs(aa, order + 1)[2:], order - 1)
    if which == "omega":
        return SeriesExpansion(
            kind=SeriesKind.BRANCH_POINT_OMEGA, a=as_param(a),
            coeffs=tuple(_revert(v, [-c for c in v])), order=order,
            arg_transform="u = z - w_min", value_offset="w_min",
            valid_radius=abs(branch_constants(aa).w_min))
    kind = SeriesKind.BRANCH_POINT_PSI0
    if which == "psi1":
        kind = SeriesKind.BRANCH_POINT_PSI1
        v = [-c for c in v]
    return SeriesExpansion(
        kind=kind, a=as_param(a), coeffs=tuple(_revert(v)), order=order,
        arg_transform="t = (x - f_min)/scale, series in sqrt(t)",
        value_offset="w_min", valid_radius=1.0 / ((1.0 - aa) * (1.0 + aa)))


def asymptotic_tail_coeffs(a, which: str, terms: int) -> tuple:
    """Tail coefficients of the asymptotic expansions.

    For "psi0" these multiply Y^k with Y = (2x)^(-2a/(1+a)); for "psi1"
    they multiply Z^k with Z = (-2x)^(2a/(1-a)).  Both are the reversion
    of the two-exponential kernel exp(p*t) - exp(q*t), whose t^k
    coefficient is (p^k - q^k)/k!, with (p, q) = (2a, a-1) and (-2a, -a-1).
    """
    aa = _interior_a(a)
    if which not in TAIL_TERMS_MAX:
        raise UnsupportedError(f"which must be 'psi0' or 'psi1', got {which!r}")
    _check_int("terms", terms, 0, TAIL_TERMS_MAX[which])
    ep, eq = (2.0 * aa, aa - 1.0) if which == "psi0" else (-2.0 * aa, -aa - 1.0)
    return tuple(_revert([(ep ** k - eq ** k) / math.factorial(k)
                          for k in range(1, terms + 1)]))


def asymptotic_psi0(a, x: float, terms: int = 3) -> float:
    """Large-x expansion of the principal branch.

    log(2x)/(1+a) plus a truncated series in Y = (2x)^(-2a/(1+a)) whose
    coefficients come from the reversion of exp(2a*t) - exp((a-1)*t);
    the first three are 1/(1+a), (1-3a)/(2(1+a)^2), (10a^2-7a+1)/(3(1+a)^3).
    Intended for x >= 10; accuracy simply degrades below that.  Raises
    RangeError where Y or the truncated sum leaves the double range (tiny x).
    """
    aa = _interior_a(a)
    x = _real("x", x)
    if not 0.0 < x < math.inf:
        raise DomainError(f"requires finite x > 0, got {x!r}")
    try:
        log_2x, y = _log_pow_2x(x, -2.0 * aa / (1.0 + aa))
        value = log_2x / (1.0 + aa) + _horner(asymptotic_tail_coeffs(aa, "psi0", terms), y)
    except OverflowError:  # (2x)**c
        value = math.inf
    if not math.isfinite(value):
        raise RangeError(f"the expansion at x = {x!r} leaves the double range")
    return value


def asymptotic_psi1(a, x: float, terms: int = 3) -> float:
    """Small-|x| expansion of the lower branch.

    log(-2x)/(1-a) plus a truncated series in Z = (-2x)^(2a/(1-a)) from
    the reversion of exp(-2a*t) - exp(-(a+1)*t); the first three
    coefficients are 1/(1-a), (1+3a)/(2(1-a)^2), (10a^2+7a+1)/(3(1-a)^3).
    Intended for |x| <= 0.01*|f_min|.
    """
    aa = _interior_a(a)
    _, x = _check_branch_domain(aa, BranchId.LOWER, x)
    z = (-2.0 * x) ** (2.0 * aa / (1.0 - aa))
    return math.log(-2.0 * x) / (1.0 - aa) + _horner(asymptotic_tail_coeffs(aa, "psi1", terms), z)


def _envelope_threshold(aa: float) -> float:
    """(1 + 1/(exp(|1/3-a|)-1))^((1+a)/(2a))/2, where psi0_bounds' envelope
    starts (a != 1/3), or inf where it passes the double range (a below
    about 8.9e-4).  The power is taken directly, not as exp(log), so every
    finite threshold keeps its bits."""
    try:
        return 0.5 * (1.0 + 1.0 / math.expm1(abs(1.0 / 3.0 - aa))) ** ((1.0 + aa) / (2.0 * aa))
    except OverflowError:
        return math.inf


def psi0_bounds(a, x: float) -> tuple[float, float]:
    """Two-sided envelope of the principal branch for large x.

    Valid for x >= (1 + 1/(exp(|1/3-a|)-1))^((1+a)/(2a))/2 and a != 1/3.
    Both bounds are log(2x)/(1+a) plus a multiple of (2x)^(-2a/(1+a)):
    coefficients (1, 2)/(1+a) for a < 1/3 and (1/3, 1)/(1+a) for a > 1/3.
    """
    p = as_param(a)
    aa = _interior_a(p)
    gap = abs(1.0 / 3.0 - aa)
    if gap == 0.0 or (p.exact is not None and p.exact * 3 == 1):
        raise UnsupportedError("the envelope excludes a = 1/3")
    x = _real("x", x)
    threshold = _envelope_threshold(aa)
    if not threshold <= x < math.inf:
        raise DomainError(f"x = {x!r} outside [{threshold!r}, inf), the envelope's range")
    log_2x, y = _log_pow_2x(x, -2.0 * aa / (1.0 + aa))
    base = log_2x / (1.0 + aa)
    if aa < 1.0 / 3.0:
        lo, hi = base + y / (1.0 + aa), base + 2.0 * y / (1.0 + aa)
    else:
        lo, hi = base + y / (3.0 * (1.0 + aa)), base + y / (1.0 + aa)
    # log(2x) is within 2 ulps (an ulp in the log; where 2x overflows, half
    # of one more in log(x) + log 2 and a little in the constant), and
    # 1 + a, the quotient and the sum put 2 ulps more on each bound, while
    # the envelope narrows below an ulp at large x: both bounds are widened
    # by these and by the rounding of the widening itself, so that they
    # hold the root
    slack = 2.0 * math.ulp(log_2x) / (1.0 + aa) + 3.0 * math.ulp(hi)
    return lo - slack, hi + slack


def envelope_crossover_estimates(a) -> dict:
    """Exploratory estimates of where the principal-branch envelope starts.

    The rigorous threshold is the one psi0_bounds enforces.  The other
    entries are rough empirical crossover points (not contracts, accurate
    to orders of magnitude at best): the lower bound tends to hold from
    exp(-29/4)/(1/3 - a)^2 for a < 1/3 and from about 0.1 above it; the
    upper bound needs roughly exp(-3.8 + 0.117/a) for a below ~0.102 and
    holds for all positive x above that.
    """
    aa = _interior_a(a)
    gap = abs(1.0 / 3.0 - aa)
    out = {"theorem_threshold": math.inf if gap == 0.0 else _envelope_threshold(aa)}
    if gap != 0.0 and out["theorem_threshold"] == math.inf:
        raise RangeError(f"the envelope threshold at a = {aa!r} exceeds the double range")
    if aa < 1.0 / 3.0:
        out["lower_holds_from"] = math.exp(-29.0 / 4.0) / gap ** 2
    else:
        out["lower_holds_from"] = 0.1
    out["upper_holds_from"] = (math.exp(-3.8 + 0.117 / aa)
                               if aa < 0.102 else 0.0)
    return out


def psi1_bounds(a, x: float) -> tuple[float, float, float]:
    """Envelope of the lower branch near zero, plus its logarithmic bound.

    For -((1-a)/(6a+2))^((1-a)/(2a))/2 <= x < 0 the value is sandwiched by
    log(-2x)/(1-a) plus (1, 2)/(1-a) times (-2x)^(2a/(1-a)).  The third
    entry is the unconditional lower bound
    log(-2x)/(1-a) - log(1 - (-2x)^(2a/(1-a))).
    """
    aa = _interior_a(a)
    x = _real("x", x)
    lo_end = -0.5 * ((1.0 - aa) / (6.0 * aa + 2.0)) ** ((1.0 - aa) / (2.0 * aa))
    if not lo_end <= x < 0.0:
        raise DomainError(f"x = {x!r} outside the envelope range [{lo_end!r}, 0)")
    z = (-2.0 * x) ** (2.0 * aa / (1.0 - aa))
    base = math.log(-2.0 * x) / (1.0 - aa)
    lower = base + z / (1.0 - aa)
    upper = base + 2.0 * z / (1.0 - aa)
    log_lower = base - math.log1p(-z)
    return lower, upper, log_lower

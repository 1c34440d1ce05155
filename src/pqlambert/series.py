"""Series machinery: Taylor expansion of the principal branch at zero via
Lagrange inversion with Bell polynomials, square-root expansions at the
branch point, large/small argument asymptotics, and the rigorous two-sided
envelopes around the logarithmic leading terms."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import (
    AsymmetryParam,
    DomainError,
    ParamKind,
    UnsupportedError,
    as_param,
    branch_constants,
)

__all__ = [
    "SeriesExpansion",
    "SeriesKind",
    "asymptotic_psi0",
    "asymptotic_psi1",
    "asymptotic_tail_coeffs",
    "bell",
    "branch_point_series",
    "derivative_series_check",
    "envelope_crossover_estimates",
    "psi0_bounds",
    "psi1_bounds",
    "taylor_at_zero",
]

_SQRT2 = math.sqrt(2.0)

TAYLOR_ORDER_MAX = 40   # double precision is exhausted well before this
BRANCH_POINT_ORDER_MAX = 12


class SeriesKind(enum.Enum):
    TAYLOR_AT_ZERO = "taylor_at_zero"
    BRANCH_POINT_PSI0 = "branch_point_psi0"
    BRANCH_POINT_PSI1 = "branch_point_psi1"
    BRANCH_POINT_OMEGA = "branch_point_omega"
    ASYMPTOTIC_PSI0 = "asymptotic_psi0"
    ASYMPTOTIC_PSI1 = "asymptotic_psi1"


@dataclass(frozen=True)
class SeriesExpansion:
    """Ordered coefficients of one expansion plus its argument mapping.

    ``coeffs`` has exactly ``order`` entries.  ``arg_transform`` and
    ``value_offset`` document the mapping in text; :meth:`evaluate` applies
    it.  ``valid_radius`` bounds the transformed argument for which the
    series converges (branch-point kinds) or is intended (asymptotics).
    """

    kind: SeriesKind
    a: AsymmetryParam
    coeffs: tuple
    order: int
    arg_transform: str
    value_offset: str
    valid_radius: float

    def __post_init__(self):
        if len(self.coeffs) != self.order:
            raise ValueError("coefficient count must equal the order")
        if not all(math.isfinite(c) for c in self.coeffs):
            raise ValueError("coefficients must be finite")

    def evaluate(self, x: float) -> float:
        """Evaluate the expansion at the function's natural argument."""
        aa = self.a.a
        if self.kind is SeriesKind.TAYLOR_AT_ZERO:
            acc = 0.0
            for c in reversed(self.coeffs):
                acc = x * (c + acc)
            return acc
        if self.kind in (SeriesKind.BRANCH_POINT_PSI0, SeriesKind.BRANCH_POINT_PSI1):
            bc = branch_constants(self.a)
            t = (x - bc.f_min) / bc.scale
            if t < 0.0:
                raise DomainError(f"argument below the branch point: {x!r}")
            s = math.sqrt(t)
            acc = 0.0
            for c in reversed(self.coeffs):
                acc = s * (c + acc)
            return bc.w_min + acc
        if self.kind is SeriesKind.BRANCH_POINT_OMEGA:
            bc = branch_constants(self.a)
            u = x - bc.w_min
            acc = 0.0
            for c in reversed(self.coeffs):
                acc = u * (c + acc)
            return bc.w_min + acc
        if self.kind is SeriesKind.ASYMPTOTIC_PSI0:
            y = (2.0 * x) ** (-2.0 * aa / (1.0 + aa))
            acc = 0.0
            for c in reversed(self.coeffs):
                acc = y * (c + acc)
            return math.log(2.0 * x) / (1.0 + aa) + acc
        y = (-2.0 * x) ** (2.0 * aa / (1.0 - aa))
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = y * (c + acc)
        return math.log(-2.0 * x) / (1.0 - aa) + acc


def bell(n: int, k: int, args) -> float:
    """Partial exponential Bell polynomial B_{n,k}(x_1, ..., x_{n-k+1}).

    Computed from the recurrence
    B_{n,k} = sum_j C(n-1, j-1) * x_j * B_{n-j,k-1}.  Returns 0 for k > n
    (no partition of n into more than n blocks), 1 for n = k = 0.
    """
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if k > n:
        return 0.0
    if n == 0:
        return 1.0
    if k == 0:
        return 0.0
    args = [float(v) for v in args]
    if len(args) < n - k + 1:
        raise ValueError(f"need at least {n - k + 1} arguments, got {len(args)}")
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
    return table[(n, k)]


def _bell_table(m_max: int, args) -> list:
    """All partial Bell polynomials at once: ``table[m][k]`` = B_{m,k}(args)
    for 0 <= k <= m <= m_max, by the recurrence, summation order and
    zero skip of bell(), so every entry equals bell(m, k, args) bit for bit.
    """
    table = [[1.0]]
    for nn in range(1, m_max + 1):
        row = [0.0]
        for kk in range(1, nn + 1):
            s = 0.0
            for j in range(1, nn - kk + 2):
                prev = table[nn - j][kk - 1]
                if prev:
                    s += math.comb(nn - 1, j - 1) * args[j - 1] * prev
            row.append(s)
        table.append(row)
    return table


def _lagrange_series_coeffs(f_seq, order: int) -> list:
    """Coefficients g_n of the inverse series, g(x) = sum g_n x^n / n!.

    ``f_seq[n]`` (1-indexed; f_seq[0] ignored) are the forward coefficients
    in f(w) = sum f_n w^n / n!; requires f_1 != 0.  Implements
    g_n = f_1^{-n} sum_{k=1}^{n-1} (-1)^k n^(k-rising) B_{n-1,k}(x_1, ...)
    with x_j = f_{j+1} / ((j+1) f_1), and g_1 = 1/f_1.
    """
    f1 = f_seq[1]
    xs = [f_seq[j + 1] / ((j + 1) * f1) for j in range(1, len(f_seq) - 1)]
    table = _bell_table(order - 1, xs)
    g = [0.0, 1.0 / f1]
    for n in range(2, order + 1):
        total = 0.0
        rising = 1.0
        for k in range(1, n):
            rising *= (n + k - 1)
            total += (-1) ** k * rising * table[n - 1][k]
        g.append(total / f1 ** n)
    return g


def taylor_at_zero(a, order: int) -> SeriesExpansion:
    """Taylor coefficients of the principal branch about x = 0.

    Lagrange inversion of the forward series with f_n = ((1+a)^n-(1-a)^n)/2;
    the n-th returned entry is the coefficient of x^n (that is, g_n/n!).
    The radius of convergence is bounded by |f_min|.
    """
    p = as_param(a)
    if p.kind is not ParamKind.INTERIOR:
        raise DomainError("Taylor expansion requires 0 < a < 1")
    if not isinstance(order, int) or not 1 <= order <= TAYLOR_ORDER_MAX:
        raise ValueError(f"order must be in [1, {TAYLOR_ORDER_MAX}], got {order!r}")
    aa = p.a
    f_seq = [0.0] + [((1.0 + aa) ** n - (1.0 - aa) ** n) / 2.0
                     for n in range(1, order + 2)]
    g = _lagrange_series_coeffs(f_seq, order)
    fact = 1.0
    coeffs = []
    for n in range(1, order + 1):
        fact *= n
        coeffs.append(g[n] / fact)
    return SeriesExpansion(
        kind=SeriesKind.TAYLOR_AT_ZERO, a=p, coeffs=tuple(coeffs), order=order,
        arg_transform="x", value_offset="0",
        valid_radius=abs(branch_constants(p).f_min))


def derivative_series_check(a) -> list:
    """[psi0(0), psi0'(0), psi0''(0), psi0'''(0)] in closed form.

    Cross-validation anchor shared with the derivative recurrence:
    0, 1/a, -2/a^2, (9a^2 - a^4)/a^5.
    """
    p = as_param(a)
    if p.kind is not ParamKind.INTERIOR:
        raise DomainError("requires 0 < a < 1")
    aa = p.a
    return [0.0, 1.0 / aa, -2.0 / aa ** 2, (9.0 * aa ** 2 - aa ** 4) / aa ** 5]


def _poly_mul(pcoef, qcoef, order):
    out = [0.0] * (order + 1)
    for i, pi in enumerate(pcoef):
        if pi == 0.0 or i > order:
            continue
        for j, qj in enumerate(qcoef):
            if i + j > order:
                break
            out[i + j] += pi * qj
    return out


def _forward_scaled_coeffs(aa: float, nmax: int) -> list:
    """u_n of (f(a, y + w_min) - f_min)/scale = sum_{n>=2} u_n y^n.

    The scaled expansion collapses to u_n = ((1+a)^(n-1)-(1-a)^(n-1))/(2a n!),
    starting from u_2 = 1/2, independent of the branch constants.
    """
    u = [0.0, 0.0]
    fact = 1.0
    for n in range(2, nmax + 1):
        fact *= n
        u.append(((1.0 + aa) ** (n - 1) - (1.0 - aa) ** (n - 1)) / (2.0 * aa * fact))
    return u


def _revert_sqrt(u, order: int, first: float) -> list:
    """Coefficients h_m of h(s) = sum h_m s^m with u(h(s)) = s^2, h_1 = first.

    Undetermined coefficients order by order: h_m enters [s^{m+1}] only
    through 2 u_2 h_1 h_m = h_1 h_m, so each order is a linear solve.
    """
    h = [0.0, first]
    for m in range(2, order + 1):
        hpad = h + [0.0]
        acc = [0.0] * (m + 2)
        cur = [1.0]
        for n in range(1, len(u)):
            cur = _poly_mul(cur, hpad, m + 1)
            if n >= 2:
                un = u[n]
                if un:
                    for idx in range(min(len(cur), m + 2)):
                        acc[idx] += un * cur[idx]
        h.append(-acc[m + 1] / h[1])
    return h


def _sqrt_series(w, order: int) -> list:
    v = [math.sqrt(w[0])]
    for n in range(1, order + 1):
        s = sum(v[i] * v[n - i] for i in range(1, n))
        v.append((w[n] - s) / (2.0 * v[0]))
    return v


def branch_point_series(a, which: str, order: int) -> SeriesExpansion:
    """Square-root expansions at the branch point, or the transition series.

    ``which`` selects "psi0"/"psi1" (series in sqrt(t) of
    psi(a, t*scale + f_min) - w_min, generated by term-by-term reversion of
    the scaled forward expansion whose quadratic coefficient is 1/2) or
    "omega" (series in u of omega(a, u + w_min) - w_min, by composition; the
    scale factor cancels).  psi0 and psi1 are generated independently; the
    odd-coefficient sign flip between them is a derived identity the
    tests verify, not an input.
    """
    p = as_param(a)
    if p.kind is not ParamKind.INTERIOR:
        raise DomainError("branch-point series require 0 < a < 1")
    if not isinstance(order, int) or not 1 <= order <= BRANCH_POINT_ORDER_MAX:
        raise ValueError(
            f"order must be in [1, {BRANCH_POINT_ORDER_MAX}], got {order!r}")
    aa = p.a
    radius_t = 1.0 / ((1.0 - aa) * (1.0 + aa))
    if which == "psi0":
        h = _revert_sqrt(_forward_scaled_coeffs(aa, order + 1), order, _SQRT2)
        return SeriesExpansion(
            kind=SeriesKind.BRANCH_POINT_PSI0, a=p, coeffs=tuple(h[1:]), order=order,
            arg_transform="t = (x - f_min)/scale, series in sqrt(t)",
            value_offset="w_min", valid_radius=radius_t)
    if which == "psi1":
        h = _revert_sqrt(_forward_scaled_coeffs(aa, order + 1), order, -_SQRT2)
        return SeriesExpansion(
            kind=SeriesKind.BRANCH_POINT_PSI1, a=p, coeffs=tuple(h[1:]), order=order,
            arg_transform="t = (x - f_min)/scale, series in sqrt(t)",
            value_offset="w_min", valid_radius=radius_t)
    if which == "omega":
        u = _forward_scaled_coeffs(aa, order + 2)
        h = _revert_sqrt(u, order, _SQRT2)
        # sqrt(u(x))/x = v(x) is an ordinary power series; the transition
        # series is sum_m h_m (-x v(x))^m for x of either sign
        w = [u[n + 2] for n in range(order)]
        v = _sqrt_series(w, order - 1)
        s_series = [0.0] + [-v[k] for k in range(order)]
        acc = [0.0] * (order + 1)
        cur = [1.0]
        for m in range(1, order + 1):
            cur = _poly_mul(cur, s_series, order)
            hm = h[m]
            if hm:
                for idx in range(len(cur)):
                    acc[idx] += hm * cur[idx]
        return SeriesExpansion(
            kind=SeriesKind.BRANCH_POINT_OMEGA, a=p, coeffs=tuple(acc[1:]), order=order,
            arg_transform="u = z - w_min", value_offset="w_min",
            valid_radius=abs(branch_constants(p).w_min))
    raise UnsupportedError(f"which must be 'psi0', 'psi1' or 'omega', got {which!r}")


def _asym_tail_from_beta(beta_seq, terms: int) -> list:
    g = _lagrange_series_coeffs(beta_seq, max(terms, 1))
    fact = 1.0
    out = []
    for n in range(1, terms + 1):
        fact *= n
        out.append(g[n] / fact)
    return out


def asymptotic_tail_coeffs(a, which: str, terms: int) -> tuple:
    """Tail coefficients of the asymptotic expansions.

    For "psi0" these multiply Y^k with Y = (2x)^(-2a/(1+a)); for "psi1"
    they multiply Z^k with Z = (-2x)^(2a/(1-a)).  Both come from Lagrange
    inversion of the corresponding two-exponential kernel.
    """
    p = as_param(a)
    if p.kind is not ParamKind.INTERIOR:
        raise DomainError("requires 0 < a < 1")
    cap = 4 if which == "psi0" else 3
    if which not in ("psi0", "psi1"):
        raise UnsupportedError(f"which must be 'psi0' or 'psi1', got {which!r}")
    if not isinstance(terms, int) or not 0 <= terms <= cap:
        raise ValueError(f"terms must be in [0, {cap}], got {terms!r}")
    if terms == 0:
        return ()
    aa = p.a
    if which == "psi0":
        beta = [0.0] + [(2.0 * aa) ** k - (aa - 1.0) ** k for k in range(1, terms + 2)]
    else:
        beta = [0.0] + [(-2.0 * aa) ** k - (-aa - 1.0) ** k
                        for k in range(1, terms + 2)]
    return tuple(_asym_tail_from_beta(beta, terms))


def asymptotic_psi0(a, x: float, terms: int = 3) -> float:
    """Large-x expansion of the principal branch.

    log(2x)/(1+a) plus a truncated series in Y = (2x)^(-2a/(1+a)) whose
    coefficients come from Lagrange inversion of exp(2a*t) - exp((a-1)*t);
    the first three are 1/(1+a), (1-3a)/(2(1+a)^2), (10a^2-7a+1)/(3(1+a)^3).
    Intended for x >= 10; accuracy simply degrades below that.
    """
    p = as_param(a)
    if p.kind is not ParamKind.INTERIOR:
        raise DomainError("requires 0 < a < 1")
    if not isinstance(terms, int) or not 0 <= terms <= 4:
        raise ValueError(f"terms must be in [0, 4], got {terms!r}")
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"requires x > 0, got {x!r}")
    aa = p.a
    base = math.log(2.0 * x) / (1.0 + aa)
    if terms == 0:
        return base
    coeffs = asymptotic_tail_coeffs(p, "psi0", terms)
    y = (2.0 * x) ** (-2.0 * aa / (1.0 + aa))
    acc = 0.0
    for c in reversed(coeffs):
        acc = y * (c + acc)
    return base + acc


def asymptotic_psi1(a, x: float, terms: int = 3) -> float:
    """Small-|x| expansion of the lower branch.

    log(-2x)/(1-a) plus a truncated series in Z = (-2x)^(2a/(1-a)) from
    Lagrange inversion of exp(-2a*t) - exp(-(a+1)*t); the first three
    coefficients are 1/(1-a), (1+3a)/(2(1-a)^2), (10a^2+7a+1)/(3(1-a)^3).
    Intended for |x| <= 0.01*|f_min|.
    """
    p = as_param(a)
    if p.kind is not ParamKind.INTERIOR:
        raise DomainError("requires 0 < a < 1")
    if not isinstance(terms, int) or not 0 <= terms <= 3:
        raise ValueError(f"terms must be in [0, 3], got {terms!r}")
    x = float(x)
    if not x < 0.0:
        raise DomainError(f"requires x < 0, got {x!r}")
    bc = branch_constants(p)
    if x < bc.f_min - 8.0 * math.ulp(1.0) * abs(bc.f_min):
        raise DomainError(f"x = {x!r} below the branch-point value {bc.f_min!r}")
    aa = p.a
    base = math.log(-2.0 * x) / (1.0 - aa)
    if terms == 0:
        return base
    coeffs = asymptotic_tail_coeffs(p, "psi1", terms)
    z = (-2.0 * x) ** (2.0 * aa / (1.0 - aa))
    acc = 0.0
    for c in reversed(coeffs):
        acc = z * (c + acc)
    return base + acc


def psi0_bounds(a, x: float) -> tuple[float, float]:
    """Two-sided envelope of the principal branch for large x.

    Valid for x >= (1 + 1/(exp(|1/3-a|)-1))^((1+a)/(2a))/2 and a != 1/3.
    Both bounds are log(2x)/(1+a) plus a multiple of (2x)^(-2a/(1+a)):
    coefficients (1, 2)/(1+a) for a < 1/3 and (1/3, 1)/(1+a) for a > 1/3.
    """
    p = as_param(a)
    if p.kind is not ParamKind.INTERIOR:
        raise DomainError("requires 0 < a < 1")
    aa = p.a
    gap = abs(1.0 / 3.0 - aa)
    if gap == 0.0 or (p.exact is not None and p.exact * 3 == 1):
        raise UnsupportedError("the envelope excludes a = 1/3")
    x = float(x)
    threshold = 0.5 * (1.0 + 1.0 / math.expm1(gap)) ** ((1.0 + aa) / (2.0 * aa))
    if x < threshold:
        raise DomainError(f"x = {x!r} below the envelope threshold {threshold!r}")
    y = (2.0 * x) ** (-2.0 * aa / (1.0 + aa))
    base = math.log(2.0 * x) / (1.0 + aa)
    if aa < 1.0 / 3.0:
        return base + y / (1.0 + aa), base + 2.0 * y / (1.0 + aa)
    return base + y / (3.0 * (1.0 + aa)), base + y / (1.0 + aa)


def envelope_crossover_estimates(a) -> dict:
    """Exploratory estimates of where the principal-branch envelope starts.

    The rigorous threshold is the one psi0_bounds enforces.  The other
    entries are rough empirical crossover points (not contracts, accurate
    to orders of magnitude at best): the lower bound tends to hold from
    exp(-29/4)/(1/3 - a)^2 for a < 1/3 and from about 0.1 above it; the
    upper bound needs roughly exp(-3.8 + 0.117/a) for a below ~0.102 and
    holds for all positive x above that.
    """
    p = as_param(a)
    if p.kind is not ParamKind.INTERIOR:
        raise DomainError("requires 0 < a < 1")
    aa = p.a
    gap = abs(1.0 / 3.0 - aa)
    out = {"theorem_threshold": math.inf if gap == 0.0 else
           0.5 * (1.0 + 1.0 / math.expm1(gap)) ** ((1.0 + aa) / (2.0 * aa))}
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
    p = as_param(a)
    if p.kind is not ParamKind.INTERIOR:
        raise DomainError("requires 0 < a < 1")
    aa = p.a
    x = float(x)
    lo_end = -0.5 * ((1.0 - aa) / (6.0 * aa + 2.0)) ** ((1.0 - aa) / (2.0 * aa))
    if not lo_end <= x < 0.0:
        raise DomainError(f"x = {x!r} outside the envelope range [{lo_end!r}, 0)")
    z = (-2.0 * x) ** (2.0 * aa / (1.0 - aa))
    base = math.log(-2.0 * x) / (1.0 - aa)
    lower = base + z / (1.0 - aa)
    upper = base + 2.0 * z / (1.0 - aa)
    log_lower = base - math.log1p(-z)
    return lower, upper, log_lower

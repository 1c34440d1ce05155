"""50-digit mpmath references for every value the benchmark checks.

Each reference is computed from the defining equation, never from the
library's own formulas: the inverse branches and the transition function
by a Newton iteration at 50 digits whose root is verified to lie on the
requested side of the branch point, Lambert W by ``mpmath.lambertw``,
series coefficients by Lagrange inversion of the exact forward series, and
the p,q-binomial log-coefficients through the Dedekind-eta closed form of
the infinite q-Pochhammer product plus an Euler-Maclaurin tail.

Every reference function raises :class:`OutOfDomain` when the input lies
outside the mathematical domain, so a library error on that input can be
judged correct.  Inputs are taken as the exact binary values of the
doubles the library received.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

mp.mp.dps = 50
_ZERO, _ONE = mp.mpf(0), mp.mpf(1)


class OutOfDomain(Exception):
    """The input lies outside the function's mathematical domain."""


class OracleFailure(Exception):
    """The reference computation itself did not converge."""


def M(x) -> mp.mpf:
    """Exact multiprecision value of a double or a Fraction."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


# ---------------------------------------------------------------- forward map

def fwd(a, w):
    return mp.sinh(a * w) * mp.exp(w)


def fwd_dw(a, w):
    return (a * mp.cosh(a * w) + mp.sinh(a * w)) * mp.exp(w)


def fwd_da(a, w):
    return w * mp.cosh(a * w) * mp.exp(w)


def branch_point(a):
    """(w_min, f_min) for 0 < a < 1."""
    w_min = mp.log((1 - a) / (1 + a)) / (2 * a)
    return w_min, fwd(a, w_min)


def _newton(fun, dfun, y, lo=None, hi=None):
    """Newton at working precision from a double start.  Raises
    OracleFailure when an iterate leaves [lo, hi] (None: unbounded)."""
    eps = mp.mpf(2) ** (-mp.mp.prec + 8)
    for _ in range(100):
        d = dfun(y)
        if not d:
            raise OracleFailure("zero derivative")
        cand = y - fun(y) / d
        if (lo is not None and cand < lo) or (hi is not None and cand > hi):
            raise OracleFailure("Newton left the admissible interval")
        if abs(cand - y) <= eps * max(_ONE, abs(cand)):
            return cand
        y = cand
    raise OracleFailure("reference Newton iteration did not converge")


def _safe_root(fun, dfun, lo, hi):
    """Bisection-safeguarded Newton on a bracket where fun changes sign."""
    eps = mp.mpf(2) ** (-mp.mp.prec + 8)
    flo = fun(lo)
    y = (lo + hi) / 2
    for _ in range(mp.mp.prec * 4):
        g = fun(y)
        if (g < 0) == (flo < 0):
            lo, flo = y, g
        else:
            hi = y
        d = dfun(y)
        cand = y - g / d if d else lo
        if not lo < cand < hi:
            cand = (lo + hi) / 2
        if abs(cand - y) <= eps * max(_ONE, abs(cand)) or hi - lo <= eps * max(_ONE, abs(hi)):
            return cand
        y = cand
    raise OracleFailure("bracketed reference iteration did not converge")


def _bracket_down(fun, start, sign):
    """Walk from ``start`` away from the branch point until fun changes sign."""
    step = _ONE
    w = start
    for _ in range(4000):
        w = w + sign * step
        if fun(w) * fun(start) <= 0:
            return w
        step *= 2
    raise OracleFailure("no sign change found")


def psi(a, branch: str, x, start: float):
    """Inverse branch value; ``branch`` is "principal" or "lower"."""
    a, x = M(a), M(x)
    if not mp.isfinite(x):
        raise OutOfDomain("x not finite")
    if a == 1:
        if branch == "lower" or x <= -0.5:
            raise OutOfDomain("a = 1")
        return mp.log(1 + 2 * x) / 2
    if a <= 0 or a > 1:
        raise OutOfDomain("a outside (0, 1]")
    w_min, f_min = branch_point(a)
    if x < f_min or (branch == "lower" and x >= 0):
        raise OutOfDomain("x outside the branch's range")
    if x == 0 and branch == "principal":
        return _ZERO

    def g(w):
        return fwd(a, w) - x

    def dg(w):
        return fwd_dw(a, w)

    y0 = M(start) if start is not None and math.isfinite(start) else None
    if branch == "principal":
        lo, hi = w_min, None
        if y0 is None or y0 <= w_min:
            y0 = _bracket_down(g, w_min, +1)
    else:
        lo, hi = None, w_min
        if y0 is None or y0 >= w_min:
            y0 = _bracket_down(g, w_min, -1)
    try:
        root = _newton(g, dg, y0, lo, hi)
    except OracleFailure:
        far = _bracket_down(g, w_min, +1 if branch == "principal" else -1)
        root = _safe_root(g, dg, *sorted((w_min, far)))
    if (branch == "principal" and root < w_min) or (branch == "lower" and root > w_min):
        raise OracleFailure("reference root on the wrong branch")
    return root


def psi_sensitivities(a, y):
    """(d psi/dx, d psi/da) at a root y of f(a, y) = x."""
    a = M(a)
    d = fwd_dw(a, y)
    return 1 / d, -fwd_da(a, y) / d


def omega(a, z, start: float):
    """Transition value: the other root of f(a, y) = f(a, z), z < 0."""
    a, z = M(a), M(z)
    if not z < 0 or a >= 1 or a < 0:
        raise OutOfDomain("omega needs z < 0 and 0 <= a < 1")
    if a == 0:
        x = z * mp.exp(z)
        if z == -1:
            return -_ONE
        return mp.lambertw(x, 0 if z < -1 else -1).real
    w_min, _ = branch_point(a)
    if z == w_min:
        return w_min
    x = fwd(a, z)
    return psi(a, "principal" if z < w_min else "lower", x, start)


def omega_sensitivities(a, z, y):
    """(d omega/dz, d omega/da) from f(a, y) = f(a, z)."""
    a = M(a)
    dy = fwd_dw(a, y)
    return fwd_dw(a, M(z)) / dy, (fwd_da(a, M(z)) - fwd_da(a, y)) / dy


def lambert_w(branch: str, x):
    x = M(x)
    if x < -mp.exp(-1) or (branch == "lower" and x >= 0):
        raise OutOfDomain("outside the Lambert W branch domain")
    return mp.lambertw(x, 0 if branch == "principal" else -1).real


def forward_sensitivities(a, w):
    return fwd_dw(M(a), M(w)), fwd_da(M(a), M(w))


# ------------------------------------------------------------ power series

def _series_mul(p, q, n):
    out = [_ZERO] * (n + 1)
    for i, pi in enumerate(p[: n + 1]):
        if pi:
            for j in range(min(len(q), n + 1 - i)):
                out[i + j] += pi * q[j]
    return out


def _series_inv(p, n):
    """1/p as a power series, p[0] != 0."""
    out = [1 / p[0]]
    for m in range(1, n + 1):
        s = sum(p[j] * out[m - j] for j in range(1, min(m, len(p) - 1) + 1))
        out.append(-s / p[0])
    return out


def revert(coeffs, n):
    """Coefficients b_1..b_n of the compositional inverse of
    sum_k coeffs[k] t^k (coeffs[0] = 0, coeffs[1] != 0), by Lagrange
    inversion b_m = [w^(m-1)] (w/A(w))^m / m."""
    shifted = list(coeffs[1:]) + [_ZERO] * max(0, n + 1 - len(coeffs))
    phi = _series_inv(shifted, n)
    out = [_ZERO]
    power = [_ONE]
    for m in range(1, n + 1):
        power = _series_mul(power, phi, n)
        out.append(power[m - 1] / m)
    return out


def compose(outer, inner, n):
    """outer(inner(t)) with inner[0] = 0, truncated at degree n."""
    acc = [_ZERO] * (n + 1)
    power = [_ONE]
    for k in range(1, min(len(outer), n + 1)):
        power = _series_mul(power, inner, n)
        if outer[k]:
            for i in range(n + 1):
                acc[i] += outer[k] * power[i]
    return acc


def _forward_taylor(a, y, n):
    """Coefficients of f(a, y + h) - f(a, y) in h up to degree n."""
    e1, e2 = mp.exp((1 + a) * y), mp.exp((1 - a) * y)
    out = [_ZERO]
    for j in range(1, n + 1):
        out.append(((1 + a) ** j * e1 - (1 - a) ** j * e2) / (2 * mp.factorial(j)))
    return out


def psi_derivative(a, branch: str, x, n: int, start: float):
    """n-th and (n+1)-th derivatives of the inverse branch at x."""
    a = M(a)
    y = psi(a, branch, x, start)
    inv = revert(_forward_taylor(a, y, n + 1), n + 1)
    return mp.factorial(n) * inv[n], mp.factorial(n + 1) * inv[n + 1]


def taylor_at_zero(a, order: int):
    """Taylor coefficients of the principal branch at x = 0."""
    a = M(a)
    return revert(_forward_taylor(a, _ZERO, order), order)[1:]


def branch_point_omega(a, order: int):
    """Coefficients of omega(a, w_min + u) - w_min in u."""
    a = M(a)
    w_min, _ = branch_point(a)
    e = _forward_taylor(a, w_min, order + 2)  # e[1] = 0 at the minimizer
    ratio = [_ONE] + [e[j + 2] / e[2] for j in range(1, order + 1)]
    # s(h) = h*sqrt(1 + sum_j ratio_j h^j): sqrt of a series with root 1
    root = [_ONE]
    for m in range(1, order + 1):
        s = sum(root[i] * root[m - i] for i in range(1, m))
        root.append((ratio[m] - s) / 2)
    s_series = [_ZERO] + root[:order]
    s_inv = revert(s_series, order)
    return compose(s_inv, [-c for c in s_series], order)[1:]


def asymptotic_psi0(a, terms: int):
    """Tail coefficients g_k of psi0 = log(2x)/(1+a) + sum g_k Y^k."""
    a = M(a)
    beta = [_ZERO] + [((2 * a) ** k - (a - 1) ** k) / mp.factorial(k)
                      for k in range(1, terms + 1)]
    return revert(beta, terms)[1:]


# ------------------------------------------------------- integrals, envelope

def integral_omega(a):
    a = M(a)
    return mp.pi ** 2 / (3 * (a * a - 1))


def integral_psi(a, branch: str):
    """Integral of the branch over [f_min, 0], by parts in closed form."""
    a = M(a)
    w_min, f_min = branch_point(a)

    def prim(w):  # antiderivative of f(a, w) in w
        return mp.exp((1 + a) * w) / (2 * (1 + a)) - mp.exp((1 - a) * w) / (2 * (1 - a))

    if branch == "principal":
        return -f_min * w_min - (prim(_ZERO) - prim(w_min))
    return -f_min * w_min + prim(w_min)


def envelope(a):
    a = M(a)
    gap = abs(mp.mpf(1) / 3 - a)
    return {
        "theorem_threshold": (1 + 1 / mp.expm1(gap)) ** ((1 + a) / (2 * a)) / 2,
        "lower_holds_from": (mp.exp(mp.mpf(-29) / 4) / gap ** 2
                             if a < mp.mpf(1) / 3 else mp.mpf("0.1")),
        "upper_holds_from": mp.exp(mp.mpf("-3.8") + mp.mpf("0.117") / a)
        if a < mp.mpf("0.102") else _ZERO,
    }


# ------------------------------------------------------ p,q-binomial family

_EM_TERMS = 12
_EM_START = 64


def _log_qpoch_tail(c, m):
    """sum_{j>m} log(1 - exp(-c j)), by direct summation to _EM_START and
    Euler-Maclaurin beyond (the integral is -Li2(e^{-cJ})/c and the odd
    derivatives are c^(2k-1) Li_{2-2k}(e^{-cJ}))."""
    total = _ZERO
    j = m + 1
    while j <= _EM_START:
        total += mp.log(-mp.expm1(-c * j))
        j += 1
    J = max(m, _EM_START)
    if c * J > 150:
        # terms below 1e-65: sum them directly until negligible
        jj = J + 1
        while True:
            t = mp.log(-mp.expm1(-c * jj))
            total += t
            if abs(t) < mp.mpf(10) ** -60:
                return total
            jj += 1
    u = mp.exp(-c * J)
    em = -mp.polylog(2, u) / c - mp.log(-mp.expm1(-c * J)) / 2
    for k in range(1, _EM_TERMS + 1):
        em -= mp.bernoulli(2 * k) / mp.factorial(2 * k) * c ** (2 * k - 1) \
            * mp.polylog(2 - 2 * k, u)
    return total + em


def _log_qpoch_inf(c):
    """log (r; r)_inf for r = exp(-c), by the eta modular transformation."""
    if c >= 1:
        total, j = _ZERO, 1
        while True:
            t = mp.log(-mp.expm1(-c * j))
            total += t
            if abs(t) < mp.mpf(10) ** -60:
                return total
            j += 1
    cp = 4 * mp.pi ** 2 / c
    dual = _ZERO
    j = 1
    while True:
        t = mp.log(-mp.expm1(-cp * j))
        dual += t
        if abs(t) < mp.mpf(10) ** -60:
            break
        j += 1
    return c / 24 - mp.pi ** 2 / (6 * c) + mp.log(2 * mp.pi / c) / 2 + dual


class PqReference:
    """Exact log-coefficients and adjacent log-ratios of one (n, p, q)."""

    def __init__(self, n: int, p: float, q: float):
        self.n = n
        hi, lo = max(M(p), M(q)), min(M(p), M(q))
        self.log_hi = mp.log(hi)
        self.c = self.log_hi - mp.log(lo)
        self._inf = _log_qpoch_inf(self.c)

    def _log_qpoch(self, m):
        if m == 0:
            return _ZERO
        return self._inf - _log_qpoch_tail(self.c, m)

    def log_coeff(self, k: int):
        n = self.n
        if not 0 <= k <= n:
            raise OutOfDomain("k outside [0, n]")
        if k in (0, n):
            return _ZERO
        return (k * (n - k) * self.log_hi + self._log_qpoch(n)
                - self._log_qpoch(k) - self._log_qpoch(n - k))

    def log_ratio(self, k: int):
        """log C(k) - log C(k-1) for 1 <= k <= n."""
        n, c = self.n, self.c
        return ((n - 2 * k + 1) * self.log_hi + mp.log(-mp.expm1(-c * (n - k + 1)))
                - mp.log(-mp.expm1(-c * k)))


def ratio_residual(n: int, p: float, q: float, k: int):
    """(p^(n-k+1) - p^k)/(q^(n-k+1) - q^k) - 1 at the exact doubles p, q."""
    p, q = M(p), M(q)
    return (p ** (n - k + 1) - p ** k) / (q ** (n - k + 1) - q ** k) - 1


def omega_finite_n(n: int, a, z, start: float):
    """Root y != z of (p^(n-k+1) - p^k) = (q^(n-k+1) - q^k), p = 1 + 2y/n,
    q = 1 + 2z/n, k = round(n(1-a)/2); returns (y, dy/dz)."""
    a, z = M(a), M(z)
    k = round(n * (1.0 - float(a)) / 2.0)  # the documented index rule
    if n < 2 or not z < 0 or 1 + 2 * z / n <= 0 or not 1 <= k <= n // 2:
        raise OutOfDomain("omega_finite_n input outside its domain")
    d = n + 1 - 2 * k

    def L(v):
        lp = mp.log1p(2 * v / n)
        return k * lp + mp.log(-mp.expm1(d * lp))

    def dL(v):
        p = 1 + 2 * v / n
        pd = p ** d
        return (2 / mp.mpf(n)) * (k / p + d * pd / p / (pd - 1))

    target = L(z)
    y_peak = n * mp.expm1(mp.log(mp.mpf(k) / (n - k + 1)) / d) / 2
    if z == y_peak:
        return y_peak, -_ONE
    lo, hi = (y_peak, _ZERO) if z < y_peak else (-mp.mpf(n) / 2, y_peak)
    y0 = M(start) if start is not None and math.isfinite(start) and lo < start < hi \
        else (lo + hi) / 2
    fun = lambda v: L(v) - target  # noqa: E731
    try:
        y = _newton(fun, dL, y0, lo, hi)
    except OracleFailure:
        tiny = (hi - lo) * mp.mpf(10) ** -40
        y = _safe_root(fun, dL, lo + tiny, hi - tiny)
    return y, dL(z) / dL(y)


def param_alpha(a, alpha):
    """(x, psi0, psi1) of the alpha parametrization, with their
    derivatives in alpha and a (numerical, at 50 digits)."""
    a, alpha = M(a), M(alpha)
    if not 0 < a < 1 or not alpha > 1:
        raise OutOfDomain("param_alpha needs 0 < a < 1 and alpha > 1")

    def parts(aa, al):
        la = mp.log(al)
        psi1 = mp.log(mp.expm1((1 - aa) * la) / mp.expm1((1 + aa) * la)) / (2 * aa)
        return fwd(aa, psi1), la + psi1, psi1

    values = parts(a, alpha)
    d_alpha = [mp.diff(lambda t, i=i: parts(a, t)[i], alpha) for i in range(3)]
    d_a = [mp.diff(lambda t, i=i: parts(t, alpha)[i], a) for i in range(3)]
    return values, d_alpha, d_a

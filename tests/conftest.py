"""Shared oracle helpers for the test suite."""

import math

import pytest


def richardson_derivative(f, x, n, h):
    """n-th derivative of f at x: central differences at h, h/2, h/4 with a
    two-level Richardson ladder (leading error O(h^6))."""

    def central(hh):
        if n == 1:
            return (f(x + hh) - f(x - hh)) / (2.0 * hh)
        if n == 2:
            return (f(x + hh) - 2.0 * f(x) + f(x - hh)) / hh ** 2
        if n == 3:
            return (f(x + 2 * hh) - 2.0 * f(x + hh) + 2.0 * f(x - hh)
                    - f(x - 2 * hh)) / (2.0 * hh ** 3)
        if n == 4:
            return (f(x + 2 * hh) - 4.0 * f(x + hh) + 6.0 * f(x)
                    - 4.0 * f(x - hh) + f(x - 2 * hh)) / hh ** 4
        raise ValueError(n)

    d0, d1, d2 = central(h), central(h / 2.0), central(h / 4.0)
    r0 = (4.0 * d1 - d0) / 3.0
    r1 = (4.0 * d2 - d1) / 3.0
    return (16.0 * r1 - r0) / 15.0


def geometric_grid(lo, hi, count):
    """Geometric grid between same-sign nonzero endpoints."""
    assert lo != 0.0 and hi != 0.0 and (lo < 0.0) == (hi < 0.0)
    sgn = -1.0 if lo < 0.0 else 1.0
    la, lb = math.log(abs(lo)), math.log(abs(hi))
    return [sgn * math.exp(la + (lb - la) * i / (count - 1)) for i in range(count)]


def ulps_around(t, count):
    """t and the doubles up to count ulps either side of it, in order."""
    below, above = [t], [t]
    for _ in range(count):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def linear_grid(lo, hi, count):
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


@pytest.fixture(scope="session")
def mp50():
    import mpmath as mp

    mp.mp.dps = 50
    return mp


def mp_reversion(c):
    """Reference reversion by Lagrange inversion at the current mpmath
    precision: d_1..d_n of h(y) = sum_m d_m y^m with sum_k c_k h^k = y,
    from d_n = [w^(n-1)] (w/f(w))^n / n, f(w) = sum_k c[k-1] w^k."""
    import mpmath as mp

    n_max = len(c)
    q = [1 / c[0]]  # w/f(w)
    for m in range(1, n_max):
        q.append(-mp.fsum(c[j] * q[m - j] for j in range(1, m + 1)) / c[0])
    out, power = [], [mp.mpf(1)] + [mp.mpf(0)] * (n_max - 1)
    for n in range(1, n_max + 1):
        power = [mp.fsum(power[i] * q[m - i] for i in range(m + 1)) for m in range(n_max)]
        out.append(power[n - 1] / n)
    return out


def mp_branch_root(a, x, w0):
    """Root w of sinh(a*w)*exp(w) = x near w0, by Newton at the current
    mpmath precision (a, x exact binary values)."""
    import mpmath as mp

    am, xm, w = mp.mpf(a), mp.mpf(x), mp.mpf(w0)
    for _ in range(200):
        f = mp.sinh(am * w) * mp.exp(w) - xm
        df = (am * mp.cosh(am * w) + mp.sinh(am * w)) * mp.exp(w)
        step = f / df
        w -= step
        if abs(step) <= mp.mpf(2) ** (-mp.mp.prec + 32) * abs(w):
            return w
    raise RuntimeError(f"reference Newton did not converge at a={a!r}, x={x!r}")


def mp_psi_root(a, principal, x):
    """Reference root of sinh(a*w)*exp(w) = x on one branch, for exact
    binary a and x, to about 60 digits, free of any library seed: the log
    form log|sinh(a*w)| + w = log|x|, monotone in s = log|w|, is bisected
    in s (40 halvings of a bracket that holds every root of a double x)
    and polished by Newton steps in s."""
    import mpmath as mp

    with mp.workdps(85):
        am, lx = mp.mpf(a), mp.log(abs(mp.mpf(x)))
        w_min = (mp.log1p(-am) - mp.log1p(am)) / (2 * am)
        if principal and x > 0:
            sign, lo, hi = 1, mp.mpf(-800), mp.mpf(8)
        elif principal:
            sign, lo, hi = -1, mp.mpf(-800), mp.log(-w_min)
        else:
            sign, lo, hi = -1, mp.log(-w_min), mp.mpf(60)

        def excess(s):
            y = sign * mp.exp(s)
            return mp.log(abs(mp.sinh(am * y))) + y - lx

        lo_positive = excess(lo) > 0
        for _ in range(40):
            mid = (lo + hi) / 2
            if (excess(mid) > 0) == lo_positive:
                lo = mid
            else:
                hi = mid
        s = (lo + hi) / 2
        for _ in range(100):
            y = sign * mp.exp(s)
            step = excess(s) / ((am / mp.tanh(am * y) + 1) * y)
            s -= step
            if abs(step) < mp.mpf(10) ** -70:
                return sign * mp.exp(s)
    raise RuntimeError(f"reference Newton did not converge at a={a!r}, x={x!r}")


def mp_omega_root(a, z):
    """Reference omega(a, z) for exact binary a and z: at 60 digits, more
    by the digits of |z|, the root y != z of the log form
    (1-a)*y + log(-expm1(2a*y)) = (1-a)*z + log(-expm1(2a*z)) of
    f(a, y) = f(a, z), bracketed in s = log(-y) on the far side of
    w_min = (log1p(-a) - log1p(a))/(2a).  (log((1-a)/(1+a))/(2a) would
    give w_min = 0 at a subnormal a, where 1 - a rounds to 1.)  The far
    end of each bracket lies past the root by the bounds
    log(-2f(y)) <= log(-2a*y) (principal) and <= (1-a)*y (lower).  At
    a = 0 it is the W0 <-> W-1 swap of z*exp(z).  A root that underflows
    in double keeps its 60 digits."""
    import mpmath as mp

    zm = mp.mpf(z)
    with mp.workdps(60 + int(mp.log10(1 - zm))):
        if a == 0.0:
            return +mp.lambertw(zm * mp.exp(zm), 0 if z < -1.0 else -1).real
        am = mp.mpf(a)
        w_min = (mp.log1p(-am) - mp.log1p(am)) / (2 * am)

        def log_form(y):
            return (1 - am) * y + mp.log(-mp.expm1(2 * am * y))

        rhs = log_form(zm)
        if zm < w_min:
            bracket = (rhs - mp.log(2 * am) - 1, mp.log(-w_min))
        else:
            bracket = (mp.log(-w_min), mp.log(1 - rhs / (1 - am)))
        s = mp.findroot(lambda s: log_form(-mp.exp(s)) - rhs, bracket, solver="anderson")
        return -mp.exp(s)


def mp_finite_n_root(n, a, z):
    """Reference root y != z of p^(n-k+1) - p^k = q^(n-k+1) - q^k, with
    p = 1 + 2y/n, q = 1 + 2z/n and k = round(n(1-a)/2), for exact binary
    a and z; returns (y, dy/dz) as mpmath numbers.

    The numerator is evaluated as written, at a precision that grows with
    the digits lost in p - 1 and q - 1, and the root is bisected to about 60 digits
    in log(-y) when it lies between the numerator's maximizer and 0, and
    in log(p) when it lies between p = 0 and the maximizer.  A root below
    exp(-800), far under the smallest double, is returned as 0.
    """
    import mpmath as mp

    k = round(n * (1.0 - a) / 2.0)
    m = n - k + 1
    with mp.workdps(80 + int(max(0, -mp.log10(abs(mp.mpf(z)))))):  # digits lost in q - 1
        def num(y):
            p = 1 + 2 * y / n
            return p ** m - p ** k

        def slope(y):
            p = 1 + 2 * y / n
            return m * p ** (m - 1) - k * p ** (k - 1)

        zm = mp.mpf(z)
        target = abs(num(zm))
        p_peak = (mp.mpf(k) / m) ** (mp.mpf(1) / (m - k))
        y_peak = n * (p_peak - 1) / 2
        if zm == y_peak:
            return zm, -mp.mpf(1)
        if zm < y_peak:
            def y_of(s):  # root in (y_peak, 0): |num| falls from its peak to 0
                return -mp.exp(s)

            def excess(s):
                with mp.workdps(80 + int(max(0, -s) / 2.3)):
                    return abs(num(y_of(s))) - target
            hi = mp.log(-y_peak)
        else:
            def y_of(t):  # root in (-n/2, y_peak): |num| rises from 0 to its peak
                return n * mp.expm1(t) / 2

            def excess(t):
                return abs(num(y_of(t))) - target
            hi = mp.log(p_peak)
        step, lo = mp.mpf(1), hi - 1
        while excess(lo) > 0:
            if zm < y_peak and lo < -800:
                return mp.mpf(0), slope(zm) / slope(mp.mpf(0))
            step *= 2
            lo -= step
        for _ in range(220):
            mid = (lo + hi) / 2
            if excess(mid) > 0:
                hi = mid
            else:
                lo = mid
            if hi - lo < mp.mpf(10) ** -60 * max(1, abs(hi)):
                break
        y = y_of((lo + hi) / 2)
        with mp.workdps(80 + int(max(0, -mp.log10(abs(y))))):
            return +y, slope(zm) / slope(y)

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

"""Safeguarded scalar root finding: Newton steps inside a guaranteed bracket."""

from __future__ import annotations

from .core import ConvergenceError, _EPS


def newton_bracketed(fun, lo: float, hi: float, seed: float, increasing: bool) -> float:
    """Solve g(w) = 0 for monotone g on the bracket [lo, hi].

    ``fun(w)`` must return ``(g, dg)``.  ``increasing`` declares the
    orientation: g(lo) <= 0 <= g(hi) when True, the reverse when False.
    A Newton step is taken only when it stays inside the bracket and at
    least halves the previous step (otherwise the step bisects), so
    convergence is unconditional.  Iterates to machine resolution in w.
    """
    eps = _EPS
    sign = 1.0 if increasing else -1.0
    w = min(max(seed, lo), hi)
    dx = dx_old = abs(hi - lo)
    for _ in range(100):
        g, dg = fun(w)
        if g == 0.0:
            return w
        if sign * g > 0.0:
            hi = w
        else:
            lo = w
        if dg != 0.0:
            cand = w - g / dg
            if not lo <= cand <= hi or abs(2.0 * g) > abs(dx_old * dg):
                cand = 0.5 * (lo + hi)
        else:
            cand = 0.5 * (lo + hi)
        dx_old, dx = dx, abs(cand - w)
        if dx <= eps * (abs(w) + abs(cand)) or hi - lo <= eps * (abs(lo) + abs(hi)):
            return cand
        w = cand
    raise ConvergenceError(
        f"root iteration exceeded 100 steps in [{lo!r}, {hi!r}]")

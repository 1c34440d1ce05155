"""Exact parametrizations of the inverse branches: the beta form of the
principal branch for x > 0, and the simultaneous alpha form of both
branches over [f_min, 0)."""

from __future__ import annotations

import math
from typing import NamedTuple

from . import _LAZY
from .core import DomainError, _a_value, _interior_a, _log_abs_em1, _real, forward

__all__ = list(_LAZY["parametrize"])


class AlphaPoint(NamedTuple):
    """One simultaneous sample of both branches at a common abscissa.

    psi0 = log(alpha) + psi1 holds to rounding (each branch value is
    computed through its own cancellation-free form), and both branch
    values map forward to the same x.
    """

    alpha: float
    x: float
    psi0: float
    psi1: float


def param_beta(a, beta: float) -> tuple[float, float]:
    """Principal-branch parametrization for positive abscissas.

    Returns (x, psi0) with x = (beta^(1+a) - beta^(1-a))/2 = f(a, psi0)
    and psi0 = log(beta); any beta > 1 gives x > 0.  x comes from
    core.forward, which switches to a log form where a factor overflows and
    raises RangeError only where x exceeds the largest double.
    """
    aa = _a_value(a)
    if aa == 0.0:
        raise DomainError("parametrization undefined at a=0")
    beta = _real("beta", beta)
    if not 1.0 < beta < math.inf:
        raise DomainError(f"requires finite beta > 1, got {beta!r}")
    lb = math.log(beta)
    return forward(aa, lb), lb


def param_alpha(a, alpha: float) -> AlphaPoint:
    """Simultaneous parametrization of both branches for f_min <= x < 0.

    With rho = (alpha^(2a)-1)/(alpha^(1+a)-1) in (0, 1):
    psi1 = log((alpha^(1-a)-1)/(alpha^(1+a)-1))/(2a),
    psi0 = log(1-rho)/(2a)  (= log(alpha) + psi1, the form taken where rho rounds to 1),
    x = -rho*(1-rho)^((1-a)/(2a))/2.  All alpha^c - 1 factors go through
    expm1/log1p kernels, so neither the alpha -> 1 branch-point limit nor
    the alpha -> inf tail loses precision beyond the representation of
    alpha itself.  alpha sweeps (1, inf) onto x in [f_min, 0).

    The two logs of psi1 cancel where q = 1 - (alpha^(1-a)-1)/(alpha^(1+a)-1)
    is below 1/2 (small a, or alpha near 1 with a < 1/3; q rises from
    2a/(1+a)).  There the values come from q = expm1(-2aL)/expm1(-(1+a)L),
    L = log(alpha), and rho = alpha^(a-1)*q instead, both per unit 2a so
    that no product with a tiny a rounds into the subnormal range:
    2a*psi1 = log1p(-q), 2a*psi0 = log1p(-rho), x = -a*(rho/2a)*exp((1-a)psi0).
    """
    aa = _interior_a(a)
    alpha = _real("alpha", alpha)
    if not 1.0 < alpha < math.inf:
        raise DomainError(f"requires finite alpha > 1, got {alpha!r}")
    la = math.log(alpha)
    if aa < 1.0 / 3.0:
        ta = 2.0 * aa
        t = ta * la
        q_2a = la * (math.expm1(-t) / -t if t else 1.0) / -math.expm1(-(1.0 + aa) * la)
        q = ta * q_2a
        if q < 0.5:
            rho_2a = q_2a * math.exp(aa * la) / alpha
            rho = ta * rho_2a
            # log1p(-v)/(-v) rounds to 1 below v = 1e-17, where v may be subnormal
            psi1 = math.log1p(-q) / ta if q > 1e-17 else -q_2a
            psi0 = math.log1p(-rho) / ta if rho > 1e-17 else -rho_2a
            x = -aa * (rho_2a * math.exp((1.0 - aa) * psi0))
            return AlphaPoint(alpha=alpha, x=x, psi0=psi0, psi1=psi1)
    le_low = _log_abs_em1((1.0 - aa) * la)
    le_high = _log_abs_em1((1.0 + aa) * la)
    le_mid = _log_abs_em1(2.0 * aa * la)
    psi1 = (le_low - le_high) / (2.0 * aa)
    log_rho = le_mid - le_high
    rho = math.exp(log_rho)
    log1m_rho = math.log1p(-rho) if rho < 1.0 else 2.0 * aa * la + le_low - le_high
    psi0 = log1m_rho / (2.0 * aa)
    x = -0.5 * math.exp(log_rho + (1.0 - aa) / (2.0 * aa) * log1m_rho)
    return AlphaPoint(alpha=alpha, x=x, psi0=psi0, psi1=psi1)

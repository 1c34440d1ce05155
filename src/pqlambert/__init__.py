"""Numerics for the two real inverse branches of sinh(a*w)*exp(w), the
branch transition function that generalizes swapping the Lambert W
branches, and the p,q-binomial distributions they parameterize.

`core` and `branches` load with the package.  The series, calculus,
parametrization and p,q-binomial modules, and the names they export here,
load on first access (PEP 562), so a process pays only for what it uses.
"""

import importlib

from . import branches, core
from .branches import *  # noqa: F403 -- the names in branches.__all__
from .core import *  # noqa: F403 -- the names in core.__all__

_LAZY = {  # each lazily loaded module's exports; the module's __all__ is its entry
    "series": ("SeriesExpansion", "SeriesKind", "asymptotic_psi0", "asymptotic_psi1",
               "asymptotic_tail_coeffs", "bell", "branch_point_series",
               "derivative_series_check", "envelope_crossover_estimates", "psi0_bounds",
               "psi1_bounds", "taylor_at_zero"),
    "calculus": ("PnPolynomial", "integral_omega", "integral_omega_quadrature", "integral_psi",
                 "integral_psi_quadrature", "pn_next", "pn_sequence", "psi_derivative",
                 "psi_primitive"),
    "parametrize": ("AlphaPoint", "param_alpha", "param_beta"),
    "pqbinom": ("DegenerateRatioError", "PqDistribution", "PqParams", "build_distribution",
                "equal_ratio_residual", "log_pq_binomial", "peak_drift"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [*core.__all__, *branches.__all__, *_LAZY_NAMES, "core", "branches", *_LAZY]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

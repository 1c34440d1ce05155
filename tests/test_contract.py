"""The public API's edge contract: every exported function, called at the
ends of its arguments' ranges, returns finite values of the correct sign
or raises one of the library's own errors.  Never a bare ValueError,
OverflowError or ZeroDivisionError from math, and never inf or nan."""

import math
import sys

import numpy as np
import pytest

import pqlambert
from pqlambert.core import (AccuracyError, AsymmetryParam, BranchId, ConvergenceError,
                            DomainError, RangeError, UnsupportedError)

P, LO = BranchId.PRINCIPAL, BranchId.LOWER
_DBL_MAX = sys.float_info.max
_LIBRARY_ERRORS = (DomainError, RangeError, ConvergenceError, UnsupportedError, AccuracyError)

AS = [0.0, 5e-324, 1e-300, 1.0 - 2.0 ** -52, 1.0]
RATIONALS = [AsymmetryParam.from_rational(m, d) for m, d in ((1, 3), (1, 2), (1, 5), (3, 5), (1, 7))]
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, _DBL_MAX, -_DBL_MAX,
         math.inf, -math.inf, math.nan]
PQ_EDGES = [_DBL_MAX, 5e-324]          # the finite ends of p and q
PQ_NON_FINITE = [math.inf, -math.inf, math.nan]


def _near_f_min(a):
    """f_min and one ulp either side, where the branch constants exist."""
    try:
        f_min = pqlambert.branch_constants(a).f_min
    except _LIBRARY_ERRORS:
        return []
    return [math.nextafter(f_min, -math.inf), f_min, math.nextafter(f_min, math.inf)]


def _xs(a):
    return EDGES + _near_f_min(a)


def _sign(value):
    return (value > 0.0) - (value < 0.0)


def _psi_sign(branch, x):
    """The sign of psi(x) on a branch: x's own on the principal branch."""
    return _sign(x) if branch is P else -1


def _calls():
    """(function, args, expected sign of the value or None)."""
    out = []
    for a in AS:
        out += [(pqlambert.as_param, (a,), None), (pqlambert.branch_constants, (a,), None),
                (pqlambert.derivative_series_check, (a,), None),
                (pqlambert.envelope_crossover_estimates, (a,), None),
                (pqlambert.integral_omega, (a,), None),
                (pqlambert.integral_omega_quadrature, (a, 1e-6), None),
                (pqlambert.pn_sequence, (a, 4), None),
                (pqlambert.special_point, (a, 2), None),
                (pqlambert.taylor_at_zero, (a, 8), None)]
        out += [(pqlambert.asymptotic_tail_coeffs, (a, which, 3), None) for which in ("psi0", "psi1")]
        out += [(pqlambert.branch_point_series, (a, which, 6), None)
                for which in ("psi0", "psi1", "omega")]
        for branch in (P, LO):
            out += [(pqlambert.integral_psi, (a, branch), None),
                    (pqlambert.integral_psi_quadrature, (a, branch), None)]
        for x in _xs(a):
            out += [(pqlambert.forward, (a, x), _sign(x) if a else 0),  # f(0, w) is 0
                    (pqlambert.forward_dw, (a, x), None),
                    (pqlambert.asymptotic_psi0, (a, x), None),
                    (pqlambert.asymptotic_psi1, (a, x), None),
                    (pqlambert.psi0_bounds, (a, x), None), (pqlambert.psi1_bounds, (a, x), None),
                    (pqlambert.param_alpha, (a, x), None), (pqlambert.param_beta, (a, x), None),
                    (pqlambert.omega, (a, x), -1), (pqlambert.omega_finite_n, (64, a, x), -1),
                    (pqlambert.peak_drift, (64, a, x), None)]
            for branch in (P, LO):
                out += [(pqlambert.psi, (a, branch, x), _psi_sign(branch, x)),
                        (pqlambert.psi_derivative, (a, branch, x, 1), 1 if branch is P else -1),
                        (pqlambert.psi_derivative, (a, branch, x, 3), None),
                        (pqlambert.psi_primitive, (a, branch, x), None)]
    for a in RATIONALS:
        for x in _xs(a):
            out.append((pqlambert.omega_closed_form, (a, x), -1))
            out += [(pqlambert.psi_closed_form, (a, branch, x), _psi_sign(branch, x))
                    for branch in (P, LO)]
    for x in EDGES + [-1.0 / math.e, math.nextafter(-1.0 / math.e, 0.0)]:
        out += [(pqlambert.lambert_w, (P, x), _sign(x)), (pqlambert.lambert_w, (LO, x), -1)]
        out.append((pqlambert.bell, (3, 2, (x, x)), None))
    return out


def _pq_calls():
    """The p,q-binomial functions at the parameters of each edge (a, z)."""
    out = []
    for a in AS:
        for z in _xs(a):
            try:
                params = pqlambert.PqParams.from_transition(8, a, z)
            except _LIBRARY_ERRORS:
                continue
            out += _pq_functions(params)
    for edge in PQ_EDGES:
        for other in PQ_EDGES + [0.5, 1.0, 2.0]:
            if other != edge:
                out += _pq_functions(pqlambert.PqParams(8, edge, other))
                out += _pq_functions(pqlambert.PqParams(8, other, edge))
    return out


def _pq_functions(params):
    return [(pqlambert.build_distribution, (params,), None),
            (pqlambert.log_pq_binomial, (params, 3), None),
            (pqlambert.equal_ratio_residual, (params, 3), None)]


def _floats(value):
    """Every float a result carries; a series' radius may be infinite."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, pqlambert.SeriesExpansion):
        yield from value.coeffs
    elif isinstance(value, np.ndarray):
        yield from value.tolist()
    elif isinstance(value, dict):
        for v in value.values():
            yield from _floats(v)
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _floats(v)


def _violations(calls):
    bad = []
    for fn, args, sign in calls:
        try:
            value = fn(*args)
        except _LIBRARY_ERRORS:
            continue
        except Exception as exc:  # the contract admits none of these
            bad.append((fn.__name__, args, repr(exc)))
            continue
        if not all(map(math.isfinite, _floats(value))):
            bad.append((fn.__name__, args, value))
        elif sign is not None and (value != 0.0 if sign == 0 else
                                   math.copysign(1.0, value) != sign):
            # a value that underflows keeps its sign as a signed zero
            bad.append((fn.__name__, args, value))
    return bad


def test_every_exported_function_keeps_the_contract():
    assert not _violations(_calls())


def test_pq_functions_keep_the_contract():
    assert not _violations(_pq_calls())


@pytest.mark.parametrize("bad", PQ_NON_FINITE)
def test_pq_params_reject_non_finite_p_and_q(bad):
    for p, q in ((bad, 0.5), (0.5, bad), (bad, _DBL_MAX), (5e-324, bad)):
        with pytest.raises(pqlambert.DomainError):
            pqlambert.PqParams(8, p, q)


@pytest.mark.parametrize("p, q, log_c3, log_norm, peaks", [
    (1e308, 0.5, 10637.943129632491, 11347.139338274661, (4,)),
    (_DBL_MAX, 0.5, 10646.74069340076, 11356.523406294144, (4,)),
    (0.5, _DBL_MAX, 10646.74069340076, 11356.523406294144, (4,)),
    (5e-324, 0.5, -10.39720770839918, 0.7012093811032143, (0, 8)),
    (5e-324, 2.0, 10.39720770839918, 11.845977573902449, (4,)),
])
def test_pq_values_at_the_finite_ends(p, q, log_c3, log_norm, peaks):
    params = pqlambert.PqParams(8, p, q)
    assert pqlambert.log_pq_binomial(params, 3) == log_c3
    dist = pqlambert.build_distribution(params)
    assert (dist.log_norm, dist.peaks) == (log_norm, peaks)


def test_the_grid_calls_every_exported_function():
    exported = {name for name in pqlambert.__all__
                if callable(obj := getattr(pqlambert, name)) and not isinstance(obj, type)}
    called = {fn.__name__ for fn, _, _ in _calls() + _pq_calls()}
    # pn_next steps a polynomial, which pn_sequence covers at every a
    assert exported - called == {"pn_next"}

"""The package namespace: every exported name, resolved eagerly or on
first access, is the object of the module that defines it."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pqlambert

EXPORTS = {
    "core": [
        "AccuracyError", "AsymmetryParam", "BranchConstants", "BranchId",
        "ConvergenceError", "DomainError", "ParamKind", "RangeError",
        "SingularityError", "UnsupportedError", "as_param", "branch_constants",
        "forward", "forward_dw", "lambert_w", "special_point",
    ],
    "branches": [
        "ClosedFormTag", "PsiQuery", "omega", "omega_closed_form", "omega_finite_n",
        "psi", "psi_closed_form",
    ],
    "series": [
        "SeriesExpansion", "SeriesKind", "asymptotic_psi0", "asymptotic_psi1",
        "asymptotic_tail_coeffs", "bell", "branch_point_series", "derivative_series_check", "envelope_crossover_estimates",
        "psi0_bounds", "psi1_bounds", "taylor_at_zero",
    ],
    "calculus": [
        "PnPolynomial", "integral_omega", "integral_omega_quadrature", "integral_psi",
        "integral_psi_quadrature", "pn_next", "pn_sequence", "psi_derivative",
        "psi_primitive",
    ],
    "parametrize": ["AlphaPoint", "param_alpha", "param_beta"],
    "pqbinom": [
        "DegenerateRatioError", "PqDistribution", "PqParams", "build_distribution",
        "equal_ratio_residual", "log_pq_binomial", "peak_drift",
    ],
}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_exported_names_are_the_module_objects(module):
    mod = importlib.import_module(f"pqlambert.{module}")
    assert getattr(pqlambert, module) is mod
    for name in EXPORTS[module]:
        assert getattr(pqlambert, name) is getattr(mod, name), name


def test_star_import_yields_every_name_and_submodule():
    namespace = {}
    exec("from pqlambert import *", namespace)
    names = set(namespace) - {"__builtins__"}
    assert names == {n for names in EXPORTS.values() for n in names} | set(EXPORTS)
    assert names == set(pqlambert.__all__)


@pytest.mark.parametrize("module", sorted(pqlambert._LAZY))
def test_lazy_table_matches_module_all(module):
    mod = importlib.import_module(f"pqlambert.{module}")
    assert list(pqlambert._LAZY[module]) == list(mod.__all__)


def test_dir_lists_lazy_names():
    assert set(pqlambert.__all__) <= set(dir(pqlambert))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        pqlambert.no_such_name  # noqa: B018


def test_import_loads_only_core_and_branches():
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = ("import sys\nimport pqlambert\n"
             "print(sorted(m for m in sys.modules if m.startswith('pqlambert')))")
    res = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == str(["pqlambert", "pqlambert._rootfind",
                                      "pqlambert.branches", "pqlambert.core"])

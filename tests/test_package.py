"""The package namespace: every exported name, resolved eagerly or on
first access, is the object of the module that defines it."""

import ast
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


class _ArgumentRules(ast.NodeVisitor):
    """Collects the raises of a bare ValueError/TypeError and the functions
    that test isinstance(..., int)."""

    def __init__(self, module):
        self.scope, self.bare_raises, self.int_checks = [module], [], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
            self.bare_raises.append(f"{'.'.join(self.scope)}:{node.lineno}")
        self.generic_visit(node)

    def visit_Call(self, node):
        if (isinstance(node.func, ast.Name) and node.func.id == "isinstance"
                and len(node.args) == 2 and isinstance(node.args[1], ast.Name)
                and node.args[1].id == "int"):
            self.int_checks.add(".".join(self.scope))
        self.generic_visit(node)


def test_arguments_are_checked_by_the_core_rules_alone():
    """A bad argument raises one of the library's errors, and the integer
    rule lives only in core._check_int, so no module grows its own copy."""
    bare_raises, int_checks = [], set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "pqlambert").glob("*.py")):
        rules = _ArgumentRules(path.stem)
        rules.visit(ast.parse(path.read_text(encoding="utf-8")))
        bare_raises += rules.bare_raises
        int_checks |= rules.int_checks
    assert bare_raises == []
    assert int_checks == {"core._check_int"}

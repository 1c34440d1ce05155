"""The package namespace: every exported name, resolved eagerly or on
first access, is the object of the module that defines it."""

import ast
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import pqlambert
from pqlambert.calculus import pn_first
from pqlambert.selfcheck import SuiteResult

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


def test_hot_paths_read_no_enum_member():
    """On Python 3.11 an Enum member is read through a descriptor, about
    0.13 us a read, so the scalar hot paths test a branch against the
    module aliases _PRINCIPAL and _LOWER instead of BranchId.<member>."""
    src = Path(__file__).resolve().parents[1] / "src" / "pqlambert"
    hot = {"core": ("_is_principal", "_check_branch_domain", "lambert_w"),
           "branches": ("_solve_branch", "omega")}
    found = []
    for module, names in hot.items():
        tree = ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))
        funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        for name in names:
            found += [f"{module}.{name}:{node.lineno}" for node in ast.walk(funcs[name])
                      if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id == "BranchId"]
    assert found == []


def test_no_module_imports_dataclasses():
    """Importing dataclasses costs more than a CLI solve (it loads inspect
    and ast), so no record of the library is a dataclass."""
    src = Path(__file__).resolve().parents[1] / "src" / "pqlambert"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for n in names if n == "dataclasses"]
    assert found == []


_P = pqlambert.BranchId.PRINCIPAL
_PQ = "PqParams(n=8, p=1.1, q=0.9, provenance=None)"
RECORDS = [  # (build, build a different one, repr, hashable, a field)
    (lambda: pqlambert.AsymmetryParam.from_rational(1, 2), lambda: pqlambert.AsymmetryParam(0.5),
     "AsymmetryParam(a=0.5, exact=Fraction(1, 2))", True, "a"),
    (lambda: pqlambert.PsiQuery(0.5, _P, 1.0), lambda: pqlambert.PsiQuery(0.5, _P, 2.0),
     "PsiQuery(a=AsymmetryParam(a=0.5, exact=None), "
     "branch=<BranchId.PRINCIPAL: 'principal'>, x=1.0)", True, "x"),
    (lambda: pn_first(0.5), lambda: pn_first(0.25),
     "PnPolynomial(n=1, a=AsymmetryParam(a=0.5, exact=None), terms={(0, 0): 1.0})", False, "n"),
    (lambda: pqlambert.param_alpha(0.5, 2.0), lambda: pqlambert.param_alpha(0.5, 3.0),
     "AlphaPoint(alpha=2.0, x=-0.18406900993524478, psi0=-0.7916825090613853, "
     "psi1=-1.4848296896213302)", True, "x"),
    (lambda: pqlambert.PqParams(8, 1.1, 0.9), lambda: pqlambert.PqParams(8, 1.1, 0.8),
     _PQ, True, "p"),
    (lambda: pqlambert.PqParams.from_transition(8, 0.5, -1.0, -0.5),
     lambda: pqlambert.PqParams(8, 0.875, 0.75),
     "PqParams(n=8, p=0.875, q=0.75, provenance=(0.5, -0.5, -1.0))", True, "provenance"),
    (lambda: SuiteResult("x", True, 0.5, 1.0), lambda: SuiteResult("x", False, 0.5, 1.0),
     "SuiteResult(name='x', passed=True, worst=0.5, threshold=1.0)", True, "passed"),
    (lambda: pqlambert.taylor_at_zero(0.5, 2), lambda: pqlambert.taylor_at_zero(0.5, 3),
     "SeriesExpansion(kind=<SeriesKind.TAYLOR_AT_ZERO: 'taylor_at_zero'>, "
     "a=AsymmetryParam(a=0.5, exact=None), coeffs=(2.0, -4.0), order=2, arg_transform='x', "
     "value_offset='0', valid_radius=0.1924500897298753)", True, "coeffs"),
]


@pytest.mark.parametrize("build, other, text, hashable, field", RECORDS,
                         ids=[r[2].partition("(")[0] for r in RECORDS])
def test_record_contract(build, other, text, hashable, field):
    """Each record keeps the equality, hash, repr and immutability it had
    as a frozen dataclass, and survives a pickle round trip."""
    rec = build()
    assert rec == build() and rec != other() and repr(rec) == text
    if hashable:
        assert hash(rec) == hash(build()) and pickle.loads(pickle.dumps(rec)) == rec
    else:
        with pytest.raises(TypeError):
            hash(rec)
    with pytest.raises(AttributeError):
        setattr(rec, field, None)
    with pytest.raises(AttributeError):
        delattr(rec, field)


def test_replace_validates():
    with pytest.raises(pqlambert.DomainError):
        pqlambert.PqParams(8, 1.1, 0.9)._replace(n=0)
    with pytest.raises(pqlambert.DomainError):
        pqlambert.PsiQuery(0.5, _P, 1.0)._replace(x=-1.0)
    with pytest.raises(pqlambert.DomainError):
        pqlambert.taylor_at_zero(0.5, 2)._replace(order=3)
    assert pqlambert.PqParams(8, 1.1, 0.9)._replace(q=0.8) == pqlambert.PqParams(8, 1.1, 0.8)


def test_distribution_repr_leaves_out_the_coefficients():
    dist = pqlambert.build_distribution(pqlambert.PqParams(8, 1.1, 0.9))
    assert repr(dist) == f"PqDistribution(params={_PQ}, log_norm=5.682628115687936, peaks=(4,))"
    assert dist == dist
    with pytest.raises(TypeError):
        hash(dist)
    with pytest.raises(AttributeError):
        dist.peaks = ()


def _scalar_calls():
    P, LO = pqlambert.BranchId.PRINCIPAL, pqlambert.BranchId.LOWER
    pqlambert.psi(0.37, P, 0.5)
    pqlambert.psi(0.37, LO, -0.05)
    pqlambert.omega(0.37, -3.0)
    pqlambert.omega_finite_n(64, 0.37, -3.0)
    pqlambert.forward(0.37, 1.5)
    pqlambert.forward_dw(0.37, 1.5)
    pqlambert.param_alpha(0.37, 2.0)
    pqlambert.psi_derivative(0.37, LO, -0.05, 3)


def test_float_a_builds_no_parameter_record(monkeypatch):
    # a scalar call validates a float a as a float; building an
    # AsymmetryParam per call cost about a tenth of a psi call
    built = []
    init = pqlambert.AsymmetryParam.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(pqlambert.AsymmetryParam, "__init__", counting_init)
    _scalar_calls()
    assert built == []


def test_solves_go_through_the_module_level_solver(monkeypatch):
    # bench/spans.py counts g evaluations by replacing newton_bracketed where
    # branches holds it, and reads the constants cache's statistics
    from pqlambert import branches, core

    solver, funs = branches.newton_bracketed, []

    def counting_solver(fun, *args, **kwargs):
        funs.append(fun)
        return solver(fun, *args, **kwargs)

    monkeypatch.setattr(branches, "newton_bracketed", counting_solver)
    _scalar_calls()
    assert len(funs) == 5  # one solve each: psi twice, omega, omega_finite_n, psi_derivative
    assert core._constants_for.cache_info().maxsize > 0

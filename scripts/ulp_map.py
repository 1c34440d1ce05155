#!/usr/bin/env python3
"""Worst error in ulps, per region, of psi_derivative, taylor_at_zero and
the closed-form branches against the 50-digit mpmath oracle of bench/,
of omega at its a -> 0 band and both underflow ends against a 60-digit
root, of psi at its far ends (subnormal x or a, roots where f or f'
overflows) against a 60-digit root, of lambert_w near its branch point
-1/e against mpmath's, of each field of param_alpha against a 60-digit
evaluation of its formulas, and worst relative error of omega_finite_n
beyond its input conditioning.

Usage:
    PYTHONPATH=src python scripts/ulp_map.py

Each line gives the function, the region, the number of points, the worst
error in ulps of the reference value rounded to a double, and the input
where it occurs.  A point where the library raises (other than a
RangeError where the reference overflows) is listed as a failure.  For
omega_finite_n the worst value is max(0, |y - ref| - 16*|dy/dz|*ulp(z))/|ref|
(0 where y is ref rounded to a double) against the root of the ratio
equation in tests/conftest.py.  omega's reference is mp_omega_root there:
the root of the log form of f(a, y) = f(a, z), with w_min taken as
(log1p(-a) - log1p(a))/(2a), so that it holds at a subnormal a too.
psi's far-end reference is mp_psi_root there, a root of the log form
bracketed without any library seed.
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import oracle  # noqa: E402
from conftest import geometric_grid, mp_finite_n_root, mp_omega_root, mp_psi_root  # noqa: E402

from pqlambert import AsymmetryParam, BranchId, branch_constants, lambert_w  # noqa: E402
from pqlambert.branches import omega, omega_finite_n, psi, psi_closed_form  # noqa: E402
from pqlambert.calculus import psi_derivative  # noqa: E402
from pqlambert.parametrize import param_alpha  # noqa: E402
from pqlambert.series import taylor_at_zero  # noqa: E402


def branch_root(a: Fraction, branch: str, x: float):
    """oracle.psi, polished by Newton steps to full relative accuracy for
    roots near 0, where the oracle's absolute stopping rule ends early."""
    am, xm = oracle.M(a), oracle.M(x)
    w = oracle.psi(a, branch, x, None)
    for _ in range(8):
        w -= (oracle.fwd(am, w) - xm) / oracle.fwd_dw(am, w)
    return w


def ulps(got: float, ref) -> float:
    ref_d = float(ref)
    if ref_d == 0.0:
        return 0.0 if got == 0.0 else math.inf
    return float(abs(oracle.M(got) - ref)) / math.ulp(ref_d)


def regions(f_min: float) -> dict:
    """x grids per region of both branches, log-dense near f_min, 0 and the tail."""
    near = [f_min * (1.0 - 10.0 ** -k) for k in (2, 4, 6, 8, 10)]
    return {
        ("principal", "near f_min"): near,
        ("principal", "f_min < x < 0"): [f_min * s for s in (0.5, 0.1, 1e-3, 1e-8)],
        ("principal", "0 <= x <= 1"): [0.0, 1e-300, 1e-100, 1e-8, 1e-3, 0.5, 1.0],
        ("principal", "1 < x <= 1e6"): [2.0, 10.0, 1e3, 1e6],
        ("principal", "x > 1e6"): [1e10, 1e50, 1e150, 1e300],
        ("lower", "near f_min"): near,
        ("lower", "f_min < x < 1e-3 f_min"): [f_min * s for s in (0.9, 0.5, 0.1, 0.01)],
        ("lower", "x near 0-"): [f_min * s for s in (1e-3, 1e-8, 1e-50, 1e-200)],
    }


def report(name: str, region: str, rows: list, unit: str = "ulps") -> None:
    fails = [arg for arg, err in rows if err is None]
    errs = [(err, arg) for arg, err in rows if err is not None]
    worst, where = max(errs, key=lambda t: t[0]) if errs else (0.0, None)
    line = f"{name:<22s} {region:<34s} n={len(rows):<4d} worst={worst:10.3g} {unit} at {where}"
    if fails:
        line += f"  FAILED at {fails}"
    print(line, flush=True)


def derivative_map() -> None:
    for a in (0.05, 0.37, 0.9, 0.999):
        for (br, region), xs in regions(branch_constants(a).f_min).items():
            branch = BranchId(br)
            rows = []
            for x in xs:
                for n in range(1, 9):
                    try:
                        ref, _ = oracle.psi_derivative(a, br, x, n, None)
                    except (oracle.OutOfDomain, oracle.OracleFailure):
                        continue
                    if abs(ref) > sys.float_info.max:
                        continue  # overflows: a RangeError is correct
                    try:
                        rows.append(((x, n), ulps(psi_derivative(a, branch, x, n), ref)))
                    except ArithmeticError:
                        rows.append(((x, n), None))
            report("psi_derivative", f"a={a} {br} {region}", rows)


def taylor_map() -> None:
    for a in (0.05, 0.37, 0.9, 0.95):
        ref = oracle.taylor_at_zero(a, 40)
        got = taylor_at_zero(a, 40).coeffs
        for lo, hi in ((1, 10), (11, 20), (21, 40)):
            rows = [(m, ulps(got[m - 1], ref[m - 1])) for m in range(lo, hi + 1)]
            report("taylor_at_zero", f"a={a} coefficients {lo}-{hi}", rows)


def closed_form_map() -> None:
    for num, den in ((1, 3), (1, 2), (1, 5), (3, 5), (1, 7)):
        a = AsymmetryParam.from_rational(num, den)
        for (br, region), xs in regions(branch_constants(a).f_min).items():
            rows = []
            for x in xs:
                try:
                    ref = branch_root(Fraction(num, den), br, x)
                except (oracle.OutOfDomain, oracle.OracleFailure):
                    continue
                try:
                    rows.append((x, ulps(psi_closed_form(a, BranchId(br), x), ref)))
                except (ArithmeticError, ValueError):
                    rows.append((x, None))
            report("psi_closed_form", f"a={num}/{den} {br} {region}", rows)


def finite_n_zs(n: int, a: float) -> dict:
    """z grids per region: the body, both sides of the numerator's
    maximizer y_peak (-> w_min as n grows), and q = 1 + 2z/n near 0."""
    k = round(n * (1.0 - a) / 2.0)
    y_peak = 0.5 * n * math.expm1(math.log(k / (n - k + 1)) / (n + 1 - 2 * k))
    return {
        "-20 <= z <= -0.05": [-0.05, -0.5, -2.0, -5.0, -20.0],
        "z near y_peak": [y_peak * (1.0 + s * 10.0 ** -j) for j in (2, 6, 10) for s in (-1, 1)],
        "z near -n/2": [-0.5 * n * (1.0 - 10.0 ** -j) for j in (1, 3, 8, 14)],
    }


def finite_n_map() -> None:
    for a in (1e-8, 1e-4, 0.37, 0.9, 0.999):
        rows = {}
        for n in (2, 3, 10, 64, 1000, 2 ** 16, 2 ** 20, 2 ** 22):
            if not 1 <= round(n * (1.0 - a) / 2.0) <= n // 2:
                continue  # k outside [1, n//2]: a DomainError by contract
            for region, zs in finite_n_zs(n, a).items():
                for z in zs:
                    if not (z < 0.0 and 1.0 + 2.0 * z / n > 0.0):
                        continue
                    ref, dz = mp_finite_n_root(n, a, z)
                    try:
                        y = omega_finite_n(n, a, z)
                    except ArithmeticError:
                        rows.setdefault(region, []).append(((n, z), None))
                        continue
                    excess = abs(oracle.M(y) - ref) - 16 * abs(dz) * math.ulp(z)
                    if y == float(ref) or excess <= 0:
                        rel = 0.0  # correctly rounded, or within the conditioning
                    else:
                        rel = float(excess / abs(ref)) if ref else math.inf
                    rows.setdefault(region, []).append(((n, z), rel))
        for region, region_rows in rows.items():
            report("omega_finite_n", f"a={a} {region}", region_rows, "rel")


def omega_map() -> None:
    """Both underflow ends, where forward(a, z) is subnormal or zero for
    every a but the largest, and the a -> 0 band of the W0 <-> W-1 swap."""
    ends = {
        "principal end -1e300 <= z <= -708": geometric_grid(-1e300, -708.0, 40)
        + [-708.5, -745.0, -746.0, -800.0],
        "lower end -1e-300 <= z <= -5e-324": geometric_grid(-1e-300, -5e-324, 40) + [-1e-320],
    }
    for a in (0.0, 5e-324, 1e-300, 1e-11, 0.37, 0.999):
        for region, zs in ends.items():
            rows = [(z, ulps(omega(a, z), mp_omega_root(a, z))) for z in zs]
            report("omega", f"a={a} {region}", rows)


def psi_far_map() -> None:
    """The grid of tests/test_branches.py::TestFarEnds: subnormal and tiny
    |x|, and x from 0.3 up to the largest double, at a from 5e-324 to
    1 - 2^-52, less x within 1e-3 relative of f_min."""
    big = sys.float_info.max
    xs = ([s * m for m in (5e-324, 1e-315, 1e-310, 1e-300, 1e-100, 1e-12) for s in (1.0, -1.0)]
          + [0.3, 1e20, 1e300, big / 2.0, big])
    for a in (5e-324, 1e-310, 1e-300, 1e-100, 1e-12, 1e-8, 1e-4, 1e-3, 0.37, 0.9999,
              1.0 - 2.0 ** -52):
        f_min = branch_constants(a).f_min
        for branch in (BranchId.PRINCIPAL, BranchId.LOWER):
            rows = {}
            for x in xs:
                if x < f_min or (branch is BranchId.LOWER and x >= 0.0) \
                        or abs(x - f_min) <= 1e-3 * abs(f_min):
                    continue
                region = ("|x| subnormal" if abs(x) < sys.float_info.min else
                          "|x| normal <= 1e-12" if abs(x) <= 1e-12 else "x >= 0.3")
                ref = mp_psi_root(a, branch is BranchId.PRINCIPAL, x)
                try:
                    err = ulps(psi(a, branch, x), ref)
                except ArithmeticError:
                    err = None
                rows.setdefault(region, []).append((x, err))
            for region, region_rows in rows.items():
                report("psi", f"a={a} {branch.value} {region}", region_rows)


def lambert_map() -> None:
    """x + 1/e from 1e-16 to 1e-2 on both branches, by decade band."""
    import mpmath

    inv_e = mpmath.exp(-1)
    for branch, k in ((BranchId.PRINCIPAL, 0), (BranchId.LOWER, -1)):
        for lo, hi in ((1e-16, 1e-12), (1e-12, 1e-8), (1e-8, 1e-6), (1e-6, 1e-4),
                       (1e-4, 1e-3), (1e-3, 1e-2)):
            rows = []
            for u in geometric_grid(lo, hi, 60):
                x = float(u - inv_e)
                rows.append((x, ulps(lambert_w(branch, x), mpmath.lambertw(x, k).real)))
            report("lambert_w", f"{branch.value} {lo:g} <= x + 1/e <= {hi:g}", rows)


def param_alpha_map() -> None:
    """alpha - 1 from 1e-8 to 1e4 at a up to 1 - 2^-52, where rho -> 1.
    The reference takes alpha^c - 1 as expm1(c*log(alpha)) and 1 - rho as
    alpha^(2a)*(alpha^(1-a) - 1)/(alpha^(1+a) - 1), free of cancellation."""
    import mpmath

    alphas = [1.0 + u for u in geometric_grid(1e-8, 1e4, 40)]
    for a in (1e-8, 0.05, 0.2, 1.0 / 3.0, 0.5, 0.9, 0.999, 1.0 - 1e-8, 1.0 - 2.0 ** -52):
        rows = {"x": [], "psi0": [], "psi1": []}
        for alpha in alphas:
            with mpmath.workdps(60):
                am, lm = mpmath.mpf(a), mpmath.log(mpmath.mpf(alpha))
                e_low, e_high = mpmath.expm1((1 - am) * lm), mpmath.expm1((1 + am) * lm)
                rho = mpmath.expm1(2 * am * lm) / e_high
                one_m_rho = mpmath.exp(2 * am * lm) * e_low / e_high
                ref = {"x": -rho * one_m_rho ** ((1 - am) / (2 * am)) / 2,
                       "psi0": mpmath.log(one_m_rho) / (2 * am),
                       "psi1": mpmath.log(e_low / e_high) / (2 * am)}
                point = param_alpha(a, alpha)
                for field, got in rows.items():
                    got.append((alpha, ulps(getattr(point, field), ref[field])))
        for field, field_rows in rows.items():
            report("param_alpha", f"a={a} {field}", field_rows)


if __name__ == "__main__":
    taylor_map()
    closed_form_map()
    derivative_map()
    finite_n_map()
    omega_map()
    psi_far_map()
    lambert_map()
    param_alpha_map()

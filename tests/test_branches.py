"""Tests for the inverse branches, closed forms, the transition function,
and its finite-n analogue."""

import math
import random
import sys

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (geometric_grid, linear_grid, mp_branch_root, mp_finite_n_root,
                      mp_omega_root, mp_psi_root)
from pqlambert import core
from pqlambert.calculus import psi_derivative, psi_primitive
from pqlambert.core import (
    AsymmetryParam,
    BranchId,
    DomainError,
    RangeError,
    UnsupportedError,
    branch_constants,
    forward,
    lambert_w,
)
from pqlambert.branches import (
    ClosedFormTag,
    PsiQuery,
    omega,
    omega_closed_form,
    omega_finite_n,
    psi,
    psi_closed_form,
)

P, LO = BranchId.PRINCIPAL, BranchId.LOWER

CLOSED_FORM_AS = [(1, 3), (1, 2), (1, 5), (3, 5), (1, 7)]


class TestPsiQueryValidation:
    def test_domain_checks(self):
        bc = branch_constants(0.5)
        PsiQuery(AsymmetryParam(0.5), P, 1.0)
        PsiQuery(AsymmetryParam(0.5), LO, bc.f_min / 2)
        with pytest.raises(DomainError):
            PsiQuery(AsymmetryParam(0.5), P, bc.f_min - 1e-6)
        with pytest.raises(DomainError):
            PsiQuery(AsymmetryParam(0.5), LO, 0.0)
        with pytest.raises(DomainError):
            PsiQuery(AsymmetryParam(0.0), P, 0.5)
        with pytest.raises(DomainError):
            PsiQuery(AsymmetryParam(1.0), LO, -0.1)
        PsiQuery(AsymmetryParam(1.0), P, -0.4)
        with pytest.raises(DomainError):
            PsiQuery(AsymmetryParam(1.0), P, -0.5)


class TestPsi:
    def test_trivial_points(self):
        assert psi(1 / 3, P, 0.0) == 0.0
        assert psi(1 / 3, P, 1.0) == pytest.approx(1.5 * math.log(2.0), rel=1e-14)

    def test_branch_point_value(self):
        for a in (0.15, 0.5, 0.85):
            bc = branch_constants(a)
            assert psi(a, P, bc.f_min) == bc.w_min
            assert psi(a, LO, bc.f_min) == bc.w_min

    def test_one_limit_closed_form(self):
        assert psi(1.0, P, 0.3) == pytest.approx(0.5 * math.log(1.6), rel=1e-15)

    @pytest.mark.parametrize("x", [1.7e308, sys.float_info.max])
    def test_one_limit_above_half_the_largest_double(self, x):
        # 2x overflows: log1p(2x)/2 is taken as (log(x) + log(2))/2
        assert psi(1.0, P, x) == pytest.approx(0.5 * (math.log(x) + math.log(2.0)), rel=1e-15)

    @given(st.floats(0.02, 0.98), st.floats(0.0, 1.0), st.booleans())
    @settings(max_examples=500, deadline=None)
    def test_round_trip_property(self, a, frac, lower):
        bc = branch_constants(a)
        if lower:
            x = bc.f_min * max(frac, 1e-6)
            w = psi(a, LO, x)
            assert w <= bc.w_min + 1e-12
        else:
            x = bc.f_min + (10.0 - bc.f_min) * frac
            w = psi(a, P, x)
            assert w >= bc.w_min - 1e-12
        assert forward(a, w) == pytest.approx(x, rel=1e-12, abs=1e-13 * abs(bc.f_min))

    def test_round_trip_extremes(self):
        for a in (0.05, 0.5, 0.95):
            bc = branch_constants(a)
            for x in (1e-300, 1e-12, 1e6, 1e12):
                w = psi(a, P, x)
                assert forward(a, w) == pytest.approx(x, rel=1e-12)
            for x in (bc.f_min * 1e-300, bc.f_min * 1e-10, bc.f_min * (1 - 1e-12)):
                w = psi(a, LO, x)
                assert forward(a, w) == pytest.approx(x, rel=1e-12)

    def test_domain_errors(self):
        bc = branch_constants(0.4)
        with pytest.raises(DomainError):
            psi(0.4, P, bc.f_min * 1.001)
        with pytest.raises(DomainError):
            psi(0.4, LO, 1e-9)
        with pytest.raises(DomainError):
            psi(0.0, P, 0.5)

    def test_small_a_lambert_relation(self):
        # psi(a, x) ~ W(x/a) with relative deviation shrinking like a^2
        for lam_arg, branch in ((-0.05, P), (-0.05, LO), (0.5, P), (5.0, P)):
            w_ref = lambert_w(branch, lam_arg)
            prev = None
            for a in (1e-2, 1e-3, 1e-4):
                dev = abs(psi(a, branch, a * lam_arg) / w_ref - 1.0)
                if prev is not None:
                    assert dev < prev
                prev = dev
            assert prev < 1e-6


class TestTinyAAndTopOfRange:
    """Inputs where the solver used to leak ZeroDivisionError or
    OverflowError, or return inf, against 50-digit mpmath roots."""

    @pytest.mark.parametrize("a", [1e-300, 1e-200, 1e-160, 1e-155])
    def test_principal_taylor_disc_at_tiny_a(self, a, mp50):
        # psi(a, x) -> W0(x/a) as a -> 0; W0(-0.01) = -0.010101527198538752
        value = psi(a, P, -0.01 * a)
        ref = mp_branch_root(a, -0.01 * a, value)
        assert abs(value - float(ref)) <= 2.0 * math.ulp(value)
        if a == 1e-300:
            assert value == pytest.approx(-0.010101527198538752, rel=4e-16)

    @pytest.mark.parametrize("a", [1e-300, 1e-160])
    def test_omega_at_tiny_a(self, a, mp50):
        value = omega(a, -5.0)
        am, zm = mp50.mpf(a), mp50.mpf(-5.0)
        ref = mp_branch_root(a, mp50.sinh(am * zm) * mp50.exp(zm), value)
        assert abs(value - float(ref)) <= 4.0 * math.ulp(value)
        assert value == pytest.approx(-0.034885768255723696, rel=1e-15)

    def test_principal_bracket_at_tiny_a(self, mp50):
        value = psi(1e-300, P, 1.0)
        ref = mp_branch_root(1e-300, 1.0, value)
        assert abs(value - float(ref)) <= 2.0 * math.ulp(value)
        assert value == pytest.approx(684.24720862976085, rel=4e-16)

    @pytest.mark.parametrize("a", [5e-324, 1e-323])
    def test_subnormal_a(self, a, mp50):
        # at a = 5e-324 the branch-point scale f_min*(a^2-1) is 0, and 2a*w
        # keeps one or two bits: psi solves f/a = w*e^w*xi(2aw) in log form
        for x in (1e-300, 0.5):
            value = psi(a, P, x)
            ref = mp_branch_root(a, x, value)
            assert abs(value - float(ref)) <= 2.0 * math.ulp(value)
        assert math.isfinite(psi_derivative(a, P, 1e-300, 1))
        assert math.isfinite(psi_primitive(a, P, 1e-300))

    def test_root_beyond_the_overflow_point(self, mp50):
        # w*e^w = 1e320 needs w > 709.78, where exp((1-a)w) overflows, and
        # near a = 1 the factor expm1(2a*w) overflows below the root: each
        # root is a finite double all the same
        for a, x in ((1e-300, 1e20), (0.9999, sys.float_info.max)):
            value = psi(a, P, x)
            ref = mp_branch_root(a, x, value)
            assert abs(value - float(ref)) <= 2.0 * math.ulp(value)

    def test_root_where_the_derivative_overflows(self):
        a, x = 0.0013331334721427075, 1.797648567449418e308
        value = psi(a, P, x)
        # 40-digit root of the log form log(sinh(a*w)) + w = log(x), by Newton
        with mpmath.workdps(40):
            am, log_x, w = mpmath.mpf(a), mpmath.log(mpmath.mpf(x)), mpmath.mpf(value)
            for _ in range(60):
                w -= (mpmath.log(mpmath.sinh(am * w)) + w - log_x) / (am / mpmath.tanh(am * w) + 1)
            ref = float(w)
        assert abs(value - ref) <= 4.0 * math.ulp(ref)

    @pytest.mark.parametrize("a", [0.1, 0.5, 0.9, 0.998])
    @pytest.mark.parametrize("x", [sys.float_info.max / 2.0, 1e308, sys.float_info.max])
    def test_top_of_range(self, a, x, mp50):
        # 2x overflows above DBL_MAX/2
        value = psi(a, P, x)
        ref = mp_branch_root(a, x, value)
        assert abs(value - float(ref)) <= 2.0 * math.ulp(value)
        # psi' = 1/f'(psi(x))
        am, wm = mp50.mpf(a), ref
        dref = 1 / ((am * mp50.cosh(am * wm) + mp50.sinh(am * wm)) * mp50.exp(wm))
        assert psi_derivative(a, P, x, 1) == pytest.approx(float(dref), rel=1e-14)


_DBL_MAX = sys.float_info.max
_FAR_AS = [5e-324, 1e-310, 1e-300, 1e-100, 1e-12, 1e-8, 1e-4, 1e-3, 0.37, 0.9999, 1.0 - 2.0 ** -52]
_FAR_XS = ([s * m for m in (5e-324, 1e-315, 1e-310, 1e-300, 1e-100, 1e-12) for s in (1.0, -1.0)]
           + [0.3, 1e20, 1e300, _DBL_MAX / 2.0, _DBL_MAX])
_LIBRARY_ERRORS = (core.DomainError, core.RangeError, core.ConvergenceError,
                   core.UnsupportedError, core.AccuracyError)


def _far_points(a):
    """(branch, x) of _FAR_XS on each branch's domain at a, less the x within
    1e-3 relative of f_min, where the branch point's conditioning rules."""
    f_min = branch_constants(a).f_min
    return [(branch, x) for branch in (P, LO) for x in _FAR_XS
            if x >= f_min and not (branch is LO and x >= 0.0)
            and abs(x - f_min) > 1e-3 * abs(f_min)]


class TestFarEnds:
    """psi where f(w) - x cannot resolve w: x or a subnormal, and roots
    where f or f' overflows.  Against a seed-free 60-digit root."""

    @pytest.mark.parametrize("a", _FAR_AS)
    def test_roots_within_two_ulps(self, a):
        bad = []
        for branch, x in _far_points(a):
            value = psi(a, branch, x)  # never a RangeError: every root is a finite double
            ref = float(mp_psi_root(a, branch is P, x))
            if abs(value - ref) > 2.0 * math.ulp(ref):
                bad.append((branch.value, x, value, ref))
        assert not bad, bad

    @pytest.mark.parametrize("a, branch, x", [
        (1e-4, LO, -1e-315), (0.01, LO, -1e-315), (0.9999, P, 1e308),
        (1.0 - 2.0 ** -52, P, 1.7e308), (1e-320, P, -3e-321),
        (0.0013331334721427075, P, 1.797648567449418e308)])
    def test_off_the_grid(self, a, branch, x):
        value = psi(a, branch, x)
        ref = float(mp_psi_root(a, branch is P, x))
        assert abs(value - ref) <= 2.0 * math.ulp(ref)

    @pytest.mark.parametrize("a", _FAR_AS)
    def test_derivative_against_mpmath(self, a):
        # 1/f'(psi) at the 60-digit root; RangeError only where it overflows
        bad = []
        for branch, x in _far_points(a):
            with mpmath.workdps(60):
                w, am = mp_psi_root(a, branch is P, x), mpmath.mpf(a)
                ref = 1 / ((am * mpmath.cosh(am * w) + mpmath.sinh(am * w)) * mpmath.exp(w))
            try:
                value = psi_derivative(a, branch, x, 1)
            except RangeError:
                value = math.inf
            if abs(ref) > _DBL_MAX:
                ok = value == math.inf
            else:
                ok = abs(value - ref) <= 1e-12 * abs(ref)
            if not ok:
                bad.append((branch.value, x, value, float(ref)))
        assert not bad, bad

    @pytest.mark.parametrize("a", _FAR_AS)
    def test_derivative_and_primitive_keep_the_contract(self, a):
        for branch, x in _far_points(a):
            for fn, args in ((psi_derivative, (a, branch, x, 1)), (psi_primitive, (a, branch, x))):
                try:
                    assert math.isfinite(fn(*args)), (fn.__name__, args)
                except _LIBRARY_ERRORS:
                    pass


class TestClosedFormFallback:
    """Where a radical of the 1/3, 3/5 or 1/7 closed forms leaves the double
    range, psi_closed_form returns the solver's root instead of leaking a
    math error or a non-finite value."""

    @pytest.mark.parametrize("num, den, branch, x", [
        (3, 5, P, 1e150),       # OverflowError
        (3, 5, LO, -2.4e-51),   # ValueError
        (1, 7, LO, -5.3e-52),   # ValueError
        (1, 7, P, 1e50),        # ValueError
        (1, 3, P, 1e308),       # inf
        (3, 5, P, 1e308),       # nan
        (3, 5, P, sys.float_info.max),
    ])
    def test_against_mpmath(self, num, den, branch, x, mp50):
        value = psi_closed_form(AsymmetryParam.from_rational(num, den), branch, x)
        ref = mp_branch_root(num / den, x, value)
        assert abs(value - float(ref)) <= 2.0 * math.ulp(value)


class TestOneLookupPerCall:
    """A scalar call validates a once and looks up its branch constants
    once, also when a is new to the constants cache."""

    @staticmethod
    def _lookups(call):
        core._constants_for.cache_clear()
        call()
        info = core._constants_for.cache_info()
        return info.hits + info.misses

    @pytest.mark.parametrize("call", [
        lambda: psi(0.37, P, 0.5),
        lambda: psi(0.37, LO, -0.05),
        lambda: psi(0.37, P, -0.01),
        lambda: omega(0.37, -3.0),
        lambda: omega(0.37, -0.5),
        lambda: psi_closed_form(AsymmetryParam.from_rational(1, 3), P, 0.5),
        lambda: psi_closed_form(AsymmetryParam.from_rational(1, 2), LO, -0.1),
        lambda: psi_derivative(0.37, LO, -0.05, 3),
    ])
    def test_one_constants_lookup(self, call):
        assert self._lookups(call) == 1


class TestClosedForms:
    def test_tag_classification(self):
        assert ClosedFormTag.classify(AsymmetryParam.from_rational(1, 3)) is ClosedFormTag.A13
        assert ClosedFormTag.classify(AsymmetryParam.from_rational(2, 6)) is ClosedFormTag.A13
        assert ClosedFormTag.classify(AsymmetryParam(1 / 3)) is ClosedFormTag.NONE
        assert ClosedFormTag.classify(AsymmetryParam.from_rational(2, 5)) is ClosedFormTag.NONE

    def test_float_a_rejected(self):
        with pytest.raises(UnsupportedError):
            psi_closed_form(0.5, P, 1.0)

    def test_one_third_examples(self):
        a = AsymmetryParam.from_rational(1, 3)
        assert psi_closed_form(a, LO, -0.125) == pytest.approx(
            -1.5 * math.log(2.0), rel=1e-14)
        assert psi_closed_form(a, P, 1.0) == pytest.approx(
            1.5 * math.log(2.0), rel=1e-14)

    def test_one_half_zero(self):
        a = AsymmetryParam.from_rational(1, 2)
        assert abs(psi_closed_form(a, P, 0.0)) < 1e-15

    def test_three_fifths_domain_endpoint(self):
        a = AsymmetryParam.from_rational(3, 5)
        x_end = -3.0 / (8.0 * 4.0 ** (1.0 / 3.0))
        bc = branch_constants(a)
        assert x_end == pytest.approx(bc.f_min, rel=1e-15)
        assert psi_closed_form(a, P, x_end) == pytest.approx(
            psi(a, P, x_end), abs=1e-12)

    @pytest.mark.parametrize("num,den", CLOSED_FORM_AS)
    def test_agreement_with_solver(self, num, den):
        a = AsymmetryParam.from_rational(num, den)
        bc = branch_constants(a)
        for x in linear_grid(bc.f_min, 10.0, 1000):
            v1 = psi_closed_form(a, P, x)
            v2 = psi(a, P, x)
            assert abs(v1 - v2) <= 1e-11 * max(1.0, abs(v2))
        for x in linear_grid(bc.f_min, 0.0, 1001)[:-1]:
            v1 = psi_closed_form(a, LO, x)
            v2 = psi(a, LO, x)
            assert abs(v1 - v2) <= 1e-11 * max(1.0, abs(v2))

    @pytest.mark.parametrize("num,den", CLOSED_FORM_AS)
    def test_round_trip_of_closed_forms(self, num, den):
        a = AsymmetryParam.from_rational(num, den)
        bc = branch_constants(a)
        for x in geometric_grid(bc.f_min * 0.999, bc.f_min * 1e-4, 60):
            w = psi_closed_form(a, LO, x)
            assert forward(a, w) == pytest.approx(x, rel=1e-11)


class TestClosedFormsNearZero:
    @pytest.mark.parametrize("num, den", [(1, 3), (1, 2), (1, 5)])
    def test_principal_psi_tends_to_zero(self, num, den):
        # psi0 ~ x/a -> 0 as x -> 0: the log(1 + small) piece must not cancel
        a = AsymmetryParam.from_rational(num, den)
        for x in (-1e-3, -1e-8, -1.25e-9, -1e-100, -1e-300, 1e-300, 1e-100, 1e-8, 1e-3):
            got, want = psi_closed_form(a, P, x), psi(a, P, x)
            assert abs(got - want) <= 1e-14 * abs(want), x


class TestHyperbolicClosedForms:
    # x from 1e-300 through the largest doubles: 1/5 takes its sinh/asinh
    # piece for every x >= +0.0, 1/2 its cosh/acosh piece from sqrt(3)/9 on
    GRID = ([10.0 ** e for e in range(-300, 307, 7)] + [3.7e306, 1e307, 1.7e308, 1.79e308]
            + [math.sqrt(3.0) / 9.0 * (1.0 + 10.0 ** -k) for k in range(0, 16)])

    @pytest.mark.parametrize("num, den", [(1, 2), (1, 5)])
    def test_principal_against_mpmath(self, num, den):
        a = AsymmetryParam.from_rational(num, den)
        with mpmath.workdps(50):
            for x in self.GRID:
                got = psi_closed_form(a, P, x)
                ref = mp_branch_root(num / den, x, got)
                assert abs(got / ref - 1) <= 2e-15, x


class TestOmega:
    def test_figure_values(self):
        assert omega(AsymmetryParam.from_rational(1, 2), -5.0) == pytest.approx(
            -0.0891004, abs=5e-7)
        assert omega(0.0, -5.0) == pytest.approx(-0.0348858, abs=5e-7)

    def test_fixed_point(self):
        # near a = 1, f(w_min) misses f_min by more than the branch-point
        # band, so only omega's own check keeps w_min fixed there
        for a in (0.1, 0.5, 0.9, 0.9999999999555627, 0.9999999071935208):
            m = branch_constants(a).w_min
            assert omega(a, m) == m

    def test_one_third_closed_form(self):
        for z in (-3.0, -0.7, -0.05):
            want = 1.5 * math.log(-math.expm1(2.0 * z / 3.0))
            assert omega(1 / 3, z) == pytest.approx(want, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            omega(0.5, 0.5)
        with pytest.raises(DomainError):
            omega(0.5, 0.0)
        with pytest.raises(DomainError):
            omega(1.0, -1.0)

    @given(st.floats(0.02, 0.98), st.floats(math.log(1e-6), math.log(30.0)))
    @settings(max_examples=500, deadline=None)
    def test_involution_property(self, a, logz):
        z = -math.exp(logz)
        back = omega(a, omega(a, z))
        assert abs(back - z) <= 1e-10 * max(1.0, abs(z))

    def test_monotone_decreasing_and_concave(self):
        for a in (0.2, 0.5, 0.8):
            zs = linear_grid(-8.0, -0.05, 200)
            vals = [omega(a, z) for z in zs]
            assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
            h = zs[1] - zs[0]
            second = [(vals[i + 1] - 2 * vals[i] + vals[i - 1]) / h ** 2
                      for i in range(1, len(vals) - 1)]
            assert all(s <= 1e-9 for s in second)
            assert all(v < 0.0 for v in vals)

    def test_limits(self):
        omegas_at_minus50 = [omega(a, -50.0) for a in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(-1.0 < v < 0.0 for v in omegas_at_minus50)
        assert min(abs(v) for v in omegas_at_minus50) < 1e-18
        for a in (0.1, 0.5, 0.9):
            assert omega(a, -1e-8) < -15.0

    def test_continuity_toward_zero_limit(self):
        for z in (-5.0, -0.5):
            ref = omega(0.0, z)
            d3 = abs(omega(1e-3, z) - ref)
            d4 = abs(omega(1e-4, z) - ref)
            assert d4 < d3 < 1e-4

    def test_underflowed_principal_keeps_negative_sign(self):
        # forward(a, z) underflows to -0.0; the principal root rounds to -0.0
        for a in (0.5, 0.001):
            assert forward(a, -1500.0) == 0.0
            value = omega(a, -1500.0)
            assert value == 0.0
            assert math.copysign(1.0, value) == -1.0

    @pytest.mark.parametrize("z", [-715.0, -740.0, -745.0, -746.0, -800.0, -1e-310, -1e-320])
    def test_zero_a_where_z_exp_z_is_subnormal(self, z, mp50):
        # the W0 <-> W-1 swap where z*e^z is subnormal or underflows: within
        # 2 units of the last place (of the subnormal grid, too) of the
        # 50-digit value, and -0.0 where that rounds to zero
        value = omega(0.0, z)
        x = mp50.mpf(z) * mp50.exp(mp50.mpf(z))
        ref = mp50.lambertw(x, 0 if z < -1.0 else -1).real
        assert math.copysign(1.0, value) == -1.0
        assert abs(value - ref) <= 2.0 * math.ulp(float(ref))

    @pytest.mark.parametrize("a", [0.001, 0.37, 0.5, 0.999])
    @pytest.mark.parametrize("z", [-5e-324, -1e-310, -1e-300])
    def test_lower_branch_near_zero(self, a, z, mp50):
        # forward(a, z) is subnormal or zero here; compare with the root of
        # the log form of f(a, y) = f(a, z) at 50 digits
        value = omega(a, z)
        am, zm = mp50.mpf(a), mp50.mpf(z)
        rhs = (1 - am) * zm + mp50.log(-mp50.expm1(2 * am * zm))
        ref = mp50.findroot(
            lambda y: (1 - am) * y + mp50.log(-mp50.expm1(2 * am * y)) - rhs,
            mp50.mpf(value))
        assert math.isfinite(value) and value < branch_constants(a).w_min
        assert abs(value - float(ref)) <= 4.0 * math.ulp(value)

    @pytest.mark.parametrize("a, z", [
        (0.37, -1150.0), (0.37, -1200.0), (0.9, -7200.0), (0.9, -8000.0),
        (0.001, -720.0), (1e-6, -715.0), (1e-300, -26.0), (1e-300, -40.0),
        (1e-300, -50.0)])
    def test_principal_root_where_forward_is_subnormal(self, a, z, mp50):
        # (1-a)z < -708 or a tiny: forward(a, z) is subnormal or zero and the
        # root is compared with the root of the log form of f(a, y) = f(a, z),
        # solved in s = log(-y) at 50 digits; the bound is the result's own
        # rounding plus 4 ulps of z times the conditioning d log(-y)/dz ~ 1
        assert abs(forward(a, z)) < sys.float_info.min
        value = omega(a, z)
        am, zm = mp50.mpf(a), mp50.mpf(z)
        rhs = (1 - am) * zm + mp50.log(-mp50.expm1(2 * am * zm))
        s = mp50.findroot(
            lambda s: -(1 - am) * mp50.exp(s) + mp50.log(-mp50.expm1(-2 * am * mp50.exp(s))) - rhs,
            rhs - mp50.log(2 * am))
        ref = -mp50.exp(s)
        assert math.copysign(1.0, value) == -1.0
        assert abs(value - ref) <= 2.0 * math.ulp(value) + 4.0 * abs(ref) * math.ulp(z)

    @pytest.mark.parametrize("a", [5e-324, 1e-323, 1e-320, 1e-310, 1e-300, 1e-200, 2.0 ** -37])
    def test_tiny_a_is_the_zero_a_swap(self, a):
        # where a*max(|z|, 1024) <= 2^-27, f(a, w)/a is w*exp(w) to rounding,
        # so omega(a, z) is omega(0, z) bit for bit.  Near z = -1 that value
        # carries the branch point's own loss (480 ulps at z = -0.999), so
        # the comparison is with omega(0, z), not with a 60-digit root
        for z in (-0.5, -0.9, -0.99, -0.999, -1.01, -1.1, -3.0, -30.0, -715.0, -740.0,
                  -1e-310):
            if a * max(-z, 1024.0) <= 2.0 ** -27:
                assert repr(omega(a, z)) == repr(omega(0.0, z)), z

    @pytest.mark.parametrize("a", [1e-11, 0.05, 0.37, 0.9, 1.0 - 1e-6])
    @pytest.mark.parametrize("z", [-5e-324, -1e-320, -1e-310, -1e-300])
    def test_lower_underflow_end_against_60_digits(self, a, z):
        # forward(a, z) is subnormal or zero: the log-form solver's result
        # is within 2 ulps of the 60-digit root
        value = omega(a, z)
        assert abs(value - mp_omega_root(a, z)) <= 2.0 * math.ulp(value)


class TestOmegaClosedForm:
    def test_fixed_point_one_third(self):
        m = -1.5 * math.log(2.0)
        a = AsymmetryParam.from_rational(1, 3)
        assert omega_closed_form(a, m) == pytest.approx(m, abs=1e-13)

    def test_agrees_with_generic(self):
        for num, den in ((1, 3), (1, 2), (1, 5)):
            a = AsymmetryParam.from_rational(num, den)
            for z in geometric_grid(-30.0, -1e-6, 400):
                assert omega_closed_form(a, z) == pytest.approx(
                    omega(a, z), abs=1e-12 * max(1.0, abs(omega(a, z))))

    def test_small_z_blowup(self):
        a = AsymmetryParam.from_rational(1, 5)
        assert omega_closed_form(a, -1e-9) < -20.0

    @pytest.mark.parametrize("num, den", [(1, 3), (1, 2), (1, 5)])
    @pytest.mark.parametrize("z", [-20.0, -30.0, -50.0, -200.0])
    def test_far_tail_against_mpmath(self, num, den, z, mp50):
        # omega -> 0^- here; log(1 + tiny) forms lost every digit by z = -50
        am, zm = mp50.mpf(num) / den, mp50.mpf(z)

        def log_neg_f(y):  # log(-f(y)) = y + log(sinh(-a*y)), increasing in -y
            return y + mp50.log(mp50.sinh(-am * y))

        # principal root y in (w_min, 0), bisected in s = log(-y)
        lo, hi = mp50.mpf(-3000), mp50.log(-branch_constants(num / den).w_min)
        for _ in range(300):
            mid = (lo + hi) / 2
            if log_neg_f(-mp50.exp(mid)) < log_neg_f(zm):
                lo = mid
            else:
                hi = mid
        ref = -mp50.exp((lo + hi) / 2)
        got = omega_closed_form(AsymmetryParam.from_rational(num, den), z)
        assert abs(got - ref) <= 1e-14 * abs(ref)

    def test_underflowed_tail_keeps_sign(self):
        for num, den in ((1, 3), (1, 2), (1, 5)):
            got = omega_closed_form(AsymmetryParam.from_rational(num, den), -1500.0)
            assert got == 0.0 and math.copysign(1.0, got) == -1.0, (num, den)

    def test_unsupported(self):
        with pytest.raises(UnsupportedError):
            omega_closed_form(AsymmetryParam.from_rational(3, 5), -1.0)
        with pytest.raises(UnsupportedError):
            omega_closed_form(0.5, -1.0)


class TestOmegaFiniteN:
    def test_converges_to_transition(self):
        a = AsymmetryParam.from_rational(1, 2)
        w_inf = omega(a, -5.0)
        assert omega_finite_n(2 ** 20, a, -5.0) == pytest.approx(w_inf, abs=1e-3)
        err10 = abs(omega_finite_n(2 ** 10, a, -5.0) - w_inf)
        err20 = abs(omega_finite_n(2 ** 20, a, -5.0) - w_inf)
        assert err20 < err10

    def test_zero_limit_error_decreases(self):
        a = AsymmetryParam(0.0)
        ref = omega(0.0, -5.0)
        err8 = abs(omega_finite_n(2 ** 8, a, -5.0) - ref)
        err10 = abs(omega_finite_n(2 ** 10, a, -5.0) - ref)
        assert err10 < err8

    def test_rounding_of_k_is_bankers(self):
        # n(1-a)/2 exactly half-integer: round half to even
        assert round(2.5) == 2 and round(3.5) == 4  # documents the convention

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            omega_finite_n(100, AsymmetryParam.from_rational(1, 2), -1e6 * 100)
        with pytest.raises(DomainError):
            omega_finite_n(1, AsymmetryParam.from_rational(1, 2), -1.0)
        with pytest.raises(DomainError):
            omega_finite_n(64, AsymmetryParam.from_rational(1, 2), 1.0)
        # k = round(n(1-a)/2) = 0 for a close to 1
        with pytest.raises(DomainError):
            omega_finite_n(16, 0.99, -1.0)

    def test_solution_is_not_the_trivial_root(self):
        a = AsymmetryParam.from_rational(1, 2)
        y = omega_finite_n(1024, a, -5.0)
        assert abs(y - (-5.0)) > 1.0

    def test_equalizes_consecutive_coefficients(self):
        from pqlambert.pqbinom import PqParams, log_pq_binomial

        n = 1024
        a = AsymmetryParam.from_rational(1, 2)
        y = omega_finite_n(n, a, -5.0)
        params = PqParams.from_transition(n, a, -5.0, y)
        k = round(n * 0.25)
        assert abs(log_pq_binomial(params, k)
                   - log_pq_binomial(params, k - 1)) < 1e-10

    def test_extreme_regimes_stay_solvable(self, mp50):
        # strongly negative z pushes the root within a few hundred orders of
        # magnitude of zero; the solved value must still satisfy the exact
        # ratio equation (50+ digit check)
        n, a, z = 802113, 0.1608621443752087, -357.806218378851
        y = omega_finite_n(n, AsymmetryParam(a), z)
        assert y < 0.0 and 1e-160 < -y < 1e-100
        k = round(n * (1 - a) / 2)
        mp50.mp.dps = 400
        try:
            pv = 1 + 2 * mp50.mpf(repr(y)) / n
            qv = 1 + 2 * mp50.mpf(repr(z)) / n
            ratio = (pv ** (n - k + 1) - pv ** k) / (qv ** (n - k + 1) - qv ** k)
            assert abs(float(ratio - 1)) < 1e-12
        finally:
            mp50.mp.dps = 50
        # roots below the double range round to -0.0
        y0 = omega_finite_n(13615, AsymmetryParam(0.15024986662743622),
                            -2369.7198955623912)
        assert y0 == 0.0 and math.copysign(1.0, y0) == -1.0

    def test_loss_near_a_one_stays_bounded(self):
        # a_n = d/(n+1) rounded to a double puts a relative error of up to
        # 2^-54/(1-a_n) into 1-a_n; at a = 0.999 this point is 86 ulps off
        # the root (input conditioning: 4.4 ulps), and the bound keeps the
        # loss from growing until omega takes 1-a exactly
        n, a, z = 100000, 0.999, -0.05
        ref, _ = mp_finite_n_root(n, a, z)
        y = omega_finite_n(n, a, z)
        assert abs(y - ref) <= 90 * math.ulp(float(ref))


def _finite_n_grid(seed=20261019, count=50):
    """Seeded (n, a, z): a tiny, mid and near 1; n from 2 to 2^22; z in the
    body [-20, -0.05], near the numerator's maximizer y_peak and near -n/2."""
    rng = random.Random(seed)
    points = [
        (4359, 0.00011465698780272061, -13.67411952166362),
        (2, 0.481815057342137, -2.087154925246466e-47),
        (1000, 0.37, -450.0),  # forward(a_n, v(z)) is subnormal
        (4, 0.5, -5e-324),  # 2z/n underflows to 0; the root is -n/2
        (2 ** 20, 0.37, -3e-310),  # 2z/n is subnormal
    ]
    while len(points) < count:
        a = rng.choice((10.0 ** rng.uniform(-9, -2), rng.uniform(0.01, 0.99),
                        1.0 - 10.0 ** rng.uniform(-6, -2)))
        n = int(2.0 ** rng.uniform(1, 22))
        k = round(n * (1.0 - a) / 2.0)
        if not 1 <= k <= n // 2:
            continue
        y_peak = 0.5 * n * math.expm1(math.log(k / (n - k + 1)) / (n + 1 - 2 * k))
        z = rng.choice((-10.0 ** rng.uniform(math.log10(0.05), math.log10(20.0)),
                        y_peak * (1.0 + rng.choice((-1, 1)) * 10.0 ** rng.uniform(-6, -2)),
                        -0.5 * n * (1.0 - 10.0 ** rng.uniform(-12, -1))))
        if z < 0.0 and 1.0 + 2.0 * z / n > 0.0:
            points.append((n, a, z))
    # within ~1e-4 of y_peak at a_n near 1, omega's solve near w_min loses
    # more than 1e-10 (the branch-point defect of ROADMAP item 2); the
    # solver this function had before failed these two points as well
    near_w_min = {146160, 3223761}
    return [pytest.param(*pt, marks=pytest.mark.xfail(strict=True, reason="omega near w_min"))
            if pt[0] in near_w_min else pt for pt in points]


@pytest.mark.parametrize("n, a, z", _finite_n_grid())
def test_omega_finite_n_matches_the_ratio_equation_root(n, a, z):
    # reference: the 50+ digit root of the ratio equation itself, not of the
    # shifted-asymmetry identity the library solves through; the bound is
    # 1e-10 relative plus 16 ulps of z times the conditioning dy/dz, plus the
    # result's own rounding (which counts only for subnormal or zero roots)
    ref, dy_dz = mp_finite_n_root(n, a, z)
    y = omega_finite_n(n, a, z)
    tol = 1e-10 * abs(ref) + 16 * abs(dy_dz) * math.ulp(z) + math.ulp(float(ref))
    assert abs(mpmath.mpf(y) - ref) <= tol, (y, mpmath.nstr(ref, 20))

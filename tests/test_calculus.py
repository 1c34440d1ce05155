"""Tests for the branch derivatives, the P_n recurrence, the primitive,
and the integrals."""

import contextlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from conftest import linear_grid, mp_branch_root, mp_reversion, richardson_derivative
from pqlambert.core import (
    AccuracyError,
    AsymmetryParam,
    BranchId,
    DomainError,
    RangeError,
    SingularityError,
    branch_constants,
)
from pqlambert.branches import psi, psi_closed_form
from pqlambert.calculus import (
    _QUAD_MIN_DOUBLES,
    _tanh_sinh,
    integral_omega,
    integral_omega_quadrature,
    integral_psi,
    integral_psi_quadrature,
    pn_first,
    pn_next,
    pn_sequence,
    psi_derivative,
    psi_primitive,
)
from pqlambert.series import _inverse_derivative, _local_coeffs, _revert
from pqlambert.series import derivative_series_check, taylor_at_zero
from test_bit_identity import BRANCHES, grid

P, LO = BranchId.PRINCIPAL, BranchId.LOWER


class TestPnRecurrence:
    def test_p1(self):
        p1 = pn_first(0.5)
        assert p1.terms == {(0, 0): 1.0}
        assert p1(3.0, 4.0) == 1.0

    def test_p2_by_hand(self):
        # one recurrence step from P_1 = 1:
        # P_2 = (a - 3a) X + (a^2 - 1 - 2a^2) Y = -2a X - (1 + a^2) Y
        for a in (0.2, 0.5, 0.8):
            p2 = pn_next(pn_first(a))
            assert p2.terms[(1, 0)] == pytest.approx(-2.0 * a, rel=1e-15)
            assert p2.terms[(0, 1)] == pytest.approx(-(1.0 + a * a), rel=1e-15)
            assert len(p2.terms) == 2

    def test_taylor_values_at_origin(self):
        for a in (0.25, 0.5, 0.75):
            seq = pn_sequence(a, 3)
            assert seq[1](1.0, 0.0) / a ** 3 == pytest.approx(-2.0 / a ** 2, rel=1e-13)
            assert seq[2](1.0, 0.0) / a ** 5 == pytest.approx(
                (9.0 * a * a - a ** 4) / a ** 5, rel=1e-13)

    def test_degree_bound(self):
        for a in (0.3, 0.7):
            for n, poly in enumerate(pn_sequence(a, 8), start=1):
                assert poly.degree() <= n - 1

    def test_consistency_with_taylor_up_to_order_8(self):
        # P_n(1,0)/a^(2n-1) must equal n! times the Taylor x^n coefficient
        for a in (0.35, 0.65):
            seq = pn_sequence(a, 8)
            se = taylor_at_zero(a, 8)
            fact = 1.0
            for n in range(1, 9):
                fact *= n
                formula = seq[n - 1](1.0, 0.0) / a ** (2 * n - 1)
                assert formula == pytest.approx(fact * se.coeffs[n - 1], rel=1e-10)


class TestPsiDerivative:
    def test_first_and_second_at_zero(self):
        for a in (0.2, 0.5, 0.8):
            assert psi_derivative(a, P, 0.0, 1) == pytest.approx(1.0 / a, rel=1e-14)
            assert psi_derivative(a, P, 0.0, 2) == pytest.approx(-2.0 / a ** 2,
                                                                 rel=1e-13)

    def test_matches_derivative_series_check(self):
        for a in (0.3, 0.6):
            want = derivative_series_check(a)
            for n in (1, 2, 3):
                assert psi_derivative(a, P, 0.0, n) == pytest.approx(
                    want[n], rel=1e-12)

    def test_n1_implicit_function_identity(self):
        # psi' = 1/(x*(a*coth(a psi) + 1)) wherever x != 0
        for a in (0.25, 0.6):
            bc = branch_constants(a)
            for branch, xs in ((P, (0.5, 2.0, bc.f_min * 0.5)),
                               (LO, (bc.f_min * 0.7, bc.f_min * 0.1))):
                for x in xs:
                    w = psi(a, branch, x)
                    want = 1.0 / (x * (a / math.tanh(a * w) + 1.0))
                    assert psi_derivative(a, branch, x, 1) == pytest.approx(
                        want, rel=1e-11)

    def test_against_richardson_fd(self):
        cases = [(0.5, LO, -0.1, 3, 1e-3), (0.5, P, 0.3, 2, 1e-4),
                 (0.3, P, 1.0, 4, 3e-2), (0.7, LO, -0.05, 2, 1e-4),
                 (0.45, P, -0.05, 3, 1e-3)]
        for a, branch, x, n, h in cases:
            got = psi_derivative(a, branch, x, n)
            ref = richardson_derivative(lambda t: psi(a, branch, t), x, n, h)
            assert got == pytest.approx(ref, rel=1e-5)

    @staticmethod
    def _reference(a, branch, x, n):
        """n! d_n from a 50-digit root and a Lagrange inversion of the
        exact local forward series sum_k f^(k)(w)/k! h^k."""
        with mpmath.workdps(50):
            am = mpmath.mpf(a)
            w = mp_branch_root(a, x, psi(a, branch, x))
            w_min = mpmath.log((1 - am) / (1 + am)) / (2 * am)
            assert (w > w_min) == (branch is P)
            e_hi, e_lo = mpmath.exp((1 + am) * w), mpmath.exp((1 - am) * w)
            c = [((1 + am) ** k * e_hi - (1 - am) ** k * e_lo) / (2 * mpmath.factorial(k))
                 for k in range(1, n + 1)]
            return mpmath.factorial(n) * mp_reversion(c)[-1]

    @staticmethod
    def _draws():
        rng = random.Random(8)
        cases = [(0.96, LO, -0.3055, 6),  # the P_n formula had the wrong sign
                 (0.999098200717578, LO, -0.04518533528884556, 2),  # OverflowError
                 (0.9911805936917298, LO, -0.1294130157812858, 5)]  # RangeError
        for _ in range(64):
            a = rng.uniform(0.01, 0.999)
            f_min = branch_constants(a).f_min
            if rng.random() < 0.5:
                branch = P
                x = (f_min * (1.0 - 10.0 ** rng.uniform(-3.0, -0.01))
                     if rng.random() < 0.5 else 10.0 ** rng.uniform(-3.0, 2.0))
            else:
                branch, x = LO, f_min * rng.uniform(0.01, 0.999)
            cases.append((a, branch, x, rng.randint(1, 8)))
        return cases

    def test_against_mpmath_reversion(self):
        for a, branch, x, n in self._draws():
            got = psi_derivative(a, branch, x, n)
            ref = self._reference(a, branch, x, n)
            assert abs(got / ref - 1) <= 1e-10, (a, branch, x, n)

    def test_lagrange_coefficient_matches_full_reversion(self):
        # n! d_n by Lagrange inversion against the last entry of the O(n^3)
        # reversion, at orders 1-8 on every point of the pinned grid: equal
        # at orders 1 and 2, within 2^-46 relative (64 units of 2^-52) above
        for a, branch, x in (args[:3] for f, args in grid() if f == "psi_derivative"):
            w = psi(a, BRANCHES[branch], x)
            for n in range(1, 9):
                _, r = _local_coeffs(a, w, n)
                want = math.factorial(n) * _revert(r)[-1]
                got = _inverse_derivative(r)
                if n <= 2:
                    assert got == want, (a, branch, x, n)
                else:
                    assert abs(got - want) <= 2.0 ** -46 * abs(want), (a, branch, x, n)

    def test_overflow_is_a_range_error(self):
        # psi' = 1/((1-a)x) to leading order near 0 on the lower branch
        with pytest.raises(RangeError):
            psi_derivative(0.5, LO, -1e-310, 1)
        with pytest.raises(RangeError):
            psi_derivative(0.9, LO, -1e-40, 8)
        assert psi_derivative(0.5, LO, -1e-300, 1) == pytest.approx(-2e300, rel=1e-12)

    def test_singularity_and_validation(self):
        bc = branch_constants(0.5)
        with pytest.raises(SingularityError):
            psi_derivative(0.5, P, bc.f_min, 1)
        with pytest.raises(ValueError):
            psi_derivative(0.5, P, 0.0, 9)
        with pytest.raises(ValueError):
            psi_derivative(0.5, P, 0.0, 0)


class TestPsiPrimitive:
    def test_limit_values(self):
        for a in (0.2, 0.5, 0.8):
            bc = branch_constants(a)
            assert psi_primitive(a, P, 0.0) == pytest.approx(
                a / (1.0 - a * a), rel=1e-14)
            want_bp = bc.f_min * (bc.w_min - 2.0 / (1.0 - a * a))
            assert psi_primitive(a, P, bc.f_min) == pytest.approx(want_bp, rel=1e-13)
            assert psi_primitive(a, LO, bc.f_min) == pytest.approx(want_bp, rel=1e-13)

    @given(st.floats(0.05, 0.95), st.floats(0.02, 0.98), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_derivative_is_psi(self, a, frac, lower):
        bc = branch_constants(a)
        if lower:
            x = bc.f_min * min(max(frac, 0.02), 0.98)
            branch = LO
            # psi'' grows like 1/x^2 toward 0, so the step follows |x|
            h = 1e-3 * abs(x)
        else:
            x = bc.f_min * 0.9 + (2.0 - bc.f_min * 0.9) * frac
            branch = P
            if abs(x) < 1e-3:
                x = 1e-3
            h = 1e-6 * max(1.0, abs(x))
        def central(hh):
            return (psi_primitive(a, branch, x + hh)
                    - psi_primitive(a, branch, x - hh)) / (2.0 * hh)

        fd = (4.0 * central(h / 2.0) - central(h)) / 3.0
        assert fd == pytest.approx(psi(a, branch, x), rel=1e-7, abs=1e-7)

    @staticmethod
    def _reference(a, x):
        with mpmath.workdps(60):
            w = mp_branch_root(a, x, psi(a, P, x))
            am, xm = mpmath.mpf(a), mpmath.mpf(x)
            return xm * (w + (am * mpmath.coth(am * w) - 1) / (1 - am * am))

    @pytest.mark.parametrize("a, x", [(1.0 - 2.0 ** -52, 1e300), (1.0 - 2.0 ** -52, 5e305),
                                      (1.0 - 1e-10, 1e300), (1.0 - 1e-10, 1e305)])
    def test_large_x_near_a_one_is_finite(self, a, x):
        # x/(1-a^2) overflows here; the sum was inf - inf = nan
        got = psi_primitive(a, P, x)
        assert abs(got / self._reference(a, x) - 1) <= 1e-14

    @pytest.mark.parametrize("a, x", [(0.37, 1.7e308), (0.5, 1.7e308), (1.0 - 1e-10, 1e306)])
    def test_overflowing_value_is_a_range_error(self, a, x):
        assert self._reference(a, x) > sys.float_info.max
        with pytest.raises(RangeError):
            psi_primitive(a, P, x)

    @pytest.mark.parametrize("a, x", [(0.37, 1e305), (0.5, 3e305), (0.2, 10.0),
                                      (0.9, -0.1), (1.0 - 1e-10, 1e298)])
    def test_finite_sum_keeps_its_bits(self, a, x):
        w = psi(a, P, x)
        one_m = 1.0 - a * a
        assert psi_primitive(a, P, x) == x * w - x / one_m + a * (x / math.tanh(a * w)) / one_m

    @pytest.mark.parametrize("a, x", [(5e-324, 5e-324), (5e-324, 1e-320), (1e-323, 5e-324)])
    def test_subnormal_a_and_x(self, a, x):
        # a*psi is subnormal, so a*x/tanh(a*psi) keeps a few bits; at
        # (5e-324, 5e-324) psi was 0.5, a*psi rounded to 0 and the sum
        # divided by tanh(0).  a*x*coth(a*psi) is x/psi here
        w = psi(a, P, x)
        with mpmath.workdps(60):
            am, xm, wm = mpmath.mpf(a), mpmath.mpf(x), mp_branch_root(a, x, w)
            ref = xm * wm - xm / (1 - am * am) + am * xm * mpmath.coth(am * wm) / (1 - am * am)
        # each term is a subnormal rounded once, and subnormal sums are exact
        assert abs(psi_primitive(a, P, x) - float(ref)) <= 2.0 * 5e-324

    def test_lower_branch_rejects_zero(self):
        with pytest.raises(DomainError):
            psi_primitive(0.5, LO, 0.0)

    @pytest.mark.parametrize("branch, x", [(P, -10.0), (P, -math.inf), (P, math.nan),
                                           (LO, -1e300), (LO, 0.5)])
    def test_x_off_the_branch_raises(self, branch, x):
        # below f_min there is no branch value; the branch-point limit is not one
        with pytest.raises(DomainError):
            psi_primitive(0.5, branch, x)


class TestBranchPointContract:
    """The band x - f_min <= 8*eps*|f_min| is the branch point for psi and
    for everything that takes psi's value: nowhere else, and not where f_min
    rounds to -0.0 (a = 5e-324), where x = +-0 lies on the principal root 0."""

    @pytest.mark.parametrize("a", [5e-324, 1e-300, 1e-12, 0.37, AsymmetryParam.from_rational(1, 3),
                                   0.999, 1.0 - 2.0 ** -52])
    def test_band_is_the_branch_point_everywhere(self, a):
        # psi is w_min, psi' singular, the primitive its branch-point limit
        # and the closed form w_min, in the band and only there
        aa = getattr(a, "a", a)
        bc = branch_constants(aa)
        one_m = 1.0 - aa * aa
        x, xs = bc.f_min, [0.0, -0.0]
        for _ in range(41):
            xs.append(x)
            x = math.nextafter(x, math.inf)
        for branch, x in [(b, x) for b in (P, LO) for x in xs if b is P or x < 0.0]:
            in_band = x - bc.f_min <= 8.0 * math.ulp(1.0) * abs(bc.f_min) and bc.f_min != 0.0
            w = psi(a, branch, x)
            assert (w == bc.w_min) is in_band, (branch, x)
            if in_band:
                with pytest.raises(SingularityError):
                    psi_derivative(a, branch, x, 1)
                want = bc.f_min * (bc.w_min - 2.0 / one_m)
            else:
                with contextlib.suppress(RangeError):  # 1/f'(psi) overflows at a tiny a
                    psi_derivative(a, branch, x, 1)
                # the primitive's own sum at psi(x) (its a -> 0 form at a subnormal a)
                if x == 0.0:
                    want = aa / one_m
                else:
                    coth_term = x / w if aa < sys.float_info.min else aa * (x / math.tanh(aa * w))
                    want = x * w - x / one_m + coth_term / one_m
            assert psi_primitive(a, branch, x) == want, (branch, x)
            if isinstance(a, AsymmetryParam):
                assert (psi_closed_form(a, branch, x) == bc.w_min) is in_band, (branch, x)

    @pytest.mark.parametrize("x", [0.0, -0.0])
    def test_zero_where_f_min_rounds_to_zero(self, x):
        # f_min = -0.0 at a = 5e-324, yet x = +-0 lies above the true f_min:
        # psi is 0 there, psi' = 1/a overflows and the primitive is a/(1-a^2)
        with pytest.raises(RangeError):
            psi_derivative(5e-324, P, x, 1)
        assert psi_primitive(5e-324, P, x) == 5e-324


class TestIntegralPsi:
    def test_closed_form_values_at_one_half(self):
        a = 0.5
        bc = branch_constants(a)
        want_p = (a + 2.0 * bc.f_min) / 0.75 - bc.f_min * bc.w_min
        assert integral_psi(a, P) == pytest.approx(want_p, rel=1e-14)

    def test_lower_printed_forms_agree(self):
        # 2 f_min/(1-a^2) - f_min w_min equals the prefactor form
        for a in (0.3, 0.5, 0.7):
            bc = branch_constants(a)
            direct = 2.0 * bc.f_min / (1.0 - a * a) - bc.f_min * bc.w_min
            ratio = (1.0 - a) / (1.0 + a)
            pref = ratio ** (1.0 / (2.0 * a)) / (2.0 * math.sqrt(1.0 - a * a)) * (
                -4.0 * a / (1.0 - a * a) + math.log(ratio))
            assert direct == pytest.approx(pref, rel=1e-14)
            assert integral_psi(a, LO) == pytest.approx(direct, rel=1e-14)

    @pytest.mark.parametrize("a", [1e-300, 1e-298, 1e-297])
    def test_quadrature_at_tiny_a(self, a):
        # the lower range in s = -log(-x) ends before -exp(-s) underflows
        for branch in (P, LO):
            closed = integral_psi(a, branch)
            assert integral_psi_quadrature(a, branch, 1e-6) == pytest.approx(closed, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("a", [5e-324, 1e-323, 1e-320, 1e-310])
    def test_subnormal_f_min(self, a):
        # f_min = -a/e rounds into the subnormal range (to -0.0 at 5e-324).
        # The closed form is a*(1 - 3/e) and a*(-3/e) to one unit of
        # 2^-1074, never positive.  The quadrature needs _QUAD_MIN_DOUBLES/
        # rel_tol doubles in [f_min, 0]: with fewer it raises AccuracyError,
        # else it agrees to rel_tol
        for branch, unit_value in ((P, 1.0 - 3.0 / math.e), (LO, -3.0 / math.e)):
            closed = integral_psi(a, branch)
            assert closed <= 0.0 and math.copysign(1.0, closed) == -1.0
            assert abs(closed - a * unit_value) <= 2.0 ** -1074
            for rel_tol in (1e-3, 1e-9):
                if -branch_constants(a).f_min < _QUAD_MIN_DOUBLES * 2.0 ** -1074 / rel_tol:
                    with pytest.raises(AccuracyError):
                        integral_psi_quadrature(a, branch, rel_tol)
                else:
                    quadv = integral_psi_quadrature(a, branch, rel_tol)
                    assert quadv == pytest.approx(closed, rel=rel_tol, abs=0.0)

    @pytest.mark.parametrize("rel_tol", [1e-3, 1e-6, 1e-9, 1e-10])
    def test_quadrature_cutoff(self, rel_tol):
        # just below the cutoff the quadrature raises; from it up to twice
        # it, where psi's subnormal grid costs the most, it meets rel_tol.
        # abs=0: approx's default absolute 1e-12 would pass any subnormal
        cutoff = _QUAD_MIN_DOUBLES * 2.0 ** -1074 / rel_tol  # least -f_min
        for branch in (P, LO):
            with pytest.raises(AccuracyError):
                integral_psi_quadrature(math.e * cutoff * 0.99, branch, rel_tol)
            for i in range(16):
                a = math.e * cutoff * 2.0 ** (i / 16)
                assert -branch_constants(a).f_min >= cutoff
                quadv = integral_psi_quadrature(a, branch, rel_tol)
                assert quadv == pytest.approx(integral_psi(a, branch), rel=rel_tol, abs=0.0)

    @pytest.mark.parametrize("a", [0.15, 0.35, 0.5, 0.7, 0.9])
    def test_quadrature_agreement(self, a):
        for branch in (P, LO):
            closed = integral_psi(a, branch)
            quadv = integral_psi_quadrature(a, branch, 1e-9)
            assert quadv == pytest.approx(closed, abs=1e-8)


class TestTanhSinh:
    @pytest.mark.parametrize("f, lo, hi, exact", [
        (math.sqrt, 0.0, 1.0, 2.0 / 3.0),
        (math.log, 0.0, 1.0, -1.0),                     # log endpoint singularity
        (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, 2.0),  # unbounded at 0
        (lambda x: math.log(-x), -1.0, 0.0, -1.0),      # singular at the upper end
        (lambda x: math.sqrt(1.0 - x * x), -1.0, 1.0, math.pi / 2.0),
        (lambda x: 1.0 / (1.0 + x * x), -1.0, 1.0, math.pi / 2.0),
        (lambda x: math.exp(-x), 0.0, 60.0, -math.expm1(-60.0)),
        (math.cos, 0.0, 10.0, math.sin(10.0)),
    ])
    def test_known_integrals(self, f, lo, hi, exact):
        for tol in (1e-6, 1e-12):
            value, err = _tanh_sinh(f, lo, hi, tol)
            assert err <= tol * max(1.0, abs(value))
            assert abs(value - exact) <= tol * max(1.0, abs(exact))

    def test_singularity_at_nonzero_endpoint(self):
        # nodes within an ulp of 1 round onto it and are skipped; rounding
        # x = 1 - gap limits this integral to about 1e-8
        value, _ = _tanh_sinh(lambda x: 1.0 / math.sqrt(1.0 - x), 0.0, 1.0, 1e-6)
        assert abs(value - 2.0) <= 1e-6

    def test_level_cap_raises_accuracy_error(self):
        # a jump inside the interval converges only like the step h
        def step(x):
            return 1.0 if x > 1.0 / 3.0 else 0.0

        with pytest.raises(AccuracyError) as info:
            _tanh_sinh(step, 0.0, 1.0, 1e-12)
        assert info.value.value == pytest.approx(2.0 / 3.0, abs=1e-2)
        assert info.value.estimate > 1e-12


class TestQuadratureAgainstClosedForms:
    AS = [0.01, 0.2, 0.5, 0.8, 0.95, 0.99]

    @pytest.mark.parametrize("a", AS)
    def test_psi_integrals(self, a):
        for branch in (P, LO):
            closed = integral_psi(a, branch)
            got = integral_psi_quadrature(a, branch, 1e-9)
            assert abs(got - closed) <= 1e-9 * abs(closed), branch

    @pytest.mark.parametrize("a", AS)
    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
    def test_omega_integral(self, a, rel_tol):
        closed = integral_omega(a)
        got = integral_omega_quadrature(a, rel_tol)
        assert abs(got - closed) <= rel_tol * abs(closed)


class TestIntegralOmega:
    def test_closed_values(self):
        assert integral_omega(1 / 3) == pytest.approx(-3.0 * math.pi ** 2 / 8.0,
                                                      rel=1e-15)
        assert integral_omega(0.0) == pytest.approx(-math.pi ** 2 / 3.0, rel=1e-15)
        assert integral_omega(0.5) == pytest.approx(-4.0 * math.pi ** 2 / 9.0,
                                                    rel=1e-15)

    def test_divergence_at_one(self):
        with pytest.raises(DomainError):
            integral_omega(1.0)

    @pytest.mark.parametrize("a", [0.0, 0.2, 1 / 3, 0.5, 0.6, 0.875])
    def test_quadrature_matches(self, a):
        closed = integral_omega(a)
        got = integral_omega_quadrature(a, 1e-6)
        assert got == pytest.approx(closed, rel=1e-6)

    def test_rel_tol_validation(self):
        with pytest.raises(ValueError):
            integral_omega_quadrature(0.5, 1e-2)
        with pytest.raises(ValueError):
            integral_omega_quadrature(0.5, 1e-11)

    def test_accuracy_error_reports_estimate(self):
        # an impossible target given a sabotaged error budget is not easy to
        # trigger here; instead verify the error object shape directly
        err = AccuracyError("msg", value=1.5, estimate=2e-3)
        assert err.value == 1.5 and err.estimate == 2e-3


def test_no_source_file_imports_scipy():
    src = Path(__file__).resolve().parents[1] / "src" / "pqlambert"
    for path in src.glob("*.py"):
        assert "scipy" not in path.read_text(), path.name


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert [d.split(">")[0].split("=")[0].strip() for d in deps] == ["numpy"]
    for path in (root / "src" / "pqlambert").glob("*.py"):
        assert "click" not in path.read_text(), path.name


class TestLazyScipy:
    @pytest.mark.parametrize("code", [
        "import pqlambert.cli",
        "import pqlambert as pq\n"
        "pq.psi(0.37, pq.BranchId.PRINCIPAL, 1.0)\n"
        "pq.omega(0.37, -2.0)\n"
        "pq.build_distribution(pq.PqParams.from_transition(1024, 0.37, -2.0))",
    ])
    def test_scipy_not_imported(self, code):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        probe = code + "\nimport sys\nprint('scipy' in sys.modules)"
        res = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert res.stdout.strip() == "False"

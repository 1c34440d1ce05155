"""Tests for the beta and alpha parametrizations."""

import math
import sys

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from conftest import linear_grid
from pqlambert.core import (
    AsymmetryParam,
    BranchId,
    DomainError,
    RangeError,
    branch_constants,
    forward,
)
from pqlambert.branches import omega, psi, psi_closed_form
from pqlambert.parametrize import param_alpha, param_beta

P, LO = BranchId.PRINCIPAL, BranchId.LOWER


class TestParamBeta:
    def test_defining_relations(self):
        x, p0 = param_beta(1 / 3, 2.0)
        assert x == pytest.approx(0.5 * (2.0 ** (4 / 3) - 2.0 ** (2 / 3)), rel=1e-15)
        assert p0 == pytest.approx(math.log(2.0), rel=1e-15)
        assert psi(1 / 3, P, x) == pytest.approx(p0, rel=1e-11)

    def test_continuity_at_origin(self):
        for a in (0.2, 0.7):
            x, p0 = param_beta(a, 1.0 + 1e-12)
            assert 0.0 < x < 1e-11
            assert 0.0 < p0 < 1e-11

    def test_round_trip_through_forward(self):
        x, p0 = param_beta(0.5, 4.0)
        assert forward(0.5, math.log(4.0)) == pytest.approx(x, rel=1e-14)

    @given(st.floats(0.02, 0.98), st.floats(1e-9, 8.0))
    @settings(max_examples=300, deadline=None)
    def test_consistency_with_solver(self, a, logbeta):
        beta = math.exp(logbeta)
        x, p0 = param_beta(a, beta)
        assert psi(a, P, x) == pytest.approx(p0, rel=1e-11, abs=1e-13)

    @pytest.mark.parametrize("a, beta", [(1.0 - 2.0 ** -52, 1.5e154), (0.9999, 1.5e154),
                                         (1e-5, 1.7e308), (0.37, 1e200)])
    def test_large_beta_against_mpmath(self, a, beta):
        # expm1(2a*log(beta)) overflows at the first two though x is finite
        with mpmath.workdps(60):
            am, bm = mpmath.mpf(a), mpmath.mpf(beta)
            want = (bm ** (1 + am) - bm ** (1 - am)) / 2
        x, lb = param_beta(a, beta)
        assert lb == math.log(beta)
        assert abs(x / want - 1) <= 2e-13

    @pytest.mark.parametrize("a", [0.37, 0.5, 0.9999, 1.0])
    def test_x_past_the_double_range_is_a_range_error(self, a):
        # x = (beta^(1+a) - beta^(1-a))/2 is about 1e300^(1+a)/2 here
        with pytest.raises(RangeError):
            param_beta(a, 1e300)

    def test_validation(self):
        with pytest.raises(DomainError):
            param_beta(0.5, 1.0)
        with pytest.raises(DomainError):
            param_beta(0.0, 2.0)


class TestParamAlpha:
    @pytest.mark.parametrize("a, alpha", [(1.0 - 2.0 ** -52, 2.0), (1.0 - 2.0 ** -52, 1e300)])
    def test_rho_rounded_to_one(self, a, alpha):
        # rho = (alpha^(2a)-1)/(alpha^(1+a)-1) rounds to 1, where log1p(-rho) fails
        pt = param_alpha(a, alpha)
        assert all(math.isfinite(v) for v in pt)
        assert pt.psi0 == pytest.approx(math.log(alpha) + pt.psi1, rel=1e-14)
        assert branch_constants(a).f_min <= pt.x < 0.0

    def test_branch_point_limit(self):
        for a in (0.25, 0.6):
            bc = branch_constants(a)
            pt = param_alpha(a, 1.0 + 1e-9)
            assert pt.x == pytest.approx(bc.f_min, rel=1e-9)
            assert pt.psi0 == pytest.approx(bc.w_min, abs=1e-4)
            assert pt.psi1 == pytest.approx(bc.w_min, abs=1e-4)

    def test_coverage_and_monotone_x(self):
        for a in (0.2, 0.5, 0.8):
            bc = branch_constants(a)
            xs = [param_alpha(a, math.exp(la)).x
                  for la in linear_grid(1e-6, 25.0, 200)]
            assert xs[0] == pytest.approx(bc.f_min, rel=1e-5)
            assert all(x2 > x1 for x1, x2 in zip(xs, xs[1:]))  # |x| decreasing
            # x -> 0^- at the analytic rate |x| ~ alpha^(a-1)/2
            assert -math.exp(-(1.0 - a) * 25.0) < xs[-1] < 0.0
            assert all(bc.f_min <= x < 0.0 for x in xs)

    def test_example_one_third(self):
        # alpha^(2/3) = 2 gives x = -2/(2*(2+1)^2) = -1/9 with
        # psi0 = -(3/2)log(1 + alpha^(-2/3)) and psi1 = -(3/2)log(1 + alpha^(2/3))
        a = AsymmetryParam.from_rational(1, 3)
        alpha = 2.0 ** 1.5
        pt = param_alpha(a, alpha)
        assert pt.x == pytest.approx(-(2.0) / (2.0 * 9.0), rel=1e-14)
        assert pt.psi0 == pytest.approx(-1.5 * math.log(1.5), rel=1e-13)
        assert pt.psi1 == pytest.approx(-1.5 * math.log(3.0), rel=1e-13)
        assert pt.psi0 == pytest.approx(psi_closed_form(a, P, pt.x), rel=1e-12)
        assert pt.psi1 == pytest.approx(psi_closed_form(a, LO, pt.x), rel=1e-12)

    @given(st.floats(0.02, 0.98), st.floats(math.log(1e-8), math.log(30.0)))
    @settings(max_examples=500, deadline=None)
    def test_invariants_property(self, a, loglog_alpha):
        alpha = math.exp(math.exp(loglog_alpha))
        pt = param_alpha(a, alpha)
        bc = branch_constants(a)
        assert bc.f_min - 1e-15 <= pt.x < 0.0
        scale = max(abs(pt.x), 1e-300)
        assert abs(forward(a, pt.psi0) - pt.x) <= 1e-12 * max(1.0, scale)
        assert abs(forward(a, pt.psi1) - pt.x) <= 1e-12 * max(1.0, scale)
        assert abs(pt.psi0 - math.log(alpha) - pt.psi1) <= 1e-12
        assert pt.psi0 >= bc.w_min - 1e-12
        assert pt.psi1 <= bc.w_min + 1e-12

    def test_omega_swaps_parametrized_branches(self):
        for a in (0.15, 0.5, 0.85):
            for la in linear_grid(1e-4, 15.0, 50):
                pt = param_alpha(a, math.exp(la))
                assert omega(a, pt.psi1) == pytest.approx(
                    pt.psi0, abs=1e-10 * max(1.0, abs(pt.psi0)))
                assert omega(a, pt.psi0) == pytest.approx(
                    pt.psi1, abs=1e-10 * max(1.0, abs(pt.psi1)))

    def test_oracle_against_solver(self):
        # no root-finding on this side: direct comparison to the solver
        for a in (0.3, 0.7):
            for la in linear_grid(1e-3, 12.0, 60):
                pt = param_alpha(a, math.exp(la))
                assert psi(a, P, pt.x) == pytest.approx(
                    pt.psi0, abs=2e-12 * max(1.0, abs(pt.psi0)))
                assert psi(a, LO, pt.x) == pytest.approx(
                    pt.psi1, abs=2e-12 * max(1.0, abs(pt.psi1)))

    @staticmethod
    def _reference(a, alpha):
        """(x, psi0, psi1) at 60 digits from q = 2*alpha*sinh(aL)/expm1((1+a)L)
        and rho = expm1(2aL)/expm1((1+a)L), L = log(alpha): log1p(-q) and
        log1p(-rho) below 1/2, the difference of logs above, where they do
        not cancel."""
        with mpmath.workdps(60):
            am, alm = mpmath.mpf(a), mpmath.mpf(alpha)
            L = mpmath.log(alm)
            e_high = mpmath.expm1((1 + am) * L)
            q = 2 * alm * mpmath.sinh(am * L) / e_high
            rho = mpmath.expm1(2 * am * L) / e_high
            d = mpmath.log(mpmath.expm1((1 - am) * L)) - mpmath.log(e_high)
            psi1 = (mpmath.log1p(-q) if q < 0.5 else d) / (2 * am)
            psi0 = (mpmath.log1p(-rho) if rho < 0.5 else 2 * am * L + d) / (2 * am)
            return -rho / 2 * mpmath.exp((1 - am) * psi0), psi0, psi1

    @pytest.mark.parametrize("a", [5e-324, 1e-300, 1e-16, 1e-8])
    @pytest.mark.parametrize("alpha", [1.0 + 2.0 ** -40, 1.5, 2.0, 1e10, 1e300, 1.7e308])
    def test_tiny_a_against_mpmath(self, a, alpha):
        # psi1 was 0.0 below a of about 1e-16 (its two logs cancelled), and
        # x was nan at a = 5e-324, where (1-a)/(2a) overflows
        pt = param_alpha(a, alpha)
        x, psi0, psi1 = self._reference(a, alpha)
        assert abs(pt.psi1 / psi1 - 1) <= 1e-15
        assert abs(pt.psi0 / psi0 - 1) <= 1e-15
        # a subnormal x holds only a few bits: one unit of 2^-1074 is allowed
        assert abs(pt.x - x) <= 1e-15 * abs(x) + 2.0 ** -1074

    def test_tiny_a_examples(self):
        assert param_alpha(1e-300, 2.0).psi1 == pytest.approx(-2.0 * math.log(2.0), rel=1e-15)
        assert param_alpha(5e-324, 1e300).x == 0.0

    @pytest.mark.parametrize("a, alpha", [
        pytest.param(a, alpha, marks=pytest.mark.xfail(strict=True, reason=(
            "psi0 is 1e-2 off: rho = exp(log_rho) lies within a few ulps of 1, "
            "and log1p(-rho) keeps none of the digits of 1 - rho")))
        if (a, alpha) == (1.0 - 2.0 ** -52, 1.5) else (a, alpha)
        for a in (0.1, 0.3, 0.5, 0.9, 0.999, 1.0 - 2.0 ** -52)
        for alpha in (1.0 + 2.0 ** -40, 1.5, 1e10, 1e300, 1.7e308)])
    def test_against_mpmath(self, a, alpha):
        pt = param_alpha(a, alpha)
        for got, want in zip(pt, (alpha,) + self._reference(a, alpha)):
            assert abs(got / want - 1) <= 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            param_alpha(0.5, 1.0)
        with pytest.raises(DomainError):
            param_alpha(0.5, 0.3)
        with pytest.raises(DomainError):
            param_alpha(0.0, 2.0)
        with pytest.raises(DomainError):
            param_alpha(1.0, 2.0)

"""Tests for Bell polynomials, the reversion engine and the Taylor,
branch-point and asymptotic series it generates, and the bound
envelopes."""

import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import golden_tables as gt
from conftest import geometric_grid, linear_grid, mp_branch_root, mp_psi_root, mp_reversion
from pqlambert.core import (
    AsymmetryParam,
    BranchId,
    DomainError,
    RangeError,
    UnsupportedError,
    branch_constants,
)
from pqlambert.branches import omega, psi
from pqlambert import branches, series
from pqlambert.series import (
    SeriesKind,
    asymptotic_psi0,
    asymptotic_psi1,
    bell,
    branch_point_series,
    derivative_series_check,
    envelope_crossover_estimates,
    psi0_bounds,
    psi1_bounds,
    taylor_at_zero,
)

P, LO = BranchId.PRINCIPAL, BranchId.LOWER

BELL_NUMBERS = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


class TestBell:
    def test_anchors(self):
        assert bell(1, 1, [7.0]) == 7.0
        assert bell(2, 2, [7.0]) == 49.0
        assert bell(2, 1, [7.0, 3.0]) == 3.0
        assert bell(0, 0, []) == 1.0
        assert bell(3, 0, []) == 0.0
        assert bell(2, 5, []) == 0.0

    def test_bell_number_identity(self):
        for n in range(11):
            total = sum(bell(n, k, [1.0] * (n + 1)) for k in range(n + 1))
            assert total == pytest.approx(BELL_NUMBERS[n], rel=1e-12)

    def test_known_closed_forms(self):
        # B_{n,1}(x1..xn) = xn and B_{n,n}(x1) = x1^n
        xs = [2.0, 3.0, 5.0, 7.0]
        assert bell(4, 1, xs) == 7.0
        assert bell(4, 4, xs) == 16.0
        # B_{4,2}(x1,x2,x3) = 4 x1 x3 + 3 x2^2
        assert bell(4, 2, xs) == pytest.approx(4 * 2.0 * 5.0 + 3 * 9.0)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            bell(5, 2, [1.0, 1.0])
        with pytest.raises(ValueError):
            bell(-1, 0, [])


ORACLE_A = [0.05, 0.37, 0.9, 0.95]


def _taylor_reference(a):
    """The 40 Taylor coefficients at 0: Lagrange inversion at 50 digits of
    the forward coefficients ((1+a)^k - (1-a)^k)/(2 k!)."""
    with mpmath.workdps(50):
        am = mpmath.mpf(a)
        c = [((1 + am) ** k - (1 - am) ** k) / (2 * mpmath.factorial(k))
             for k in range(1, 41)]
        return tuple(mp_reversion(c))


def _tail_reference(a, which, terms):
    """Asymptotic tail coefficients: Lagrange inversion at 50 digits of the
    kernel exp(p*t) - exp(q*t)."""
    with mpmath.workdps(50):
        am = mpmath.mpf(a)
        ep, eq = (2 * am, am - 1) if which == "psi0" else (-2 * am, -am - 1)
        return mp_reversion([(ep ** k - eq ** k) / mpmath.factorial(k)
                             for k in range(1, terms + 1)])


class TestReversionAgainstMpmath:
    @pytest.mark.parametrize("a", ORACLE_A)
    def test_taylor_matches_mpmath(self, a):
        ref = _taylor_reference(a)
        for order in range(1, 41):
            got = taylor_at_zero(a, order).coeffs
            for n, (g, r) in enumerate(zip(got, ref), start=1):
                assert abs(g / r - 1) <= 1e-12, (order, n)

    @pytest.mark.parametrize("a", ORACLE_A)
    def test_asymptotic_tail_matches_mpmath(self, a):
        for which, cap in (("psi0", 4), ("psi1", 3)):
            ref = _tail_reference(a, which, cap)
            for terms in range(cap + 1):
                got = series.asymptotic_tail_coeffs(a, which, terms)
                assert len(got) == terms
                for g, r in zip(got, ref):
                    assert abs(g / r - 1) <= 1e-12, (which, terms)

    @pytest.mark.parametrize("a", [0.05, 0.2, 0.37, 0.6, 0.9, 0.99])
    def test_seed_coefficients_are_the_first_three_tail_terms(self, a):
        # the solver's hard-coded seeds against the engine's tail terms, at
        # Y and Z of order one, where the tail is not small
        c0 = series.asymptotic_tail_coeffs(a, "psi0", 3)
        c1 = series.asymptotic_tail_coeffs(a, "psi1", 3)
        f_min = branch_constants(a).f_min
        for y in (0.9, 0.5, 0.1):
            x = 0.5 * y ** (-(1.0 + a) / (2.0 * a))
            base = math.log(2.0 * x) / (1.0 + a)
            yy = (2.0 * x) ** (-2.0 * a / (1.0 + a))
            want = sum(c * yy ** k for k, c in enumerate(c0, start=1))
            tol = 8 * math.ulp(max(1.0, abs(base)))
            assert abs(branches._asym0_seed(a, x) - base - want) <= tol
            xl = -0.5 * y ** ((1.0 - a) / (2.0 * a))
            if xl < f_min:
                continue
            base = math.log(-2.0 * xl) / (1.0 - a)
            zz = (-2.0 * xl) ** (2.0 * a / (1.0 - a))
            want = sum(c * zz ** k for k, c in enumerate(c1, start=1))
            tol = 8 * math.ulp(max(1.0, abs(base)))
            assert abs(branches._asym1_seed(a, xl) - base - want) <= tol


class TestTaylorAtZero:
    def test_first_terms_symbolic(self):
        for a in (0.2, 0.5, 0.8):
            se = taylor_at_zero(a, 3)
            assert se.coeffs[0] == pytest.approx(1.0 / a, rel=1e-14)
            assert se.coeffs[1] == pytest.approx(-1.0 / a ** 2, rel=1e-14)
            assert se.coeffs[2] == pytest.approx(-(a * a - 9.0) / (6.0 * a ** 3),
                                                 rel=1e-13)

    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    def test_golden_table_order_10(self, a):
        se = taylor_at_zero(a, 10)
        want = gt.taylor_coeff_polys(a)
        for got, ref in zip(se.coeffs, want):
            assert abs(got / ref - 1.0) <= 1e-9

    def test_truncation_controlled_agreement_with_solver(self):
        for a in (0.25, 0.5, 0.75):
            bc = branch_constants(a)
            se = taylor_at_zero(a, 14)
            for x in linear_grid(-0.5 * abs(bc.f_min), 0.5 * abs(bc.f_min), 41):
                ref = psi(a, P, x)
                tail = abs(se.coeffs[-1] * x ** se.order)
                assert abs(se.evaluate(x) - ref) <= max(10.0 * tail, 1e-13)

    def test_metadata(self):
        se = taylor_at_zero(0.5, 6)
        assert se.kind is SeriesKind.TAYLOR_AT_ZERO
        assert se.order == 6 and len(se.coeffs) == 6
        assert se.valid_radius == pytest.approx(abs(branch_constants(0.5).f_min))

    def test_validation(self):
        with pytest.raises(ValueError):
            taylor_at_zero(0.5, 0)
        with pytest.raises(ValueError):
            taylor_at_zero(0.5, 41)
        with pytest.raises(DomainError):
            taylor_at_zero(0.0, 5)


class TestDerivativeSeriesCheck:
    def test_values(self):
        got = derivative_series_check(0.5)
        assert got[0] == 0.0
        assert got[1] == pytest.approx(2.0)
        assert got[2] == pytest.approx(-8.0)
        assert got[3] == pytest.approx(70.0)

    def test_one_third_third_derivative(self):
        # (9a^2 - a^4)/a^5 at a = 1/3 is 240 (verified against the Taylor
        # x^3 coefficient and a high-precision finite difference)
        got = derivative_series_check(1 / 3)
        assert got[3] == pytest.approx(240.0, rel=1e-12)

    def test_consistent_with_taylor(self):
        for a in (0.3, 0.6, 0.9):
            se = taylor_at_zero(a, 3)
            got = derivative_series_check(a)
            assert got[1] == pytest.approx(se.coeffs[0], rel=1e-13)
            assert got[2] == pytest.approx(2.0 * se.coeffs[1], rel=1e-13)
            assert got[3] == pytest.approx(6.0 * se.coeffs[2], rel=1e-12)


class TestBranchPointSeries:
    def test_universal_leading_coefficients(self):
        for a in (0.1, 0.5, 0.9):
            s0 = branch_point_series(a, "psi0", 2)
            assert s0.coeffs[0] == pytest.approx(math.sqrt(2.0), rel=1e-14)
            assert s0.coeffs[1] == pytest.approx(-2.0 / 3.0, rel=1e-13)

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.75])
    def test_golden_psi_tables(self, a):
        s0 = branch_point_series(a, "psi0", 7)
        for got, ref in zip(s0.coeffs, gt.branch_point_psi0_polys(a)):
            assert abs(got / ref - 1.0) <= 1e-9
        s1 = branch_point_series(a, "psi1", 7)
        for got, ref in zip(s1.coeffs, gt.branch_point_psi1_polys(a)):
            assert abs(got / ref - 1.0) <= 1e-9

    def test_a_half_example_exact_radicals(self):
        s = branch_point_series(AsymmetryParam.from_rational(1, 2), "psi0", 5)
        for got, ref in zip(s.coeffs, gt.A12_EXPANSION_RADICALS):
            assert abs(got - ref) <= 1e-10

    @pytest.mark.parametrize("a", [0.15, 0.45, 0.8])
    def test_sign_flip_rule_exact(self, a):
        s0 = branch_point_series(a, "psi0", 12)
        s1 = branch_point_series(a, "psi1", 12)
        for m in range(12):
            if m % 2 == 0:  # odd power of sqrt(t)
                assert s1.coeffs[m] == -s0.coeffs[m]
            else:
                assert s1.coeffs[m] == s0.coeffs[m]

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.75])
    def test_golden_transition_table(self, a):
        s = branch_point_series(a, "omega", 10)
        for got, ref in zip(s.coeffs, gt.transition_series_polys(a)):
            assert abs(got / ref - 1.0) <= 1e-9

    def test_transition_low_orders_independent_of_a(self):
        for a in [0.1 * k for k in range(1, 10)]:
            s = branch_point_series(a, "omega", 3)
            assert s.coeffs[0] == pytest.approx(-1.0, abs=1e-12)
            assert s.coeffs[1] == pytest.approx(-2.0 / 3.0, abs=1e-12)
            assert s.coeffs[2] == pytest.approx(-4.0 / 9.0, abs=1e-12)

    def test_transition_high_coefficient_sign_changes(self):
        # the u^9 coefficient flips sign near a = 0.998689, u^10 near 0.952489
        def c9(a):
            return gt.transition_series_polys(a)[8]

        def c10(a):
            return gt.transition_series_polys(a)[9]

        assert c9(0.998) * c9(0.999) < 0.0
        assert c10(0.95) * c10(0.96) < 0.0

        def bisect(f, lo, hi):
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if f(lo) * f(mid) <= 0.0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)

        assert bisect(c9, 0.998, 0.999) == pytest.approx(0.998689, abs=1e-6)
        assert bisect(c10, 0.95, 0.96) == pytest.approx(0.952489, abs=1e-6)
        # the generated coefficients change sign at the same places
        assert branch_point_series(0.95, "omega", 10).coeffs[9] \
            * branch_point_series(0.96, "omega", 10).coeffs[9] < 0.0
        assert branch_point_series(0.998, "omega", 9).coeffs[8] \
            * branch_point_series(0.999, "omega", 9).coeffs[8] < 0.0

    def test_evaluate_against_solvers(self):
        for a in (0.3, 0.7):
            bc = branch_constants(a)
            s0 = branch_point_series(a, "psi0", 12)
            s1 = branch_point_series(a, "psi1", 12)
            for x in linear_grid(bc.f_min * 0.9999, bc.f_min * 0.995, 11):
                assert s0.evaluate(x) == pytest.approx(psi(a, P, x), abs=1e-11)
                assert s1.evaluate(x) == pytest.approx(psi(a, LO, x), abs=1e-11)
            som = branch_point_series(a, "omega", 12)
            for z in linear_grid(bc.w_min * 1.04, bc.w_min * 0.96, 11):
                assert som.evaluate(z) == pytest.approx(omega(a, z), abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            branch_point_series(0.5, "psi0", 13)
        below = math.nextafter(branch_constants(0.5).f_min, -math.inf)
        with pytest.raises(DomainError):
            branch_point_series(0.5, "psi0", 6).evaluate(below)
        with pytest.raises(UnsupportedError):
            branch_point_series(0.5, "nope", 5)


class TestAsymptotics:
    def test_zero_terms_is_log_leading_order(self):
        assert asymptotic_psi0(0.4, 50.0, 0) == pytest.approx(
            math.log(100.0) / 1.4, rel=1e-15)
        assert asymptotic_psi1(0.4, -1e-4, 0) == pytest.approx(
            math.log(2e-4) / 0.6, rel=1e-15)

    def test_one_third_asymptote_forms(self):
        # principal: (3/4)log(2x) + 3/(4 sqrt(2x)) matches terms <= 2
        x = 100.0
        got = asymptotic_psi0(1 / 3, x, 2)
        want = 0.75 * math.log(2 * x) + 0.75 / math.sqrt(2 * x)
        assert got == pytest.approx(want, abs=2e-4 / x)  # next order is Y^2-ish
        # lower: (3/2)log(-2x) - 3x + 9x^2
        xl = -1e-4
        got1 = asymptotic_psi1(1 / 3, xl, 2)
        want1 = 1.5 * math.log(-2 * xl) - 3 * xl + 9 * xl * xl
        assert got1 == pytest.approx(want1, abs=1e-10)

    def test_high_accuracy_far_out(self):
        a = AsymmetryParam(0.5)
        assert abs(asymptotic_psi0(a, 1e6, 3) - psi(a, P, 1e6)) <= 1e-10
        assert abs(asymptotic_psi1(a, -1e-8, 3) - psi(a, LO, -1e-8)) <= 1e-9

    @pytest.mark.parametrize("a", [0.37, 0.5, 0.9999, 1.0 - 2.0 ** -52])
    @pytest.mark.parametrize("x", [5e-324, 1e-310])
    def test_subnormal_x_is_a_range_error(self, a, x):
        # Y = (2x)^(-2a/(1+a)) overflows, or its cube does in the sum: the
        # value was -inf or a bare OverflowError
        with pytest.raises(RangeError):
            asymptotic_psi0(a, x)

    @pytest.mark.parametrize("kind, fn, x", [
        (SeriesKind.ASYMPTOTIC_PSI0, asymptotic_psi0, 1.7e308),
        (SeriesKind.ASYMPTOTIC_PSI0, asymptotic_psi0, 1.7976931348623157e308),
        (SeriesKind.ASYMPTOTIC_PSI1, asymptotic_psi1, -1e-3)])
    def test_expansion_object_evaluates_as_the_function(self, kind, fn, x):
        # at the psi0 points 2x overflows, and log(2x) is taken as log(x) + log 2
        tail = series.asymptotic_tail_coeffs(0.5, kind.value.removeprefix("asymptotic_"), 3)
        se = series.SeriesExpansion(kind, AsymmetryParam(0.5), tail, 3, "", "", math.inf)
        assert se.evaluate(x) == fn(0.5, x)

    def test_term_count_and_domain_validation(self):
        with pytest.raises(ValueError):
            asymptotic_psi0(0.5, 100.0, 5)
        with pytest.raises(ValueError):
            asymptotic_psi1(0.5, -1e-4, 4)
        with pytest.raises(DomainError):
            asymptotic_psi0(0.5, -1.0, 2)
        with pytest.raises(DomainError):
            asymptotic_psi1(0.5, 1.0, 2)


def _psi0_threshold(a):
    return 0.5 * (1.0 + 1.0 / math.expm1(abs(1.0 / 3.0 - a))) ** ((1.0 + a) / (2.0 * a))


def _psi1_range_end(a):
    return -0.5 * ((1.0 - a) / (6.0 * a + 2.0)) ** ((1.0 - a) / (2.0 * a))


class TestBounds:
    @pytest.mark.parametrize("a", [0.1, 0.2, 0.45, 0.6, 0.9])
    def test_psi0_envelope(self, a):
        thr = _psi0_threshold(a)
        for x in geometric_grid(thr, 1e4 * thr, 200):
            lo, hi = psi0_bounds(a, x)
            v = psi(a, P, x)
            assert lo < v < hi

    @pytest.mark.parametrize("a", [0.1, 0.2, 0.45, 0.6, 0.9])
    def test_psi1_envelope(self, a):
        # strictness is only assertable where the analytic margin of each
        # side resolves above the double-precision noise floor
        end = _psi1_range_end(a)
        z_exp = 2.0 * a / (1.0 - a)
        for x in linear_grid(end, end / 200.0, 200):
            lo, hi, log_lo = psi1_bounds(a, x)
            v = psi(a, LO, x)
            noise = 64.0 * math.ulp(max(1.0, abs(v)))
            z = (-2.0 * x) ** z_exp
            lower_margin = (1.0 + 3.0 * a) * z * z / (2.0 * (1.0 - a) ** 2)
            upper_margin = z / (1.0 - a)
            assert lo - noise <= v <= hi + noise
            assert log_lo - noise <= v
            if lower_margin > noise:
                assert lo < v
            if upper_margin > noise:
                assert v < hi

    def test_psi1_tiny_x_envelope_collapses(self):
        lo, hi, log_lo = psi1_bounds(0.5, -1e-300)
        width = hi - lo
        assert 0.0 <= width < 1e-200
        assert log_lo <= hi

    def test_range_endpoint_holds_with_margin(self):
        a = 0.8
        x = _psi1_range_end(a)
        lo, hi, _ = psi1_bounds(a, x)
        v = psi(a, LO, x)
        assert lo < v < hi

    def test_threshold_and_exclusions(self):
        with pytest.raises(DomainError):
            psi0_bounds(0.5, 0.01)
        with pytest.raises(UnsupportedError):
            psi0_bounds(AsymmetryParam.from_rational(1, 3), 100.0)
        with pytest.raises(DomainError):
            psi1_bounds(0.5, -1.0)
        with pytest.raises(DomainError):
            psi1_bounds(0.5, 0.0)

    @pytest.mark.parametrize("a", [1e-300, 8.8e-4, 5e-324])
    def test_threshold_beyond_the_double_range(self, a):
        # (1 + 1/expm1(1/3 - a))^((1+a)/(2a)) overflows: the library's errors
        with pytest.raises(DomainError):
            psi0_bounds(a, 1e300)
        with pytest.raises(RangeError):
            envelope_crossover_estimates(a)

    @pytest.mark.parametrize("x", [1.7e308, 1.7976931348623157e308])
    def test_above_half_the_largest_double(self, x):
        # 2x overflows: log(2x) is taken as log(x) + log(2), and the bounds
        # are widened by the rounding of that path; psi is the root within
        # an ulp
        value = psi(0.5, P, x)
        lo, hi = psi0_bounds(0.5, x)
        assert lo <= value <= hi
        with mpmath.workdps(50):
            ref = mp_branch_root(0.5, x, value)
        assert abs(value - float(ref)) <= math.ulp(value)
        assert asymptotic_psi0(0.5, x) == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize("a", [0.1, 0.2, 0.45, 0.9, 0.9999])
    @pytest.mark.parametrize("x", [1.7e308, 1.75e308, 1.7976931348623157e308])
    def test_bounds_hold_the_root_where_2x_overflows(self, a, x):
        # the envelope is narrower than an ulp here: only the widening by
        # the rounding of log(x) + log 2 keeps the root inside
        lo, hi = psi0_bounds(a, x)
        with mpmath.workdps(50):
            ref = mp_branch_root(a, x, lo)
            assert lo <= ref <= hi
        assert hi - lo <= 16.0 * math.ulp(hi)

    @pytest.mark.parametrize("a", [0.1, 0.5, 0.9, 0.9999])
    @pytest.mark.parametrize("x", [1e20, 1e50, 1e100, 1e300])
    def test_bounds_hold_the_root_where_2x_is_finite(self, a, x):
        # the rounding of log(2x)/(1+a) outgrows the envelope: the bounds
        # are widened by it on every path, and stay narrow
        lo, hi = psi0_bounds(a, x)
        with mpmath.workdps(60):
            assert lo <= mp_psi_root(a, True, x) <= hi
        if x >= 1e100:
            assert hi - lo <= 16.0 * math.ulp(hi)

    def test_largest_finite_threshold_keeps_its_value(self):
        # near the smallest a whose threshold is finite: it keeps its bits
        a = 8.904365e-4
        thr = envelope_crossover_estimates(a)["theorem_threshold"]
        assert thr == 0.5 * (1.0 + 1.0 / math.expm1(1.0 / 3.0 - a)) ** ((1.0 + a) / (2.0 * a))
        assert 8.9e307 < thr < math.inf
        lo, hi = psi0_bounds(a, thr)
        assert lo < psi(a, P, thr) < hi

    @given(st.floats(0.02, 0.98))
    @settings(max_examples=200, deadline=None)
    def test_envelope_width_shrinks_faster_than_log_grows(self, a):
        widths = [hi - lo for lo, hi, _ in
                  (psi1_bounds(a, x) for x in (-1e-50, -1e-100, -1e-300))]
        assert widths[0] >= widths[1] >= widths[2] >= 0.0
        assert widths[2] <= 1e-3 * abs(math.log(2e-300))

"""Tests for the forward map, branch constants, special points, and the
real Lambert W branches."""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import ulps_around
from pqlambert.core import (
    AsymmetryParam,
    BranchConstants,
    BranchId,
    DomainError,
    ParamKind,
    RangeError,
    UnsupportedError,
    as_param,
    branch_constants,
    forward,
    forward_dw,
    lambert_w,
    special_point,
)
from pqlambert.core import _LN2, _log_abs_em1, _lower_log

P, LO = BranchId.PRINCIPAL, BranchId.LOWER


class TestAsymmetryParam:
    def test_kinds(self):
        assert AsymmetryParam(0.0).kind is ParamKind.ZERO_LIMIT
        assert AsymmetryParam(1.0).kind is ParamKind.ONE_LIMIT
        assert AsymmetryParam(0.5).kind is ParamKind.INTERIOR

    @pytest.mark.parametrize("bad", [-0.1, 1.0000001, math.nan, math.inf, -math.inf])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            AsymmetryParam(bad)

    def test_rational_constructor(self):
        a = AsymmetryParam.from_rational(1, 3)
        assert a.exact == Fraction(1, 3)
        assert a.a == float(Fraction(1, 3))

    def test_equality_hash_and_repr(self):
        # kind is derived at construction and takes no part in any of them
        assert AsymmetryParam(0.5) == AsymmetryParam(0.5)
        assert AsymmetryParam(0.5) != AsymmetryParam.from_rational(1, 2)
        p = AsymmetryParam.from_rational(1, 3)
        assert hash(p) == hash((p.a, p.exact))
        assert repr(AsymmetryParam(0.25)) == "AsymmetryParam(a=0.25, exact=None)"
        assert repr(p) == "AsymmetryParam(a=0.3333333333333333, exact=Fraction(1, 3))"
        with pytest.raises(TypeError):
            AsymmetryParam(0.5, None, ParamKind.INTERIOR)
        with pytest.raises(AttributeError):
            p.kind = ParamKind.ZERO_LIMIT

    def test_as_param_passthrough(self):
        a = AsymmetryParam(0.25)
        assert as_param(a) is a
        assert as_param(Fraction(1, 4)).exact == Fraction(1, 4)
        assert as_param(0.25).a == 0.25


class TestForward:
    def test_zero_at_origin(self):
        assert forward(1 / 3, 0.0) == 0.0

    def test_minimum_value_examples(self):
        # f(1/3, -(3/2)log 2) = -1/8 and f(1/2, -log 3) = -sqrt(3)/9
        assert forward(1 / 3, -1.5 * math.log(2.0)) == pytest.approx(-0.125, rel=1e-15)
        assert forward(1 / 2, -math.log(3.0)) == pytest.approx(-math.sqrt(3.0) / 9.0,
                                                               rel=1e-15)

    def test_limit_cases(self):
        assert forward(0.0, 5.0) == 0.0
        assert forward(0.0, -700.0) == 0.0
        w = 0.37
        assert forward(1.0, w) == pytest.approx(0.5 * math.expm1(2 * w), rel=1e-15)

    def test_overflow_signals_range_error(self):
        with pytest.raises(RangeError):
            forward(0.5, 600.0)

    @pytest.mark.parametrize("a, w", [(0.37, 518.167), (0.5, 473.07), (0.9, 373.4),
                                      (1.0, 354.8), (1e-300, 720.0)])
    def test_finite_above_the_old_exponent_threshold(self, a, w, mp50):
        # (1+a)*w > 709 but f and f' are below the largest double
        am, wm = mp50.mpf(a), mp50.mpf(w)
        f = mp50.sinh(am * wm) * mp50.exp(wm)
        df = (am * mp50.cosh(am * wm) + mp50.sinh(am * wm)) * mp50.exp(wm)
        tol = 2.0 * (1.0 + a) * w * math.ulp(1.0)  # conditioning of exp at (1+a)*w
        assert forward(a, w) == pytest.approx(float(f), rel=tol)
        assert forward_dw(a, w) == pytest.approx(float(df), rel=tol)

    def test_range_error_only_past_the_largest_double(self):
        assert math.isfinite(forward(0.5, 473.6))
        with pytest.raises(RangeError):
            forward(0.5, 473.7)  # f = 1.9e308
        with pytest.raises(RangeError):
            forward_dw(0.9, 373.9)  # f' = 3.2e308, f = 1.7e308
        with pytest.raises(RangeError):
            forward(1e-300, 1500.0)

    def test_matches_naive_definition(self):
        for a in (0.1, 0.5, 0.9):
            for w in (-3.0, -0.7, 0.2, 1.5, 4.0):
                naive = math.sinh(a * w) * math.exp(w)
                assert forward(a, w) == pytest.approx(naive, rel=1e-13)

    def test_no_cancellation_for_large_negative_w(self):
        # naive sinh*exp underflows/cancels; the two-exponential form does not
        a, w = 0.5, -500.0
        want = -0.5 * math.exp((1 - a) * w)  # dominant term
        assert forward(a, w) == pytest.approx(want, rel=1e-12)

    @given(st.floats(0.01, 0.99), st.floats(-50.0, 50.0))
    @settings(max_examples=300, deadline=None)
    def test_derivative_consistent(self, a, w):
        if (1 + a) * w > 600.0:
            return
        h = 1e-6 * (1.0 + abs(w))
        fd = (forward(a, w + h) - forward(a, w - h)) / (2 * h)
        assert forward_dw(a, w) == pytest.approx(fd, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("name, args", [
    ("forward_dw", (0.5, math.nan)),
    ("asymptotic_psi0", (0.5, math.inf)),
    ("asymptotic_psi0", (0.5, math.nan)),
    ("psi0_bounds", (0.5, math.inf)),
    ("param_beta", (0.5, math.inf)),
    ("param_alpha", (0.5, math.inf)),
])
def test_non_finite_input_raises_domain_error(name, args):
    import pqlambert

    with pytest.raises(DomainError):
        getattr(pqlambert, name)(*args)


def _bad_arguments():
    """(error, function, args): each call broke an argument rule at some
    point and returned a value or raised a bare ValueError."""
    import pqlambert
    from pqlambert.selfcheck import run_selfcheck

    third, half = AsymmetryParam.from_rational(1, 3), AsymmetryParam.from_rational(1, 2)
    bool_as_int = [  # a bool is not an integer
        (pqlambert.taylor_at_zero, (0.5, True)),
        (special_point, (0.5, True)),
        (pqlambert.PqParams, (True, 1.1, 0.9)),
        (pqlambert.psi_derivative, (0.5, P, 0.0, True)),
        (pqlambert.log_pq_binomial, (pqlambert.PqParams(8, 1.1, 0.9), True)),
    ]
    branch_calls = [  # a branch that is not a BranchId member used to select LOWER
        (pqlambert.psi, 0.3, (-0.05,)),
        (pqlambert.psi_closed_form, half, (-0.05,)),
        (pqlambert.psi_derivative, 0.3, (-0.05,)),
        (pqlambert.psi_primitive, 0.3, (-0.05,)),
        (pqlambert.integral_psi, 0.3, ()),
        (pqlambert.integral_psi_quadrature, 0.3, ()),
    ]
    return ([(DomainError, fn, args) for fn, args in bool_as_int]
            + [(UnsupportedError, fn, (a, branch, *rest))
               for fn, a, rest in branch_calls for branch in ("principal", None)]
            + [(DomainError, pqlambert.omega_closed_form, (third, -math.inf)),
               (DomainError, pqlambert.integral_psi_quadrature, (0.5, P, 0.0)),
               (DomainError, pqlambert.bell, (-1, 0, [])),
               (UnsupportedError, run_selfcheck, ("x",))]
            + [(DomainError, as_param, ("abc",)),  # a wrong type: not Python's own error
               (DomainError, pqlambert.psi, (0.3, P, "abc")),
               (DomainError, pqlambert.integral_omega_quadrature, (0.5, "x")),
               (DomainError, AsymmetryParam.from_rational, (1, 0))])


@pytest.mark.parametrize("error, fn, args", [
    pytest.param(*case, id=f"{case[1].__name__}-{i}") for i, case in enumerate(_bad_arguments())])
def test_bad_argument_raises_the_library_error(error, fn, args):
    with pytest.raises(error):
        fn(*args)


def _a_entry_calls():
    """The scalar entry points that validate a float a as a float."""
    import pqlambert

    return {
        "psi": lambda a: pqlambert.psi(a, P, 0.3),
        "omega": lambda a: pqlambert.omega(a, -2.0),
        "omega_finite_n": lambda a: pqlambert.omega_finite_n(50, a, -2.0),
        "forward": lambda a: forward(a, 1.5),
        "forward_dw": lambda a: forward_dw(a, 1.5),
        "param_alpha": lambda a: pqlambert.param_alpha(a, 2.0),
        "psi_derivative": lambda a: pqlambert.psi_derivative(a, P, 0.3, 2),
    }


def _outcome(call, a):
    """repr of the value (exact bits, sign of zero included), or the error's
    class and message."""
    try:
        return repr(call(a))
    except Exception as exc:
        return type(exc), str(exc)


class TestFloatEntry:
    """A float a skips the AsymmetryParam record; every other type of a
    still goes through as_param, and both routes give the same result."""

    @pytest.mark.parametrize("name", sorted(_a_entry_calls()))
    def test_same_bits_whatever_the_type(self, name):
        call = _a_entry_calls()[name]
        value = _outcome(call, 0.375)
        assert isinstance(value, str), value
        for a in (Fraction(3, 8), AsymmetryParam(0.375), AsymmetryParam.from_rational(3, 8),
                  np.float64(0.375)):
            assert _outcome(call, a) == value, a
        for integer in (0, 1):  # the limits, as an int and as a float
            assert _outcome(call, integer) == _outcome(call, float(integer))

    @pytest.mark.parametrize("name", sorted(_a_entry_calls()))
    @pytest.mark.parametrize("a", [True, "0.3", -0.0])
    def test_accepted_oddities_agree_with_the_record(self, name, a):
        # the float entry treats these as the record route does: -0.0 is
        # accepted, a bool or a string raises (see the next test)
        call = _a_entry_calls()[name]
        assert _outcome(call, a) == _outcome(lambda v: call(as_param(v)), a)

    @pytest.mark.parametrize("name", sorted(_a_entry_calls()))
    @pytest.mark.parametrize("a", [True, False, "0.3"])
    def test_bool_or_string_a_raises_the_record_error(self, name, a):
        # the record's type rule holds on every route: no bool read as 0 or 1, no string parsed
        with pytest.raises(DomainError) as expected:
            AsymmetryParam(a)
        for call in (_a_entry_calls()[name], as_param):
            with pytest.raises(DomainError) as excinfo:
                call(a)
            assert str(excinfo.value) == str(expected.value)

    @pytest.mark.parametrize("name", sorted(_a_entry_calls()))
    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf, 1.0 + 2.0 ** -52, -1e-300])
    def test_bad_float_raises_the_validator_error(self, name, a):
        with pytest.raises(DomainError) as excinfo:
            _a_entry_calls()[name](a)
        with pytest.raises(DomainError) as expected:
            as_param(a)
        assert str(excinfo.value) == str(expected.value)


class _Float(float):
    """A float subclass: it takes the generic float(value) route, not an
    exact float's fast path."""


def _value_entry_calls():
    """The scalar entry points that validate a float x, z or w as given."""
    import pqlambert

    third = AsymmetryParam.from_rational(1, 3)
    return {
        "psi": lambda v: pqlambert.psi(0.37, P, v),
        "psi_lower": lambda v: pqlambert.psi(0.37, LO, v),
        "psi_closed_form": lambda v: pqlambert.psi_closed_form(third, P, v),
        "lambert_w": lambda v: lambert_w(P, v),
        "omega": lambda v: pqlambert.omega(0.37, v),
        "omega_finite_n": lambda v: pqlambert.omega_finite_n(50, 0.37, v),
        "forward": lambda v: forward(0.37, v),
        "forward_dw": lambda v: forward_dw(0.37, v),
    }


_DBL_MAX = sys.float_info.max


class TestValueFastPath:
    """An exact float x, z or w is taken as given; every other type goes
    through float(value).  Both routes give the same bits or the same error."""

    @pytest.mark.parametrize("name", sorted(_value_entry_calls()))
    @pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, _DBL_MAX, -_DBL_MAX,
                                       math.inf, -math.inf, math.nan, -0.05, 0.3], ids=repr)
    def test_exact_float_matches_the_generic_route(self, name, value):
        call = _value_entry_calls()[name]
        assert _outcome(call, value) == _outcome(call, _Float(value))

    @pytest.mark.parametrize("name", sorted(_value_entry_calls()))
    @pytest.mark.parametrize("value", [_Float(-0.05), np.float64(-0.05), -1, 2, Fraction(-1, 20),
                                       True, "-0.05", "0.3"], ids=repr)
    def test_other_types_match_their_float(self, name, value):
        call = _value_entry_calls()[name]
        assert _outcome(call, value) == _outcome(call, _Float(float(value)))

    @pytest.mark.parametrize("name", sorted(_value_entry_calls()))
    def test_non_numbers_raise_the_real_number_error(self, name):
        outcome = _outcome(_value_entry_calls()[name], "x0")
        assert outcome[0] is DomainError and "must be a real number, got 'x0'" in outcome[1]


class TestBranchConstants:
    def test_record_fields(self):
        bc = branch_constants(0.5)
        assert (bc.f_min, bc.w_min, bc.scale) == tuple(bc)
        assert BranchConstants(f_min=bc.f_min, w_min=bc.w_min, scale=bc.scale) == bc
        with pytest.raises(AttributeError):
            bc.f_min = 0.0

    def test_one_third(self):
        bc = branch_constants(AsymmetryParam.from_rational(1, 3))
        assert bc.f_min == pytest.approx(-0.125, rel=1e-15)
        assert bc.w_min == pytest.approx(-1.5 * math.log(2.0), rel=1e-15)
        assert bc.scale == pytest.approx(0.125 * (1 - 1 / 9), rel=1e-14)

    def test_one_half(self):
        bc = branch_constants(0.5)
        assert bc.f_min == pytest.approx(-math.sqrt(3.0) / 9.0, rel=1e-15)
        assert bc.w_min == pytest.approx(-math.log(3.0), rel=1e-15)

    def test_zero_limit_is_lambert_branch_point(self):
        bc = branch_constants(0.0)
        assert bc.f_min == pytest.approx(-math.exp(-1.0), rel=1e-15)
        assert bc.w_min == -1.0

    def test_one_rejected(self):
        with pytest.raises(DomainError):
            branch_constants(1.0)

    @given(st.floats(0.005, 0.995))
    @settings(max_examples=200, deadline=None)
    def test_minimum_attained(self, a):
        bc = branch_constants(a)
        assert forward(a, bc.w_min) == pytest.approx(bc.f_min, rel=1e-13)
        assert bc.f_min < 0.0 and bc.w_min < 0.0 and bc.scale > 0.0
        assert bc.scale == pytest.approx(bc.f_min * (a * a - 1.0), rel=1e-15)
        # derivative vanishes at the minimizer
        assert abs(forward_dw(a, bc.w_min)) <= 1e-15

    def test_monotone_on_each_side(self):
        for a in (0.2, 0.5, 0.8):
            bc = branch_constants(a)
            left = [bc.w_min - 10.0 + 10.0 * i / 40 for i in range(41)]
            vals = [forward(a, w) for w in left]
            assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))
            right = [bc.w_min + 8.0 * i / 40 for i in range(41)]
            vals = [forward(a, w) for w in right]
            assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))


class TestSpecialPoint:
    def test_n1_is_branch_point(self):
        for a in (0.2, 0.5, 0.8):
            bc = branch_constants(a)
            x, w = special_point(a, 1)
            assert x == pytest.approx(bc.f_min, rel=1e-14)
            assert w == pytest.approx(bc.w_min, rel=1e-15)

    def test_n2_is_inflection_value(self):
        for a in (0.2, 0.5, 0.8):
            bc = branch_constants(a)
            x, w = special_point(a, 2)
            assert x == pytest.approx(-2.0 * bc.f_min ** 2 / a, rel=1e-13)
            assert w == pytest.approx(2.0 * bc.w_min, rel=1e-15)

    def test_one_third_n3_frozen_value(self):
        # I(3) at a=1/3 is exactly (1/2)(1/2)^3((1/2)^3 - 1) = -7/128
        x, w = special_point(AsymmetryParam.from_rational(1, 3), 3)
        assert x == pytest.approx(-7.0 / 128.0, rel=1e-15)
        assert w == pytest.approx(-4.5 * math.log(2.0), rel=1e-15)
        assert forward(1 / 3, w) == pytest.approx(x, rel=1e-13)

    @pytest.mark.parametrize("a", [0.1 * k for k in range(1, 10)])
    def test_forward_consistency_to_n10(self, a):
        for n in range(1, 11):
            x, w = special_point(a, n)
            assert forward(a, w) == pytest.approx(x, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            special_point(0.5, 0)
        with pytest.raises(DomainError):
            special_point(0.0, 1)


class TestLogAbsEm1:
    # both switch points with 3 doubles either side, and the far ends of
    # each sign; the worst measured is 0.43 ulps (t = -745)
    POINTS = (ulps_around(-_LN2, 3) + ulps_around(33.0, 3)
              + [5e-324, -5e-324, 1e-300, -1e-300, -745.0, 700.0, 710.0, 1e300, -1e300])

    @pytest.mark.parametrize("t", POINTS)
    def test_against_mpmath(self, t, mp50):
        tm = mp50.mpf(t)
        if t > 0.0:
            ref = mp50.log(mp50.expm1(tm))
        elif t > -1.0:
            ref = mp50.log(-mp50.expm1(tm))
        else:
            ref = mp50.log1p(-mp50.exp(tm))
        got = _log_abs_em1(t)
        assert abs(mp50.mpf(got) - ref) <= mp50.mpf(math.ulp(float(ref))) / 2, (got, ref)


class TestLambertW:
    def test_trivial_values(self):
        assert lambert_w(P, 0.0) == 0.0
        assert lambert_w(LO, -math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-7)

    def test_figure_pinned_value(self):
        # W0 at -5*exp(-5), the a=0 transition of -5
        got = lambert_w(P, -5.0 * math.exp(-5.0))
        assert got == pytest.approx(-0.0348858, abs=5e-7)

    def test_against_scipy(self):
        from scipy.special import lambertw as scipy_w

        for x in (-0.367, -0.3, -0.1, -1e-4, 1e-4, 0.5, 1.0, 10.0, 1e8):
            assert lambert_w(P, x) == pytest.approx(
                float(scipy_w(x, 0).real), rel=1e-12, abs=1e-300)
        for x in (-0.367, -0.3, -0.1, -1e-4, -1e-12):
            assert lambert_w(LO, x) == pytest.approx(
                float(scipy_w(x, -1).real), rel=1e-12)

    def test_residual_contract(self):
        for x in (-0.3678, -0.2, -1e-3, 0.7, 42.0, 1e6):
            w = lambert_w(P, x)
            assert abs(w * math.exp(w) - x) <= 1e-14 * abs(x)

    # round trip over the branch ranges: w >= -1 maps through W0, w <= -1
    # through the lower branch
    @given(st.floats(-1.0, 30.0))
    @settings(max_examples=400, deadline=None)
    def test_round_trip_principal(self, w):
        x = w * math.exp(w)
        assert lambert_w(P, x) == pytest.approx(w, rel=1e-12, abs=2e-8)

    @given(st.floats(-30.0, -1.0))
    @settings(max_examples=400, deadline=None)
    def test_round_trip_lower(self, w):
        x = w * math.exp(w)
        assert lambert_w(LO, x) == pytest.approx(w, rel=1e-12, abs=2e-8)

    def test_round_trip_tight_away_from_branch_point(self):
        for w in [-1.0 + 31.0 * i / 200 for i in range(201)]:
            if abs(w + 1.0) < 1e-3:
                continue
            x = w * math.exp(w)
            assert lambert_w(P, x) == pytest.approx(w, rel=1e-12, abs=1e-12)
        for w in [-30.0 + 29.0 * i / 200 for i in range(201)]:
            if abs(w + 1.0) < 1e-3:
                continue
            x = w * math.exp(w)
            assert lambert_w(LO, x) == pytest.approx(w, rel=1e-12)

    def test_lower_branch_at_subnormal_x(self, mp50):
        # w*e^w - x cannot be resolved where x is subnormal; the log form
        # w + log(-w) = log(-x) is within an ulp or so of the 50-digit root
        rng = random.Random(19)
        lo, hi = math.log(5e-324), math.log(sys.float_info.min)
        xs = [-math.exp(rng.uniform(lo, hi)) for _ in range(300)]
        for x in xs + [-5e-324, -1e-320, -1e-310, -math.nextafter(sys.float_info.min, 0.0)]:
            w = lambert_w(LO, x)
            ref = mp50.lambertw(mp50.mpf(x), -1).real
            assert abs(w - ref) <= 2.0 * math.ulp(w), x
        assert lambert_w(LO, -1e-320) == -743.4385269728546

    @pytest.mark.parametrize("branch, k", [(P, 0), (LO, -1)])
    def test_branch_point_in_error_free_form(self, branch, k, mp50):
        # e*x + 1 in double carries about ulp(1/e) of absolute error, which
        # the square-root conditioning magnified up to 3.6e7 ulps
        rng = random.Random(23)
        inv_e = mp50.exp(-1)
        us = [10.0 ** rng.uniform(-16.0, -3.0) for _ in range(300)]
        for x in [float(u - inv_e) for u in us] + [-0.3678794408035629, -0.3678794285337033]:
            w = lambert_w(branch, x)
            ref = mp50.lambertw(mp50.mpf(x), k).real
            assert abs(w - ref) <= 2.0 * math.ulp(w), x

    def test_lower_log_three_steps_reach_the_root(self):
        # the log-form Newton of the lower branch's underflow end: 17 more
        # steps after its 3 move the result by at most 2 ulps, at a = 0
        # (lambert_w) and across 0 < a < 1 (omega)
        rng = random.Random(7)
        lo, hi = math.log(5e-324), math.log(sys.float_info.min)
        for i in range(2000):
            a = (0.0, rng.random(), 10.0 ** rng.uniform(-20.0, 0.0) * (1.0 - 1e-6))[i % 3]
            l = rng.uniform(lo, hi)
            y3 = y = _lower_log(a, l)
            for _ in range(17):
                t = 2.0 * a * y
                xi = math.expm1(t) / t if t else 1.0
                y -= ((1.0 - a) * y + math.log(-y * xi) - l) * y / ((1.0 - a) * y + math.exp(t) / xi)
            assert abs(y3 - y) <= 2.0 * math.ulp(y), (a, l)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lambert_w(P, -0.5)
        with pytest.raises(DomainError):
            lambert_w(LO, 0.1)
        with pytest.raises(DomainError):
            lambert_w(LO, -0.5)

    @pytest.mark.parametrize("branch", [P, LO])
    def test_tolerance_below_the_branch_point(self, branch):
        # e*x + 1 down to -32 eps counts as the branch point: -1/e and the
        # 47 doubles below it return -1, the 48th below is off the domain
        x, below = -math.exp(-1.0), []
        for _ in range(49):
            below.append(x)
            x = math.nextafter(x, -math.inf)
        for x in below[:48]:
            assert lambert_w(branch, x) == -1.0, x
        with pytest.raises(DomainError):
            lambert_w(branch, below[48])

    def test_branch_sides(self):
        assert lambert_w(P, -0.1) >= -1.0
        assert lambert_w(LO, -0.1) <= -1.0

"""Tests of the benchmark's own checker and generator.

Run from the root of a checkout:  python3 -m pytest bench/test_bench.py -q
"""

import math
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import check  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import pqlambert as P  # noqa: E402


def _write_sweep(tmp_path, corrupt_row=None):
    inv = inputs.Invocation("sweep", (), {"function": "psi0", "a": 0.37, "lo": -0.1,
                                          "hi": 5.0, "count": 21, "scale": "linear",
                                          "out": str(tmp_path / "s.csv")})
    grid = check.sweep_grid(-0.1, 5.0, 21, "linear")
    with open(inv.info["out"], "w") as fh:
        fh.write("x,value,status\n")
        for i, x in enumerate(grid):
            v = P.psi(0.37, P.BranchId.PRINCIPAL, x)
            if i == corrupt_row:
                v *= 1.0 + 1e-6
            fh.write(f"{format(x, '.17g')},{format(v, '.17g')},ok\n")
    return inv


def test_clean_sweep_passes(tmp_path):
    tally = check.Tally()
    inv = _write_sweep(tmp_path)
    tally.record(check.check_sweep(inv, 0, "", range(21)), "sweep")
    assert (tally.attempted, tally.failed) == (1, 0)


def test_corrupted_row_is_a_failure(tmp_path):
    for row, sample in ((7, range(21)), (7, [0, 1])):
        tally = check.Tally()
        inv = _write_sweep(tmp_path, corrupt_row=row)
        tally.record(check.check_sweep(inv, 0, "", sample), "sweep")
        assert (tally.attempted, tally.failed) == (1, 1)


def _pq_reference(n=4096, a=0.37, z=-5.0):
    dist = P.build_distribution(P.PqParams.from_transition(n, a, z))
    ref = oracle.PqReference(n, dist.params.p, dist.params.q)
    return dist, ref


def test_true_peaks_pass_and_wrong_peak_fails():
    dist, ref = _pq_reference()
    scale = float(max(abs(dist.log_coeffs)))
    tally = check.Tally()
    tally.record(check.check_peaks(ref, dist.peaks, scale), "true peaks")
    assert tally.failed == 0
    wrong = (dist.peaks[0] + 5, dist.peaks[1])
    tally.record(check.check_peaks(ref, wrong, scale), "wrong peak")
    assert (tally.attempted, tally.failed) == (2, 1)
    tally.record(check.check_peaks(ref, dist.peaks[:1], scale), "missing peak")
    assert tally.failed == 2


def test_log_coefficients_against_direct_sum():
    n = 200
    _, ref = _pq_reference(n=n)
    hi, lo = math.exp(ref.log_hi), math.exp(ref.log_hi - ref.c)
    for k in (1, 57, 100):
        direct = oracle.mp.fsum(
            oracle.mp.log((oracle.M(hi) ** (n - k + j) - oracle.M(lo) ** (n - k + j))
                          / (oracle.M(hi) ** j - oracle.M(lo) ** j))
            for j in range(1, k + 1))
        assert abs(direct - ref.log_coeff(k)) < 1e-9


def test_compare_tolerance():
    ref = oracle.psi(0.37, "principal", 0.5, None)
    assert check.compare(float(ref), ref).ok
    assert not check.compare(float(ref) * (1 + 1e-6), ref).ok
    assert not check.compare(math.nan, ref).ok


def test_library_error_needs_oracle_agreement():
    op = inputs.Op("psi", (0.37, "lower", 0.5))           # lower branch needs x < 0
    assert check.check_op(op, P.DomainError("x >= 0"))[0].ok
    op = inputs.Op("psi", (0.37, "lower", -0.01))
    assert not check.check_op(op, P.DomainError("spurious"))[0].ok
    assert not check.check_op(op, ValueError("math domain error"))[0].ok


def test_generator_is_seeded():
    assert inputs.library_scalar(3, 50) == inputs.library_scalar(3, 50)
    assert inputs.library_scalar(3, 50) != inputs.library_scalar(4, 50)
    assert inputs.cli_cold(5, "t") == inputs.cli_cold(5, "t")
    shares = inputs.region_shares(inputs.library_scalar(3, 500))
    assert set(shares) == set(inputs.REGIONS)
    assert shares["branch_point"] > 0.1


def test_reruns_of_one_operation_count_once():
    tally = check.Tally()
    good = check.Verdict(True, 0.0)
    wrong = check.Verdict(False, math.inf, "wrong")
    for verdict in (good, good, wrong, wrong, good):
        tally.record([verdict], "op", key="op")
    tally.record([good], "other", key="other")
    assert (tally.attempted, tally.failed) == (2, 1)


def test_known_defect_failures_count_but_do_not_flag_the_run():
    tally = check.Tally()
    wrong = check.Verdict(False, math.inf, "wrong")
    known = inputs.Op("psi_derivative", (0.96, "lower", -0.3, 6))
    other = inputs.Op("psi_derivative", (0.37, "principal", 0.5, 2))
    tally.record([wrong], "known", op=known)
    assert (tally.attempted, tally.failed, tally.unexpected) == (1, 1, 0)
    tally.record([wrong], "other", op=other)
    assert (tally.attempted, tally.failed, tally.unexpected) == (2, 2, 1)
    assert check.known_defect(inputs.Op("psi_cf", (Fraction(1, 5), "principal", 5e5)))
    assert not check.known_defect(inputs.Op("psi_cf", (Fraction(1, 5), "principal", 50.0)))
    assert check.known_defect(inputs.Op("omega_cf", (Fraction(1, 5), -50.0)))

#!/usr/bin/env python3
"""Measure how the distribution peaks drift toward k/n = (1 -+ a)/2 and how
the finite-n transition value approaches its limit as n grows.  The
peak_drift call and a build_distribution at the same (n, a, z) each run
under tracemalloc, and the two traced peaks are printed side by side in MB
and in arrays of n+1 doubles.

Usage:
    python scripts/peak_scaling.py [--z Z] [--a NUM/DEN] [--max-exp K]
"""

import argparse
import tracemalloc
from fractions import Fraction

from pqlambert import (AsymmetryParam, PqParams, build_distribution, omega, omega_finite_n,
                       peak_drift)


def traced_peak(fn, *args):
    """The call's result and the peak of tracemalloc's traced memory during it."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", default="1/2", help="asymmetry as an exact rational")
    ap.add_argument("--z", type=float, default=-5.0)
    ap.add_argument("--max-exp", type=int, default=16,
                    help="largest n is 2**max_exp (at most 24); peaks are "
                         "measured at every n")
    args = ap.parse_args()

    frac = Fraction(args.a)
    a = AsymmetryParam.from_rational(frac.numerator, frac.denominator)
    w_inf = omega(a, args.z)
    print(f"a = {args.a}, z = {args.z}, omega = {w_inf:.12f}")
    print(f"{'':>57s} {'build_distribution':>18s} {'peak_drift':>18s}")
    print(f"{'n':>10s} {'omega_bar':>18s} {'|err|':>12s} {'k_peak':>8s} {'offset':>12s} "
          f"{'peak_MB':>9s} {'arrays':>8s} {'peak_MB':>9s} {'arrays':>8s}")
    peak_drift(2 ** 8, a, args.z)  # imports and caches outside the traced calls
    build_distribution(PqParams.from_transition(2 ** 8, a, args.z))
    for k in range(8, args.max_exp + 1, 2):
        n = 2 ** k
        wbar = omega_finite_n(n, a, args.z)
        build_peak = traced_peak(build_distribution, PqParams.from_transition(n, a, args.z))[1]
        (k_peak, offset), drift_peak = traced_peak(peak_drift, n, a, args.z)
        arrays = 8 * (n + 1)
        print(f"{n:>10d} {wbar:>18.12f} {abs(wbar - w_inf):>12.3e} {k_peak:>8d} {offset:>12.6f} "
              f"{build_peak / 1e6:>9.2f} {build_peak / arrays:>8.3f} "
              f"{drift_peak / 1e6:>9.2f} {drift_peak / arrays:>8.3f}")


if __name__ == "__main__":
    main()

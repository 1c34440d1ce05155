#!/usr/bin/env python3
"""Measure how the distribution peaks drift toward k/n = (1 -+ a)/2 and how
the finite-n transition value approaches its limit as n grows.  Each
peak_drift call runs under tracemalloc, and its traced peak is printed in
MB and in arrays of n+1 doubles.

Usage:
    python scripts/peak_scaling.py [--z Z] [--a NUM/DEN] [--max-exp K]
"""

import argparse
import tracemalloc
from fractions import Fraction

from pqlambert import AsymmetryParam, omega, omega_finite_n, peak_drift


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
    print(f"{'n':>10s} {'omega_bar':>18s} {'|err|':>12s} {'k_peak':>8s} {'offset':>12s} "
          f"{'peak_MB':>9s} {'arrays':>7s}")
    peak_drift(2 ** 8, a, args.z)  # imports and caches outside the traced calls
    for k in range(8, args.max_exp + 1, 2):
        n = 2 ** k
        wbar = omega_finite_n(n, a, args.z)
        tracemalloc.start()
        k_peak, offset = peak_drift(n, a, args.z)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"{n:>10d} {wbar:>18.12f} {abs(wbar - w_inf):>12.3e} "
              f"{k_peak:>8d} {offset:>12.6f} {peak / 1e6:>9.2f} {peak / (8 * (n + 1)):>7.2f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Scan the smallest k-max upper constant that keeps the sandwich valid.

The two-sided k-max bound carries a configurable upper constant (default 32,
empirical). This script measures, over random descending-weight instances,
the smallest constant for which the Monte Carlo estimate stays below the
upper bound, i.e. (mc - 4ci) / (C_N ln(k+1) max_term + tail_norm).

Usage: python scripts/kmax_constant_scan.py [--reps 100000] [--seed 0]
"""

import argparse

import numpy as np

from orlicz_bounds import (
    Gaussian,
    SymExponential,
    estimate_order_stats,
    kth_max_bounds,
    parse_distribution,
)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--reps", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=int, default=5)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    worst = 0.0
    print(f"{'dist':>10} {'k':>3} {'n':>4} {'lower':>10} {'mc':>10} {'upper':>10} "
          f"{'needed_c':>9}")
    for model, name in ((Gaussian(), "gaussian"), (SymExponential(), "symexp:1")):
        for k in (2, 3, 5):
            k0 = kth_max_bounds(np.ones(1000), model, k).k0
            n = k + k0 + 10
            for trial in range(args.trials):
                x = np.sort(rng.uniform(0.5, 5.0, n))[::-1].copy()
                rep = kth_max_bounds(x, model, k)
                [est] = estimate_order_stats(x, model, [k], statistic="kmax",
                                             replications=args.reps,
                                             seed=args.seed + trial)
                base = rep.upper / rep.constants["kmax_upper_c"]
                needed = (est.mean - 4 * est.ci_halfwidth) / base
                worst = max(worst, needed)
                print(f"{name:>10} {k:>3} {n:>4} {rep.lower:>10.4f} {est.mean:>10.4f} "
                      f"{rep.upper:>10.2f} {needed:>9.3f}")
    print(f"\nsmallest constant passing every instance: {worst:.3f} "
          f"(default is 32)")


if __name__ == "__main__":
    main()

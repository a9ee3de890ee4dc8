"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line. Monte Carlo
margins are 4 confidence-interval half-widths at 99%, replication counts and
tolerances are pinned here, not configurable.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from orlicz_bounds import (
    C0_GAUSSIAN,
    Gaussian,
    SymExponential,
    build_partition,
    check_kmax_split,
    check_kth_min_tail,
    check_min_survival_product,
    check_subset_product_chain,
    check_symmetric_tail_bound,
    check_tail_integral_bound,
    elementary_symmetric,
    estimate_order_stats,
    expected_overshoot_function,
    gaussian_comparison_function,
    kth_max_bounds,
    kth_min_bounds,
    kth_min_bounds_gaussian,
    kth_min_tail_threshold,
    linear_function,
    neg_log_survival_function,
    orlicz_norm,
    power_function,
    verify_partition,
    young_conjugate,
)

GAUSSIAN = Gaussian()
SYMEXP = SymExponential(rate=1.0)
KS = (1, 2, 5, 10, 50)
N_VECTORS = 20
REPS = 10**5


def _criterion(num, description, failures):
    status = "PASS" if not failures else "FAIL"
    extra = f" ({len(failures)} failures, first: {failures[0]})" if failures else ""
    print(f"\n[ACCEPTANCE {num}] {status}: {description}{extra}")
    assert not failures, f"criterion {num} failed: {failures[:5]}"


@pytest.fixture(scope="module")
def kmin_mc_instances():
    """20 random ascending weight vectors (n=100, entries in [0.5, 5]) with
    Monte Carlo k-min estimates for every k, shared by criteria 1 and 2."""
    rng = np.random.default_rng(20260808)
    start = time.perf_counter()
    instances = []
    for i in range(N_VECTORS):
        x = np.sort(rng.uniform(0.5, 5.0, 100))
        ests = estimate_order_stats(x, GAUSSIAN, KS, replications=REPS, seed=1000 + i)
        instances.append((x, dict(zip(KS, ests))))
    elapsed = time.perf_counter() - start
    return instances, elapsed


def test_criterion_1_gaussian_kmin_sandwich(kmin_mc_instances):
    instances, mc_elapsed = kmin_mc_instances
    start = time.perf_counter()
    failures = []
    for i, (x, ests) in enumerate(instances):
        for k in KS:
            rep = kth_min_bounds(x, GAUSSIAN, k)
            est = ests[k]
            lo = rep.lower - 4 * est.ci_halfwidth
            hi = rep.upper + 4 * est.ci_halfwidth
            if not (lo <= est.mean <= hi):
                failures.append((i, k, rep.lower, est.mean, rep.upper))
    elapsed = mc_elapsed + (time.perf_counter() - start)
    if elapsed >= 120.0:
        failures.append(("runtime", elapsed))
    _criterion(
        1,
        f"Gaussian k-min sandwich, n=100, k in {KS}, {N_VECTORS} vectors, "
        f"{REPS} replications, runtime {elapsed:.1f}s < 120s",
        failures,
    )


def test_criterion_2_gaussian_closed_form(kmin_mc_instances):
    instances, _ = kmin_mc_instances
    failures = []
    for i, (x, ests) in enumerate(instances):
        for k in KS:
            rep = kth_min_bounds_gaussian(x, k)
            est = ests[k]
            lo = rep.lower - 4 * est.ci_halfwidth
            hi = rep.upper + 4 * est.ci_halfwidth
            if not (lo <= est.mean <= hi):
                failures.append(("sandwich", i, k, rep.lower, est.mean, rep.upper))
            ratio_cap = 2 * math.sqrt(2 * math.pi) / C0_GAUSSIAN * math.log(k + 1)
            if rep.upper / rep.lower > ratio_cap * (1 + 1e-9):
                failures.append(("ratio", i, k, rep.upper / rep.lower, ratio_cap))
    _criterion(2, "Gaussian closed-form k-min sandwich and ratio cap", failures)


def test_criterion_3_kmax_sandwich():
    rng = np.random.default_rng(77)
    failures = []
    min_needed_c = 0.0
    for model, name in ((GAUSSIAN, "gaussian"), (SYMEXP, "symexp")):
        for k in (2, 3, 5):
            probe = kth_max_bounds(np.ones(1000), model, k)  # to read k0
            n = k + probe.k0 + 10
            for trial in range(10):
                x = np.sort(rng.uniform(0.5, 5.0, n))[::-1].copy()
                rep = kth_max_bounds(x, model, k)
                est = estimate_order_stats(
                    x, model, [k], statistic="kmax", replications=REPS,
                    seed=5000 + 100 * k + trial,
                )[0]
                lo = rep.lower - 4 * est.ci_halfwidth
                hi = rep.upper + 4 * est.ci_halfwidth
                if not (lo <= est.mean <= hi):
                    failures.append((name, k, trial, rep.lower, est.mean, rep.upper))
                base_sum = rep.upper / rep.constants["kmax_upper_c"]
                needed = (est.mean - 4 * est.ci_halfwidth) / base_sum
                min_needed_c = max(min_needed_c, needed)
    _criterion(
        3,
        f"k-max sandwich (gaussian, symexp; k in 2,3,5; default constant 32; "
        f"minimal passing constant {min_needed_c:.3f})",
        failures,
    )


def test_criterion_4_duality_identity():
    mfun = expected_overshoot_function(GAUSSIAN)
    failures = []
    for t in np.arange(0.0, 4.01, 0.25):
        s = GAUSSIAN.tail_integral(float(t))
        err = abs(young_conjugate(mfun, s, method="search") - GAUSSIAN.survival(float(t)))
        if err > 1e-6:
            failures.append((float(t), err))
    boundary = math.sqrt(2 / math.pi) * (1 + 1e-6)
    for method in ("search", "auto"):
        if not math.isinf(young_conjugate(mfun, boundary, method=method)):
            failures.append(("boundary", method))
    _criterion(4, "conjugate-of-tail identity on t in {0, 0.25, ..., 4} within 1e-6, "
                  "+inf beyond the mean", failures)


def test_criterion_5_partition_certificates():
    rng = np.random.default_rng(55)
    shapes = [
        ("linear", linear_function()),
        ("quadratic", power_function(2.0)),
        ("gaussian-n", neg_log_survival_function(GAUSSIAN)),
    ]
    failures = []
    for case in range(500):
        n = int(rng.integers(1, 201))
        k = int(rng.integers(1, n + 1))
        x = np.sort(rng.uniform(0.2, 8.0, n))
        name, fun = shapes[case % 3]
        result = build_partition(x, fun, k)
        blocks = result.blocks
        shape_ok = (
            len(blocks) == k
            and blocks[0][0] == 1
            and blocks[-1][1] == n
            and all(a <= b for a, b in blocks)
            and all(blocks[i + 1][0] == blocks[i][1] + 1 for i in range(k - 1))
        )
        if not shape_ok:
            failures.append(("shape", case, name, n, k))
            continue
        check = verify_partition(x, fun, k, result)
        h1 = fun(1.0)
        factor = 4.0 * max(h1, 1.0 / h1)
        if check.lhs > factor * check.detail["min_block_norm"] * (1 + 1e-8):
            failures.append(("certificate", case, name, n, k, check.lhs, check.rhs))
    _criterion(5, "500 random partitions: exactly k consecutive blocks, "
                  "certificate within factor 4*max{H(1),1/H(1)}", failures)


def test_criterion_6_symmetric_tail_enumeration(esp_by_enumeration):
    rng = np.random.default_rng(66)
    failures = []
    for case in range(1000):
        n = int(rng.integers(1, 23))
        k = int(rng.integers(1, n + 1))
        target = rng.uniform(0.01, 0.99)
        raw = rng.uniform(0.05, 1.0, n)
        a = raw * (target * k / math.e / raw.sum())
        res = check_symmetric_tail_bound(a, k)
        if not res.ok:
            failures.append((case, n, k, res.lhs, res.rhs))
    for case in range(300):
        n = int(rng.integers(1, 13))
        vals = rng.uniform(0.0, 3.0, n)
        order = int(rng.integers(0, n + 1))
        if elementary_symmetric(vals)[order] != esp_by_enumeration(vals, order):
            failures.append(("enumeration", case, n, order))
    _criterion(6, "1000 symmetric-function tail bounds hold exactly; recurrence "
                  "matches enumeration exactly for n <= 12", failures)


def test_criterion_7_probability_inequality_suites():
    failures = []
    models = (GAUSSIAN, SYMEXP)

    rng = np.random.default_rng(701)
    for case in range(100):
        model = models[case % 2]
        n = int(rng.integers(5, 41))
        k = int(rng.integers(1, n + 1))
        x = np.sort(rng.uniform(0.5, 5.0, n))
        cap = kth_min_tail_threshold(x, model, k)
        if not math.isfinite(cap):
            cap = float(model.quantile(0.5) * x[0])
        t = float(rng.uniform(0.05, 0.95) * cap)
        res = check_kth_min_tail(x, model, k, t)
        if not res.ok:
            failures.append(("kth_min_tail", case, res.lhs, res.rhs))

    rng = np.random.default_rng(702)
    for case in range(100):
        model = models[case % 2]
        n = int(rng.integers(1, 21))
        x = rng.uniform(0.5, 5.0, n)
        target = rng.uniform(0.1, 0.9)
        lo, hi = 0.0, 50.0
        for _ in range(60):  # t with product of survivals near the target
            mid = 0.5 * (lo + hi)
            if np.prod(model.survival(mid / x)) > target:
                lo = mid
            else:
                hi = mid
        res = check_min_survival_product(x, model, max(lo, 1e-6),
                                         replications=REPS, seed=7200 + case)
        if not res.ok:
            failures.append(("min_survival_product", case, res.lhs, res.rhs))

    rng = np.random.default_rng(703)
    for case in range(100):
        n = int(rng.integers(4, 25))
        k = int(rng.integers(1, n))
        j = int(rng.integers(1, n - k + 1))
        scale = rng.uniform(0.5, 5.0, n)
        vals = rng.standard_normal((1000, n)) * scale
        res = check_kmax_split(vals, k, j)
        if not res.ok:
            failures.append(("kmax_split", case, res.detail))

    rng = np.random.default_rng(704)
    for case in range(100):
        m = int(rng.integers(1, 23))
        j = int(rng.integers(0, m + 1))
        res = check_subset_product_chain(rng.uniform(0.0, 3.0, m), j)
        if not res.ok:
            failures.append(("subset_product_chain", case))

    rng = np.random.default_rng(705)
    for case in range(100):
        model = models[case % 2]
        t = float(rng.uniform(0.05, 5.0))
        res = check_tail_integral_bound(model, t)
        if not res.ok:
            failures.append(("tail_integral_bound", case, res.lhs, res.rhs))

    _criterion(7, "probability-inequality checker suites on 100 randomized "
                  "configurations each (exact k-min tail; 4-sigma margins on the "
                  "survival-product frequency)", failures)


def test_criterion_8_gaussian_function_claims():
    t = np.linspace(0.01, 10.0, 1000)
    n = GAUSSIAN.neg_log_survival(t)
    h = gaussian_comparison_function().values(t)
    f = GAUSSIAN.survival(t)
    failures = []
    if not np.all(n >= h / math.sqrt(2 * math.pi * math.e)):
        failures.append("equivalence lower")
    if not np.all(n <= 4.5 * h):
        failures.append("equivalence upper")
    upper = math.sqrt(2 / math.pi) / t * np.exp(-t * t / 2)
    lower = math.sqrt(2 / math.pi) / (math.e * t) * np.exp(-(t * t + 1 / t**2) / 2)
    if not np.all(f <= upper):
        failures.append("survival upper")
    if not np.all(f >= lower):
        failures.append("survival lower")
    _criterion(8, "Gaussian comparison-function equivalence and survival sandwich "
                  "on 1000 grid points in [0.01, 10]", failures)


def test_criterion_9_norm_solver_exactness():
    rng = np.random.default_rng(99)
    lin, sq = linear_function(), power_function(2.0)
    failures = []
    for case in range(100):
        x = rng.uniform(0.05, 10.0, int(rng.integers(1, 15)))
        l1 = orlicz_norm(x, lin)
        l2 = orlicz_norm(x, sq)
        if abs(l1 - np.sum(x)) > 1e-10 * np.sum(x):
            failures.append(("l1", case, l1, float(np.sum(x))))
        true_l2 = math.sqrt(float(np.sum(x * x)))
        if abs(l2 - true_l2) > 1e-10 * true_l2:
            failures.append(("l2", case, l2, true_l2))

    mfun = expected_overshoot_function(GAUSSIAN)
    nfun = neg_log_survival_function(GAUSSIAN)
    for case in range(20):
        x = rng.uniform(0.1, 5.0, 8)
        base = orlicz_norm(x, mfun)
        for lam in (0.1, 3.0, 100.0):
            scaled = orlicz_norm(lam * x, mfun)
            if abs(scaled - lam * base) > 1e-8 * lam * base:
                failures.append(("homogeneity", case, lam))
        # monotonicity: pointwise-dominating functions give larger norms
        for small, big in ((mfun, mfun.scaled(1.7)), (nfun, nfun.scaled(2 * math.e))):
            if orlicz_norm(x, small) > orlicz_norm(x, big) + 1e-9:
                failures.append(("monotonicity", case))
    _criterion(9, "norm solver: l1/l2 recovery to 1e-10 on 100 vectors; "
                  "homogeneity and monotonicity to 1e-8", failures)

"""Bound formulas against arithmetic oracles and Monte Carlo sandwiches."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy import optimize, special

from orlicz_bounds import (
    C0_GAUSSIAN,
    C1_LOWER,
    KMIN_UPPER_FACTOR,
    BoundConstants,
    DomainError,
    Gaussian,
    InfeasibleError,
    NonConvexError,
    NumericError,
    PartitionResult,
    RangeError,
    SymExponential,
    Weights,
    build_partition,
    estimate_order_stat,
    kth_max_bounds,
    kth_min_bounds,
    kth_min_bounds_gaussian,
    kth_min_moment_lower,
    kth_min_tail_threshold,
    linear_function,
    max_bounds,
    min_moment_upper,
    verify_partition,
)
from orlicz_bounds.reporting import dumps_report


def sandwiched(report, estimate):
    lo = report.lower - 4 * estimate.ci_halfwidth
    hi = report.upper + 4 * estimate.ci_halfwidth
    return lo <= estimate.mean <= hi


class TestConstants:
    def test_ranges(self):
        assert 0.60 < C1_LOWER < 0.61
        assert 0.13 < C0_GAUSSIAN < 0.15
        assert KMIN_UPPER_FACTOR == pytest.approx(16 * math.e**2, rel=1e-15)

    def test_c_n_gaussian(self, gaussian):
        n1 = -math.log(special.erfc(1 / math.sqrt(2)))
        assert BoundConstants.c_n(gaussian) == pytest.approx(max(n1, 1 / n1), rel=1e-12)

    def test_c_n_symexp_is_one(self, symexp):
        assert BoundConstants.c_n(symexp) == 1.0


class TestKminBounds:
    def test_range_errors(self, gaussian):
        with pytest.raises(RangeError):
            kth_min_bounds(np.array([1.0]), gaussian, 1)  # k <= n/2 impossible
        with pytest.raises(RangeError):
            kth_min_bounds(np.ones(10), gaussian, 6)
        with pytest.raises(RangeError):
            kth_min_bounds(np.ones(10), gaussian, 10)  # k = n rejected, not clamped
        with pytest.raises(RangeError):
            kth_min_bounds(np.ones(10), gaussian, 0)

    def test_equal_weights_k1_closed_oracle(self, gaussian):
        # Suffix norm collapses: lower = c1 * Ninv(1 / (2e n)); oracle by brentq.
        n = 100
        rep = kth_min_bounds(np.ones(n), gaussian, 1)
        target = 1.0 / (2 * math.e * n)
        n_inv = optimize.brentq(
            lambda t: -math.log(special.erfc(t / math.sqrt(2))) - target, 1e-12, 5.0,
            xtol=1e-15,
        )
        assert rep.lower == pytest.approx(C1_LOWER * n_inv, rel=1e-9)
        assert rep.argmax_j == 1
        assert len(rep.terms) == 1

    def test_equal_weights_k1_below_mc(self, gaussian):
        n = 100
        rep = kth_min_bounds(np.ones(n), gaussian, 1)
        est = estimate_order_stat(np.ones(n), gaussian, 1, replications=10**6, seed=21)
        assert rep.lower <= est.mean + 4 * est.ci_halfwidth
        assert est.mean <= rep.upper + 4 * est.ci_halfwidth

    def test_random_weights_sandwich(self, gaussian):
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(0.5, 5.0, 50))
        rep = kth_min_bounds(x, gaussian, 10)
        est = estimate_order_stat(x, gaussian, 10, replications=10**5, seed=99)
        assert sandwiched(rep, est), (rep.lower, est.mean, rep.upper)

    def test_symexp_sandwich(self, symexp):
        rng = np.random.default_rng(6)
        x = np.sort(rng.uniform(0.5, 5.0, 40))
        rep = kth_min_bounds(x, symexp, 5)
        est = estimate_order_stat(x, symexp, 5, replications=10**5, seed=17)
        assert sandwiched(rep, est)

    def test_lower_monotone_in_k_equal_weights(self, gaussian):
        lowers = [kth_min_bounds(np.ones(60), gaussian, k).lower for k in range(1, 31)]
        assert all(b >= a - 1e-12 for a, b in zip(lowers, lowers[1:]))

    def test_report_invariants(self, gaussian):
        rep = kth_min_bounds(np.sort(np.linspace(0.5, 5, 30)), gaussian, 7)
        assert rep.lower <= rep.upper
        assert 1 <= rep.argmax_j <= 7
        assert len(rep.terms) == 7
        assert rep.terms[rep.argmax_j - 1] == max(rep.terms)
        # lower/upper reproducible from the recorded terms and constants
        assert rep.lower == pytest.approx(rep.constants["c1"] * max(rep.terms), rel=1e-14)
        assert rep.upper == pytest.approx(
            rep.constants["upper_kmin"] * rep.constants["C_N"] * math.log(8) * max(rep.terms),
            rel=1e-14,
        )

    def test_nonconvex_gives_lower_only(self, nonconvex_table_model):
        x = np.sort(np.linspace(0.5, 3.0, 12))
        rep = kth_min_bounds(x, nonconvex_table_model, 3)
        assert rep.upper is None
        assert rep.lower > 0
        assert rep.notes

    def test_requires_ascending(self, gaussian):
        with pytest.raises(Exception, match="ascending"):
            kth_min_bounds(np.array([3.0, 1.0, 2.0]), gaussian, 1)
        w = Weights.descending([3.0, 2.0, 1.0])
        with pytest.raises(Exception, match="requires ascending"):
            kth_min_bounds(w, gaussian, 1)

    def test_tabulated_model_matches_analytic(self, gaussian, gaussian_table_model):
        # agreement is limited by the table's knot resolution, not the solver
        x = np.sort(np.linspace(0.6, 4.0, 24))
        a = kth_min_bounds(x, gaussian, 4)
        b = kth_min_bounds(x, gaussian_table_model, 4)
        assert b.lower == pytest.approx(a.lower, rel=1e-4)
        assert b.upper == pytest.approx(a.upper, rel=1e-4)


class TestKminGaussianClosedForm:
    def test_equal_weights_k1(self):
        rep = kth_min_bounds_gaussian(np.ones(10), 1)
        assert max(rep.terms) == pytest.approx(0.1, rel=1e-14)
        assert rep.lower == pytest.approx(C0_GAUSSIAN / 10, rel=1e-14)
        assert rep.lower == pytest.approx(0.01385643919310867, rel=1e-12)

    def test_geometric_weights_report(self, gaussian):
        x = np.array([2.0**i for i in range(20)])
        rep = kth_min_bounds_gaussian(x, 5)
        # direct evaluation of the maximized expression
        inv = 1.0 / x
        terms = [(5 + 1 - j) / inv[j - 1 :].sum() for j in range(1, 6)]
        assert list(rep.terms) == pytest.approx(terms, rel=1e-12)
        assert rep.argmax_j == int(np.argmax(terms)) + 1
        est = estimate_order_stat(x, gaussian, 5, replications=10**5, seed=41)
        assert sandwiched(rep, est)

    def test_sandwich_and_mc(self, gaussian):
        rng = np.random.default_rng(14)
        x = np.sort(rng.uniform(0.5, 5.0, 40))
        rep = kth_min_bounds_gaussian(x, 8)
        est = estimate_order_stat(x, gaussian, 8, replications=10**5, seed=3)
        assert sandwiched(rep, est)

    def test_homogeneity(self):
        x = np.sort(np.random.default_rng(2).uniform(0.5, 5.0, 30))
        rep1 = kth_min_bounds_gaussian(x, 4)
        rep10 = kth_min_bounds_gaussian(10 * x, 4)
        assert rep10.lower == pytest.approx(10 * rep1.lower, rel=1e-12)
        assert rep10.upper == pytest.approx(10 * rep1.upper, rel=1e-12)

    def test_ratio_identity(self):
        x = np.sort(np.random.default_rng(8).uniform(0.5, 5.0, 50))
        for k in (1, 3, 9, 25):
            rep = kth_min_bounds_gaussian(x, k)
            bound = 2 * math.sqrt(2 * math.pi) / C0_GAUSSIAN * math.log(k + 1)
            assert rep.upper / rep.lower <= bound * (1 + 1e-9)


class TestKmaxBounds:
    def test_k0_values(self, gaussian, symexp):
        rep = kth_max_bounds(np.ones(100), gaussian, 2)
        assert rep.k0 == 12  # floor(4 / F(1)) with F(1) from erfc
        rep = kth_max_bounds(np.ones(100), symexp, 3)
        assert rep.k0 == 21  # floor(8 e)

    def test_k1_redirected(self, gaussian):
        with pytest.raises(RangeError, match="max_bounds"):
            kth_max_bounds(np.ones(10), gaussian, 1)

    def test_infeasible_carries_required_n(self, gaussian):
        with pytest.raises(InfeasibleError) as err:
            kth_max_bounds(np.ones(10), gaussian, 2)
        assert err.value.required_n == 14
        assert "need n >= 14" in str(err.value)

    def test_equal_weights_sandwich(self, gaussian):
        rep = kth_max_bounds(np.ones(100), gaussian, 2)
        est = estimate_order_stat(np.ones(100), gaussian, 2, statistic="kmax",
                                  replications=10**5, seed=12)
        assert sandwiched(rep, est), (rep.lower, est.mean, rep.upper)

    def test_random_descending_sandwich(self, symexp):
        rng = np.random.default_rng(23)
        k = 3
        rep0 = kth_max_bounds(np.ones(100), symexp, k)
        n = k + rep0.k0 + 10
        x = np.sort(rng.uniform(0.5, 5.0, n))[::-1].copy()
        rep = kth_max_bounds(x, symexp, k)
        est = estimate_order_stat(x, symexp, k, statistic="kmax",
                                  replications=10**5, seed=31)
        assert sandwiched(rep, est)

    def test_report_shape(self, gaussian):
        rep = kth_max_bounds(np.ones(50), gaussian, 2)
        assert rep.k0 == 12
        assert len(rep.terms) == rep.k0
        assert 0 <= rep.argmax_j < rep.k0
        assert rep.tail_norm > 0
        assert "kmax_upper_c" in rep.empirical_constants

    def test_custom_upper_constant(self, gaussian):
        rep = kth_max_bounds(np.ones(50), gaussian, 2,
                             BoundConstants(kmax_upper_c=64.0))
        base = kth_max_bounds(np.ones(50), gaussian, 2)
        assert rep.upper == pytest.approx(2 * base.upper, rel=1e-12)
        assert rep.lower == base.lower

    def test_overflowing_upper_reported_as_none(self, gaussian):
        rep = kth_max_bounds(np.ones(50), gaussian, 2, BoundConstants(kmax_upper_c=1e308))
        base = kth_max_bounds(np.ones(50), gaussian, 2)
        assert rep.upper is None
        assert rep.notes == ("upper bound omitted: it exceeds the float range",)
        assert rep.lower == base.lower

    def test_boundary_n_equals_k_plus_k0(self, gaussian):
        # tail slice shrinks to a single weight
        x = np.sort(np.random.default_rng(1).uniform(0.5, 5.0, 14))[::-1].copy()
        rep = kth_max_bounds(x, gaussian, 2)
        assert rep.k0 == 12
        assert rep.tail_norm > 0
        assert rep.lower <= rep.upper


class TestMaxBounds:
    def test_single_coordinate(self, gaussian):
        # E max = E|x1 xi|; the bound interval must contain it
        rep = max_bounds(np.array([1.0, 0.0, 0.0]), gaussian)
        true_mean = math.sqrt(2 / math.pi)
        assert rep.lower <= true_mean <= rep.upper

    def test_overflowing_upper_reported_as_none(self, gaussian):
        x = np.array([1e298, 2e298])
        rep = max_bounds(x, gaussian, BoundConstants(max1_c_high=1e11))
        assert rep.upper is None
        assert rep.notes == ("upper bound omitted: it exceeds the float range",)
        assert rep.lower == max_bounds(x, gaussian).lower

    def test_overflowing_lower_is_a_numeric_failure(self):
        # E|xi| = 1e10 times ||x||_M of about 1e300.
        with pytest.raises(NumericError, match="exceeds the float range"):
            max_bounds(np.array([1e300, 2e300]), SymExponential(rate=1e-10))

    def test_growth_rate_equal_weights(self, gaussian):
        n = 1000
        rep = max_bounds(np.ones(n), gaussian)
        est = estimate_order_stat(np.ones(n), gaussian, 1, statistic="kmax",
                                  replications=2 * 10**4, seed=9)
        assert sandwiched(rep, est)
        # the norm itself tracks sqrt(2 ln n) within a factor of 2
        norm_scale = rep.constants["mean_abs"] * rep.constants["unit_norm"]
        assert norm_scale / math.sqrt(2 * math.log(n)) > 0.5
        assert norm_scale / math.sqrt(2 * math.log(n)) < 2.0

    def test_homogeneity(self, gaussian):
        x = np.array([0.3, 1.0, 2.0])
        rep1 = max_bounds(x, gaussian)
        rep5 = max_bounds(5 * x, gaussian)
        assert rep5.lower == pytest.approx(5 * rep1.lower, rel=1e-8)
        assert rep5.upper == pytest.approx(5 * rep1.upper, rel=1e-8)

    def test_zero_vector_rejected(self, gaussian):
        with pytest.raises(Exception, match="nonzero"):
            max_bounds(np.zeros(4), gaussian)

    def test_flags_empirical_constants(self, gaussian):
        rep = max_bounds(np.ones(5), gaussian)
        assert set(rep.empirical_constants) == {"max1_c_low", "max1_c_high"}

    def test_signs_ignored(self, gaussian):
        a = max_bounds(np.array([-1.0, 2.0, -3.0]), gaussian)
        b = max_bounds(np.array([1.0, 2.0, 3.0]), gaussian)
        assert a.lower == pytest.approx(b.lower, rel=1e-9)
        assert a.upper == pytest.approx(b.upper, rel=1e-9)

    def test_normalization_compensation(self, gaussian):
        # a model already at unit mean must give identical bounds
        unit = gaussian.normalized()
        a = max_bounds(np.ones(20), gaussian)
        b = max_bounds(np.ones(20), unit)
        assert b.lower == pytest.approx(a.lower / gaussian.mean_abs(), rel=1e-9)


def _refuse_constant(token):
    raise ValueError(f"not strict JSON: {token}")


def test_overflowing_c_n_is_reported_as_none():
    # N(1) = 1e-310, so C_N = 1/N(1) overflows; the upper bound it multiplies
    # is omitted with a note, and the report stays strict JSON.
    model = SymExponential(rate=1e-300).scaled_by(1e10)
    reports = [kth_min_bounds(np.linspace(1.0, 6.0, 6), model, 1),
               kth_max_bounds(np.linspace(6.0, 1.0, 6) * 1e-300, model, 2)]
    for rep in reports:
        assert rep.constants["C_N"] is None
        assert rep.upper is None
        assert rep.notes == ("upper bound omitted: it exceeds the float range",)
        json.loads(dumps_report(rep), parse_constant=_refuse_constant)
    assert reports[1].constants["tail_discount"] is None


class TestMomentBounds:
    def test_p1_consistency(self, gaussian):
        x = np.sort(np.random.default_rng(3).uniform(0.5, 5.0, 30))
        rep = kth_min_bounds(x, gaussian, 4)
        low = kth_min_moment_lower(x, gaussian, 4, 1.0)
        assert low == pytest.approx(rep.lower, rel=1e-12)

    def test_p2_below_mc(self, gaussian):
        x = np.sort(np.random.default_rng(4).uniform(0.5, 5.0, 40))
        low = kth_min_moment_lower(x, gaussian, 3, 2.0)
        est = estimate_order_stat(x, gaussian, 3, power=2.0,
                                  replications=10**5, seed=2)
        assert low <= est.mean + 4 * est.ci_halfwidth

    def test_sqrt_moment_below_mc(self, gaussian):
        x = np.sort(np.random.default_rng(5).uniform(0.5, 5.0, 40))
        low = kth_min_moment_lower(x, gaussian, 1, 0.5)
        est = estimate_order_stat(x, gaussian, 1, power=0.5,
                                  replications=10**5, seed=6)
        assert low <= est.mean + 4 * est.ci_halfwidth

    def test_allows_k_beyond_half(self, gaussian):
        # unlike the two-sided version, valid for any k <= n
        assert kth_min_moment_lower(np.ones(10), gaussian, 9, 1.0) > 0

    def test_upper_factors(self, gaussian):
        # 1 + Gamma(2) = 2 and 1 + Gamma(4) = 7
        x = np.ones(10)
        u1 = min_moment_upper(x, gaussian, 1.0)
        u3 = min_moment_upper(x, gaussian, 3.0)
        from orlicz_bounds import neg_log_survival_function, orlicz_norm

        nm = orlicz_norm(1.0 / x, neg_log_survival_function(gaussian))
        assert u1 == pytest.approx(2.0 / nm, rel=1e-10)
        assert u3 == pytest.approx(7.0 / nm**3, rel=1e-10)

    def test_upper_above_mc(self, gaussian):
        x = np.sort(np.random.default_rng(6).uniform(0.5, 5.0, 50))
        up = min_moment_upper(x, gaussian, 1.0)
        est = estimate_order_stat(x, gaussian, 1, replications=10**5, seed=8)
        assert est.mean - 4 * est.ci_halfwidth <= up

    def test_nonconvex_rejected(self, nonconvex_table_model):
        with pytest.raises(NonConvexError):
            min_moment_upper(np.ones(5), nonconvex_table_model, 1.0)

    def test_p_validation(self, gaussian):
        with pytest.raises(RangeError):
            kth_min_moment_lower(np.ones(5), gaussian, 1, 0.0)
        with pytest.raises(RangeError):
            min_moment_upper(np.ones(5), gaussian, -1.0)


class TestMcMonotonicity:
    def test_kmin_estimates_nondecreasing_in_k(self, gaussian):
        x = np.sort(np.random.default_rng(7).uniform(0.5, 5.0, 20))
        means = [
            estimate_order_stat(x, gaussian, k, replications=2 * 10**4, seed=44).mean
            for k in (1, 3, 7, 12, 20)
        ]
        assert all(b >= a for a, b in zip(means, means[1:]))


_TINY = np.linspace(1e-315, 4e-315, 20)  # reciprocals overflow to inf
_GAUSS = Gaussian()


@pytest.mark.parametrize(
    "call",
    [
        lambda: kth_min_bounds(_TINY, _GAUSS, 1),
        lambda: kth_min_bounds_gaussian(_TINY, 1),
        lambda: kth_max_bounds(Weights.descending(_TINY[::-1]), _GAUSS, 2),
        lambda: kth_min_moment_lower(_TINY, _GAUSS, 1, 1.0),
        lambda: min_moment_upper(_TINY, _GAUSS, 1.0),
        lambda: build_partition(_TINY, linear_function(), 2),
        lambda: verify_partition(
            _TINY, linear_function(), 2, PartitionResult(((1, 1), (2, 20)), "case2")
        ),
        lambda: kth_min_tail_threshold(_TINY, _GAUSS, 1),
    ],
    ids=["kmin", "kmin-gaussian", "kmax", "kmin-moment", "min-moment", "partition",
         "verify-partition", "tail-threshold"],
)
def test_weights_with_overflowing_reciprocal_refused(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="reciprocal of entry 1"):
            call()

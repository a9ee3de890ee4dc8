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
    BoundReport,
    DomainError,
    Gaussian,
    InfeasibleError,
    NonConvexError,
    NumericError,
    OrliczFunction,
    PartitionResult,
    RangeError,
    SymExponential,
    build_partition,
    check_kmax_split,
    check_subset_product_chain,
    estimate_order_stats,
    kth_max_bounds,
    kth_min_bounds,
    kth_min_bounds_gaussian,
    kth_min_moment_lower,
    kth_min_tail_threshold,
    linear_function,
    max_bounds,
    min_moment_upper,
    orlicz_norm,
    reciprocal_survival_function,
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
        c_n = kth_min_bounds(np.ones(4), gaussian, 1).constants["C_N"]
        assert c_n == pytest.approx(max(n1, 1 / n1), rel=1e-12)

    def test_c_n_symexp_is_one(self, symexp):
        assert kth_min_bounds(np.ones(4), symexp, 1).constants["C_N"] == 1.0


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
        est = estimate_order_stats(np.ones(n), gaussian, [1], replications=10**6, seed=21)[0]
        assert rep.lower <= est.mean + 4 * est.ci_halfwidth
        assert est.mean <= rep.upper + 4 * est.ci_halfwidth

    def test_random_weights_sandwich(self, gaussian):
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(0.5, 5.0, 50))
        rep = kth_min_bounds(x, gaussian, 10)
        est = estimate_order_stats(x, gaussian, [10], replications=10**5, seed=99)[0]
        assert sandwiched(rep, est), (rep.lower, est.mean, rep.upper)

    def test_symexp_sandwich(self, symexp):
        rng = np.random.default_rng(6)
        x = np.sort(rng.uniform(0.5, 5.0, 40))
        rep = kth_min_bounds(x, symexp, 5)
        est = estimate_order_stats(x, symexp, [5], replications=10**5, seed=17)[0]
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
        with pytest.raises(DomainError, match="not in ascending order: entry 2"):
            kth_min_bounds(np.array([3.0, 2.0, 1.0]), gaussian, 1)

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
        est = estimate_order_stats(x, gaussian, [5], replications=10**5, seed=41)[0]
        assert sandwiched(rep, est)

    def test_sandwich_and_mc(self, gaussian):
        rng = np.random.default_rng(14)
        x = np.sort(rng.uniform(0.5, 5.0, 40))
        rep = kth_min_bounds_gaussian(x, 8)
        est = estimate_order_stats(x, gaussian, [8], replications=10**5, seed=3)[0]
        assert sandwiched(rep, est)

    def test_homogeneity(self):
        x = np.sort(np.random.default_rng(2).uniform(0.5, 5.0, 30))
        rep1 = kth_min_bounds_gaussian(x, 4)
        rep10 = kth_min_bounds_gaussian(10 * x, 4)
        assert rep10.lower == pytest.approx(10 * rep1.lower, rel=1e-12)
        assert rep10.upper == pytest.approx(10 * rep1.upper, rel=1e-12)

    def test_tiny_weights_keep_the_sandwich(self, gaussian):
        """Suffix sums of 1/x past the float range: the terms are formed from
        the rescaled reciprocals, with no overflow warning, and the bounds
        are plain floats that scale with the weights and hold E min."""
        x = np.array([1e-308, 1e-308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = kth_min_bounds_gaussian(x, 1)
        assert type(rep.lower) is float and type(rep.upper) is float
        unit = kth_min_bounds_gaussian(np.ones(2), 1)
        assert rep.lower == pytest.approx(1e-308 * unit.lower, rel=1e-12)
        assert rep.upper == pytest.approx(1e-308 * unit.upper, rel=1e-12)
        assert rep.notes
        est = estimate_order_stats(x, gaussian, [1], replications=10**4, seed=12)[0]
        assert sandwiched(rep, est)
        assert rep.lower < 4.6e-309 < 4.7e-309 < rep.upper  # E min = 1e-308 * 0.4671

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
        est = estimate_order_stats(np.ones(100), gaussian, [2], statistic="kmax",
                                   replications=10**5, seed=12)[0]
        assert sandwiched(rep, est), (rep.lower, est.mean, rep.upper)

    def test_random_descending_sandwich(self, symexp):
        rng = np.random.default_rng(23)
        k = 3
        rep0 = kth_max_bounds(np.ones(100), symexp, k)
        n = k + rep0.k0 + 10
        x = np.sort(rng.uniform(0.5, 5.0, n))[::-1].copy()
        rep = kth_max_bounds(x, symexp, k)
        est = estimate_order_stats(x, symexp, [k], statistic="kmax",
                                   replications=10**5, seed=31)[0]
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

    @pytest.mark.parametrize("field", ["kmax_upper_c", "max1_c_low", "max1_c_high"])
    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.inf, math.nan, "2", None, True])
    def test_constants_checked_at_construction(self, field, bad):
        with pytest.raises(DomainError, match=field):
            BoundConstants(**{field: bad})

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
        est = estimate_order_stats(np.ones(n), gaussian, [1], statistic="kmax",
                                   replications=2 * 10**4, seed=9)[0]
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



def _max_norm_by_rescaled_model(x, model):
    """The max bound's norm as a model rescaled to E|xi| = 1 computed it:
    u = 1/s, the tail integral and F read at u / c, then M = s (c tail) - F,
    with c = 1.0 / E|xi|."""
    c = 1.0 / model.mean_abs()

    def _eval(s):
        s = np.atleast_1d(np.asarray(s, dtype=float))
        tail, surv = model._tail_integral_and_survival((1.0 / s) / c)
        out = s * (c * tail)
        out -= surv
        return np.maximum(out, 0.0, out=out)

    return orlicz_norm(np.abs(x), OrliczFunction("M of the rescaled model", _eval))


@pytest.mark.parametrize("n", [100, 10_000])  # 10,000: a steered solve
@pytest.mark.parametrize("family", ["gaussian", "symexp:1", "symexp:1e-300", "symexp:1.7e308",
                                    "table"])
def test_max_norm_keeps_the_bits_of_the_rescaled_model(gaussian_table_model, family, n):
    model = {"gaussian": Gaussian(), "symexp:1": SymExponential(1.0),
             "symexp:1e-300": SymExponential(1e-300), "symexp:1.7e308": SymExponential(1.7e308),
             "table": gaussian_table_model}[family]
    x = np.random.default_rng(n).uniform(-5.0, 5.0, n)
    got = max_bounds(x, model).terms[0]
    assert got.hex() == _max_norm_by_rescaled_model(x, model).hex()


def _refuse_constant(token):
    raise ValueError(f"not strict JSON: {token}")


def test_overflowing_c_n_is_reported_as_none():
    # N(1) = 1e-310, so C_N = 1/N(1) overflows; the upper bound it multiplies
    # is omitted with a note. The report keeps C_N = inf, and its JSON is
    # strict, with null in its place.
    class TinyN(SymExponential):
        def _neg_log_survival(self, t):
            return 1e-310 * t

    model = TinyN(rate=1e-300)
    reports = [kth_min_bounds(np.linspace(1.0, 6.0, 6), model, 1),
               kth_max_bounds(np.linspace(6.0, 1.0, 6) * 1e-300, model, 2)]
    for rep in reports:
        assert rep.constants["C_N"] == math.inf
        assert rep.upper is None
        assert rep.notes == ("upper bound omitted: it exceeds the float range",)
        printed = json.loads(dumps_report(rep), parse_constant=_refuse_constant)
        assert printed["constants"]["C_N"] is None
    assert reports[1].constants["tail_discount"] == math.inf
    printed = json.loads(dumps_report(reports[1]), parse_constant=_refuse_constant)
    assert printed["constants"]["tail_discount"] is None


class TestMomentBounds:
    def test_p1_consistency(self, gaussian):
        x = np.sort(np.random.default_rng(3).uniform(0.5, 5.0, 30))
        rep = kth_min_bounds(x, gaussian, 4)
        low = kth_min_moment_lower(x, gaussian, 4, 1.0)
        assert low == pytest.approx(rep.lower, rel=1e-12)

    def test_p2_below_mc(self, gaussian):
        x = np.sort(np.random.default_rng(4).uniform(0.5, 5.0, 40))
        low = kth_min_moment_lower(x, gaussian, 3, 2.0)
        est = estimate_order_stats(x, gaussian, [3], power=2.0,
                                   replications=10**5, seed=2)[0]
        assert low <= est.mean + 4 * est.ci_halfwidth

    def test_sqrt_moment_below_mc(self, gaussian):
        x = np.sort(np.random.default_rng(5).uniform(0.5, 5.0, 40))
        low = kth_min_moment_lower(x, gaussian, 1, 0.5)
        est = estimate_order_stats(x, gaussian, [1], power=0.5,
                                   replications=10**5, seed=6)[0]
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
        est = estimate_order_stats(x, gaussian, [1], replications=10**5, seed=8)[0]
        assert est.mean - 4 * est.ci_halfwidth <= up

    def test_nonconvex_rejected(self, nonconvex_table_model):
        with pytest.raises(NonConvexError):
            min_moment_upper(np.ones(5), nonconvex_table_model, 1.0)

    def test_lower_past_the_float_range_is_a_numeric_error(self, gaussian):
        # terms of about 1e10 to the 40th power
        with pytest.raises(NumericError, match="exceeds the float range"):
            kth_min_moment_lower([1e10, 1e11], gaussian, 1, 40.0)

    def test_upper_past_the_float_range_is_a_numeric_error(self, gaussian):
        # Gamma(201) is past the largest float, and so is its product with
        # the norm to the power -200
        with pytest.raises(NumericError, match="exceeds the float range"):
            min_moment_upper([1.0, 2.0], gaussian, 200.0)

    def test_upper_with_a_factor_outside_the_normal_floats(self, gaussian):
        """||(100, 100)||_N^-170 underflows and Gamma(201) overflows, yet
        both bounds are about 1e-83: they are formed in logs. Where the
        power is normal, the bound is the direct product, as before; where
        the bound itself underflows, NumericError."""
        from orlicz_bounds import neg_log_survival_function

        nfun = neg_log_survival_function(gaussian)
        nm = orlicz_norm(1.0 / np.array([0.01, 0.01]), nfun)
        assert nm ** -170.0 == 0.0
        for p in (170.0, 200.0):
            want = math.exp(math.lgamma(1.0 + p) - p * math.log(nm))
            got = min_moment_upper([0.01, 0.01], gaussian, p)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert 7e-83 < min_moment_upper([0.01, 0.01], gaussian, 170.0) < 8e-83
        nm = orlicz_norm(1.0 / np.array([0.05, 0.05]), nfun)
        upper = min_moment_upper([0.05, 0.05], gaussian, 170.0)
        assert upper == (1.0 + math.gamma(171.0)) * nm ** -170.0 and f"{upper:.4g}" == "4.983e+36"
        with pytest.raises(NumericError, match="below the float range"):
            min_moment_upper([1e-5, 1e-5], gaussian, 170.0)

    def test_p_validation(self, gaussian):
        with pytest.raises(RangeError):
            kth_min_moment_lower(np.ones(5), gaussian, 1, 0.0)
        with pytest.raises(RangeError):
            min_moment_upper(np.ones(5), gaussian, -1.0)
        for p in (math.inf, math.nan):
            with pytest.raises(RangeError):
                kth_min_moment_lower(np.ones(5), gaussian, 1, p)
            with pytest.raises(RangeError):
                min_moment_upper(np.ones(5), gaussian, p)


class TestMcMonotonicity:
    def test_kmin_estimates_nondecreasing_in_k(self, gaussian):
        x = np.sort(np.random.default_rng(7).uniform(0.5, 5.0, 20))
        means = [
            estimate_order_stats(x, gaussian, [k], replications=2 * 10**4, seed=44)[0].mean
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
        lambda: kth_max_bounds(_TINY[::-1], _GAUSS, 2),
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


_UP = np.array([1.0, 3.0, 2.0, 4.0])  # entry 3 breaks ascending order
_DOWN = _UP[::-1]  # entry 3 breaks descending order
_UP_ORDER = r"weights not in ascending order: entry 3 \(2\.0\) violates entry 2 \(3\.0\)"
_DOWN_ORDER = r"weights not in descending order: entry 3 \(3\.0\) violates entry 2 \(2\.0\)"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: kth_min_bounds(_UP, _GAUSS, 1), _UP_ORDER),
        (lambda: kth_min_bounds_gaussian(_UP, 1), _UP_ORDER),
        (lambda: kth_max_bounds(_DOWN, _GAUSS, 2), _DOWN_ORDER),
        (lambda: kth_min_moment_lower(_UP, _GAUSS, 1, 1.0), _UP_ORDER),
        (lambda: min_moment_upper(_UP, _GAUSS, 1.0), _UP_ORDER),
        (lambda: build_partition(_UP, linear_function(), 2), _UP_ORDER),
        (lambda: verify_partition(_UP, linear_function(), 2,
                                  PartitionResult(((1, 1), (2, 4)), "case2")), _UP_ORDER),
        # Order is checked before the reciprocals.
        (lambda: kth_min_bounds(np.array([1e-315, 1.0, 0.5]), _GAUSS, 1),
         r"weights not in ascending order: entry 3 \(0\.5\) violates entry 2 \(1\.0\)"),
        (lambda: kth_min_bounds(np.array([1.0, math.nan, 2.0]), _GAUSS, 1),
         "weights must be positive and finite: entry 2 is nan"),
        (lambda: kth_max_bounds(np.array([2.0, 1.0, -0.0]), _GAUSS, 2),
         "weights must be positive and finite: entry 3 is -0.0"),
        # Monte Carlo needs no reciprocal, so one that overflows is no error.
        (lambda: estimate_order_stats(np.full(4, 1e-310), _GAUSS, [1], replications=100), None),
    ],
    ids=["kmin", "kmin-gaussian", "kmax", "kmin-moment", "min-moment", "partition",
         "verify-partition", "order-before-overflow", "nan", "negative-zero",
         "montecarlo-tiny"],
)
def test_plain_weight_vectors_checked_once(call, message):
    """Every entry point takes a plain array and checks its order itself."""
    if message is None:
        assert 0.0 < call()[0].mean < 1e-309
        return
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


_ONES = np.ones(40)


@pytest.mark.parametrize(
    "call",
    [
        lambda k: kth_min_bounds(_ONES, _GAUSS, k),
        lambda k: kth_min_bounds_gaussian(_ONES, k),
        lambda k: kth_max_bounds(_ONES, _GAUSS, k),
        lambda k: kth_min_moment_lower(_ONES, _GAUSS, k, 1.0),
        lambda k: build_partition(_ONES, linear_function(), k),
        lambda k: reciprocal_survival_function(_GAUSS, k),
        lambda k: check_kmax_split(_ONES, 1, k),
        lambda k: check_subset_product_chain([0.5, 0.5, 0.5], k),
        lambda k: _GAUSS.sample(np.random.default_rng(0), k),
    ],
    ids=["kmin", "kmin-gaussian", "kmax", "kmin-moment", "partition", "reciprocal-survival",
         "kmax-split-j", "subset-chain-j", "sample-count"],
)
def test_orders_must_be_integers(call):
    for bad in (2.5, 2.0, math.nan, True):
        with pytest.raises(RangeError):
            call(bad)
    out = call(np.int64(2))  # a numpy integer is an integer
    if isinstance(out, BoundReport):
        assert out.k == 2 and type(out.k) is int

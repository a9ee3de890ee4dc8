"""Monte Carlo estimators, reproducibility, and the exact inequality checks."""

import math
import os
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orlicz_bounds import (
    DomainError,
    Gaussian,
    NumericError,
    OrliczBoundsError,
    PreconditionError,
    RangeError,
    SymExponential,
    check_kmax_split,
    check_kth_min_tail,
    check_min_survival_product,
    check_subset_product_chain,
    check_symmetric_tail_bound,
    elementary_symmetric,
    estimate_order_stats,
    kth_min_tail_threshold,
)
from orlicz_bounds import montecarlo
from orlicz_bounds.montecarlo import _worker_count

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


class TestEstimator:
    def test_half_normal_mean(self, gaussian):
        est = estimate_order_stats(np.ones(1), gaussian, [1], replications=10**5, seed=0)[0]
        assert abs(est.mean - SQRT_2_OVER_PI) < 4 * est.ci_halfwidth

    def test_bitwise_reproducibility(self, gaussian):
        a = estimate_order_stats(np.ones(10), gaussian, [3], replications=20_000, seed=7)[0]
        b = estimate_order_stats(np.ones(10), gaussian, [3], replications=20_000, seed=7)[0]
        assert a == b

    def test_thread_count_invariance(self, gaussian):
        one = estimate_order_stats(np.ones(10), gaussian, [3], replications=30_000,
                                   seed=5, threads=1)[0]
        three = estimate_order_stats(np.ones(10), gaussian, [3], replications=30_000,
                                     seed=5, threads=3)[0]
        assert one.mean == three.mean
        assert one.ci_halfwidth == three.ci_halfwidth
        x = np.linspace(0.5, 5.0, 12)
        a, b = (check_min_survival_product(x, gaussian, 0.4, replications=30_000, seed=5,
                                           threads=t)
                for t in (1, 2))
        assert (a.lhs, a.detail["ci"]) == (b.lhs, b.detail["ci"])

    def test_worker_count_bounded(self):
        assert _worker_count(1, 3) == 1
        workers = _worker_count(10**6, 3)
        assert 1 <= workers <= min(3, os.cpu_count())

    def test_kmax_equals_complementary_kmin(self, gaussian):
        # k-max = (n-k+1)-min on every realization, so the estimates match
        n, k = 20, 6
        a = estimate_order_stats(np.ones(n), gaussian, [k], statistic="kmax",
                                 replications=20_000, seed=3)[0]
        b = estimate_order_stats(np.ones(n), gaussian, [n - k + 1], statistic="kmin",
                                 replications=20_000, seed=3)[0]
        assert a.mean == b.mean

    def test_full_min_is_max_statistic(self, gaussian):
        a = estimate_order_stats(np.ones(20), gaussian, [20], statistic="kmin",
                                 replications=20_000, seed=4)[0]
        b = estimate_order_stats(np.ones(20), gaussian, [1], statistic="kmax",
                                 replications=20_000, seed=4)[0]
        assert a.mean == b.mean

    def test_multi_k_matches_single(self, gaussian):
        x = np.sort(np.random.default_rng(0).uniform(0.5, 5.0, 15))
        multi = estimate_order_stats(x, gaussian, [1, 4, 9], replications=20_000, seed=8)
        for est in multi:
            single = estimate_order_stats(x, gaussian, [est.k], replications=20_000, seed=8)[0]
            assert est == single

    def test_power_statistic(self, gaussian):
        est = estimate_order_stats(np.ones(1), gaussian, [1], power=2.0,
                                   replications=10**5, seed=1)[0]
        # E xi^2 = 1 for the standard normal
        assert abs(est.mean - 1.0) < 4 * est.ci_halfwidth

    def test_validation(self, gaussian):
        with pytest.raises(RangeError):
            estimate_order_stats(np.ones(5), gaussian, [6])
        with pytest.raises(RangeError):
            estimate_order_stats(np.ones(5), gaussian, [1], replications=50)
        with pytest.raises(DomainError):
            estimate_order_stats(np.ones(5), gaussian, [1], statistic="median")
        with pytest.raises(RangeError):
            estimate_order_stats(np.ones(5), gaussian, [1], threads=0)
        for power in (math.inf, "2", True):
            with pytest.raises(RangeError):
                estimate_order_stats(np.ones(5), gaussian, [1], power=power)
        with pytest.raises(DomainError):
            check_min_survival_product(np.ones(5), gaussian, 0.05, replications=1000, seed=-1)
        with pytest.raises(RangeError):
            check_min_survival_product(np.ones(5), gaussian, 0.05, replications=50)
        for t in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="threshold must be finite"):
                check_kth_min_tail(np.ones(5), gaussian, 1, t)
        for t in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="threshold must be positive and finite"):
                check_min_survival_product(np.ones(5), gaussian, t, replications=1000)

    def test_orders_must_be_integers(self, gaussian):
        x = np.ones(5)
        for ks in ([1.5], [2.0], [True], [], [1, 2.5]):
            with pytest.raises(RangeError):
                estimate_order_stats(x, gaussian, ks, replications=100)
        for k in (2.5, 2.0, math.nan):
            with pytest.raises(RangeError):
                estimate_order_stats(x, gaussian, [k], replications=100)
            with pytest.raises(RangeError):
                check_kth_min_tail(x, gaussian, k, 0.05)
            with pytest.raises(RangeError):
                kth_min_tail_threshold(x, gaussian, k)
            with pytest.raises(RangeError):
                check_kmax_split(x, k, 1)
            with pytest.raises(RangeError):
                check_symmetric_tail_bound([0.1, 0.1, 0.1], k)
        # numpy integers are integers, and the estimate carries a Python int
        est = estimate_order_stats(x, gaussian, np.array([2]), replications=100)[0]
        assert est.k == 2 and type(est.k) is int

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_bad_weight_names_its_entry(self, gaussian, bad):
        x = [1.0, 2.0, bad, 4.0]
        with pytest.raises(DomainError, match=r"positive and finite: entry 3 is"):
            estimate_order_stats(x, gaussian, [1], replications=100)
        with pytest.raises(DomainError, match=r"positive and finite: entry 3 is"):
            kth_min_tail_threshold(x, gaussian, 1)


def _reference_chunks(xv, model, kth, replications, seed, threads, reduce):
    """The chunk engine as it stood before in-place selection: a fresh
    sample, |xi| * x in new arrays, and one partition at ``kth``.
    Chunks of 8192 rows, as the engine still uses for n <= 1024."""
    n = xv.size
    out = []
    for c in range(-(-replications // 8192)):
        rows = min(8192, replications - c * 8192)
        rng = np.random.default_rng([seed, c])
        draws = model._sample(rng, rows * n).reshape(rows, n)
        out.append(reduce(np.partition(np.abs(draws) * xv, kth, axis=1)))
    return out


class _CountingModel:
    """Delegates ``sample`` to a model and records every requested count."""

    def __init__(self, model):
        self.model, self.counts = model, []

    def sample(self, rng, count):
        self.counts.append(count)
        return self.model.sample(rng, count)


def _assert_reference_bits(monkeypatch, x, model, ks, statistic, power):
    reps = 8192 + 37  # a full chunk and a remainder
    got = [estimate_order_stats(x, model, ks, statistic, reps, seed=9, power=power,
                                threads=t) for t in (1, 2)]
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_selected_chunks", _reference_chunks)
        want = estimate_order_stats(x, model, ks, statistic, reps, seed=9, power=power)
    assert got[0] == got[1] == want, list(ks)


class TestChunkEngine:
    @pytest.mark.parametrize("family", ["gaussian", "symexp", "table"])
    @pytest.mark.parametrize("statistic", ["kmin", "kmax"])
    @pytest.mark.parametrize("power", [1.0, 2.0])
    def test_same_bits_as_reference(self, gaussian_table_model, monkeypatch,
                                    family, statistic, power):
        model = {"gaussian": Gaussian(), "symexp": SymExponential(rate=1.7 / 0.3),
                 "table": gaussian_table_model}[family]
        n = 12
        x = np.sort(np.random.default_rng(21).uniform(0.5, 5.0, n))
        for ks in ([4], [1, n], [2, 7, 11], [1, 3, 6, 9, 12], range(1, n + 1)):
            _assert_reference_bits(monkeypatch, x, model, ks, statistic, power)

    @pytest.mark.parametrize("statistic", ["kmin", "kmax"])
    def test_long_rows_same_bits_as_reference(self, gaussian, monkeypatch, statistic):
        # numpy partitions rows shorter than about 256 by sorting them in
        # full, so only long rows tell a wrong selection from a right one
        n = 300
        x = np.sort(np.random.default_rng(22).uniform(0.5, 5.0, n))
        for ks in ([150], [1, n], [2, 170, 231], [1, 90, 200, 260, 298]):
            _assert_reference_bits(monkeypatch, x, gaussian, ks, statistic, 1.0)

    def test_chunk_memory_bounded(self, gaussian):
        n, reps = 3000, 5000
        x = np.linspace(0.5, 2.0, n)
        results = []
        for threads in (1, 2):
            model = _CountingModel(gaussian)
            results.append(estimate_order_stats(x, model, [5, 1500], replications=reps,
                                                seed=3, threads=threads))
            assert sum(model.counts) == n * reps
            assert max(model.counts) <= 2**23
        assert results[0] == results[1]

    def test_overflowing_squares_rescaled(self, gaussian):
        x = np.full(30, 1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_order_stats(x, gaussian, [3], replications=1000)[0]
        unit = estimate_order_stats(np.ones(30), gaussian, [3], replications=1000)[0]
        assert math.isfinite(est.ci_halfwidth) and est.ci_halfwidth > 0
        assert est.mean == pytest.approx(1e160 * unit.mean, rel=1e-14)
        assert est.ci_halfwidth == pytest.approx(1e160 * unit.ci_halfwidth, rel=1e-14)

    @pytest.mark.parametrize("scale", [1e-160, 1e-170])
    def test_underflowing_squares_rescaled(self, gaussian, scale):
        # Squares below the smallest normal double: the variance lost its
        # digits and used to be clamped to a zero half-width.
        est = estimate_order_stats(np.full(30, scale), gaussian, [3], replications=1000)[0]
        unit = estimate_order_stats(np.ones(30), gaussian, [3], replications=1000)[0]
        assert est.ci_halfwidth > 0
        assert est.mean == pytest.approx(scale * unit.mean, rel=1e-14)
        assert est.ci_halfwidth == pytest.approx(scale * unit.ci_halfwidth, rel=1e-14)

    def test_overflow_after_rescaling_raises(self, gaussian):
        with pytest.raises(NumericError):
            estimate_order_stats(np.full(30, 1e300), gaussian, [3], replications=1000,
                                 power=2.0)[0]


def _reference_elementary_symmetric(values):
    """The recurrence as it stood before the integer form: one Fraction per
    entry, every level reduced by a gcd at every step."""
    vals = np.asarray(values, dtype=float).ravel()
    if np.any(vals < 0) or np.any(~np.isfinite(vals)):
        raise DomainError("elementary symmetric polynomials need finite nonnegative values")
    fracs = [Fraction(float(v)) for v in vals]
    e = [Fraction(0)] * (len(fracs) + 1)
    e[0] = Fraction(1)
    for i, a in enumerate(fracs, start=1):
        for level in range(i, 0, -1):
            e[level] += a * e[level - 1]
    return e


def _outcome(check, *args):
    """A checker's (lhs, rhs, ok, detail), or the type of what it raised,
    with the categories of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            res = check(*args)
            result = res.lhs, res.rhs, res.ok, res.detail
        except (ArithmeticError, OrliczBoundsError) as exc:
            result = type(exc)
    return result, [w.category for w in caught]


# Zero, the smallest subnormal, other subnormals, the whole normal range and
# repeated entries: every case of the common 2^p denominator.
_ESP_SPECIAL = [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-150, 0.1,
                1.0, 3.0, 1e150, 1e300, 1e308]
_ESP_ENTRY = st.one_of(st.sampled_from(_ESP_SPECIAL),
                       st.floats(min_value=0.0, max_value=1e308))
_ESP_VECTOR = st.lists(_ESP_ENTRY, min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=22))


class TestElementarySymmetric:
    @settings(max_examples=150)
    @given(_ESP_VECTOR, st.integers(min_value=0, max_value=2**31))
    @example(_ESP_SPECIAL * 2 + [0.5, 0.5], 0)
    @example([5e-324] * 22, 1)
    @example([1e308] * 21 + [5e-324], 2)
    def test_integer_recurrence_matches_fraction_reference(self, values, seed):
        assert elementary_symmetric(values) == _reference_elementary_symmetric(values)
        n = len(values)
        rng = np.random.default_rng(seed)
        k, j = int(rng.integers(1, max(n, 1) + 1)), int(rng.integers(0, n + 1))
        vals = np.asarray(values, dtype=float)
        cases = [(check_symmetric_tail_bound, vals, k), (check_subset_product_chain, vals, j)]
        with np.errstate(over="ignore", divide="ignore"):
            factor = 0.5 * k / math.e / np.sum(vals)
        if math.isfinite(factor):  # also an instance with (e/k) sum a_i about 1/2
            cases.append((check_symmetric_tail_bound, vals * factor, k))
        got = [_outcome(*case) for case in cases]
        with mock.patch.object(montecarlo, "elementary_symmetric",
                               _reference_elementary_symmetric):
            want = [_outcome(*case) for case in cases]
        assert got == want

    def test_worked_example(self):
        # a_i = 0.1, n = 3: e_2 + e_3 = 3*0.01 + 0.001 = 0.031
        esp = elementary_symmetric([0.1, 0.1, 0.1])
        lhs = float(sum(esp[2:], Fraction(0)))
        assert lhs == pytest.approx(0.031, rel=1e-12)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=12),
        st.data(),
    )
    def test_recurrence_matches_enumeration_exactly(self, esp_by_enumeration, values, data):
        order = data.draw(st.integers(min_value=0, max_value=len(values)))
        rec = elementary_symmetric(values)[order]
        enum = esp_by_enumeration(values, order)
        assert rec == enum  # exact rational equality

    def test_enumeration_limit(self, esp_by_enumeration):
        with pytest.raises(RangeError):
            esp_by_enumeration(np.ones(13), 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_values_must_be_finite_and_nonnegative(self, esp_by_enumeration, bad):
        for esp in (elementary_symmetric, lambda v: esp_by_enumeration(v, 1)):
            with pytest.raises(DomainError, match="finite nonnegative"):
                esp([0.5, bad])


class TestSymmetricTailBound:
    def test_worked_example(self):
        res = check_symmetric_tail_bound([0.1, 0.1, 0.1], 2)
        assert res.ok
        assert res.lhs == pytest.approx(0.031, rel=1e-12)
        a = math.e / 2 * 0.3
        assert res.detail["a"] == pytest.approx(a, rel=1e-12)
        assert res.rhs == pytest.approx(a**2 / ((1 - a) * math.sqrt(4 * math.pi)),
                                        rel=1e-12)

    def test_zero_values_rejected(self):
        with pytest.raises(DomainError):
            check_symmetric_tail_bound([0.0, 0.0], 1)

    def test_a_above_one_rejected(self):
        with pytest.raises(DomainError):
            check_symmetric_tail_bound([0.5, 0.5, 0.5], 1)

    @pytest.mark.parametrize("values", [[1e308], [1e308, 1e308], [1e308] * 5])
    def test_overflowing_sum_refused_without_a_warning(self, values):
        # (e/k) sum a_i overflows to inf, which the (0, 1) test refuses; the
        # exact left side (about 1e616 for two entries) is never formed.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="got inf"):
                check_symmetric_tail_bound(values, 1)

    @given(
        st.integers(min_value=1, max_value=22),
        st.floats(min_value=0.02, max_value=0.97),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_random_draws_hold(self, n, target, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, n + 1))
        raw = rng.uniform(0.05, 1.0, n)
        a = raw * (target * k / math.e / raw.sum())
        res = check_symmetric_tail_bound(a, k)
        assert res.ok, (res.lhs, res.rhs)


class TestKthMinTail:
    def test_below_threshold(self, gaussian):
        x = np.sort(np.random.default_rng(1).uniform(0.5, 5.0, 25))
        k = 4
        t_max = kth_min_tail_threshold(x, gaussian, k)
        res = check_kth_min_tail(x, gaussian, k, 0.7 * t_max)
        assert res.ok, (res.lhs, res.rhs)
        assert 0 < res.detail["a"] < 1

    def test_a_half_case(self, gaussian):
        # pick t with a(t) = 1/2 by bisection on the defining sum
        x = np.ones(30)
        k = 3

        def aval(t):
            return math.e / k * np.sum(1 - gaussian.survival(t / x))

        lo, hi = 0.0, 10.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if aval(mid) < 0.5:
                lo = mid
            else:
                hi = mid
        res = check_kth_min_tail(x, gaussian, k, lo)
        assert res.ok
        assert res.detail["a"] == pytest.approx(0.5, abs=1e-3)

    def test_degenerate_zero_threshold(self, gaussian):
        res = check_kth_min_tail(np.ones(5), gaussian, 2, 0.0)
        assert res.ok
        assert res.lhs == 0.0 and res.rhs == 0.0

    def test_precondition(self, gaussian):
        # enormous t makes a >= 1
        with pytest.raises(DomainError):
            check_kth_min_tail(np.ones(5), gaussian, 1, 50.0)

    def test_tabulated_threshold_conservative(self, gaussian, gaussian_table_model):
        # beyond the table G is replaced by 1, which can only shrink the
        # threshold; the check itself stays inside the resolved region
        x = np.sort(np.linspace(0.8, 3.0, 12))
        k = 2
        t_an = kth_min_tail_threshold(x, gaussian, k)
        t_tab = kth_min_tail_threshold(x, gaussian_table_model, k)
        # agreement up to the table's interpolation error; never larger
        assert t_tab <= t_an * (1 + 1e-6)
        res = check_kth_min_tail(x, gaussian_table_model, k, 0.7 * t_tab)
        assert res.ok


def _reference_frequency(xv, model, k, t, replications, seed, threads=1):
    """The sampled k-min frequency: every row partitioned at k - 1 and its
    k-th smallest compared with t. The reference for the minimum's count
    per row, and the frequency the exact k-min tail replaced."""

    def below(part):
        return int(np.count_nonzero(part[:, k - 1] <= t))

    hits = sum(montecarlo._selected_chunks(xv, model, k - 1, replications, seed, threads,
                                           below))
    freq = hits / replications
    return freq, math.sqrt(max(freq * (1.0 - freq), 0.0) / replications)


def _hits_by_enumeration(p):
    """P(exactly j of independent events with probabilities p occur) for
    j = 0..n: every one of the 2^n outcomes, its probability a product in
    exact rationals, added to its number of hits."""
    outcomes = [(0, Fraction(1))]
    for f in map(Fraction, map(float, p)):
        outcomes = [o for hits, prob in outcomes
                    for o in ((hits, prob * (1 - f)), (hits + 1, prob * f))]
    dist = [Fraction(0)] * (len(p) + 1)
    for hits, prob in outcomes:
        dist[hits] += prob
    return dist


_PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0, 1e-300, 3e-9, 7e-7]),
                         st.floats(min_value=0.0, max_value=1e-6),
                         st.floats(min_value=0.0, max_value=1.0))


class TestPoissonBinomialTail:
    @settings(max_examples=40)
    @given(st.lists(_PROBABILITY, min_size=1, max_size=12))
    @example([0.0, 1.0, 5e-7, 0.3])
    @example([1e-7] * 12)
    def test_matches_enumeration(self, p):
        # relative 1e-12, or absolute where the tail is below the smallest
        # normal double (a product of 5e-324 and 1e-6 underflows to 0)
        dist = _hits_by_enumeration(p)
        tiny = Fraction(np.finfo(float).tiny)
        for k in range(1, len(p) + 1):
            got = montecarlo._poisson_binomial_tail(np.array(p), k)
            want = sum(dist[k:])
            assert abs(Fraction(got) - want) <= Fraction(1, 10**12) * want + tiny, (
                k, got, float(want))

    @pytest.mark.parametrize("family", ["gaussian", "symexp"])
    def test_matches_frequency(self, family):
        # the old sampled left side, within 4 binomial sigmas of the exact
        # tail, on cases where that tail is far from 0
        model = {"gaussian": Gaussian(), "symexp": SymExponential(rate=1.0)}[family]
        rng = np.random.default_rng(31)
        reps = 20_000
        for case in range(5):
            n = int(rng.integers(5, 31))
            k = int(rng.integers(1, 4))
            x = np.sort(rng.uniform(0.5, 5.0, n))
            t = 0.95 * kth_min_tail_threshold(x, model, k)
            res = check_kth_min_tail(x, model, k, t)
            freq, _ = _reference_frequency(x, model, k, t, reps, seed=case)
            sigma = math.sqrt(res.lhs * (1.0 - res.lhs) / reps)
            assert res.lhs * reps > 50, (case, res.lhs)
            assert abs(freq - res.lhs) <= 4.0 * sigma, (case, freq, res.lhs, sigma)


class _ReplayingModel:
    """Delegates to a model, and replays each chunk's draws from a cache
    keyed by the chunk's seed: the same draws, sampled once."""

    def __init__(self, model):
        self.model, self.draws = model, {}

    def __getattr__(self, name):
        return getattr(self.model, name)

    def sample(self, rng, count):
        key = (tuple(rng.bit_generator.seed_seq.entropy), count)
        if key not in self.draws:
            self.draws[key] = self.model.sample(rng, count)
        return self.draws[key].copy()  # the chunk engine works in place


class TestFrequencyByCounting:
    # numpy partitions rows shorter than about 256 by sorting them in full,
    # so n = 300 is where a wrong selection in the reference would show
    @pytest.mark.parametrize("family", ["gaussian", "symexp", "table"])
    @pytest.mark.parametrize("n, ks", [(12, range(1, 13)),
                                       (300, (1, 2, 37, 150, 151, 263, 299, 300))])
    def test_same_bits_as_selection(self, gaussian_table_model, family, n, ks):
        # the minimum's frequency in check_min_survival_product, counted per
        # row, against the reference's selection of each row's minimum
        model = _ReplayingModel({"gaussian": Gaussian(),
                                 "symexp": SymExponential(rate=1.7 / 0.3),
                                 "table": gaussian_table_model}[family])
        x = np.sort(np.random.default_rng(23).uniform(0.5, 5.0, n))
        reps, seed = 8192 + 37, 11  # a full chunk and a remainder
        first = montecarlo._selected_chunks(x, model, None, reps, seed, 1, np.sort)[0]
        compared = 0
        for k in ks:
            # each t is some row's k-th smallest, so that row ties with t
            for t in (float(first[:, k - 1].min()), float(first[0, k - 1])):
                freq, se = _reference_frequency(x, model, 1, t, reps, seed)
                for threads in (1, 2):
                    try:
                        res = check_min_survival_product(x, model, t, reps, seed, threads)
                    except PreconditionError:  # t / x_i past a table's last knot
                        continue
                    got = (res.detail["union"].lhs, res.lhs, res.detail["ci"])
                    assert got == (freq, 1.0 - freq, se), (k, t, threads)
                    compared += 1
        assert compared >= len(ks)


class TestMinSurvivalProduct:
    def test_single_variable(self, gaussian):
        res = check_min_survival_product(np.ones(1), gaussian, 1.0,
                                         replications=10**5, seed=2)
        assert res.ok
        assert res.rhs == pytest.approx(0.31731050786291415, rel=1e-12)

    def test_two_weights(self, gaussian):
        res = check_min_survival_product(np.array([1.0, 2.0]), gaussian, 1.0,
                                         replications=10**5, seed=3)
        assert res.ok
        expected = gaussian.survival(1.0) * gaussian.survival(0.5)
        assert res.rhs == pytest.approx(expected, rel=1e-12)
        # union side reported as its own check
        union = res.detail["union"]
        assert union.ok
        assert union.lhs == pytest.approx(1.0 - res.lhs, abs=1e-15)
        assert union.rhs == pytest.approx(
            2.0 - gaussian.survival(1.0) - gaussian.survival(0.5), rel=1e-12)
        assert union.lhs <= union.rhs + 4 * res.detail["ci"]

    def test_symexp(self, symexp):
        res = check_min_survival_product(np.array([0.5, 1.5, 3.0]), symexp, 0.4,
                                         replications=10**5, seed=4)
        assert res.ok


class TestKmaxSplit:
    def test_descending_k1_j1(self):
        values = np.array([5.0, 4.0, 3.0, 2.0])
        res = check_kmax_split(values, 1, 1)
        assert res.ok
        assert res.lhs == 5.0

    def test_batch_random(self):
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(10**4, 14))
        k, j = 3, 4
        res = check_kmax_split(batch, k, j)
        assert res.ok
        assert res.detail["violations"] == 0

    def test_equality_case(self):
        # k biggest all inside the prefix and a tiny remainder: the first
        # term alone carries the k-max
        values = np.array([9.0, 8.0, 7.0, 0.01, 0.01])
        res = check_kmax_split(values, 2, 2)  # prefix of 3, j-min = 8 = 2-max
        assert res.ok
        assert res.lhs == 8.0
        assert res.rhs == pytest.approx(8.0 + 0.01)

    def test_j_range(self):
        with pytest.raises(RangeError):
            check_kmax_split(np.ones(5), 3, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, bad):
        batch = np.random.default_rng(6).normal(size=(50, 8))
        batch[17, 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="finite"):
                check_kmax_split(batch, 2, 3)

    @given(
        st.integers(min_value=2, max_value=18),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_random_property(self, n, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, n))
        j = int(rng.integers(1, n - k + 1))
        vals = rng.normal(size=(200, n)) * 3.0
        assert check_kmax_split(vals, k, j).ok


class TestSubsetProductChain:
    def test_j0_equalities(self):
        res = check_subset_product_chain([0.4, 1.2, 0.7], 0)
        assert res.ok
        assert res.lhs == res.rhs == 1.0

    def test_empty_vector_refused(self):
        with pytest.raises(RangeError, match="nonempty"):
            check_subset_product_chain([], 0)

    @pytest.mark.parametrize("values, j, side", [
        ([1e308, 1e308], 2, "e_j"),       # e_2 = 1e616
        ([1e308, 1e308], 1, "e_j"),       # e_1 = 2e308
        ([1e300, 1e-10], 2, "middle"),    # e_2 = 1e290, middle 2.5e599
        ([1e154, 1e154], 2, "right"),     # e_2 = 1e308, middle 1e308, right 2e308
    ])
    def test_side_beyond_the_float_range_names_it(self, values, j, side):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=f"the {side} side exceeds the float range"):
                check_subset_product_chain(values, j)

    def test_j1_all_equal(self):
        a = [0.4, 1.2, 0.7]
        res = check_subset_product_chain(a, 1)
        assert res.ok
        assert res.lhs == pytest.approx(sum(a), rel=1e-12)
        assert res.detail["middle"] == pytest.approx(sum(a), rel=1e-12)
        assert res.rhs == pytest.approx(sum(a), rel=1e-12)

    def test_m12_j5(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(0.0, 2.0, 12)
        res = check_subset_product_chain(a, 5)
        assert res.ok
        assert res.lhs <= res.detail["middle"] <= res.rhs

    @given(
        st.integers(min_value=1, max_value=22),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_random_property(self, m, seed):
        rng = np.random.default_rng(seed)
        j = int(rng.integers(0, m + 1))
        a = rng.uniform(0.0, 3.0, m)
        assert check_subset_product_chain(a, j).ok

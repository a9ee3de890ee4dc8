"""Interval-partition construction and its certificate."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz_bounds import partition
from orlicz_bounds import (
    DomainError,
    Gaussian,
    PartitionResult,
    RangeError,
    Weights,
    build_partition,
    gaussian_comparison_function,
    linear_function,
    neg_log_survival_function,
    orlicz_norm,
    power_function,
    build_partition as _bp,
    verify_partition,
)

GAUSS_N = neg_log_survival_function(Gaussian())

SHAPES = [linear_function(), power_function(2.0), GAUSS_N]


def all_interval_partitions(n, k):
    """Every split of 1..n into k nonempty consecutive intervals."""
    for cuts in itertools.combinations(range(1, n), k - 1):
        edges = (0,) + cuts + (n,)
        yield tuple((edges[i] + 1, edges[i + 1]) for i in range(k))


def certificate_sides_brute(x, fun, k, blocks):
    """Direct evaluation of both sides of the certifying inequality."""
    inv = 1.0 / np.asarray(x, dtype=float)
    lhs = min(
        orlicz_norm(inv[j - 1 :], fun.scaled(1.0 / (k - j + 1))) for j in range(1, k + 1)
    )
    h1 = fun(1.0)
    rhs = 4.0 * max(h1, 1.0 / h1) * min(orlicz_norm(inv[a - 1 : b], fun) for a, b in blocks)
    return lhs, rhs


class TestForcedShapes:
    def test_k_equals_n_singletons(self):
        x = np.sort(np.random.default_rng(0).uniform(0.5, 5.0, 7))
        res = build_partition(x, linear_function(), 7)
        assert res.blocks == tuple((i, i) for i in range(1, 8))
        assert verify_partition(x, linear_function(), 7, res).ok

    def test_k1_single_block(self):
        x = np.sort(np.random.default_rng(1).uniform(0.5, 5.0, 9))
        res = build_partition(x, power_function(2.0), 1)
        assert res.blocks == ((1, 9),)
        assert res.certificate.ok
        assert res.certificate.lhs <= res.certificate.rhs * (1 + 1e-8)

    def test_equal_weights_linear_example(self):
        # brute force over every 3-interval split confirms the certificate
        x = np.ones(6)
        fun = linear_function()
        res = build_partition(x, fun, 3)
        lhs, rhs = certificate_sides_brute(x, fun, 3, res.blocks)
        assert lhs <= rhs * (1 + 1e-8)
        assert res.certificate.lhs == pytest.approx(lhs, rel=1e-9)
        assert res.certificate.rhs == pytest.approx(rhs, rel=1e-9)
        # the returned split is among the valid ones found by enumeration
        valid = [
            blocks
            for blocks in all_interval_partitions(6, 3)
            if (lambda s: s[0] <= s[1] * (1 + 1e-8))(
                certificate_sides_brute(x, fun, 3, blocks)
            )
        ]
        assert res.blocks in valid


class TestValidation:
    def test_k_range(self):
        with pytest.raises(RangeError):
            build_partition(np.ones(4), linear_function(), 5)
        with pytest.raises(RangeError):
            build_partition(np.ones(4), linear_function(), 0)

    def test_h1_domain(self):
        from orlicz_bounds import from_callable

        bad = from_callable(lambda t: np.maximum(t - 2.0, 0.0), label="flat-start")
        assert bad(1.0) == 0.0
        with pytest.raises(DomainError):
            build_partition(np.ones(4), bad, 2)

    def test_requires_ascending(self):
        with pytest.raises(DomainError):
            build_partition(np.array([3.0, 1.0]), linear_function(), 1)
        descending = Weights.descending([4.0, 3.0, 2.0, 1.0])
        with pytest.raises(DomainError):
            build_partition(descending, linear_function(), 2)
        blocks = PartitionResult(blocks=((1, 2), (3, 4)), case_taken="case1")
        with pytest.raises(DomainError):
            verify_partition(descending, linear_function(), 2, blocks)


class TestNormalizationInvariance:
    @pytest.mark.parametrize("scale", [0.2, 1.0, 5.0, 40.0])
    def test_blocks_unchanged_by_h_scaling(self, scale):
        rng = np.random.default_rng(11)
        x = np.sort(rng.uniform(0.3, 6.0, 41))
        base = gaussian_comparison_function()
        res_a = build_partition(x, base, 6)
        res_b = build_partition(x, base.scaled(scale), 6)
        assert res_a.blocks == res_b.blocks
        assert res_a.case_taken == res_b.case_taken


class TestGreedyMaximality:
    def test_case1_blocks_are_maximal(self):
        # equal weights with small k land in case 1
        x = np.ones(100)
        fun = linear_function()
        res = build_partition(x, fun, 2)
        assert res.case_taken == "case1"
        inv = 1.0 / x
        full = orlicz_norm(inv, fun.scaled(1.0 / 2))
        half = 0.5 * full
        for a, b in res.blocks[:-1]:
            assert orlicz_norm(inv[a - 1 : b], fun) <= half * (1 + 1e-12)
            # extending by one more index must break the greedy threshold
            assert orlicz_norm(inv[a - 1 : b + 1], fun) > half * (1 + 1e-12)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_greedy_fixes_only_k_minus_1_blocks(self, k, monkeypatch):
        # the last block takes the rest, so it needs no greedy search
        calls = []
        largest_end = partition._largest_end
        monkeypatch.setattr(partition, "_largest_end",
                            lambda *args: calls.append(args) or largest_end(*args))
        res = build_partition(np.ones(100), linear_function(), k)
        assert res.case_taken == "case1"
        assert len(calls) == k - 1

    def test_determinism(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(0.5, 5.0, 30))
        a = build_partition(x, GAUSS_N, 5)
        b = build_partition(x, GAUSS_N, 5)
        assert a == b


class TestVerifier:
    def test_adversarial_partition_fails(self):
        # all mass in one block starves the other: checker must report False
        x = np.array([1.0, 1.0, 1.0, 1.0, 1000.0])
        bad = PartitionResult(blocks=((1, 4), (5, 5)), case_taken="case1")
        res = verify_partition(x, linear_function(), 2, bad)
        assert not res.ok
        assert res.lhs > res.rhs

    def test_malformed_partition_rejected(self):
        x = np.ones(5)
        gap = PartitionResult(blocks=((1, 2), (4, 5)), case_taken="case1")
        with pytest.raises(DomainError, match="malformed"):
            verify_partition(x, linear_function(), 2, gap)
        wrong_k = PartitionResult(blocks=((1, 5),), case_taken="case1")
        with pytest.raises(DomainError, match="malformed"):
            verify_partition(x, linear_function(), 2, wrong_k)

    def test_k1_always_true(self):
        x = np.sort(np.random.default_rng(9).uniform(0.5, 5.0, 12))
        res = PartitionResult(blocks=((1, 12),), case_taken="case1")
        assert verify_partition(x, GAUSS_N, 1, res).ok


@settings(max_examples=100)
@given(
    n=st.integers(min_value=1, max_value=50),
    k_frac=st.floats(min_value=0.0, max_value=1.0),
    shape_idx=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_random_instances_certificate(n, k_frac, shape_idx, seed):
    k = max(1, min(n, int(round(1 + k_frac * (n - 1)))))
    x = np.sort(np.random.default_rng(seed).uniform(0.2, 8.0, n))
    fun = SHAPES[shape_idx]
    res = build_partition(x, fun, k)
    assert len(res.blocks) == k
    assert res.blocks[0][0] == 1 and res.blocks[-1][1] == n
    assert all(a <= b for a, b in res.blocks)
    assert all(res.blocks[i + 1][0] == res.blocks[i][1] + 1 for i in range(k - 1))
    check = verify_partition(x, fun, k, res)
    assert check.ok, (res.case_taken, check.lhs, check.rhs)

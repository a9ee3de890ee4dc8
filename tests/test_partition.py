"""Interval-partition construction and its certificate.

The construction and the certificate solve a norm only where its value is
used; every other norm only feeds a comparison, which one modular sum
settles. The all-solving construction and verifier are kept below as the
reference: every block, case and certificate float must match it bit for
bit.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz_bounds import partition
from orlicz_bounds import (
    DomainError,
    Gaussian,
    NumericError,
    PartitionError,
    PartitionResult,
    RangeError,
    SymExponential,
    Weights,
    build_partition,
    expected_overshoot_function,
    from_callable,
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

# 0.1 t up to 1, then +inf: the modular sum jumps, so a rule that reads a
# norm off one sum at the cap itself would be wrong here.
JUMP = from_callable(lambda t: np.where(t <= 1.0, 0.1 * t, np.inf), label="jump-to-inf")

DIFF_FUNS = [
    linear_function(),
    power_function(2.0),
    GAUSS_N,
    gaussian_comparison_function(),
    JUMP,
    expected_overshoot_function(Gaussian()),
    expected_overshoot_function(SymExponential(2.0)),
    power_function(3.5).scaled(7.0),
    from_callable(lambda t: np.where(t < 1.0, 0.0, t), label="zero-then-t"),
]


# -- the all-solving construction and verifier, as the reference ------------


def norm_or_inf(v, fun):
    """The norm, or +inf where it exceeds the float range: a comparison with
    it, or a minimum over it, still has an answer."""
    try:
        return orlicz_norm(v, fun)
    except NumericError:
        return math.inf


def reference_fits(inv, start, e, fun, cap):
    return norm_or_inf(inv[start : e + 1], fun) <= cap


def reference_largest_end(inv, start, fun, limit):
    n = inv.size
    cap = limit * partition._TIE_GUARD
    fits = lambda e: reference_fits(inv, start, e, fun, cap)
    if not fits(start):
        return start - 1
    step, e = 1, start
    while e + step < n and fits(e + step):
        e += step
        step *= 2
    lo, hi = e, min(n - 1, e + step - 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def reference_build(x, fun, k):
    """(blocks, case) of the construction with every norm solved."""
    inv = 1.0 / np.asarray(x, dtype=float)
    n = inv.size
    hn = fun.scaled(1.0 / fun(1.0))
    for j in range(1, k + 1):
        suffix_norm = orlicz_norm(inv[j - 1 :], hn.scaled(1.0 / (k + 1 - j)))
        if inv[j - 1] <= 0.25 * suffix_norm * partition._TIE_GUARD:
            limit, pos, tail = 0.5 * suffix_norm, j - 1, []
            while len(tail) < k - j:
                e = reference_largest_end(inv, pos, hn, limit)
                if e < pos or e == n - 1:
                    raise PartitionError("greedy construction failed")
                tail.append((pos, e))
                pos = e + 1
            tail.append((pos, n - 1))
            case = "case1" if j == 1 else "case3"
            break
    else:
        tail, case = [(k - 1, n - 1)], "case2"
    blocks = [(i, i) for i in range(j - 1)] + tail
    return tuple((a + 1, b + 1) for a, b in blocks), case


def reference_verify(x, fun, k, blocks):
    """(lhs, rhs, min_block_norm) with every candidate norm solved;
    NumericError when a minimum exceeds the float range."""
    inv = 1.0 / np.asarray(x, dtype=float)
    lhs = min(
        norm_or_inf(inv[j - 1 :], fun.scaled(1.0 / (k - j + 1))) for j in range(1, k + 1)
    )
    min_block = min(norm_or_inf(inv[a - 1 : b], fun) for a, b in blocks)
    if max(lhs, min_block) == math.inf:
        raise NumericError("a certificate minimum exceeds the float range")
    h1 = fun(1.0)
    return lhs, 4.0 * max(h1, 1.0 / h1) * min_block, min_block


def _hex(*values):
    return tuple(float(v).hex() for v in values)


def _outcome(call):
    """The value of ``call()``, or the type of the error it raises."""
    try:
        return call()
    except (PartitionError, DomainError, NumericError) as exc:
        return type(exc).__name__


def _built(x, fun, k):
    res = build_partition(x, fun, k)
    cert = res.certificate
    return res.blocks, res.case_taken, _hex(cert.lhs, cert.rhs, cert.detail["min_block_norm"])


def _reference_built(x, fun, k):
    blocks, case = reference_build(x, fun, k)
    return blocks, case, _hex(*reference_verify(x, fun, k, blocks))


@st.composite
def weights_and_k(draw):
    """Ascending weights with near-ties: equal weights, repeated blocks, a
    spread over many decades, plain uniform draws, or decades at the ends of
    the float range (1e250..1e308 and 1e-308..1e-250); k = 1, k = n or any."""
    n = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    kind = draw(st.sampled_from(["equal", "repeated", "decades", "uniform", "huge", "tiny"]))
    if kind == "equal":
        x = np.full(n, rng.uniform(0.1, 10.0))
    elif kind == "repeated":
        x = np.sort(np.repeat(rng.uniform(0.2, 8.0, -(-n // 3)), 3)[:n])
    elif kind == "decades":
        x = np.sort(np.exp(rng.uniform(-20.0, 20.0, n)))
    elif kind in ("huge", "tiny"):
        lo, hi = np.sort(rng.uniform(250.0, 308.0, 2))
        sign = 1.0 if kind == "huge" else -1.0
        x = np.sort(10.0 ** (sign * rng.uniform(lo, hi, n)))
    else:
        x = np.sort(rng.uniform(0.2, 8.0, n))
    k = draw(st.sampled_from([1, n, draw(st.integers(min_value=1, max_value=n))]))
    return x, k


# Each differential function also runs scaled by these.
FUN_SCALES = [1.0, 1e250, 1e-250]


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


@settings(max_examples=150)
@given(case=weights_and_k(), fun_idx=st.integers(min_value=0, max_value=len(DIFF_FUNS) - 1),
       scale=st.sampled_from(FUN_SCALES))
def test_build_matches_all_solving_reference(case, fun_idx, scale):
    x, k = case
    fun = DIFF_FUNS[fun_idx].scaled(scale)
    assert _outcome(lambda: _built(x, fun, k)) == _outcome(lambda: _reference_built(x, fun, k))


@settings(max_examples=150)
@given(case=weights_and_k(), fun_idx=st.integers(min_value=0, max_value=len(DIFF_FUNS) - 1),
       scale=st.sampled_from(FUN_SCALES), cut_seed=st.integers(min_value=0, max_value=2**31))
def test_verify_matches_all_solving_reference_on_any_split(case, fun_idx, scale, cut_seed):
    x, k = case
    n = x.size
    fun = DIFF_FUNS[fun_idx].scaled(scale)
    rng = np.random.default_rng(cut_seed)
    edges = [0, *np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False)), n]
    blocks = tuple((int(edges[i]) + 1, int(edges[i + 1])) for i in range(k))

    def got():
        check = verify_partition(x, fun, k, PartitionResult(blocks=blocks, case_taken="case1"))
        return _hex(check.lhs, check.rhs, check.detail["min_block_norm"])

    assert _outcome(got) == _outcome(lambda: _hex(*reference_verify(x, fun, k, blocks)))


@settings(max_examples=200)
@given(n=st.integers(min_value=1, max_value=30), seed=st.integers(min_value=0, max_value=2**31),
       cap_scale=st.sampled_from([1.0, 0.5, 2.0, 1.0 - 1e-12, 1.0 + 1e-12]))
def test_sum_decided_fits_match_solves_for_jump_function(n, seed, cap_scale):
    # cap = max(v) puts the jump of JUMP exactly at the cap; there a single
    # sum at the cap reads "fits" where the solver says otherwise.
    inv = np.sort(np.random.default_rng(seed).uniform(0.2, 8.0, n))[::-1].copy()
    limit = float(inv[0]) * cap_scale / partition._TIE_GUARD
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        got = partition._largest_end(inv, 0, JUMP, limit)
    assert got == reference_largest_end(inv, 0, JUMP, limit)


def test_one_stop_solve_and_two_verify_solves(monkeypatch):
    # A case without near-ties: the scan passes j = 1..j-1 on one sum each
    # and solves S_j only where it stops, every greedy "fits?" is settled by
    # sums, and each certificate minimum is solved once, its other
    # candidates ruled out by one sum each.
    x = np.sort(np.random.default_rng(5).uniform(0.2, 8.0, 60))
    solves = []
    solve = partition.orlicz_norm
    monkeypatch.setattr(partition, "orlicz_norm", lambda *a: solves.append(a) or solve(*a))
    res = build_partition(x, linear_function(), 4)
    assert res.case_taken == "case3"
    assert len(solves) == 3
    assert _built(x, linear_function(), 4) == _reference_built(x, linear_function(), 4)


def test_below_stop_is_the_largest_float_failing_the_stop_test():
    for head in (1.0, 0.3, 7.123456789, 1e-300, 5e-309, 1e300):
        c = partition._below_stop(head)
        assert 0.25 * c * partition._TIE_GUARD < head
        up = math.nextafter(c, math.inf)
        assert not 0.25 * up * partition._TIE_GUARD < head


def test_certificate_rules_out_a_candidate_beyond_the_float_range():
    # S_1 = 1e247 * (1e62 + 1) / 2 overflows; S_2 = 1e247 does not. One sum
    # at S_2 shows S_1 > S_2, so the minimum is S_2 without solving S_1 (and
    # likewise for the blocks).
    x = np.array([1e-62, 1.0])
    fun = linear_function().scaled(1e247)
    blocks = ((1, 1), (2, 2))
    with pytest.raises(NumericError):
        orlicz_norm(1.0 / x, fun.scaled(0.5))
    check = verify_partition(x, fun, 2, PartitionResult(blocks=blocks, case_taken="case2"))
    assert check.lhs == orlicz_norm(np.array([1.0]), fun)
    assert _hex(check.lhs, check.rhs, check.detail["min_block_norm"]) == _hex(
        *reference_verify(x, fun, 2, blocks))

"""The package's public surface: one export list, and refusals with a message."""

import importlib
import math

import numpy as np
import pytest

import orlicz_bounds
from orlicz_bounds import (
    DomainError,
    Gaussian,
    OrliczFunction,
    PartitionResult,
    SymExponential,
    check_kmax_split,
    check_subset_product_chain,
    check_tail_integral_bound,
    expected_overshoot_function,
    kth_min_bounds,
    linear_function,
    orlicz_norm,
    verify_partition,
    young_conjugate,
)

MODULES = ["bounds", "distributions", "montecarlo", "orlicz", "partition"]


@pytest.mark.parametrize("module", MODULES)
def test_every_listed_name_is_exported(module):
    mod = importlib.import_module(f"orlicz_bounds.{module}")
    missing = [name for name in mod.__all__
               if getattr(orlicz_bounds, name, None) is not getattr(mod, name)]
    assert missing == []


_MOMENT = expected_overshoot_function(Gaussian())
_INF_AT_ONE = OrliczFunction("inf-from-1", lambda t: np.where(t < 1.0, t, np.inf))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: young_conjugate(_MOMENT, -1.0), "conjugate argument must be >= 0"),
        (lambda: young_conjugate(linear_function(), math.nan),
         "conjugate argument must be >= 0"),
        (lambda: orlicz_norm([1.0, math.nan], linear_function()), "must not contain NaN"),
        (lambda: kth_min_bounds(np.array([2.0, 1.0, 3.0]), Gaussian(), 1),
         "weights not in ascending order: entry 2"),
        (lambda: kth_min_bounds(np.ones((2, 3)), Gaussian(), 1), "nonempty 1-d vector"),
        (lambda: Gaussian().quantile(0.0), r"probabilities in \(0, 1\]"),
        (lambda: Gaussian().quantile(1.5), r"probabilities in \(0, 1\]"),
        (lambda: check_kmax_split(np.ones((2, 2, 4)), 1, 1), "or a batch of row vectors"),
        (lambda: check_subset_product_chain([0.5, -0.5, 0.5], 2), "nonnegative values"),
        (lambda: check_tail_integral_bound(SymExponential(rate=1e-300), 1e-30),
         r"requires N\(t\) > 0, got N\(1e-30\) = 0.0"),
        (lambda: verify_partition(np.ones(4), linear_function(), 2,
                                  PartitionResult(((1, 1), (2, 3)), "hand-built")),
         "cover stops at 3, expected 4"),
        (lambda: verify_partition(np.ones(4), _INF_AT_ONE, 2,
                                  PartitionResult(((1, 1), (2, 4)), "hand-built")),
         r"requires 0 < H\(1\) < inf, got inf"),
    ],
    ids=["conjugate-negative", "conjugate-nan", "norm-nan", "weights-order", "weights-2d",
         "quantile-zero", "quantile-above-one", "kmax-split-3d", "subset-chain-negative",
         "tail-bound-n-zero", "partition-short-cover", "partition-h1-inf"],
)
def test_refused_with_a_message(call, message):
    with pytest.raises(DomainError, match=message):
        call()

"""The norm solver against plain bisection, bit for bit, and its evaluation budget.

``bisection_norm`` is the solver as it stood before the bracket narrowing:
probes, doubling/halving bracket loops and a bisection that evaluates every
midpoint. ``orlicz_norm`` must return the same float (``float.hex``) or raise
the same exception type on every input.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz_bounds import (
    DomainError,
    Gaussian,
    SymExponential,
    UnboundedNormError,
    expected_overshoot_function,
    from_callable,
    gaussian_comparison_function,
    linear_function,
    neg_log_survival_function,
    orlicz_norm,
    power_function,
    reciprocal_survival_function,
)
from orlicz_bounds.montecarlo import _tail_threshold_function

_MAX_DOUBLINGS = 200


def _double_until(pred, start, factor, limit=_MAX_DOUBLINGS):
    t = start
    for _ in range(limit):
        if pred(t):
            return t
        t *= factor
    return None


def bisection_norm(x, fun, *, rel_tol=1e-12):
    """Oracle: the norm by plain bisection on rho, every midpoint evaluated."""
    v = np.abs(np.asarray(x, dtype=float).ravel())
    if v.size == 0 or not np.any(v > 0):
        raise DomainError("norm of the zero vector is undefined")
    if np.any(np.isnan(v)):
        raise DomainError("weights must not contain NaN")
    if np.any(np.isinf(v)):
        raise UnboundedNormError("norm is infinite: input contains infinite entries")
    v = v[v > 0]
    n = v.size
    vmax = float(v.max())

    def modular(rho):
        return float(np.sum(fun.evaluate(v / rho)))

    with np.errstate(over="ignore", invalid="ignore"):
        t_hi = _double_until(lambda t: fun(t) >= 1.0, 1.0, 2.0)
        t_lo = _double_until(lambda t: fun(t) <= 1.0 / n, 1.0, 0.5)
        hi = n * vmax / t_lo if t_lo else vmax
        lo = vmax / t_hi if t_hi else vmax
        for _ in range(_MAX_DOUBLINGS):
            if modular(hi) <= 1.0:
                break
            hi *= 2.0
        else:
            raise UnboundedNormError("no scaling with modular sum <= 1")
        lo = min(lo, hi)
        for _ in range(_MAX_DOUBLINGS):
            if modular(lo) > 1.0:
                break
            lo *= 0.5
        else:
            return 0.0
        while hi - lo > rel_tol * hi:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if modular(mid) <= 1.0:
                hi = mid
            else:
                lo = mid
    return hi


def _function_kinds(table, nonconvex):
    """name -> factory(k) for every kind of handle the library builds."""
    gaussian, symexp = Gaussian(), SymExponential(rate=1.0)
    return {
        "moment-gaussian": lambda k: expected_overshoot_function(gaussian),
        "moment-symexp": lambda k: expected_overshoot_function(symexp),
        "moment-table": lambda k: expected_overshoot_function(table),
        "N-gaussian": lambda k: neg_log_survival_function(gaussian),
        "N-table": lambda k: neg_log_survival_function(table),
        "N-nonconvex-table": lambda k: neg_log_survival_function(
            nonconvex, require_convex=False
        ),
        "reciprocal-survival": lambda k: reciprocal_survival_function(gaussian, k),
        "reciprocal-survival-table": lambda k: reciprocal_survival_function(table, k),
        "tail-threshold-G": lambda k: _tail_threshold_function(gaussian, k),
        "tail-threshold-G-table": lambda k: _tail_threshold_function(table, k),
        "linear": lambda k: linear_function(),
        "power": lambda k: power_function(1.0 + k / 7.0),
        "gaussian-comparison": lambda k: gaussian_comparison_function(),
        "domain-bound": lambda k: from_callable(
            lambda t: np.where(t > 1.0 + k / 10.0, math.inf, t / (k + 2.0)), label="capped"
        ),
        "bounded-below-one": lambda k: from_callable(
            lambda t: np.minimum(t, 1.0 / k), label="min(t,1/k)", is_orlicz=False
        ),
    }


_KIND_NAMES = sorted(_function_kinds(None, None))


def _outcome(solve, x, fun):
    try:
        return solve(x, fun).hex()
    except Exception as exc:  # compared by type
        return type(exc).__name__


@pytest.mark.parametrize("kind", _KIND_NAMES)
@settings(max_examples=40)
@given(
    k=st.integers(2, 40),
    scale=st.one_of(st.just(1.0), st.floats(1e-3, 1e3)),
    n=st.one_of(st.integers(1, 12), st.integers(13, 5000)),
    log_uniform=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_same_bits_as_bisection(
    gaussian_table_model, nonconvex_table_model, kind, k, scale, n, log_uniform, seed
):
    fun = _function_kinds(gaussian_table_model, nonconvex_table_model)[kind](k)
    if scale != 1.0:
        fun = fun.scaled(scale)
    rng = np.random.default_rng(seed)
    if log_uniform:
        x = np.exp(rng.uniform(math.log(1e-7), math.log(1e7), n))
    else:
        x = rng.uniform(1e-7, 1e7, n)
    assert _outcome(orlicz_norm, x, fun) == _outcome(bisection_norm, x, fun)


@pytest.mark.parametrize("kind", _KIND_NAMES)
def test_infinite_entries_unbounded_in_both(gaussian_table_model, nonconvex_table_model, kind):
    fun = _function_kinds(gaussian_table_model, nonconvex_table_model)[kind](3)
    x = [0.5, math.inf, 2.0]
    assert _outcome(orlicz_norm, x, fun) == _outcome(bisection_norm, x, fun)
    assert _outcome(orlicz_norm, x, fun) == "UnboundedNormError"


def _counting(fun, n):
    """fun as a from_callable handle plus counters: calls[0] of full-vector
    calls, calls[1] of every other call (the probes)."""
    calls = [0, 0]

    def evaluate(t):
        calls[0 if np.size(t) == n else 1] += 1
        return fun.evaluate(t)

    return from_callable(evaluate, label=fun.label), calls


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in ("N-gaussian", "moment-symexp", "power-2") for n in (10, 1000)]
    # n * sup M = 3/8 < 1: the norm is 0.0, found without 200 halvings.
    + [("reciprocal-survival-3", 3)]
    # Scalar probes made 5-20 calls here, and 200 for (e/k)G, which never reaches 1.
    + [("N-gaussian-scaled-twice", 30), ("tail-threshold-G-10", 20)],
)
def test_modular_sums_per_solve(name, n):
    """At most 24 full-vector calls and one probe call per solve."""
    fun = {
        "N-gaussian": neg_log_survival_function(Gaussian()),
        "moment-symexp": expected_overshoot_function(SymExponential(rate=1.0)),
        "power-2": power_function(2),
        "reciprocal-survival-3": reciprocal_survival_function(Gaussian(), 3),
        "N-gaussian-scaled-twice": neg_log_survival_function(Gaussian()).scaled(0.5).scaled(3.0),
        "tail-threshold-G-10": _tail_threshold_function(Gaussian(), 10),
    }[name]
    rng = np.random.default_rng(n)
    for _ in range(10):
        x = rng.uniform(0.5, 5.0, n)
        counted, calls = _counting(fun, n)
        assert orlicz_norm(x, counted).hex() == bisection_norm(x, fun).hex()
        assert calls[0] <= 24, f"{calls[0]} modular sums for {name} at n={n}"
        assert calls[1] <= 1, f"{calls[1]} probe calls for {name} at n={n}"


@pytest.mark.parametrize("kind", _KIND_NAMES)
@pytest.mark.parametrize("bad", [math.nan, -1.0])
def test_public_entry_rejects_nan_and_negative(
    gaussian_table_model, nonconvex_table_model, kind, bad
):
    fun = _function_kinds(gaussian_table_model, nonconvex_table_model)[kind](3)
    with pytest.raises(DomainError):
        fun(bad)
    with pytest.raises(DomainError):
        fun.values([1.0, bad])


@pytest.mark.parametrize("kind", _KIND_NAMES)
def test_values_keep_the_argument_shape(gaussian_table_model, nonconvex_table_model, kind):
    fun = _function_kinds(gaussian_table_model, nonconvex_table_model)[kind](3)
    assert fun.values(0.5).shape == ()
    assert fun.values([0.5]).shape == (1,)
    assert fun.values(0.5) == fun.values([0.5])[0] == fun(0.5)

"""The norm solver against plain bisection, bit for bit, and its evaluation budget.

``bisection_norm`` is the solver as it stood before the bracket narrowing:
probes, doubling/halving bracket loops and a bisection that evaluates every
midpoint. ``orlicz_norm`` must return the same float (``float.hex``) or raise
the same exception type on every input whose bracket loops end within their
200 steps, steered (n >= 4096) or not. Past those 200 steps the oracle is
the closed form of the linear and power functions.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicz_bounds import orlicz as orlicz_module
from orlicz_bounds import (
    DomainError,
    Gaussian,
    NumericError,
    SymExponential,
    UnboundedNormError,
    expected_overshoot_function,
    from_callable,
    gaussian_comparison_function,
    kth_min_bounds,
    linear_function,
    neg_log_survival_function,
    orlicz_norm,
    power_function,
    reciprocal_survival_function,
)
from orlicz_bounds.montecarlo import _tail_threshold_function
from orlicz_bounds.orlicz import _STEER_M, _STEER_MIN_N

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


def _weights(rng, n, log_uniform):
    if log_uniform:
        return np.exp(rng.uniform(math.log(1e-7), math.log(1e7), n))
    return rng.uniform(1e-7, 1e7, n)


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
    x = _weights(np.random.default_rng(seed), n, log_uniform)
    assert _outcome(orlicz_norm, x, fun) == _outcome(bisection_norm, x, fun)


@pytest.mark.parametrize("kind", _KIND_NAMES)
@settings(max_examples=4)
@given(
    k=st.integers(2, 40),
    log_n=st.floats(math.log(_STEER_MIN_N), math.log(100_000)),
    log_uniform=st.booleans(),
    ordered=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_steered_same_bits_as_bisection(
    gaussian_table_model, nonconvex_table_model, kind, k, log_n, log_uniform, ordered, seed
):
    fun = _function_kinds(gaussian_table_model, nonconvex_table_model)[kind](k)
    n = max(_STEER_MIN_N, int(math.exp(log_n)))
    x = _weights(np.random.default_rng(seed), n, log_uniform)
    if ordered:
        x.sort()
    assert _outcome(orlicz_norm, x, fun) == _outcome(bisection_norm, x, fun)


@pytest.mark.parametrize("kind", _KIND_NAMES)
def test_infinite_entries_unbounded_in_both(gaussian_table_model, nonconvex_table_model, kind):
    fun = _function_kinds(gaussian_table_model, nonconvex_table_model)[kind](3)
    x = [0.5, math.inf, 2.0]
    assert _outcome(orlicz_norm, x, fun) == _outcome(bisection_norm, x, fun)
    assert _outcome(orlicz_norm, x, fun) == "UnboundedNormError"


def _counting(fun, n):
    """fun as a from_callable handle plus counters: calls[0] of full-vector
    calls, calls[1] of the first other call (the probe), calls[2] of the
    later ones (the steer's surrogate) and calls[3] the most entries one of
    those touched."""
    calls = [0, 0, 0, 0]

    def evaluate(t):
        if np.size(t) == n:
            calls[0] += 1
        elif calls[1] == 0:
            calls[1] += 1
        else:
            calls[2] += 1
            calls[3] = max(calls[3], np.size(t))
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
        assert calls[1] <= 1 and calls[2] == 0, f"{calls[1:3]} other calls for {name} at n={n}"


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


def _counted_solve(x, fun):
    counted, calls = _counting(fun, len(x))
    return orlicz_norm(x, counted).hex(), calls


def _steered_and_unsteered(monkeypatch, x, fun):
    """(hex, calls) of the solve as it runs and with steering switched off."""
    steered = _counted_solve(x, fun)
    with monkeypatch.context() as patch:
        patch.setattr(orlicz_module, "_STEER_MIN_N", math.inf)
        unsteered = _counted_solve(x, fun)
    return steered, unsteered


@pytest.mark.parametrize("n", [10_000, 100_000])
@pytest.mark.parametrize("name", ["moment-gaussian", "moment-symexp", "moment-table"])
def test_steered_moment_solves_take_at_most_ten_sums(monkeypatch, gaussian_table_model, name, n):
    """The max_bounds solves: bound-batch's weights, model normalized to E|xi| = 1."""
    model = {
        "moment-gaussian": Gaussian(),
        "moment-symexp": SymExponential(rate=1.0),
        "moment-table": gaussian_table_model,
    }[name]
    fun = expected_overshoot_function(model.normalized())
    x = np.random.default_rng(n).uniform(0.5, 5.0, n)
    (bits, calls), (plain_bits, plain_calls) = _steered_and_unsteered(monkeypatch, x, fun)
    assert bits == plain_bits
    assert calls[0] <= 10, f"{calls[0]} full sums (unsteered {plain_calls[0]})"
    assert calls[1] == 1 and calls[2] > 0 and calls[3] <= _STEER_M
    assert plain_calls[2] == 0


@pytest.mark.parametrize("kind", _KIND_NAMES)
def test_steer_costs_at_most_one_more_full_sum(
    monkeypatch, gaussian_table_model, nonconvex_table_model, kind
):
    kinds = _function_kinds(gaussian_table_model, nonconvex_table_model)
    rng = np.random.default_rng(11)
    for n, log_uniform, k in ((4096, False, 2), (4096, True, 9), (20_000, False, 30),
                              (20_000, True, 4)):
        x = _weights(rng, n, log_uniform)
        (bits, calls), (plain_bits, plain) = _steered_and_unsteered(monkeypatch, x, kinds[kind](k))
        assert bits == plain_bits
        assert calls[0] <= plain[0] + 1, f"n={n}: {calls[0]} full sums, unsteered {plain[0]}"
        assert calls[1] == plain[1] == 1
        assert calls[3] <= _STEER_M


@pytest.mark.parametrize("scale", [10.0**e for e in (-300, -200, -61, 61, 200, 300)])
@pytest.mark.parametrize("q", [1.0, 2.0, 3.5])
# [1e7, 1e8] at 1e300 * t: the norm 1.1e308 sits where lo + hi overflows.
@pytest.mark.parametrize(
    "x", [[1.0, 2.0], [0.25, 0.5, 1.5, 3.0], [1e-40, 1e-10, 1e5], [1e7, 1e8]]
)
def test_extreme_scales_match_closed_form(scale, q, x):
    """||x|| under c * t^q is (c * sum x_i^q)^(1/q); the bracket loops run
    past their 200 steps here, where the old solver returned 0.0 or raised
    UnboundedNormError."""
    fun = (linear_function() if q == 1.0 else power_function(q)).scaled(scale)
    exact = math.exp((math.log(scale) + math.log(math.fsum(t**q for t in x))) / q)
    rho = orlicz_norm(x, fun)
    assert rho == pytest.approx(exact, rel=1e-10)
    assert math.fsum(fun.values(np.asarray(x) / rho)) <= 1.0 + 1e-12


# name -> (function, noise): the margin by which a sum may miss 1. The moment
# handles compute s * E[|xi|; |xi| > 1/s] - F(1/s), which cancels; at
# 1e300 * M on 5000 entries the sum moves by 1.3e-10 between adjacent floats
# rho. They get partition's sum margin, which absorbs that noise; the other
# handles get none.
_EXTREME_FUNS = {
    "linear": (linear_function(), 0.0),
    "power-2": (power_function(2.0), 0.0),
    "comparison": (gaussian_comparison_function(), 0.0),
    "N-gaussian": (neg_log_survival_function(Gaussian()), 0.0),
    "jump-to-inf": (from_callable(lambda t: np.where(t <= 1.0, 0.1 * t, np.inf), label="jump"),
                    0.0),
    "reciprocal-survival": (reciprocal_survival_function(Gaussian(), 3), 0.0),
    "moment-gaussian": (expected_overshoot_function(Gaussian()), 1e-9),
    "moment-symexp": (expected_overshoot_function(SymExponential(rate=1.0)), 1e-9),
}


def _extreme_vectors(n):
    """Log-uniform entries in windows reaching 1e308 and 1e-308, and the two
    entries whose bracket n * max|x| / t_lo overflows though the norm does not."""
    rng = np.random.default_rng(n)
    windows = [(300.0, 308.0), (-308.0, -300.0), (-308.0, 308.0), (-1.0, 1.0)]
    out = [10.0 ** rng.uniform(lo, hi, n) for lo, hi in windows]
    if n == 2:
        out.append(np.array([1e308, 1e307]))
    return out


@pytest.mark.parametrize("n", [1, 2, 7, 60, 5000])
def test_every_norm_is_feasible_next_to_an_infeasible_rho(n):
    """On x itself, at every scale: S(rho) <= 1 at the returned rho, and
    S > 1 at the point 2 * NORM_REL_TOL below it (for a subnormal rho, the
    next float down). NumericError only when the largest float is
    infeasible, and 0.0 only by the limit test n * sup fun <= 1."""
    below_factor = 1.0 - 2.0 * orlicz_module.NORM_REL_TOL
    failures = []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for x in _extreme_vectors(n):
            for name, (base, noise) in _EXTREME_FUNS.items():
                for scale in (1e-300, 1.0, 1e300):
                    fun = base.scaled(scale)

                    def s(rho):
                        return float(np.sum(fun.evaluate(x / rho)))

                    case = (name, scale, float(x.min()), float(x.max()))
                    try:
                        rho = orlicz_norm(x, fun)
                    except NumericError:
                        if not s(sys.float_info.max) > 1.0 + noise:
                            failures.append(case + ("raised", s(sys.float_info.max)))
                        continue
                    if rho == 0.0:
                        if not n * fun(math.inf) <= 1.0:
                            failures.append(case + ("zero",))
                        continue
                    below = min(rho * below_factor, math.nextafter(rho, 0.0))
                    if not (s(rho) <= 1.0 + noise and s(below) > 1.0 - noise):
                        failures.append(case + (rho, s(rho), s(below)))
    assert not failures, failures


def test_bounded_functional_is_zero_only_by_the_limit_test():
    # sup = F(0) / (4(k-1)) = 1/8, so n * sup = 3/8: every rho is feasible.
    assert orlicz_norm([1.0, 2.0, 3.0], reciprocal_survival_function(Gaussian(), 3)) == 0.0
    # n * sup = 3/2 > 1: the infimum is positive, though the sum at
    # 2^-199 * max|x| is still below 1.
    fun = from_callable(lambda t: np.minimum(1e-70 * t, 0.5), label="min(1e-70 t, 1/2)")
    rho = orlicz_norm([1.0, 2.0, 4.0], fun)
    assert rho == pytest.approx(7e-70, rel=1e-10)


@pytest.mark.parametrize("rate", [1e-300, 1e-70, 1e70, 1e300])
def test_kmin_terms_at_extreme_rates_match_closed_form(rate):
    """N = rate * t, so the j-th suffix norm is (2e/(k-j+1)) rate sum_{i>=j} 1/x_i."""
    x = np.sort(np.random.default_rng(3).uniform(0.5, 5.0, 40))
    k = 3
    rep = kth_min_bounds(x, SymExponential(rate=rate), k)
    inv = 1.0 / x
    expected = [1.0 / (2.0 * math.e / (k - j + 1) * rate * math.fsum(inv[j - 1 :]))
                for j in range(1, k + 1)]
    assert rep.terms == pytest.approx(expected, rel=1e-10)
    # The upper bound carries C_N = max(rate, 1/rate); at rate 1e-300 it
    # exceeds the float range and is reported as None with a note.
    assert 0.0 < rep.lower < math.inf
    if rate == 1e-300:
        assert rep.upper is None
        assert rep.notes == ("upper bound omitted: it exceeds the float range",)
    else:
        assert rep.lower <= rep.upper < math.inf


def test_norm_without_finite_reciprocal_names_the_model():
    # ||(1e-300, ...)|| under 2e * 1e-300 * t is about 2e-599, below the float range.
    with pytest.raises(DomainError, match=r"symexp\(rate=1e-300\)"):
        kth_min_bounds(np.full(4, 1e300), SymExponential(rate=1e-300), 1)

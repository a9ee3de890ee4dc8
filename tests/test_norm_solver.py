"""The norm solver against plain bisection, bit for bit, and its evaluation budget.

``bisection_norm`` is the solver as it stood before the bracket narrowing:
probes, doubling/halving bracket loops and a bisection that evaluates every
midpoint. ``orlicz_norm`` must return the same float (``float.hex``) or raise
the same exception type on every input whose bracket loops end within their
200 steps, steered (n >= 4096) or not. Past those 200 steps the oracle is
the closed form of the linear and power functions.
"""

import dataclasses
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
    OrliczFunction,
    UnboundedNormError,
    expected_overshoot_function,
    gaussian_comparison_function,
    kth_max_bounds,
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
        "domain-bound": lambda k: OrliczFunction(
            "capped", lambda t: np.where(t > 1.0 + k / 10.0, math.inf, t / (k + 2.0))
        ),
        "bounded-below-one": lambda k: OrliczFunction(
            "min(t,1/k)", lambda t: np.minimum(t, 1.0 / k)
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


def _counting(monkeypatch, fun, n):
    """fun as a new handle (its own probe) plus counters, with a spy on
    ``_modular_sum`` patched in: calls[0] of modular sums over all n entries
    (a long one calls ``evaluate`` once per block), calls[1] of the first
    call of ``evaluate`` outside them (the probe), calls[2] of the later
    ones (the steer's surrogate) and calls[3] the most entries one of those
    touched."""
    calls = [0, 0, 0, 0]
    summing = [0]  # full sums running
    real = orlicz_module._modular_sum

    def modular_sum(v, f, rho):
        full = v.size == n
        calls[0] += full
        summing[0] += full
        try:
            return real(v, f, rho)
        finally:
            summing[0] -= full

    def evaluate(t):
        if summing[0]:  # a block of a full sum, counted above
            pass
        elif calls[1] == 0:
            calls[1] += 1
        else:
            calls[2] += 1
            calls[3] = max(calls[3], np.size(t))
        return fun.evaluate(t)

    monkeypatch.setattr(orlicz_module, "_modular_sum", modular_sum)
    return OrliczFunction(fun.label, evaluate), calls


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in ("N-gaussian", "moment-symexp", "power-2") for n in (10, 1000)]
    # n * sup M = 3/8 < 1: the norm is 0.0, found without 200 halvings.
    + [("reciprocal-survival-3", 3)]
    # Scalar probes made 5-20 calls here, and 200 for (e/k)G, which never reaches 1.
    + [("N-gaussian-scaled-twice", 30), ("tail-threshold-G-10", 20)],
)
def test_modular_sums_per_solve(monkeypatch, name, n):
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
        bits, calls = _counted_solve(monkeypatch, x, fun)
        assert bits == bisection_norm(x, fun).hex()
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


@pytest.mark.parametrize("kind", _KIND_NAMES)
def test_modular_sum_is_np_sum(gaussian_table_model, nonconvex_table_model, kind):
    """The solver's unwrapped sum is the float ``np.sum`` gives, for every
    handle kind, at scales that put the entries in every part of the
    function (zero, finite, +inf past a domain or a table)."""
    fun = _function_kinds(gaussian_table_model, nonconvex_table_model)[kind](3)
    rng = np.random.default_rng(13)
    for v in (rng.uniform(0.5, 5.0, 100), np.exp(rng.uniform(-20.0, 20.0, 5000)),
              np.array([5e-324, 1.0, 1e308])):
        for rho in (1e-300, 1e-3, 0.7, 1.0, 3.0, 1e4, 1e300):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                want = float(np.sum(fun.evaluate(v / rho)))
                got = orlicz_module._modular_sum(v, fun, rho)
            assert got == want or (math.isnan(got) and math.isnan(want)), (rho, got, want)


def _counted_solve(monkeypatch, x, fun):
    with monkeypatch.context() as patch:
        counted, calls = _counting(patch, fun, len(x))
        return orlicz_norm(x, counted).hex(), calls


def _steered_and_unsteered(monkeypatch, x, fun):
    """(hex, calls) of the solve as it runs and with steering switched off."""
    steered = _counted_solve(monkeypatch, x, fun)
    with monkeypatch.context() as patch:
        patch.setattr(orlicz_module, "_STEER_MIN_N", math.inf)
        unsteered = _counted_solve(patch, x, fun)
    return steered, unsteered


@pytest.mark.parametrize("n", [10_000, 100_000])
@pytest.mark.parametrize("name", ["moment-gaussian", "moment-symexp", "moment-table"])
def test_steered_moment_solves_take_at_most_ten_sums(monkeypatch, gaussian_table_model, name, n):
    """The max_bounds solves: bound-batch's weights, under max_bounds' own
    handle, the moment function of xi / E|xi|."""
    model = {
        "moment-gaussian": Gaussian(),
        "moment-symexp": SymExponential(rate=1.0),
        "moment-table": gaussian_table_model,
    }[name]
    fun = orlicz_module._unit_mean_moment_function(model)
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


@pytest.mark.parametrize("n", [10_000, 30_000])
@pytest.mark.parametrize("kind", ["reciprocal-survival", "reciprocal-survival-table",
                                  "tail-threshold-G", "tail-threshold-G-table"])
def test_bounded_functionals_are_steered(monkeypatch, gaussian_table_model, kind, n):
    """F(1/t)/8 and (e/3)G never reach 1 on the probe grid, and long
    vectors are steered under them too: at most 8 full sums (7-19
    unsteered), with plain bisection's bits."""
    fun = _function_kinds(gaussian_table_model, None)[kind](3)
    rng = np.random.default_rng(n)
    for x in (1.0 / rng.uniform(0.5, 5.0, n), _weights(rng, n, True)):
        bits, calls = _counted_solve(monkeypatch, x, fun)
        assert bits == bisection_norm(x, fun).hex()
        assert calls[0] <= 8, f"{calls[0]} full sums"
        assert calls[2] > 0 and calls[3] <= _STEER_M


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
    "jump-to-inf": (OrliczFunction("jump", lambda t: np.where(t <= 1.0, 0.1 * t, np.inf)),
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
    fun = OrliczFunction("min(1e-70 t, 1/2)", lambda t: np.minimum(1e-70 * t, 0.5))
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


# -- The fast paths: one probe per base function, warm-started bound families.


def _fresh_probe(fun):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return np.asarray(fun.evaluate(orlicz_module._PROBES.copy()), dtype=float)


@pytest.mark.parametrize("kind", _KIND_NAMES)
def test_cached_probe_is_a_fresh_evaluate(gaussian_table_model, nonconvex_table_model, kind):
    """Bit for bit, on every handle kind (the table's N and M included), on
    scaled chains two deep and on handles whose ``evaluate`` was replaced."""
    base = _function_kinds(gaussian_table_model, nonconvex_table_model)[kind](3)
    calls = [0]

    def counted(t, _evaluate=base.evaluate):
        calls[0] += 1
        return _evaluate(t)

    once, twice = base.scaled(0.3), base.scaled(0.3).scaled(7.0)
    replaced = dataclasses.replace(base, evaluate=counted)
    for fun in (base, once, twice, replaced, dataclasses.replace(twice, evaluate=twice.evaluate)):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            cached = fun._probe_values()
        assert cached.tobytes() == _fresh_probe(fun).tobytes(), fun.label
        assert fun._probe_values() is cached  # computed once per handle
    # The replaced unscaled handle probed through its own evaluate, once.
    assert calls[0] == 2  # the probe and the fresh call above


def _members(model, x, kind, k):
    """(v, fun) of the family behind one k-min or k-max report, in order."""
    nfun = neg_log_survival_function(model)
    two_e = 2.0 * math.e
    if kind == "kmin":
        inv = 1.0 / x
        return [(inv[j - 1 :], nfun.scaled(two_e / (k - j + 1))) for j in range(1, k + 1)]
    inv = 1.0 / x[::-1]
    k0 = int(math.floor(4.0 * (k - 1) / model.survival(1.0)))
    return [(inv[: k + ell], nfun.scaled(two_e / (ell + 1))) for ell in range(k0)]


@pytest.mark.parametrize("family", ["gaussian", "symexp", "table"])
def test_warm_family_terms_are_cold_terms(gaussian_table_model, family):
    """A family's terms are those of cold solves and of plain bisection, bit
    for bit, for k-min k = 1..20 and k-max k = 2..5."""
    model = {"gaussian": Gaussian(), "symexp": SymExponential(rate=1.0),
             "table": gaussian_table_model}[family]
    x = np.sort(np.random.default_rng(17).uniform(0.5, 5.0, 60))
    cases = [("kmin", k) for k in range(1, 21)] + [("kmax", k) for k in range(2, 6)]
    for kind, k in cases:
        if kind == "kmin":
            terms = kth_min_bounds(x, model, k).terms
        else:
            terms = kth_max_bounds(x[::-1], model, k).terms
        members = _members(model, x, kind, k)
        cold = tuple(1.0 / orlicz_norm(v, fun) for v, fun in members)
        plain = tuple(1.0 / bisection_norm(v, fun) for v, fun in members)
        assert [t.hex() for t in terms] == [t.hex() for t in cold] == [t.hex() for t in plain], \
            (kind, k)


def test_warm_family_members_take_fewer_sums(monkeypatch):
    """Each member after the first starts from its neighbour's root: the
    k-min family at n = 100, k = 20 and the k-max family at k = 5 take at
    most 7 sums per member, and at most 0.8 of the sums of cold solves
    (about 6 against 8-10)."""
    sums = [0]
    modular_sum = orlicz_module._modular_sum

    def counted(v, fun, rho):
        sums[0] += 1
        return modular_sum(v, fun, rho)

    monkeypatch.setattr(orlicz_module, "_modular_sum", counted)
    x = np.sort(np.random.default_rng(100).uniform(0.5, 5.0, 100))
    for kind, k in (("kmin", 20), ("kmax", 5)):
        members = _members(Gaussian(), x, kind, k)
        sums[0] = 0
        for v, fun in members:
            orlicz_norm(v, fun)
        cold = sums[0]
        sums[0] = 0
        if kind == "kmin":
            kth_min_bounds(x, Gaussian(), k)
        else:
            kth_max_bounds(x[::-1], Gaussian(), k)
        assert sums[0] <= min(7 * len(members), 0.8 * cold), (kind, sums[0], cold)


def test_seed_slope_is_not_read_off_the_final_bracket(monkeypatch):
    """bound-batch's kmin/gaussian/n=10000/k=2 (seed 1): the second member
    (n = 9999) was seeded with a slope of -1.75 read across its surrogate's
    1e-12-wide final bracket, where the sums read -1.00, and took 6 full
    sums; a slope across at least 1e-9 of log rho takes it to 4. Each member
    takes at most 5, with plain bisection's bits."""
    sizes = []
    modular_sum = orlicz_module._modular_sum

    def counted(v, fun, rho):
        sizes.append(v.size)
        return modular_sum(v, fun, rho)

    monkeypatch.setattr(orlicz_module, "_modular_sum", counted)
    x = np.sort(np.random.default_rng([1, 1, 5]).uniform(0.5, 5.0, 10_000))
    terms = kth_min_bounds(x, Gaussian(), 2).terms
    assert sizes.count(10_000) <= 5 and sizes.count(9_999) <= 5, sizes
    monkeypatch.setattr(orlicz_module, "_modular_sum", modular_sum)
    plain = [1.0 / bisection_norm(v, fun) for v, fun in _members(Gaussian(), x, "kmin", 2)]
    assert [t.hex() for t in terms] == [t.hex() for t in plain]


def test_moment_sum_noise_keeps_the_norm_feasible_and_close():
    """1e300 * M[gaussian] on 5,000 entries log-uniform over 0.1..10: the
    computed sum moves by about 1e-10 between adjacent floats here and does
    not decrease monotonically, so the solver's float may differ from plain
    bisection's; it stays feasible within the moment handles' 1e-9 margin
    and within 2e-12 relative of bisection's."""
    x = _extreme_vectors(5000)[3]
    fun = expected_overshoot_function(Gaussian()).scaled(1e300)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rho = orlicz_norm(x, fun)
        assert float(np.sum(fun.evaluate(x / rho))) <= 1.0 + 1e-9
        assert rho == pytest.approx(bisection_norm(x, fun), rel=2e-12)

"""The solver's block sums against one sum over the whole vector, bit for bit.

A modular sum on more than ``_BLOCK`` entries calls ``evaluate`` once per
block of at most ``_BLOCK`` entries, the leaves of numpy's pairwise
summation tree, and adds the blocks' sums in the tree's order. The
references below are the handles and kernels as plain numpy expressions on
the whole vector (``_ref_*``, ``_ref_handles``); every sum inside a solve
must have the ``float.hex`` of ``np.add.reduce`` over them, and a caller's
arrays must come back untouched.
"""

import math
import sys
import threading

import numpy as np
import pytest
from scipy import special

from orlicz_bounds import (
    Gaussian,
    OrliczFunction,
    SymExponential,
    TabulatedSurvival,
    expected_overshoot_function,
    max_bounds,
    neg_log_survival_function,
    orlicz_norm,
    reciprocal_survival_function,
)
from orlicz_bounds import orlicz as orlicz_module
from orlicz_bounds.montecarlo import _tail_threshold_function
from orlicz_bounds.orlicz import _BLOCK, _STEER_MIN_N, _unit_mean_moment_function

_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_LN2 = math.log(2.0)

SIZES = (1, 100, _BLOCK, _BLOCK + 1, 20_000, 100_000)
FAMILIES = ("gaussian", "symexp:1", "symexp:1e-300", "table")


def _models():
    ts = np.linspace(0.0, 10.0, 401)
    return {
        "gaussian": Gaussian(),
        "symexp:1": SymExponential(rate=1.0),
        "symexp:1e-300": SymExponential(rate=1e-300),  # t + 1/rate overflows: the band
        "table": TabulatedSurvival(ts, special.erfc(ts / _SQRT2)),
    }


MODELS = _models()


# -- the kernels as plain numpy on the whole vector --------------------------


def _ref_cubic(s, c3, c2, c1, c0):
    ss = s * s
    return c2 * s + c3 + c1 * ss + ss * s * c0


def _ref_on_table(model, u, kernel, past):
    lim = model.ts[-1]
    if u.max(initial=0.0) <= lim:
        return kernel(u)
    inside = u <= lim * (1 + 1e-12)
    vals = kernel(np.minimum(u[inside], lim))
    out = np.full(vals.shape[:-1] + u.shape, past)
    out[..., inside] = vals
    return out


def _ref_log_f(model, u):
    x, c3, c2, c1, c0 = model._cubic.take(np.searchsorted(model._inner, u, side="right"), axis=1)
    return _ref_cubic(u - x, c3, c2, c1, c0)


def _ref_fit(model, u):
    x, c3, c2, c1, c0, b, r, const, *g = model._pieces.take(
        np.searchsorted(model._cuts, u, side="right"), axis=1)
    f = np.exp(_ref_cubic(u - x, c3, c2, c1, c0))
    v = b - u
    y = v * r - 1.0
    mean = g[0] * y
    for coef in g[1:-1]:
        mean = (mean + coef) * y
    mean = (mean + g[-1]) * v + const
    return np.stack((u * f + mean, f))


def _ref_survival(model, t):
    if isinstance(model, Gaussian):
        return special.erfc(t / _SQRT2)
    if isinstance(model, SymExponential):
        return np.exp(-model.rate * t)
    return _ref_on_table(model, t, lambda r: np.exp(_ref_log_f(model, r)), 0.0)


def _ref_neg_log_survival(model, t):
    if isinstance(model, Gaussian):
        return -(_LN2 + special.log_ndtr(-t))
    if isinstance(model, SymExponential):
        return model.rate * t
    return _ref_on_table(model, t, lambda r: -_ref_log_f(model, r), math.inf)


def _ref_tail_and_survival(model, t):
    if isinstance(model, Gaussian):
        return _SQRT_2_OVER_PI * np.exp(-0.5 * t * t), special.erfc(t / _SQRT2)
    if isinstance(model, SymExponential):
        f = np.exp(-model.rate * t)
        out = (t + 1.0 / model.rate) * f
        if math.isinf(1.7976931348623157e308 + 1.0 / model.rate):
            band = np.isinf(t + 1.0 / model.rate) & np.isfinite(t)
            out[band] = t[band] * f[band] + f[band] / model.rate
        return np.fmax(out, 0.0), f
    return _ref_on_table(model, t, lambda r: _ref_fit(model, r), 0.0)


def _ref_moment(model):
    def m(t):
        tail, surv = _ref_tail_and_survival(model, 1.0 / t)
        out = t * tail
        out -= surv
        return np.maximum(out, 0.0, out=out)

    return m


def _ref_handles(model):
    """name -> (the handle the library builds, its evaluate on the whole vector)."""
    m, mean = _ref_moment(model), model.mean_abs()
    return {
        "N": (neg_log_survival_function(model), lambda t: _ref_neg_log_survival(model, t)),
        "N-scaled": (neg_log_survival_function(model).scaled(2.5),
                     lambda t: 2.5 * _ref_neg_log_survival(model, t)),
        "M": (expected_overshoot_function(model), m),
        "M-unit-mean": (_unit_mean_moment_function(model),
                        m if mean == 1.0 else lambda s: m(s / mean)),
        "reciprocal-survival": (reciprocal_survival_function(model, 3),
                                lambda t: _ref_survival(model, 1.0 / t) / 8.0),
        "tail-threshold": (_tail_threshold_function(model, 4),
                           lambda u: (math.e / 4) * (1.0 - _ref_survival(model, u))),
    }


HANDLES = tuple(_ref_handles(MODELS["gaussian"]))


def _vector(n, seed=5):
    """n weights over about eight decades, so that v / rho falls past a table's
    last knot for some rho; n = 1 is one weight near 1."""
    if n == 1:
        return np.array([1.7])
    return np.exp(np.random.default_rng(seed).uniform(-9.0, 9.0, n))


def _ref_sum(ref, v, rho):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return float(np.add.reduce(ref(v / rho), axis=None))


def _same(a: float, b: float) -> bool:
    return a.hex() == b.hex() or (math.isnan(a) and math.isnan(b))


# -- the differential tests -------------------------------------------------


@pytest.mark.parametrize("n", [1, 127, 128, 129, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 9, 300_000])
def test_block_walk_is_numpys_pairwise_sum(n):
    """The block walk gives ``np.add.reduce``'s float over the whole vector
    on signed entries over sixteen decades, evaluating no block longer than
    ``_BLOCK``: this fails if numpy changes where its pairwise sum splits."""
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
    blocks = []

    def identity(t):
        blocks.append(t.size)
        return t

    got = orlicz_module._modular_sum(v, OrliczFunction("t", identity), 1.0)
    assert _same(got, float(np.add.reduce(v)))
    assert sum(blocks) == n and max(blocks) <= _BLOCK
    assert len(blocks) == 1 or n > _BLOCK


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", HANDLES)
@pytest.mark.parametrize("n", SIZES)
def test_sums_inside_a_solve_keep_their_bits(monkeypatch, family, name, n):
    """Every modular sum a solve forms is the reference's, bit for bit."""
    fun, ref = _ref_handles(MODELS[family])[name]
    summed = []
    real = orlicz_module._modular_sum

    def spy(v, f, rho):
        s = real(v, f, rho)
        if f is fun:  # not the steered solve's surrogate
            summed.append((v, rho, s))
        return s

    monkeypatch.setattr(orlicz_module, "_modular_sum", spy)
    orlicz_norm(_vector(n), fun)
    assert summed or n == 1  # one entry: a bounded functional's norm is 0, with no sum
    for v, rho, s in summed:
        assert _same(s, _ref_sum(ref, v, rho)), (rho, s, _ref_sum(ref, v, rho))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", HANDLES)
@pytest.mark.parametrize("n", SIZES)
def test_sums_at_the_ends_of_the_domain_keep_their_bits(family, name, n):
    """Sums whose arguments reach 0, +inf and past a table's last knot
    (t_max = 10), on both sides of it: the reference's bits."""
    fun, ref = _ref_handles(MODELS[family])[name]
    v = _vector(n)
    if n > 1:
        v[:4] = (5e-324, 1e-300, 1e300, 1.7976931348623157e308)
    for rho in (1e-300, 1e-12, 0.05, 1.0, 9.9, 10.5, 1e3, 1e12, 1e300):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            got = orlicz_module._modular_sum(v, fun, rho)
        want = _ref_sum(ref, v, rho)
        assert _same(got, want), (rho, got, want)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name", HANDLES)
def test_values_and_results_are_the_callers(family, name):
    """``values(arr)`` leaves arr as it was, and an array it returned is
    not overwritten by a later solve, nor is the solve's vector."""
    fun, ref = _ref_handles(MODELS[family])[name]
    arr = np.concatenate(([0.0, 0.05, 9.9, 10.5, math.inf], _vector(2000)))
    kept = arr.copy()
    out = fun.values(arr)
    assert np.array_equal(arr, kept)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        want = ref(kept)
    assert np.array_equal(out, want, equal_nan=True)
    x = _vector(20_000, seed=9)
    x_kept = x.copy()
    orlicz_norm(x, fun)
    assert np.array_equal(out, want, equal_nan=True)
    assert np.array_equal(x, x_kept)


class _FreshKernel(SymExponential):
    def _neg_log_survival(self, t):
        return 1e-3 * t  # a new array, as the subclass in test_bounds returns


class _AliasedKernels(SymExponential):
    """Kernels that return their argument itself, or views of it."""

    def _neg_log_survival(self, t):
        return t

    def _tail_integral_and_survival(self, t):
        return t, t[::1]


@pytest.mark.parametrize("n", SIZES)
def test_user_handles_and_kernels_returning_fresh_or_aliased_arrays(n):
    """A handle that returns its argument (``linear_function``), subclass
    kernels that return a new array or their argument, and handles that
    read their argument after a public method (a model's ``survival``, a
    handle's ``values``) was called on it give the sum of their values on
    the whole vector, scaled or not."""
    funs = [OrliczFunction("t", lambda t: t), OrliczFunction("t", lambda t: t).scaled(3.0)]
    for model in (_FreshKernel(rate=1.0), _AliasedKernels(rate=1.0)):
        funs += [neg_log_survival_function(model).scaled(2.0), expected_overshoot_function(model)]
    # Handles that read their argument again after a public call on it.
    gaussian, m = MODELS["gaussian"], expected_overshoot_function(MODELS["gaussian"])
    funs += [OrliczFunction("t (2 - F)", lambda t: t * (2.0 - gaussian.survival(t))),
             OrliczFunction("M + t", lambda t: m.values(t) + t)]
    v = _vector(n)
    for fun in funs:
        for rho in (0.5, 3.0, 1e4):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                want = float(np.add.reduce(fun.values(v / rho), axis=None))
                got = orlicz_module._modular_sum(v, fun, rho)
            assert _same(got, want), (fun.label, rho, got, want)


def test_a_nested_solve_gets_its_own_scope():
    """A handle that solves a norm inside its own evaluation, once per
    block: the outer sum keeps its bits."""
    model = MODELS["gaussian"]
    m, ref = _ref_handles(model)["M"]
    inner = neg_log_survival_function(model)

    def nested(t):
        orlicz_norm(np.linspace(1.0, 2.0, _STEER_MIN_N), inner)
        orlicz_norm(np.linspace(1.0, 2.0, 10), inner)
        return m.evaluate(t)

    v = _vector(20_000)
    got = orlicz_module._modular_sum(v, OrliczFunction("nested", nested), 2.0)
    assert _same(got, _ref_sum(ref, v, 2.0))


# -- threads -----------------------------------------------------------------


def test_two_threads_keep_the_bits_of_one_after_another():
    """Two threads run max_bounds and solves under one shared handle at
    n = 2e4 on different vectors at once: each gets the results of the same
    calls run one after another."""
    model = MODELS["gaussian"]
    shared = expected_overshoot_function(model)
    xs = [np.random.default_rng(seed).uniform(0.5, 5.0, 20_000) for seed in (1, 2)]

    def calls(x):
        return [repr(max_bounds(x, model)), orlicz_norm(x, shared).hex(),
                repr(max_bounds(x[::-1], model))]

    want = [calls(x) for x in xs]
    got = [None, None]
    start = threading.Barrier(2)

    def run(i):
        start.wait(timeout=60)
        got[i] = [calls(xs[i]) for _ in range(3)]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the threads trade the interpreter inside every sum
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert got == [[w] * 3 for w in want]

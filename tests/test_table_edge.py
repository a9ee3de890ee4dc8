"""Past a table's last knot: one rule in the kernels, differential against masks.

A table resolves F up to t_max. The public primitives refuse t/scale past
t_max * (1 + 1e-12); the raw kernels the Orlicz handles call read F = 0
there (N = +inf, tail integral 0) and clip t/scale up to that point to t_max.

The handles used to mask instead: the moment and reciprocal-survival handles
gave 0 for t <= 1/upper_limit(), the (e/k)G handle gave e/k for t above
upper_limit(), and N was +inf past the fuzzed limit. Those masked evaluators
are kept below as the reference. Norms, bounds and thresholds must keep
their bits; a handle value may differ only where the point at which F is
read (1/t for M and the reciprocal survival, t for N and (e/k)G) lies in the
band from t_max to t_max * (1 + 1e-12), which the masks and the kernels
split differently.

The tables' moment kernel reads each partial integral of F off a fit made
when the table loads. It is compared with the 21-point Gauss-Legendre kernel
it replaced (kept below as the reference): the tail column to 1e-15
relative, the F column bit for bit. That kernel looked up each entry's knot
interval once and evaluated the cubic itself; it is in turn compared bit for
bit with the first form of the rule, in which scipy evaluated every
quadrature point.

Every reference reads ln F from scipy's PCHIP of the table's knots, the
``scipy_pchip`` fixture (``pchip`` below), never from the package's own.
"""

import functools
import math

import numpy as np
import pytest

from orlicz_bounds import (
    NonConvexError,
    OrliczFunction,
    TabulatedSurvival,
    TabulationError,
    expected_overshoot_function,
    kth_max_bounds,
    kth_min_bounds,
    kth_min_tail_threshold,
    max_bounds,
    neg_log_survival_function,
    orlicz_norm,
    reciprocal_survival_function,
)
from orlicz_bounds import bounds as bounds_module
from orlicz_bounds import montecarlo as montecarlo_module
from orlicz_bounds.montecarlo import _tail_threshold_function

_FUZZ = 1e-12
_EPS = np.finfo(float).eps
# The 21-point Gauss-Legendre rule of the reference kernels.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(21)
_GL_BLOCK = 1024


def _models(table):
    cut = table._core.ts <= 8.0
    return {
        "tmax10": table,
        "tmax8": TabulatedSurvival(table._core.ts[cut], table._core.fs[cut]),
        "tmax10*3": table.scaled_by(3.0),
    }


# -- the masked evaluators, as the handles computed them before ------------


def _clipped(model, t):
    """t / scale clipped to t_max; the masks never ask past the fuzzed limit."""
    lim = model._core.ts[-1]
    u = t / model.scale
    assert not np.any(u > lim * (1 + _FUZZ)), "masked reference read past the table"
    return np.minimum(u, lim)


def _ref_survival(pchip, model, t):
    return np.exp(pchip(model._core)(_clipped(model, t)))


def _reference_integral_f_to_end(pchip, core, u):
    """integral_u^{tmax} F by the first form of the 21-point rule: scipy
    evaluates ln F at every Gauss-Legendre point."""
    ts = core.ts
    j = np.clip(np.searchsorted(ts, u, side="right") - 1, 0, len(ts) - 2)
    a = u
    b = ts[j + 1]
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    pts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = np.exp(pchip(core)(pts))
    partial = half * (vals @ _GL_WEIGHTS)
    partial = np.where(b > a, partial, 0.0)
    return partial + core.cum_tail[j + 1]


def _gl21_tail_and_survival(interp, core, u):
    """The moment kernel the load-time fit replaced: the same rule, with
    one knot-interval lookup per entry.

    The 21 points all lie in u's knot interval [x_j, x_{j+1}), so ln F at
    them, and at u itself, is that interval's cubic, evaluated in scipy's
    own order (s = p - x_j, then c3 + c2 s, + c1 (s s), + c0 ((s s) s)). A
    point that rounds out of [x_j, x_{j+1}) takes its value from scipy's
    PCHIP ``interp`` instead, which keeps its half-open interval rule;
    the points ascend with the nodes, so a row's first and last point show
    whether any of its points left. Blocks of ``_GL_BLOCK`` entries; the
    weights are applied in one product over all n entries."""
    x, c, nodes = interp.x, interp.c, _GL_NODES
    k = nodes.size  # column k holds u itself
    j = np.searchsorted(x[1:-1], u, side="right")  # x_j <= u < x_{j+1}, last one closed
    xk = x[j + 1]
    half = 0.5 * (xk - u)
    mid = 0.5 * (xk + u)
    vals = np.empty((u.size, k + 1))
    rows = min(u.size, _GL_BLOCK)
    s, sq = np.empty((rows, k + 1)), np.empty((rows, k + 1))
    for lo in range(0, u.size, _GL_BLOCK):
        block = slice(lo, lo + _GL_BLOCK)
        jb = j[block]
        p, w, v = s[: jb.size], sq[: jb.size], vals[block]
        xj, xjk = x[jb], xk[block]
        c0, c1, c2, c3 = c[:, jb, None]
        np.multiply(half[block, None], nodes, out=p[:, :k])
        p[:, :k] += mid[block, None]
        p[:, k] = u[block]
        left = np.flatnonzero((p[:, 0] < xj) | (p[:, k - 1] >= xjk))
        p_left = p[left, :k]
        p -= xj[:, None]  # s from here on
        np.multiply(c2, p, out=v)
        v += c3
        np.multiply(p, p, out=w)
        p *= w
        p *= c0
        w *= c1
        v += w
        v += p
        if left.size:
            outside = (p_left < xj[left, None]) | (p_left >= xjk[left, None])
            fixed = v[left, :k]
            fixed[outside] = interp(p_left[outside])
            v[left, :k] = fixed
        np.exp(v, out=v)
    f = vals[:, k]
    partial = half * (vals[:, :k] @ _GL_WEIGHTS)
    partial = np.where(xk > u, partial, 0.0)  # u at a knot: an empty interval
    return np.stack((u * f + (partial + core.cum_tail[j + 1]), f))


def _ref_tail_integral(pchip, model, t):
    u = _clipped(model, t)
    core = model._core
    return model.scale * (u * np.exp(pchip(core)(u))
                          + _reference_integral_f_to_end(pchip, core, u))


def ref_moment(pchip, model):
    limit = model.upper_limit()

    def _eval(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros(t.shape)
        pos = t > 1.0 / limit
        tp = t[pos]
        if tp.size:
            thr = 1.0 / tp
            out[pos] = (tp * _ref_tail_integral(pchip, model, thr)
                        - _ref_survival(pchip, model, thr))
        return np.maximum(out, 0.0)

    return OrliczFunction("ref-M", _eval)


def ref_neg_log_survival(pchip, model, *, require_convex=True):
    if require_convex and not model.n_is_convex():
        raise NonConvexError("not convex")
    lim = model._core.ts[-1]

    def _eval(t):
        u = t / model.scale
        over = u > lim * (1 + _FUZZ)
        out = np.full(u.shape, math.inf)
        out[~over] = -pchip(model._core)(np.minimum(u[~over], lim))
        return out

    return OrliczFunction("ref-N", _eval)


def ref_reciprocal_survival(pchip, model, k):
    lo_t = 1.0 / model.upper_limit()

    def _eval(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros(t.shape)
        pos = t > lo_t
        tp = t[pos]
        if tp.size:
            out[pos] = _ref_survival(pchip, model, 1.0 / tp) / (4.0 * (k - 1))
        return out

    return OrliczFunction("ref-NF", _eval)


def ref_tail_threshold(pchip, model, k):
    limit = model.upper_limit()

    def _eval(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        out = np.ones(u.shape)
        inside = u <= limit
        out[inside] = 1.0 - _ref_survival(pchip, model, u[inside])
        return (math.e / k) * out

    return OrliczFunction("ref-G", _eval)


# (library handle, masked reference on pchip, whether F is read at 1/t), k >= 2
HANDLES = {
    "M": (lambda m, k: expected_overshoot_function(m), lambda p, m, k: ref_moment(p, m), True),
    "N": (lambda m, k: neg_log_survival_function(m),
          lambda p, m, k: ref_neg_log_survival(p, m), False),
    "reciprocal-survival": (reciprocal_survival_function, ref_reciprocal_survival, True),
    "(e/k)G": (_tail_threshold_function, ref_tail_threshold, False),
}


def _arguments(model, reciprocal):
    """The solver's probe grid, random points over e^-14..e^14, and points
    whose threshold lands on a fine grid around t_max."""
    at = model.scale * model._core.ts[-1] * (1.0 + np.linspace(-3e-12, 3e-12, 121))
    return np.concatenate([
        np.ldexp(1.0, np.arange(-199, 200)),
        np.exp(np.random.default_rng(0).uniform(-14.0, 14.0, 2000)),
        1.0 / at if reciprocal else at,
    ])


def _moment_slack(pchip, model, t, u):
    """What an M value may move by outside the band: the tail kernel's
    1e-15 relative, carried by the term s * tail_integral(1/s) (0 where 1/s
    is past the table, where both read 0)."""
    on = u <= model._core.ts[-1] * (1 + _FUZZ)
    term = np.zeros(t.shape)
    term[on] = t[on] * _ref_tail_integral(pchip, model, 1.0 / t[on])
    return 1e-15 * term


@pytest.mark.parametrize("handle", sorted(HANDLES))
def test_handle_values_differ_only_in_the_fuzz_band(gaussian_table_model, scipy_pchip, handle):
    """Outside the band N, F(1/t) and (e/k)G keep their bits; M, whose tail
    integral the table now reads off its fit, stays within
    ``_moment_slack`` of the reference."""
    build, reference, reciprocal = HANDLES[handle]
    counts = {}
    for name, model in _models(gaussian_table_model).items():
        t = _arguments(model, reciprocal)
        new = build(model, 3).values(t)
        old = reference(scipy_pchip, model, 3).values(t)
        u = (1.0 / t if reciprocal else t) / model.scale
        differ = new != old
        beyond = (np.abs(new - old) > _moment_slack(scipy_pchip, model, t, u) if handle == "M"
                  else differ)
        lim = model._core.ts[-1]
        # 4 ulp below t_max: 1/(1/x) need not round back to x
        in_band = (u >= lim * (1 - 4 * _EPS)) & (u <= lim * (1 + _FUZZ))
        assert not np.any(beyond & ~in_band), (name, t[beyond & ~in_band])
        counts[name] = int(np.count_nonzero(differ))
    print(f"{handle}: values differing from the masked reference, per table: {counts}")


def _vectors():
    """name -> ascending vector."""
    return {
        "uniform-30": np.sort(np.random.default_rng(3).uniform(0.5, 5.0, 30)),
        "loguniform-200": np.sort(np.exp(np.random.default_rng(4).uniform(-7.0, 7.0, 200))),
        "uniform-2000": np.sort(np.random.default_rng(5).uniform(1e-2, 1e2, 2000)),
    }


def _outcome(solve):
    try:
        result = solve()
    except Exception as exc:  # compared by type
        return type(exc).__name__
    return result.hex() if isinstance(result, float) else result


@pytest.mark.parametrize("k", [2, 5])
@pytest.mark.parametrize("handle", sorted(HANDLES))
def test_norm_bits_match_the_masked_reference(gaussian_table_model, scipy_pchip, handle, k):
    build, reference, _ = HANDLES[handle]
    for model in _models(gaussian_table_model).values():
        new_fun, old_fun = build(model, k), reference(scipy_pchip, model, k)
        for x in _vectors().values():
            for v in (x, 1.0 / x):
                assert _outcome(lambda: orlicz_norm(v, new_fun)) == _outcome(
                    lambda: orlicz_norm(v, old_fun)
                )


def _bound_bits(model, x, k):
    return {
        "kmin": _outcome(lambda: kth_min_bounds(x, model, k)),
        "kmax": _outcome(lambda: kth_max_bounds(x[::-1], model, k)),
        "max1": _outcome(lambda: max_bounds(x, model)),
        "threshold": _outcome(lambda: kth_min_tail_threshold(x, model, k)),
    }


@pytest.mark.parametrize("k", [2, 4])
def test_bound_and_threshold_bits_match_the_masked_reference(
    gaussian_table_model, scipy_pchip, monkeypatch, k
):
    models = _models(gaussian_table_model)
    vectors = _vectors()
    new = {(m, v): _bound_bits(models[m], x, k) for m in models for v, x in vectors.items()}
    monkeypatch.setattr(bounds_module, "expected_overshoot_function",
                        functools.partial(ref_moment, scipy_pchip))
    monkeypatch.setattr(bounds_module, "neg_log_survival_function",
                        functools.partial(ref_neg_log_survival, scipy_pchip))
    monkeypatch.setattr(montecarlo_module, "_tail_threshold_function",
                        functools.partial(ref_tail_threshold, scipy_pchip))
    old = {(m, v): _bound_bits(models[m], x, k) for m in models for v, x in vectors.items()}
    assert new == old


@pytest.mark.parametrize("scale", [1.0, 3.0])
def test_one_rule_for_public_refusal_and_kernel_extension(gaussian_table_model, scale):
    model = gaussian_table_model.scaled_by(scale)
    edge = scale * model._core.ts[-1]
    inside, past = edge * (1 + 0.5 * _FUZZ), edge * (1 + 10 * _FUZZ)
    for public, raw, beyond in (
        (model.survival, model._survival, 0.0),
        (model.neg_log_survival, model._neg_log_survival, math.inf),
        (model.tail_integral, model._tail_integral, 0.0),
    ):
        assert public(inside) == public(edge)
        with pytest.raises(TabulationError, match="beyond tabulated range"):
            public(past)
        with pytest.raises(TabulationError, match="beyond tabulated range"):
            public(np.array([1.0, past]))
        out = raw(np.array([1.0, inside, past, math.inf]))
        assert out[1] == public(edge)
        assert out[2] == out[3] == beyond
        assert out[0] == public(1.0)


# -- the fitted moment kernel against the 21-point rule -----------------------


def _kernel_tables(table):
    """The erfc table, a table with uneven knots, one whose last knots lie
    60-3000 ulps apart (partial integrals there are a large share of the
    tail) and the erfc table scaled."""
    ts = np.concatenate(([0.0], np.cumsum(np.random.default_rng(7).uniform(0.002, 0.2, 120))))
    uneven = TabulatedSurvival(ts, np.exp(-0.5 * ts * ts - 0.3 * ts))
    ulps = np.spacing(10.0) * np.array([3000.0, 400.0, 120.0, 60.0, 0.0])
    ts = np.concatenate((np.linspace(0.0, 9.75, 40), 10.0 - ulps))
    clustered = TabulatedSurvival(ts, np.exp(-0.5 * ts * ts))
    return {"erfc": table, "uneven": uneven, "clustered-end": clustered,
            "erfc*3": table.scaled_by(3.0)}


_KERNEL_TABLES = ["erfc", "uneven", "clustered-end", "erfc*3"]
# every size up to 70, then sizes that are not multiples of the block
_SIZES = list(range(1, 71)) + [1023, 1025, 2049, 4097, 10_001, 33_243, 99_999]


def _near_knots(ts):
    """Every knot, 1..40 ulps either side of each, 0 and t_max, inside [0, t_max]."""
    columns, below, above = [ts, np.array([0.0, ts[-1]])], ts, ts
    for _ in range(40):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        columns += [below, above]
    u = np.concatenate(columns)
    return u[(u >= 0.0) & (u <= ts[-1])]


def _assert_fit_matches_gl21(pchip, model, u):
    """The fitted kernel against the 21-point rule: F bit for bit, the tail
    to 1e-15 relative, also through the scaled kernels the moment handle
    reads, at t = scale * u."""
    core = model._core
    got, want = core.tail_and_survival(u), _gl21_tail_and_survival(pchip(core), core, u)
    assert np.array_equal(got[1], want[1])
    assert np.all(np.abs(got[0] - want[0]) <= 1e-15 * want[0]), np.max(
        np.abs(got[0] - want[0]) / want[0])
    t = model.scale * u
    tail, surv = model._tail_integral_and_survival(t)
    assert np.array_equal(surv, _ref_survival(pchip, model, t))
    ref = _ref_tail_integral(pchip, model, t)
    assert np.all(np.abs(tail - ref) <= 1e-15 * ref)
    assert np.array_equal(model._tail_integral(t), tail)


@pytest.mark.parametrize("name", _KERNEL_TABLES)
def test_fitted_kernel_matches_the_gl21_rule(gaussian_table_model, scipy_pchip, name):
    """At random points, around every knot, and around every piece's ends."""
    model = _kernel_tables(gaussian_table_model)[name]
    ts, cuts = model._core.ts, model._core._cuts
    rng = np.random.default_rng(11)
    for n in [0, 1, 2, 3, 70, 1023, 10_001]:
        _assert_fit_matches_gl21(scipy_pchip, model, rng.uniform(0.0, ts[-1], n))
    _assert_fit_matches_gl21(scipy_pchip, model, _near_knots(ts))
    _assert_fit_matches_gl21(scipy_pchip, model, np.concatenate(
        [np.nextafter(cuts, -np.inf), cuts, np.nextafter(cuts, np.inf)]))


def test_fitted_kernel_on_a_coarse_exponential_table():
    """Knots 0, 1, 2, 30 of F = e^-t: ln F falls by 28 over the last
    interval, which the fit cuts into pieces. The table's cubic is ln F
    itself, so the kernel must give u e^-u + e^-u - e^-30."""
    ts = np.array([0.0, 1.0, 2.0, 30.0])
    core = TabulatedSurvival(ts, np.exp(-ts))._core
    assert core._cuts.size > 100
    u = np.concatenate([np.linspace(0.0, 30.0, 3001), _near_knots(ts), core._cuts,
                        np.random.default_rng(12).uniform(0.0, 30.0, 2000)])
    exact = u * np.exp(-u) + np.exp(-u) - math.exp(-30.0)
    tail = core.tail_and_survival(u)[0]
    assert np.all(np.abs(tail - exact) <= 1e-14 * exact), np.max(np.abs(tail - exact) / exact)


_REF_NODES, _REF_WEIGHTS = np.polynomial.legendre.leggauss(60)


def _fsum_integrals_to_end(interp, core):
    """integral_{x_j}^{tmax} F for every knot x_j: a 60-point Gauss-Legendre
    rule on 16 equal sub-intervals of each knot interval, summed by fsum."""
    x, sub = core.ts, np.linspace(0.0, 1.0, 17)
    per_interval = []
    for a, b in zip(x[:-1], x[1:]):
        ends = a + (b - a) * sub
        ends[-1] = b
        half = 0.5 * np.diff(ends)
        pts = 0.5 * (ends[:-1] + ends[1:])[:, None] + half[:, None] * _REF_NODES
        per_interval.append(math.fsum((np.exp(interp(pts)) * half[:, None]
                                       * _REF_WEIGHTS).ravel()))
    return np.array([math.fsum(per_interval[j:]) for j in range(x.size)])


@pytest.mark.parametrize("name", ["erfc", "uneven", "clustered-end", "coarse-exp", "non-convex"])
def test_knot_integrals_match_an_independent_reference(gaussian_table_model,
                                                       nonconvex_table_model, scipy_pchip, name):
    """The load-time fit's integral from every knot to t_max against a finer
    rule summed exactly, and E|xi| as the kernel's own tail integral at 0."""
    ts = np.array([0.0, 1.0, 2.0, 30.0])
    model = {**_kernel_tables(gaussian_table_model), "non-convex": nonconvex_table_model,
             "coarse-exp": TabulatedSurvival(ts, np.exp(-ts))}[name]
    got, want = model._core.cum_tail, _fsum_integrals_to_end(scipy_pchip(model._core),
                                                             model._core)
    assert got[-1] == want[-1] == 0.0
    rel = np.abs(got[:-1] - want[:-1]) / want[:-1]
    assert np.all(rel <= 2e-15), rel.max()
    assert model.tail_integral(0.0) == model.mean_abs()


def _assert_gl21_kernel_matches_scipy(pchip, core, u):
    f = np.exp(pchip(core)(u))
    want = np.stack((u * f + _reference_integral_f_to_end(pchip, core, u), f))
    assert np.array_equal(_gl21_tail_and_survival(pchip(core), core, u), want)


@pytest.mark.parametrize("name", _KERNEL_TABLES)
def test_one_lookup_kernel_matches_scipy_at_random_points(gaussian_table_model, scipy_pchip,
                                                          name):
    """The reference's one-lookup form against scipy at every point."""
    core = _kernel_tables(gaussian_table_model)[name]._core
    rng = np.random.default_rng(11)
    for n in _SIZES:
        _assert_gl21_kernel_matches_scipy(scipy_pchip, core, rng.uniform(0.0, core.ts[-1], n))


@pytest.mark.parametrize("name", _KERNEL_TABLES)
def test_one_lookup_kernel_matches_scipy_around_every_knot(gaussian_table_model, scipy_pchip,
                                                           name):
    core = _kernel_tables(gaussian_table_model)[name]._core
    _assert_gl21_kernel_matches_scipy(scipy_pchip, core, _near_knots(core.ts))


@pytest.mark.parametrize("name", _KERNEL_TABLES)
def test_points_off_their_interval_are_read_from_scipy(gaussian_table_model, scipy_pchip,
                                                       name):
    """The reference's knot rule: exactly the Gauss-Legendre points that
    round out of their entry's [x_j, x_{j+1}) (thousands on the near-knot
    grid) are evaluated by scipy's PCHIP. Next to the u F(u) term such a point
    changes no output bit in practice, so the rule is checked here, not
    through the kernel's values."""
    core = _kernel_tables(gaussian_table_model)[name]._core
    u = _near_knots(core.ts)
    j = np.clip(np.searchsorted(core.ts, u, side="right") - 1, 0, len(core.ts) - 2)
    a, b = core.ts[j], core.ts[j + 1]
    pts = 0.5 * (b + u)[:, None] + 0.5 * (b - u)[:, None] * _GL_NODES
    off = pts[(pts < a[:, None]) | (pts >= b[:, None])]
    assert off.size > 500

    interp, asked = scipy_pchip(core), []

    class Recording:
        x, c = interp.x, interp.c

        def __call__(self, p):
            asked.append(np.array(p))
            return interp(p)

    _gl21_tail_and_survival(Recording(), core, u)
    assert np.array_equal(np.sort(np.concatenate(asked)), np.sort(off))


def _moment_inputs():
    rng = np.random.default_rng(12)
    return {
        "plain": np.exp(rng.uniform(-8.0, 8.0, 3000)),
        "subnormal": np.array([5e-324, 1e-310, 2.2e-308, 1e-300, 0.5, 2.0]),
        "inf": np.array([math.inf, 1.0, 3.0, math.inf, 1e300]),
    }


@pytest.mark.parametrize("name", _KERNEL_TABLES)
def test_moment_direct_path_matches_masked_path(gaussian_table_model, gaussian, symexp, name):
    models = {"table": _kernel_tables(gaussian_table_model)[name], "gaussian": gaussian,
              "symexp": symexp}
    for model in models.values():
        fun = expected_overshoot_function(model)
        for t in _moment_inputs().values():
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                direct = fun.evaluate(t)  # every entry > 0
                masked = fun.evaluate(np.append(t, 0.0))  # a zero: 1/0 = inf, read as 0
                zeros = np.insert(t, [0, 2, 2], 0.0)
                mixed = fun.evaluate(zeros)
            assert np.array_equal(direct, masked[:-1]) and masked[-1] == 0.0
            assert np.array_equal(mixed[zeros > 0], direct)
            assert not np.any(mixed[zeros == 0])

"""The table's own PCHIP of ln F against scipy's, bit for bit.

A table interpolates ln F by the monotone piecewise cubic scipy's
``PchipInterpolator`` builds, computed in the package with scipy's
arithmetic, so that loading a table does not import scipy.interpolate.
Coefficients, values (any input shape) and the derivative must keep
scipy's bits on every table the loader accepts, and so must the load-time
fit, which looks up a knot interval per row of its points: Hypothesis draws tables of
3 to 600 knots with even, uneven and clustered spacing and ln F falling to
as low as about -700, and each is read at random points, at every knot, 1
ulp either side of each knot, and at t_max.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import interpolate

from orlicz_bounds import TabulatedSurvival, distributions


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@st.composite
def tables(draw):
    """(ts, fs) of a table the loader accepts."""
    n = draw(st.integers(min_value=3, max_value=600))
    spacing = draw(st.sampled_from(["even", "uneven", "clustered"]))
    t_max = draw(st.floats(min_value=1e-3, max_value=1e3))
    depth = draw(st.floats(min_value=30.0, max_value=700.0))  # -ln F(t_max)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if spacing == "even":
        gaps = np.ones(n - 1)
    elif spacing == "uneven":
        gaps = rng.uniform(0.01, 1.0, n - 1)
    else:  # runs of knots 1e-9 of a gap apart between ordinary gaps
        gaps = np.where(rng.random(n - 1) < 0.5, 1e-9, 1.0)
    ts = np.concatenate(([0.0], np.cumsum(gaps)))
    ts *= t_max / ts[-1]
    # ln F: a random fall from 0 to -depth, steep across clustered knots
    falls = rng.uniform(0.2, 1.0, n - 1) * (gaps + rng.uniform(0.0, 1.0) * gaps.mean())
    log_fs = np.concatenate(([0.0], -depth * np.cumsum(falls) / falls.sum()))
    fs = np.exp(log_fs)
    fs[0] = 1.0
    return ts, fs


def _points(ts, rng):
    """Random points, every knot, 1 ulp either side of each and t_max,
    inside [0, t_max]."""
    u = np.concatenate([rng.uniform(0.0, ts[-1], 500), ts, np.nextafter(ts, -np.inf),
                        np.nextafter(ts, np.inf), [ts[-1]]])
    return u[(u >= 0.0) & (u <= ts[-1])]


@settings(max_examples=80)
@given(table=tables(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_pchip_matches_scipy_bit_for_bit(table, seed):
    ts, fs = table
    core = TabulatedSurvival(ts, fs)._core
    want = interpolate.PchipInterpolator(ts, np.log(fs), extrapolate=False)
    assert _same_bits(core._cubic[0], ts[:-1])
    assert _same_bits(core._cubic[1:][::-1], want.c)

    u = _points(ts, np.random.default_rng(seed))
    assert _same_bits(core.log_f(u), want(u))
    value, slope = core.log_f_and_slope(u)
    assert _same_bits(value, want(u))
    assert _same_bits(slope, want.derivative()(u))
    grid = u[: u.size // 4 * 4].reshape(4, -1)  # 2-d input
    assert _same_bits(core.log_f(grid), want(grid))
    value, slope = core.log_f_and_slope(grid)
    assert _same_bits(value, want(grid))
    assert _same_bits(slope, want.derivative()(grid))

    # The load-time fit looks up one knot interval per row of its points
    # where it can; every point looked up alone gives the same bits.
    cuts, pieces, cum_tail = distributions._partial_integral_fit(
        ts, core._cubic, lambda pts, j: core.log_f(pts))
    assert _same_bits(cuts, core._cuts)
    assert _same_bits(pieces, core._pieces)
    assert _same_bits(cum_tail, core.cum_tail)


def test_pchip_keeps_its_zero_slopes():
    """The branches a strictly decreasing F rarely reaches, against scipy:
    equal ln F at two knots (F 1 ulp apart near 1e-300) gives a flat secant
    and zero slopes at both its ends, and a sharp bend next to an end gives
    a one-sided end slope of the wrong sign, which is set to 0 (at the
    first knot in the first table, at the last in the second)."""
    tiny = 1e-300
    cases = {
        "flat secant": ([0.0, 1.0, 2.0, 3.0, 4.0],
                        [1.0, 0.5, tiny, np.nextafter(tiny, 0.0), 1e-301]),
        "bent end": ([0.0, 0.1, 3.0, 3.1, 60.0], [1.0, 0.99, 1e-3, 1e-20, 1e-30]),
    }
    for ts, fs in cases.values():
        ts, fs = np.array(ts), np.array(fs)
        core = TabulatedSurvival(ts, fs)._core
        want = interpolate.PchipInterpolator(ts, np.log(fs), extrapolate=False)
        assert _same_bits(core._cubic[1:][::-1], want.c)
        u = _points(ts, np.random.default_rng(1))
        value, slope = core.log_f_and_slope(u)
        assert _same_bits(value, want(u))
        assert _same_bits(slope, want.derivative()(u))


def test_fit_rows_across_a_knot_keep_their_bits():
    """Knots 60-3000 ulps apart: there some rows of the load-time fit's
    points cross a knot and are looked up point by point, and the fit keeps
    the bits of looking up every point alone."""
    ulps = np.spacing(10.0) * np.array([3000.0, 400.0, 120.0, 60.0, 0.0])
    ts = np.concatenate((np.linspace(0.0, 9.75, 40), 10.0 - ulps))
    core = TabulatedSurvival(ts, np.exp(-0.5 * ts * ts))._core
    looked_up, crossed = [], []

    def log_f(pts, j):
        looked_up.append(np.array_equal(j, np.searchsorted(ts[1:-1], pts, side="right")))
        crossed.append(np.any(j[:, 0] != j[:, -1]))
        return core.log_f(pts)

    cuts, pieces, cum_tail = distributions._partial_integral_fit(ts, core._cubic, log_f)
    assert looked_up and all(looked_up) and any(crossed)
    assert _same_bits(pieces, core._pieces) and _same_bits(cum_tail, core.cum_tail)

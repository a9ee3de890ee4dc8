"""Symmetric random-variable models and their tail primitives.

Every model describes a random variable xi, symmetric about zero, through the
survival function of its absolute value,

    F(t) = P(|xi| > t),    F(0) = 1,  F strictly decreasing on [0, inf).

The package only needs four primitives from a model, all exposed here:
survival F, its inverse (quantile), seeded sampling, and the tail first
moment

    tail_integral(t) = integral of |xi| over {|xi| >= t},

which decreases from E|xi| at t=0 to 0. Log-concave families additionally
have a convex negative log-survival N(t) = -ln F(t); the flag
``n_is_convex()`` reports whether that holds (checked on a grid for
tabulated data, known analytically for the built-in families).

A table resolves F up to its last knot t_max: t past t_max * (1 + 1e-12)
is beyond it, and t up to that is clipped to t_max. There the public
primitives refuse, and the raw kernels the Orlicz handles call read F = 0
(N = +inf, tail integral 0). On the table, the tail integral costs no
quadrature per call: it is read off a piecewise polynomial fit of F's
partial integrals, made when the table loads. That fit is the only
integral of F a table takes; E|xi| is its tail integral at 0. ln F is the
table's own PCHIP, built and read with the arithmetic of scipy's
``PchipInterpolator``, so F keeps scipy's bits without importing
scipy.interpolate. The one part of scipy the package uses is
scipy.special, for the Gaussian.

Built-in families: standard Gaussian, symmetric exponential (Laplace), and
a tabulated survival function loaded from a two-column ``t,F`` CSV. Models
are immutable and have no scale parameter: the estimates see xi only
through the products |x_i xi_i|, so a model of c xi is the weights c x.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TabulationError, _csv_lines, _integer_in, _positive
from .reporting import CheckResult

__all__ = [
    "DistributionModel",
    "Gaussian",
    "SymExponential",
    "TabulatedSurvival",
    "parse_distribution",
    "check_tail_integral_bound",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_LN2 = math.log(2.0)

# Unresolved tail mass (beyond the last table knot) above which a table is
# refused rather than extrapolated.
_MAX_TRUNCATION = 1e-9

_CONVEXITY_SLACK = -1e-9
_VALIDATION_POINTS = 201

# The table's fit of its partial integrals (``_partial_integral_fit``): each
# piece's spread (see there) is at most _PIECE_SPREAD, which holds the
# degree-_FIT_DEGREE interpolant's error below the rounding; its values are
# _FIT_GL-point Gauss-Legendre means.
_PIECE_SPREAD = 0.125
_FIT_DEGREE = 8
_FIT_GL = 30

# Points per block of the table quantile's Newton steps.
_NEWTON_BLOCK = 8192


@functools.cache
def _special():
    """scipy.special, imported on first use: importing the package (and
    starting the CLI) does not load it. Cached, because an import statement
    in a kernel would look the module up again on every modular sum."""
    from scipy import special

    return special


def _within(u: np.ndarray, t_max: float) -> np.ndarray:
    """Where u is resolved by a table whose last knot is t_max (relative fuzz
    1e-12); u up to that is read at min(u, t_max)."""
    return u <= t_max * (1 + 1e-12)


def _ret(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


class DistributionModel:
    """Common interface. A family implements the raw kernels the Orlicz
    handles call, ``_survival``, ``_neg_log_survival`` and
    ``_tail_integral_and_survival`` (the pair of the tail integral and F,
    which the moment function M combines), on an already validated float
    array: no NaN, nothing negative, nothing past a table, though +inf may
    occur, where both read 0. The raw kernels are elementwise: a long
    modular sum calls them on blocks of at most ``orlicz._BLOCK`` entries.
    It also implements ``_quantile``, ``_sample``, ``mean_abs`` and, for a
    table, ``upper_limit``. The public methods validate, then call the
    kernel, so a solve validates once, at its entry."""

    def _prepare(self, t):
        """Validate a nonnegative scalar/array argument resolved by the model;
        return (array, was_scalar)."""
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if np.any(np.isnan(arr)):
            raise DomainError("t must not be NaN")
        if np.any(arr < 0):
            raise DomainError(f"t must be >= 0, got {arr.min()}")
        lim = self.upper_limit()
        if math.isfinite(lim) and not np.all(_within(arr, lim)):
            raise TabulationError(
                f"t={float(np.max(arr)):g} beyond tabulated range "
                f"[0, {lim:g}]; extrapolation refused"
            )
        return arr, scalar

    def survival(self, t):
        """F(t) = P(|xi| > t); strictly decreasing, F(0) = 1."""
        arr, scalar = self._prepare(t)
        return _ret(self._survival(arr), scalar)

    def neg_log_survival(self, t):
        """N(t) = -ln F(t)."""
        arr, scalar = self._prepare(t)
        return _ret(self._neg_log_survival(arr), scalar)

    def quantile(self, p):
        """Inverse of F: the t with F(t) = p, for p in (0, 1]."""
        arr = np.asarray(p, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if np.any(np.isnan(arr)) or np.any(arr <= 0) or np.any(arr > 1):
            raise DomainError("quantile requires probabilities in (0, 1]")
        return _ret(self._quantile(arr), scalar)

    def tail_integral(self, t):
        """First-moment tail mass: integral of |xi| over {|xi| >= t}."""
        arr, scalar = self._prepare(t)
        with np.errstate(invalid="ignore"):  # inf * 0 at t = inf, read as 0
            return _ret(self._tail_integral(arr), scalar)

    def _tail_integral(self, t: np.ndarray) -> np.ndarray:
        return self._tail_integral_and_survival(t)[0]

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` i.i.d. draws of xi (signed), in a new array the caller
        may overwrite. Deterministic given the generator state; a stream
        must be owned by a single consumer."""
        return self._sample(rng, _integer_in(count, "sample count", 1, error=DomainError))

    def upper_limit(self) -> float:
        """Largest t with F resolved (inf for analytic families)."""
        return math.inf

    def mean_abs(self) -> float:
        """E|xi| = tail_integral(0)."""
        raise NotImplementedError

    def n_is_convex(self) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Gaussian(DistributionModel):
    """Standard normal xi; survival F(t) = erfc(t / sqrt 2).

    Survival goes through the complementary error function (and log_ndtr for
    N at large t) rather than quadrature; quadrature is kept as the oracle in
    the test suite.
    """

    def _survival(self, t):
        return _special().erfc(t / _SQRT2)

    def _neg_log_survival(self, t):
        # F = 2*Phi(-t)  =>  ln F = ln 2 + log_ndtr(-t); precise for large t.
        return -(_LN2 + _special().log_ndtr(-t))

    def _quantile(self, p):
        return _SQRT2 * _special().erfcinv(p)

    def _tail_integral_and_survival(self, t):
        return _SQRT_2_OVER_PI * np.exp(-0.5 * t * t), self._survival(t)

    def mean_abs(self) -> float:
        return _SQRT_2_OVER_PI

    def _sample(self, rng, count):
        return rng.standard_normal(count)

    def n_is_convex(self) -> bool:
        return True

    def describe(self) -> str:
        return "gaussian"


@dataclass(frozen=True)
class SymExponential(DistributionModel):
    """Symmetric exponential (Laplace) xi: |xi| ~ Exp(rate), F(t) = exp(-rate*t)."""

    rate: float = 1.0

    def __post_init__(self):
        _positive(self.rate, "rate")
        if not (1.0 / self.rate < math.inf):
            raise DomainError(
                f"rate {self.rate!r} is too small: its reciprocal, the mean E|xi|, "
                "overflows the float range"
            )

    def _survival(self, t):
        return np.exp(-self.rate * t)

    def _neg_log_survival(self, t):
        return self.rate * t

    def _quantile(self, p):
        return -np.log(p) / self.rate

    def _tail_integral_and_survival(self, t):
        # (t + 1/rate) F(t), with one exp for both kernels. At t = inf the
        # product is inf * 0 = nan; fmax reads it as the limit 0 and leaves
        # every other value, all >= 0, as it is. Below a rate of about
        # 1e-292, t + 1/rate can overflow for a finite t although the product
        # is about 0.5: there it is formed as t F + F / rate.
        f = np.exp(-self.rate * t)
        out = (t + 1.0 / self.rate) * f
        if math.isinf(sys.float_info.max + 1.0 / self.rate):
            band = np.isinf(t + 1.0 / self.rate) & np.isfinite(t)
            out[band] = t[band] * f[band] + f[band] / self.rate
        return np.fmax(out, 0.0), f

    def mean_abs(self) -> float:
        return 1.0 / self.rate

    def _sample(self, rng, count):
        return rng.laplace(0.0, 1.0 / self.rate, count)

    def n_is_convex(self) -> bool:
        return True  # N(t) = rate*t is linear

    def describe(self) -> str:
        return f"symexp(rate={self.rate:g})"


def _pchip(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The monotone piecewise cubic (PCHIP) of y through the knots x, as
    rows (x_j, c3, c2, c1, c0), one column per knot interval, with y = c3 +
    c2 s + c1 s^2 + c0 s^3 at s = t - x_j.

    The arithmetic is that of scipy's ``PchipInterpolator`` (scipy 1.17:
    ``_find_derivatives``, then ``CubicHermiteSpline``), operation for
    operation, so the coefficients have its bits. The slope at an interior
    knot is the weighted harmonic mean of its two secants, 0 where one of
    them is 0; at an end it is the one-sided three-point formula, 0 where
    its sign is not the secant's. Raises ``TabulationError`` where scipy
    raises: a knot or value that is not finite, or a slope that overflows
    (knot spacings near the float limit).
    """
    for data, what in ((x, "t"), (y, "ln F")):
        if not np.all(np.isfinite(data)):
            raise TabulationError(f"cannot interpolate ln F through the table: {what} must "
                                  "be finite")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h = np.diff(x)
        m = np.diff(y) / h
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        d = np.empty_like(y)
        d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
        for end, (h0, h1, m0, m1) in ((0, (h[0], h[1], m[0], m[1])),
                                      (-1, (h[-1], h[-2], m[-1], m[-2]))):
            edge = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            if np.sign(edge) != np.sign(m0):
                edge = 0.0
            elif np.sign(m0) != np.sign(m1) and abs(edge) > 3.0 * abs(m0):
                edge = 3.0 * m0
            d[end] = edge
        if not np.all(np.isfinite(d)):
            raise TabulationError("cannot interpolate ln F through the table: its slopes "
                                  "overflow the float range")
        t = (d[:-1] + d[1:] - 2 * m) / h
        return np.vstack((x[:-1], y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h))


def _cubic(s, c3, c2, c1, c0):
    """c3 + c2 s + c1 s^2 + c0 s^3, summed in the order of scipy's PPoly
    evaluation, so with its bits: c3 + c2 s, + c1 (s s), + c0 ((s s) s).
    (scipy's sum starts from 0.0, which changes no c3 = ln F: that is never
    -0.0.) Works in the buffers of c3, c2 and c1, and returns c2's."""
    f = np.multiply(c2, s, out=c2)
    f += c3
    ss = np.multiply(s, s, out=c3)
    f += np.multiply(c1, ss, out=c1)
    ss *= s
    ss *= c0
    f += ss
    return f


def _partial_integral_fit(x, cubic, log_f):
    """(cuts, pieces, cum_tail): the fit from which
    ``TabulatedSurvival._fit_tail_and_survival`` reads integral_u^{tmax} F, made
    once when a table loads. It is the one place a table's F is integrated.

    Each knot interval is cut into equal pieces [a, b). On a piece, ln F
    written about the piece's midpoint as a cubic in y in [-1, 1] with
    coefficients alpha, beta, gamma of y, y^2, y^3 has a spread |alpha| +
    sqrt|beta| + cbrt|gamma| of at most ``_PIECE_SPREAD``, from bounds over
    the whole interval (the slope alone, ln F's fall, is not enough: a cubic
    term spreads the interpolant's coefficients as much). Then the mean g of
    F over [b - v, b] is, to within rounding, a polynomial of degree
    ``_FIT_DEGREE`` in y = 2 v / (b - a) - 1: it interpolates the means at
    the Chebyshev points, each a ``_FIT_GL``-point Gauss-Legendre rule, and
    is stored in powers of y. The fit takes no BLAS call, so its bits do not
    depend on the BLAS kernel or its threads.

    ``x`` are the knots, ``cubic`` the table's PCHIP rows (see ``_pchip``)
    and ``log_f`` its ln F kernel, ``TabulatedSurvival._log_f``. ``cuts`` holds
    the pieces' left ends but the first. ``pieces`` holds one column per
    piece: the PCHIP row of its knot interval (F's bits come from that
    cubic, not from the fit), b, 2 / (b - a), the integral C of F from b to
    t_max, and g's coefficients, the highest power first. The piece count
    is the knot count plus about the total spread over ``_PIECE_SPREAD``;
    F > 0 holds ln F's fall below 745.

    Each piece's integral, (b - a) times its Gauss-Legendre mean, is summed
    once from the right. That one running sum gives every C and
    ``cum_tail``, the integral of F from each knot to t_max (0 at t_max).
    """
    h = np.diff(x)
    c2, c1, c0 = cubic[2:]  # of s, s^2, s^3 with s = t - x_j
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # |d ln F / ds| peaks at an end or at the vertex of this quadratic;
        # the vertex is clipped into the interval, NaN dropped by fmax.
        vertex = np.clip(-c1 / (3.0 * c0), 0.0, h)
        slope = np.fmax(np.fmax(np.abs(c2), np.abs(c2 + (2.0 * c1 + 3.0 * c0 * h) * h)),
                        np.abs(c2 + (2.0 * c1 + 3.0 * c0 * vertex) * vertex))
        curve = np.fmax(np.abs(c1), np.abs(c1 + 3.0 * c0 * h))
        count = np.ceil(0.5 * h * (slope + np.sqrt(curve) + np.cbrt(np.abs(c0))) / _PIECE_SPREAD)
    count = np.where(np.isfinite(count) & (count > 1.0), count, 1.0).astype(np.intp)

    # Equal pieces; a cut that rounds onto its predecessor or past the
    # interval's right end is dropped.
    knot = np.repeat(np.arange(h.size), count)
    k = np.arange(knot.size) - np.repeat(np.cumsum(count) - count, count)
    left = x[knot] + h[knot] * (k / count[knot])
    keep = (k == 0) | ((left > np.append(-math.inf, left[:-1])) & (left < x[knot + 1]))
    knot, left, first = knot[keep], left[keep], np.flatnonzero(k[keep] == 0)
    right = np.append(left[1:], x[-1])
    width = right - left

    nodes, weights = np.polynomial.legendre.leggauss(_FIT_GL)
    at = 0.5 * (1.0 + nodes)  # the nodes on [0, 1]

    def mean_back(span):
        """The mean of F over [right - span, right], per piece."""
        pts = right[:, None] - span[:, None] * at
        # Each row descends, so a row whose first and last points share a
        # knot interval lies in it whole: one lookup per row, and one per
        # point only in a row across a knot.
        j = np.searchsorted(x[1:-1], pts[:, [0, -1]], side="right")
        across = j[:, 0] != j[:, 1]
        j = np.repeat(j[:, :1], at.size, axis=1)
        j[across] = np.searchsorted(x[1:-1], pts[across], side="right")
        vals = np.exp(log_f(pts, j))
        return 0.5 * (vals * weights).sum(axis=1)

    # The pieces' integrals summed once, from the right: C of a piece is the
    # sum over the later pieces, and a knot's integral to t_max the sum from
    # its interval's first piece on.
    to_end = np.append(np.cumsum((width * mean_back(width))[::-1])[::-1], 0.0)
    const = to_end[1:]
    cum_tail = np.append(to_end[first], 0.0)

    # g at the Chebyshev points y_i, less its value at the middle point
    # (y = 0 up to rounding; the differences are exact), to power
    # coefficients in y: a Chebyshev transform, then each T_n's powers.
    deg = _FIT_DEGREE
    theta = np.pi * (np.arange(deg + 1) + 0.5) / (deg + 1)
    means = np.stack([mean_back(0.5 * (1.0 + y) * width) for y in np.cos(theta)])
    centre = means[deg // 2].copy()
    means -= centre
    transform = np.cos(np.outer(np.arange(deg + 1), theta)) * (2.0 / (deg + 1))
    transform[0] *= 0.5
    powers = np.zeros((deg + 1, deg + 1))  # powers[m, n]: y^m in T_n
    for n in range(deg + 1):
        t_n = np.polynomial.chebyshev.cheb2poly(np.eye(deg + 1)[n])
        powers[: t_n.size, n] = t_n
    to_powers = (powers[:, :, None] * transform[None, :, :]).sum(axis=1)
    coef = np.zeros((deg + 1, knot.size))
    for i in range(deg + 1):
        coef += to_powers[:, i, None] * means[i]
    coef[0] += centre

    pieces = np.vstack((cubic[:, knot], right, 2.0 / width, const, coef[::-1]))
    return left[1:].copy(), pieces, cum_tail


class TabulatedSurvival(DistributionModel):
    """Survival function given by a table of (t, F(t)) pairs.

    Construction validates the table (strictly increasing t, F(0)=1, F
    strictly decreasing in (0,1], no knot interval so wide that its cubic
    overflows) and refuses tables with non-negligible unresolved tail mass.
    Public requests beyond the table raise; the raw kernels read F = 0
    there. Nothing is extrapolated.

    ln F is interpolated by a monotone piecewise cubic (PCHIP, ``_pchip``),
    which preserves the strict decrease of the data and keeps the convexity
    check on N = -ln F meaningful. Its coefficients, and every value and
    slope read from them, have the bits of scipy's ``PchipInterpolator``
    without importing scipy.interpolate. The integrals of F all come from
    one load-time computation, the fit of the partial integrals
    (``_partial_integral_fit``): it also gives the integral from each knot
    to t_max (``_cum_tail``), and E|xi| is the fitted kernel's own tail
    integral at 0. A moment-kernel call does no quadrature.
    """

    def __init__(self, ts, fs, rows=None):
        ts = np.asarray(ts, dtype=float)
        fs = np.asarray(fs, dtype=float)
        if rows is None:
            rows = list(range(1, len(ts) + 1))
        if ts.ndim != 1 or ts.shape != fs.shape:
            raise TabulationError("table must be two equal-length columns t, F")
        if len(ts) < 3:
            raise TabulationError(f"table needs at least 3 rows, got {len(ts)}")
        if ts[0] != 0.0:
            raise TabulationError(f"row {rows[0]}: first abscissa must be t=0, got {ts[0]}")
        if abs(fs[0] - 1.0) > 1e-12:
            raise TabulationError(f"row {rows[0]}: F(0) must be 1, got {fs[0]}")
        if np.any(fs <= 0) or np.any(fs > 1):
            bad = int(np.argmax((fs <= 0) | (fs > 1)))
            raise TabulationError(f"row {rows[bad]}: F must lie in (0, 1], got {fs[bad]}")
        dts = np.diff(ts)
        if np.any(dts <= 0):
            bad = int(np.argmax(dts <= 0))
            raise TabulationError(
                f"rows {rows[bad]}-{rows[bad + 1]}: t must be strictly increasing "
                f"({ts[bad]} then {ts[bad + 1]})"
            )
        dfs = np.diff(fs)
        if np.any(dfs >= 0):
            bad = int(np.argmax(dfs >= 0))
            raise TabulationError(
                f"rows {rows[bad]}-{rows[bad + 1]}: F must be strictly decreasing "
                f"({fs[bad]} then {fs[bad + 1]})"
            )

        self.ts = ts
        self.fs = fs
        self.log_fs = np.log(fs)
        self._inner = ts[1:-1]
        self._cubic = _pchip(ts, self.log_fs)
        # The cubic's s^3, s = t - x_j, must not overflow on any knot interval
        # (the knots are finite here: ``_pchip`` checked them).
        with np.errstate(over="ignore"):
            wide = np.isinf(dts * dts * dts)
        if np.any(wide):
            bad = int(np.argmax(wide))
            raise TabulationError(
                f"cannot interpolate ln F through the table: rows {rows[bad]}-{rows[bad + 1]} "
                f"are {dts[bad]:g} apart, more than the cube root of the largest float, "
                f"{np.cbrt(sys.float_info.max):.3g}"
            )

        # Refuse tables whose tail beyond t_max could matter: for log-concave F,
        # integral_{tmax}^{inf} F <= F(tmax) * tmax / N(tmax).
        n_end = -self.log_fs[-1]
        trunc = fs[-1] * ts[-1] / n_end if n_end > 0 else math.inf
        if trunc > _MAX_TRUNCATION:
            raise TabulationError(
                f"table too short: unresolved tail mass bound {trunc:.3e} exceeds "
                f"{_MAX_TRUNCATION:g}; extend the table to larger t"
            )

        # Dense grid for fast (vectorized) quantile inversion.
        self._dense_t = np.linspace(ts[0], ts[-1], 4097)
        self._dense_l = self._log_f(self._dense_t)

        # Convexity flag for N = -ln F: second differences on a ~200-point
        # grid and on the knots themselves must stay above -1e-9.
        grid = np.linspace(ts[0], ts[-1], _VALIDATION_POINTS)
        nn = -self._log_f(grid)
        d2 = nn[2:] - 2 * nn[1:-1] + nn[:-2]
        nk = -self.log_fs
        d2k = (nk[2:] - nk[1:-1]) / dts[1:] - (nk[1:-1] - nk[:-2]) / dts[:-1]
        self._n_convex = bool(np.all(d2 >= _CONVEXITY_SLACK) and np.all(d2k >= _CONVEXITY_SLACK))

        self._cuts, self._pieces, self._cum_tail = _partial_integral_fit(ts, self._cubic,
                                                                         self._log_f)
        # E|xi| up to the truncation bound, read off the kernel itself, so
        # that it equals tail_integral(0) to the bit.
        self._mean_abs = float(self._fit_tail_and_survival(np.zeros(1))[0, 0])

    @classmethod
    def from_csv(cls, path) -> "TabulatedSurvival":
        ts, fs, rows = [], [], []
        for lineno, line in _csv_lines(path, "table", TabulationError):
            parts = [p.strip() for p in line.split(",")]
            if lineno == 1 and parts and not _is_number(parts[0]):
                continue  # optional header row
            if len(parts) != 2:
                raise TabulationError(
                    f"{path}: line {lineno}: expected two comma-separated values, "
                    f"got {len(parts)}"
                )
            try:
                t, f = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise TabulationError(f"{path}: line {lineno}: {exc}") from None
            ts.append(t)
            fs.append(f)
            rows.append(lineno)
        if not ts:
            raise TabulationError(f"{path}: empty table")
        return cls(np.array(ts), np.array(fs), rows=rows)

    # -- the table's interpolant and fit, on u in [0, t_max] ----------------

    def _rows(self, u: np.ndarray, j=None):
        """The PCHIP rows (x_j, c3, c2, c1, c0) of the knot interval of each
        u, in a new array of shape (5,) + u.shape: one lookup by scipy's
        half-open rule, x_j <= u < x_{j+1}, with t_max in the last interval
        (unless the caller found the j already), and one ``take``."""
        if j is None:
            j = np.searchsorted(self._inner, u, side="right")
        return self._cubic.take(j, axis=1)

    def _log_f(self, u: np.ndarray, j=None) -> np.ndarray:
        """ln F(u) for u in [0, t_max] of one or more dimensions; ``j``, if
        given, holds each u's knot interval."""
        x, c3, c2, c1, c0 = self._rows(u, j)
        return _cubic(np.subtract(u, x, out=x), c3, c2, c1, c0)

    def _log_f_and_slope(self, u: np.ndarray):
        """(ln F(u), d ln F / du) from one lookup. The slope is scipy's
        derivative polynomial, coefficients (c2, 2 c1, 3 c0), summed in its
        order: (0.0 + c2) + (2 c1) s, + (3 c0) (s s). Starting from 0.0
        reads a slope of -0.0 as +0.0."""
        x, c3, c2, c1, c0 = self._rows(u)
        s = np.subtract(u, x, out=x)
        slope = c2 + 0.0
        term = np.multiply(c1, 2.0)
        term *= s
        slope += term
        np.multiply(c0, 3.0, out=term)
        term *= s * s
        slope += term
        return _cubic(s, c3, c2, c1, c0), slope

    def _fit_tail_and_survival(self, u: np.ndarray) -> np.ndarray:
        """np.stack((u F(u) + integral_u^{tmax} F(s) ds, F(u))) for u in
        [0, tmax], the two kernels the moment function needs.

        One lookup finds u's piece [a, b) of the load-time fit (the last one
        closed) and one ``take`` gathers that piece's row of
        ``_pieces``. F(u) is the cubic of the knot interval [x_j, x_{j+1})
        holding the piece, evaluated in scipy's own order, s = u - x_j, then
        c3 + c2 s, + c1 (s s), + c0 ((s s) s), and exponentiated, so it
        keeps scipy's bits (the pieces' ends include every knot, so the
        lookup keeps scipy's half-open interval rule). The integral is
        (b - u) g(y) + C: the mean g of F over [u, b] is a Horner loop in
        y = 2 (b - u) / (b - a) - 1, and C, the integral from b to t_max, is
        a constant of the piece. b - u is exact where u is near b, so the
        term keeps its digits on a table whose knots lie ulps apart.
        """
        x, c3, c2, c1, c0, b, r, const, *g = self._pieces.take(
            np.searchsorted(self._cuts, u, side="right"), axis=1)
        f = _cubic(np.subtract(u, x, out=x), c3, c2, c1, c0)
        np.exp(f, out=f)
        v = b - u
        y = v * r
        y -= 1.0
        mean = g[0] * y
        for coef in g[1:-1]:
            mean += coef
            mean *= y
        mean += g[-1]
        mean *= v
        mean += const
        return np.stack((u * f + mean, f))

    def _on_table(self, u: np.ndarray, kernel, past: float) -> np.ndarray:
        """``kernel(min(u, t_max))`` where the table resolves u, ``past``
        elsewhere. Only the resolved entries are evaluated; a kernel may
        return several values per entry, stacked along a leading axis. In
        the common case one maximum shows that every entry is on the table,
        where there is nothing to clip (NaN fails the test and takes the
        masked path). The kernels need at least one dimension: a 0-d u is
        read as one entry."""
        if u.ndim == 0:
            return self._on_table(u.reshape(1), kernel, past)[..., 0]
        lim = self.ts[-1]
        if u.max(initial=0.0) <= lim:
            return kernel(u)
        inside = _within(u, lim)
        vals = kernel(np.minimum(u[inside], lim))
        out = np.full(vals.shape[:-1] + u.shape, past)
        out[..., inside] = vals
        return out

    # -- the model's kernels -------------------------------------------------

    def _survival(self, t):
        return self._on_table(t, lambda r: np.exp(f := self._log_f(r), out=f), 0.0)

    def _neg_log_survival(self, t):
        return self._on_table(t, lambda r: np.negative(n := self._log_f(r), out=n), math.inf)

    def _tail_integral_and_survival(self, t):
        return self._on_table(t, self._fit_tail_and_survival, 0.0)

    def _quantile(self, p: np.ndarray) -> np.ndarray:
        if np.any(p < self.fs[-1] * (1 - 1e-12)):
            raise TabulationError(
                f"quantile {p.min():.3e} below the resolved range "
                f"[{self.fs[-1]:.3e}, 1]; extend the table"
            )
        lp = np.log(np.minimum(p, 1.0))
        # Walk the probabilities in ascending order, so that np.interp and the
        # interval lookups find each interval next to the last one instead of
        # by a full binary search, and in blocks of _NEWTON_BLOCK, so that a
        # step's temporaries stay in cache. Every step is elementwise and the
        # stop test is a max over all the values, so the bits depend on
        # neither the order nor the blocks.
        order = np.argsort(lp)
        lp = lp[order]
        # Initial guess from the dense grid, then Newton on ln F (C^1, strictly
        # decreasing), clipped to the table.
        t = np.interp(lp, self._dense_l[::-1], self._dense_t[::-1])
        for _ in range(60):
            top_step = top_t = 0.0  # np.maximum keeps a NaN, as np.max does
            for lo in range(0, t.size, _NEWTON_BLOCK):
                tb = t[lo:lo + _NEWTON_BLOCK]
                step, slope = self._log_f_and_slope(tb)
                step -= lp[lo:lo + _NEWTON_BLOCK]
                step /= slope
                tb -= step
                np.clip(tb, self.ts[0], self.ts[-1], out=tb)
                top_step = np.maximum(top_step, np.max(np.abs(step)))
                top_t = np.maximum(top_t, np.max(tb))
            if top_step <= 1e-13 * max(1.0, float(top_t)):
                break
        lp[order] = t  # back to the caller's order, in an array no longer read
        return lp

    def mean_abs(self) -> float:
        return self._mean_abs

    def _sample(self, rng, count):
        u = 1.0 - rng.random(count)  # in (0, 1]
        if np.any(u < self.fs[-1]):
            raise TabulationError(
                "sampling hit the unresolved tail of the table; extend the table"
            )
        magnitude = self._quantile(u)
        sign = np.where(rng.random(count) < 0.5, -1.0, 1.0)
        return sign * magnitude

    def upper_limit(self) -> float:
        return float(self.ts[-1])

    def n_is_convex(self) -> bool:
        return self._n_convex

    def describe(self) -> str:
        return f"table(n={len(self.ts)}, tmax={self.ts[-1]:g})"


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def parse_distribution(spec: str) -> DistributionModel:
    """Parse a CLI distribution spec: ``gaussian``, ``symexp:<rate>``, ``table:<path>``."""
    spec = spec.strip()
    if spec == "gaussian":
        return Gaussian()
    if spec == "symexp":
        return SymExponential()
    if spec.startswith("symexp:"):
        try:
            rate = float(spec.split(":", 1)[1])
        except ValueError:
            raise DomainError(f"invalid symexp rate in {spec!r}") from None
        return SymExponential(rate=rate)
    if spec.startswith("table:"):
        return TabulatedSurvival.from_csv(spec.split(":", 1)[1])
    raise DomainError(
        f"unknown distribution spec {spec!r}; expected gaussian, symexp:<rate>, or table:<path>"
    )


def check_tail_integral_bound(model: DistributionModel, t: float) -> CheckResult:
    """Check tail_integral(t) <= (1 + 1/N(t)) * t * F(t) for log-concave models.

    Valid whenever N = -ln F is convex; both sides are returned.
    """
    _positive(t, "t of the check")
    n = model.neg_log_survival(t)
    if not (n > 0):
        raise DomainError(f"check requires N(t) > 0, got N({t}) = {n}")
    lhs = model.tail_integral(t)
    rhs = (1.0 + 1.0 / n) * t * model.survival(t)
    return CheckResult(
        name="tail_integral_bound",
        ok=bool(lhs <= rhs + 1e-9),
        lhs=float(lhs),
        rhs=float(rhs),
        detail={"t": float(t), "n_at_t": float(n), "model": model.describe()},
    )

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

A table resolves F up to its last knot t_max: t/scale past t_max * (1 +
1e-12) is beyond it, and t up to that is clipped to t_max. There the public
primitives refuse, and the raw kernels the Orlicz handles call read F = 0
(N = +inf, tail integral 0). On the table, the tail integral costs no
quadrature per call: it is read off a piecewise polynomial fit of F's
partial integrals, made when the table loads. That fit is the only
integral of F a table takes; E|xi| is its tail integral at 0. F itself
keeps the bits of scipy's PCHIP.

Built-in families: standard Gaussian, symmetric exponential (Laplace), and
a tabulated survival function loaded from a two-column ``t,F`` CSV. Models
are immutable; rescaling |xi| by a constant is done through ``scaled_by``,
which is what the bound routines use to normalize E|xi| = 1.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TabulationError, _integer_in, _positive
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
    """Common scale-aware interface; families implement the ``_std_*`` hooks
    for the unscaled (scale = 1) variable."""

    scale: float

    def __post_init__(self):
        """Check the parameters where they are stored: every copy made by
        ``scaled_by`` passes here, so no chain of scalings reaches a scale
        of inf or 0."""
        _positive(self.scale, "scale")

    # -- public, scale-aware operations ------------------------------------
    #
    # Each primitive the Orlicz handles evaluate (survival, neg_log_survival,
    # tail_integral) is ``_prepare`` plus a raw part (``_survival``, ...) on
    # an already validated float array: no NaN, nothing negative, nothing
    # past a table. The handles call the raw parts, so a solve validates
    # once, at its entry. At scale 1.0 the raw parts skip t / scale and
    # scale *, which are exact there. The tail integral's raw part is the
    # first half of the moment kernel, ``_tail_integral_and_survival``.

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
        lim = self._std_upper_limit()
        if math.isfinite(lim) and not np.all(_within(arr / self.scale, lim)):
            raise TabulationError(
                f"t={float(np.max(arr)):g} beyond tabulated range "
                f"[0, {lim * self.scale:g}]; extrapolation refused"
            )
        return arr, scalar

    def survival(self, t):
        """F(t) = P(|xi| > t); strictly decreasing, F(0) = 1."""
        arr, scalar = self._prepare(t)
        return _ret(self._survival(arr), scalar)

    def _survival(self, t: np.ndarray) -> np.ndarray:
        return self._std_survival(t if self.scale == 1.0 else t / self.scale)

    def neg_log_survival(self, t):
        """N(t) = -ln F(t)."""
        arr, scalar = self._prepare(t)
        return _ret(self._neg_log_survival(arr), scalar)

    def _neg_log_survival(self, t: np.ndarray) -> np.ndarray:
        return self._std_neg_log_survival(t if self.scale == 1.0 else t / self.scale)

    def quantile(self, p):
        """Inverse of F: the t with F(t) = p, for p in (0, 1]."""
        arr = np.asarray(p, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        if np.any(np.isnan(arr)) or np.any(arr <= 0) or np.any(arr > 1):
            raise DomainError("quantile requires probabilities in (0, 1]")
        return _ret(self.scale * self._std_quantile(arr), scalar)

    def tail_integral(self, t):
        """First-moment tail mass: integral of |xi| over {|xi| >= t}."""
        arr, scalar = self._prepare(t)
        with np.errstate(invalid="ignore"):  # inf * 0 at t = inf, read as 0
            return _ret(self._tail_integral(arr), scalar)

    def _tail_integral(self, t: np.ndarray) -> np.ndarray:
        return self._tail_integral_and_survival(t)[0]

    def _tail_integral_and_survival(self, t: np.ndarray):
        """(``_tail_integral(t)``, ``_survival(t)``): the two kernels the
        moment function M combines, from one call of the family's
        ``_std_tail_and_survival``. The one place the moment kernel applies
        ``scale``."""
        if self.scale == 1.0:
            return self._std_tail_and_survival(t)
        tail, surv = self._std_tail_and_survival(t / self.scale)
        return self.scale * tail, surv

    def mean_abs(self) -> float:
        """E|xi| = tail_integral(0)."""
        return self.scale * self._std_mean_abs()

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` i.i.d. draws of xi (signed), in a new array the caller
        may overwrite. Deterministic given the generator state; a stream
        must be owned by a single consumer."""
        count = _integer_in(count, "sample count", 1, error=DomainError)
        out = self._std_sample(rng, count)
        out *= self.scale
        return out

    def scaled_by(self, factor: float) -> "DistributionModel":
        """Model of factor*xi (survival F(t / factor))."""
        return dataclasses.replace(self, scale=self.scale * factor)

    def normalized(self) -> "DistributionModel":
        """Rescaled copy with E|xi| = 1."""
        return self.scaled_by(1.0 / self.mean_abs())

    def upper_limit(self) -> float:
        """Largest t with F resolved (inf for analytic families)."""
        return self.scale * self._std_upper_limit()

    def n_is_convex(self) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    # -- hooks for concrete families ---------------------------------------

    def _std_survival(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _std_neg_log_survival(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _std_quantile(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _std_tail_and_survival(self, u: np.ndarray):
        """(tail integral, F) of the unscaled variable at u, which may hold
        +inf (both read 0 there)."""
        raise NotImplementedError

    def _std_mean_abs(self) -> float:
        raise NotImplementedError

    def _std_sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        raise NotImplementedError

    def _std_upper_limit(self) -> float:
        return math.inf


@dataclass(frozen=True)
class Gaussian(DistributionModel):
    """Standard normal xi; survival F(t) = erfc(t / sqrt 2).

    Survival goes through the complementary error function (and log_ndtr for
    N at large t) rather than quadrature; quadrature is kept as the oracle in
    the test suite.
    """

    scale: float = 1.0

    def _std_survival(self, u):
        return _special().erfc(u / _SQRT2)

    def _std_neg_log_survival(self, u):
        # F = 2*Phi(-t)  =>  ln F = ln 2 + log_ndtr(-t); precise for large t.
        return -(_LN2 + _special().log_ndtr(-u))

    def _std_quantile(self, p):
        return _SQRT2 * _special().erfcinv(p)

    def _std_tail_and_survival(self, u):
        return _SQRT_2_OVER_PI * np.exp(-0.5 * u * u), self._std_survival(u)

    def _std_mean_abs(self):
        return _SQRT_2_OVER_PI

    def _std_sample(self, rng, count):
        return rng.standard_normal(count)

    def n_is_convex(self) -> bool:
        return True

    def describe(self) -> str:
        return "gaussian" if self.scale == 1.0 else f"gaussian*{self.scale:g}"


@dataclass(frozen=True)
class SymExponential(DistributionModel):
    """Symmetric exponential (Laplace) xi: |xi| ~ Exp(rate), F(t) = exp(-rate*t)."""

    rate: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        _positive(self.rate, "rate")
        if not (1.0 / self.rate < math.inf):
            raise DomainError(
                f"rate {self.rate!r} is too small: its reciprocal, the mean E|xi|, "
                "overflows the float range"
            )

    def _std_survival(self, u):
        return np.exp(-self.rate * u)

    def _std_neg_log_survival(self, u):
        return self.rate * u

    def _std_quantile(self, p):
        return -np.log(p) / self.rate

    def _std_tail_and_survival(self, u):
        # (u + 1/rate) F(u), with one exp for both kernels. At u = inf the
        # product is inf * 0 = nan; fmax reads it as the limit 0 and leaves
        # every other value, all >= 0, as it is. Below a rate of about
        # 1e-292, u + 1/rate can overflow for a finite u although the product
        # is about 0.5: there it is formed as u F + F / rate.
        f = np.exp(-self.rate * u)
        out = (u + 1.0 / self.rate) * f
        if math.isinf(sys.float_info.max + 1.0 / self.rate):
            band = np.isinf(u + 1.0 / self.rate) & np.isfinite(u)
            out[band] = u[band] * f[band] + f[band] / self.rate
        return np.fmax(out, 0.0), f

    def _std_mean_abs(self):
        return 1.0 / self.rate

    def _std_sample(self, rng, count):
        return rng.laplace(0.0, 1.0 / self.rate, count)

    def n_is_convex(self) -> bool:
        return True  # N(t) = rate*t is linear

    def describe(self) -> str:
        base = f"symexp(rate={self.rate:g})"
        return base if self.scale == 1.0 else f"{base}*{self.scale:g}"


def _partial_integral_fit(interp):
    """(cuts, pieces, cum_tail): the fit from which
    ``_TabulatedCore.tail_and_survival`` reads integral_u^{tmax} F, made
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

    ``cuts`` holds the pieces' left ends but the first. ``pieces`` holds one
    column per piece: x_j and the cubic's c3, c2, c1, c0 of its knot
    interval (F's bits come from scipy's cubic, not from the fit), b, 2 /
    (b - a), the integral C of F from b to t_max, and g's coefficients, the
    highest power first. The piece count is the knot count plus about the
    total spread over ``_PIECE_SPREAD``; F > 0 holds ln F's fall below 745.

    Each piece's integral, (b - a) times its Gauss-Legendre mean, is summed
    once from the right. That one running sum gives every C and
    ``cum_tail``, the integral of F from each knot to t_max (0 at t_max).
    """
    x, c = interp.x, interp.c
    h = np.diff(x)
    c0, c1, c2 = c[0], c[1], c[2]  # of s^3, s^2, s with s = t - x_j
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
        vals = np.exp(interp(right[:, None] - span[:, None] * at))
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

    pieces = np.vstack((x[knot], c[3, knot], c[2, knot], c[1, knot], c[0, knot], right,
                        2.0 / width, const, coef[::-1]))
    return left[1:].copy(), pieces, cum_tail


class _TabulatedCore:
    """Immutable interpolation and fit state shared by scaled copies.

    ln F is interpolated by a monotone piecewise cubic (PCHIP), which
    preserves the strict decrease of the data and keeps the convexity check
    on N = -ln F meaningful. Beyond the table nothing is invented: F reads 0.
    The integrals of F all come from one load-time computation, the fit of
    the partial integrals (``_partial_integral_fit``): it also gives the
    integral from each knot to t_max (``cum_tail``), and E|xi| is the
    fitted kernel's own tail integral at 0. A moment-kernel call does no
    quadrature.
    """

    def __init__(self, ts: np.ndarray, fs: np.ndarray, rows=None):
        # Imported here: scipy.interpolate is most of the package's import
        # time, and only tabulated models need it.
        from scipy import interpolate

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
        try:
            # scipy rejects NaN or infinite data, and spacings near the float
            # limit that overflow its slope formula, with ValueError.
            with np.errstate(over="ignore", invalid="ignore"):
                self.interp = interpolate.PchipInterpolator(ts, self.log_fs, extrapolate=False)
        except ValueError as exc:
            raise TabulationError(f"cannot interpolate ln F through the table: {exc}") from None
        self.dinterp = self.interp.derivative()

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
        self.dense_t = np.linspace(ts[0], ts[-1], 4097)
        self.dense_l = self.interp(self.dense_t)

        # Convexity flag for N = -ln F: second differences on a ~200-point
        # grid and on the knots themselves must stay above -1e-9.
        grid = np.linspace(ts[0], ts[-1], _VALIDATION_POINTS)
        nn = -self.interp(grid)
        d2 = nn[2:] - 2 * nn[1:-1] + nn[:-2]
        nk = -self.log_fs
        hk = np.diff(ts)
        d2k = (nk[2:] - nk[1:-1]) / hk[1:] - (nk[1:-1] - nk[:-2]) / hk[:-1]
        self.n_convex = bool(np.all(d2 >= _CONVEXITY_SLACK) and np.all(d2k >= _CONVEXITY_SLACK))

        self._cuts, self._pieces, self.cum_tail = _partial_integral_fit(self.interp)
        # E|xi| up to the truncation bound, read off the kernel itself, so
        # that it equals tail_integral(0) to the bit.
        self.mean_abs = float(self.tail_and_survival(np.zeros(1))[0, 0])

    def tail_and_survival(self, u: np.ndarray) -> np.ndarray:
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
        s = u - x
        ss = s * s
        f = c2 * s
        f += c3
        f += c1 * ss
        ss *= s
        ss *= c0
        f += ss
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

    def quantile(self, p: np.ndarray) -> np.ndarray:
        if np.any(p < self.fs[-1] * (1 - 1e-12)):
            raise TabulationError(
                f"quantile {p.min():.3e} below the resolved range "
                f"[{self.fs[-1]:.3e}, 1]; extend the table"
            )
        lp = np.log(np.minimum(p, 1.0))
        # Walk the probabilities in ascending order, so that np.interp and the
        # PCHIP evaluation find each interval next to the last one instead of
        # by binary search. Every step is elementwise and the stop test is a
        # max over the same values, so the bits do not depend on the order.
        order = np.argsort(lp)
        lp = lp[order]
        # Initial guess from the dense grid, then Newton on ln F (C^1, strictly
        # decreasing), clipped to the table.
        t = np.interp(lp, self.dense_l[::-1], self.dense_t[::-1])
        for _ in range(60):
            resid = self.interp(t) - lp
            deriv = self.dinterp(t)
            step = resid / deriv
            t = np.clip(t - step, self.ts[0], self.ts[-1])
            if np.max(np.abs(step)) <= 1e-13 * max(1.0, float(np.max(t))):
                break
        lp[order] = t  # back to the caller's order, in an array no longer read
        return lp


class TabulatedSurvival(DistributionModel):
    """Survival function given by a table of (t, F(t)) pairs.

    Construction validates the table (strictly increasing t, F(0)=1, F
    strictly decreasing in (0,1]) and refuses tables with non-negligible
    unresolved tail mass. Public requests beyond the table raise; the raw
    kernels read F = 0 there. Nothing is extrapolated.
    """

    def __init__(self, ts, fs, scale: float = 1.0, _core: _TabulatedCore | None = None,
                 rows=None):
        self.scale = float(scale)
        self.__post_init__()
        self._core = _core if _core is not None else _TabulatedCore(ts, fs, rows=rows)

    @classmethod
    def from_csv(cls, path) -> "TabulatedSurvival":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise TabulationError(f"cannot read table {path}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise TabulationError(f"{path}: not UTF-8 text: {exc}") from None
        ts, fs, rows = [], [], []
        for lineno, raw in enumerate(text.split("\n"), start=1):
            line = raw.strip()
            if not line:
                continue
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

    def scaled_by(self, factor: float) -> "TabulatedSurvival":
        return TabulatedSurvival(None, None, scale=self.scale * factor, _core=self._core)

    def _on_table(self, u: np.ndarray, kernel, past: float) -> np.ndarray:
        """``kernel(min(u, t_max))`` where the table resolves u, ``past``
        elsewhere. Only the resolved entries are evaluated; a kernel may
        return several values per entry, stacked along a leading axis. In
        the common case one maximum shows that every entry is on the table,
        where there is nothing to clip (NaN fails the test and takes the
        masked path)."""
        lim = self._core.ts[-1]
        if u.max(initial=0.0) <= lim:
            return kernel(u)
        inside = _within(u, lim)
        vals = kernel(np.minimum(u[inside], lim))
        out = np.full(vals.shape[:-1] + u.shape, past)
        out[..., inside] = vals
        return out

    def _std_survival(self, u):
        return self._on_table(u, lambda r: np.exp(self._core.interp(r)), 0.0)

    def _std_neg_log_survival(self, u):
        return self._on_table(u, lambda r: -self._core.interp(r), math.inf)

    def _std_upper_limit(self) -> float:
        return float(self._core.ts[-1])

    def _std_quantile(self, p):
        return self._core.quantile(p)

    def _std_tail_and_survival(self, u):
        return self._on_table(u, self._core.tail_and_survival, 0.0)

    def _std_mean_abs(self):
        return self._core.mean_abs

    def _std_sample(self, rng, count):
        u = 1.0 - rng.random(count)  # in (0, 1]
        if np.any(u < self._core.fs[-1]):
            raise TabulationError(
                "sampling hit the unresolved tail of the table; extend the table"
            )
        magnitude = self._core.quantile(u)
        sign = np.where(rng.random(count) < 0.5, -1.0, 1.0)
        return sign * magnitude

    def n_is_convex(self) -> bool:
        return self._core.n_convex

    def describe(self) -> str:
        core = self._core
        base = f"table(n={len(core.ts)}, tmax={core.ts[-1]:g})"
        return base if self.scale == 1.0 else f"{base}*{self.scale:g}"


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

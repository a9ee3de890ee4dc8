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
(N = +inf, tail integral 0).

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

from .errors import DomainError, QuadratureError, TabulationError
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

# Tolerances for the adaptive quadrature used by the tabulated family. The
# bound formulas downstream are inverted by root-finding, so integral error
# must sit far below the root tolerances.
QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-8

# Unresolved tail mass (beyond the last table knot) above which a table is
# refused rather than extrapolated.
_MAX_TRUNCATION = 1e-9

_CONVEXITY_SLACK = -1e-9
_VALIDATION_POINTS = 201


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

    family = "abstract"
    scale: float

    # -- public, scale-aware operations ------------------------------------
    #
    # Each primitive the Orlicz handles evaluate (survival, neg_log_survival,
    # tail_integral) is ``_prepare`` plus a raw part (``_survival``, ...) on
    # an already validated float array: no NaN, nothing negative, nothing
    # past a table. The handles call the raw parts, so a solve validates
    # once, at its entry.

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
        return self._std_survival(t / self.scale)

    def neg_log_survival(self, t):
        """N(t) = -ln F(t)."""
        arr, scalar = self._prepare(t)
        return _ret(self._neg_log_survival(arr), scalar)

    def _neg_log_survival(self, t: np.ndarray) -> np.ndarray:
        return self._std_neg_log_survival(t / self.scale)

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
        return self.scale * self._std_tail_integral(t / self.scale)

    def _tail_integral_and_survival(self, t: np.ndarray):
        """(``_tail_integral(t)``, ``_survival(t)``): the two kernels the
        moment function M combines, from one call. Tables override it to
        resolve t once and reuse the F the tail integral computes."""
        return self._tail_integral(t), self._survival(t)

    def mean_abs(self) -> float:
        """E|xi| = tail_integral(0)."""
        return self.scale * self._std_mean_abs()

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` i.i.d. draws of xi (signed), in a new array the caller
        may overwrite. Deterministic given the generator state; a stream
        must be owned by a single consumer."""
        if count < 1:
            raise DomainError(f"sample count must be >= 1, got {count}")
        out = self._std_sample(rng, int(count))
        out *= self.scale
        return out

    def scaled_by(self, factor: float) -> "DistributionModel":
        """Model of factor*xi (survival F(t / factor))."""
        if not (factor > 0) or not math.isfinite(factor):
            raise DomainError(f"scale factor must be positive, got {factor}")
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

    def _std_tail_integral(self, u: np.ndarray) -> np.ndarray:
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
    family = "gaussian"

    def _std_survival(self, u):
        return _special().erfc(u / _SQRT2)

    def _std_neg_log_survival(self, u):
        # F = 2*Phi(-t)  =>  ln F = ln 2 + log_ndtr(-t); precise for large t.
        return -(_LN2 + _special().log_ndtr(-u))

    def _std_quantile(self, p):
        return _SQRT2 * _special().erfcinv(p)

    def _std_tail_integral(self, u):
        return _SQRT_2_OVER_PI * np.exp(-0.5 * u * u)

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
    family = "sym_exponential"

    def __post_init__(self):
        if not (self.rate > 0) or not math.isfinite(self.rate):
            raise DomainError(f"rate must be positive, got {self.rate}")
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

    def _std_tail_integral(self, u):
        return self._tail_from_survival(u, np.exp(-self.rate * u))

    def _tail_from_survival(self, u, f):
        # (u + 1/rate) F(u). At u = inf the product is inf * 0 = nan; fmax
        # reads it as the limit 0 and leaves every other value, all >= 0, as
        # it is. Below a rate of about 1e-292, u + 1/rate can overflow for a
        # finite u although the product is about 0.5: there it is formed as
        # u F + F / rate.
        out = (u + 1.0 / self.rate) * f
        if math.isinf(sys.float_info.max + 1.0 / self.rate):
            band = np.isinf(u + 1.0 / self.rate) & np.isfinite(u)
            out[band] = u[band] * f[band] + f[band] / self.rate
        return np.fmax(out, 0.0)

    def _tail_integral_and_survival(self, t):
        # One exp serves both kernels: F(u) is the tail integral's factor.
        u = t / self.scale
        f = np.exp(-self.rate * u)
        return self.scale * self._tail_from_survival(u, f), f

    def _std_mean_abs(self):
        return 1.0 / self.rate

    def _std_sample(self, rng, count):
        return rng.laplace(0.0, 1.0 / self.rate, count)

    def n_is_convex(self) -> bool:
        return True  # N(t) = rate*t is linear

    def describe(self) -> str:
        base = f"symexp(rate={self.rate:g})"
        return base if self.scale == 1.0 else f"{base}*{self.scale:g}"


class _TabulatedCore:
    """Immutable interpolation/quadrature state shared by scaled copies.

    ln F is interpolated by a monotone piecewise cubic (PCHIP), which
    preserves the strict decrease of the data and keeps the convexity check
    on N = -ln F meaningful. Beyond the table nothing is invented: F reads 0.
    """

    def __init__(self, ts: np.ndarray, fs: np.ndarray, rows=None):
        # Imported here: scipy.integrate and scipy.interpolate are most of the
        # package's import time, and only tabulated models need them.
        from scipy import integrate, interpolate

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
            raise QuadratureError(
                f"table too short: unresolved tail mass bound {trunc:.3e} exceeds "
                f"{_MAX_TRUNCATION:g}; extend the table to larger t",
                achieved_tol=trunc,
            )
        self.truncation_bound = trunc

        # Cumulative integral of F from each knot to t_max, via adaptive
        # quadrature per interval.
        f_of = lambda s: math.exp(float(self.interp(s)))
        seg = np.empty(len(ts) - 1)
        worst = 0.0
        for i in range(len(ts) - 1):
            val, err = integrate.quad(
                f_of, ts[i], ts[i + 1], epsabs=1e-13, epsrel=1e-11, limit=200
            )
            seg[i] = val
            worst = max(worst, err)
        if worst > QUAD_ABS_TOL:
            raise QuadratureError(
                f"table quadrature did not converge: worst interval error {worst:.3e} "
                f"exceeds {QUAD_ABS_TOL:g}",
                achieved_tol=worst,
            )
        self.cum_tail = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
        self.mean_abs = float(self.cum_tail[0])  # = E|xi| up to the truncation bound

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

        # 21-point Gauss-Legendre rule for within-interval partial integrals.
        nodes, weights = np.polynomial.legendre.leggauss(21)
        self._gl_nodes = nodes
        self._gl_weights = weights

    def integral_f_to_end(self, u: np.ndarray) -> np.ndarray:
        """integral_u^{tmax} F(s) ds, vectorized over u in [0, tmax]."""
        ts = self.ts
        j = np.clip(np.searchsorted(ts, u, side="right") - 1, 0, len(ts) - 2)
        a = u
        b = ts[j + 1]
        half = 0.5 * (b - a)
        mid = 0.5 * (b + a)
        pts = mid[:, None] + half[:, None] * self._gl_nodes[None, :]
        vals = np.exp(self.interp(pts))
        partial = half * (vals @ self._gl_weights)
        # u exactly at (or numerically past) a knot: partial over empty interval
        partial = np.where(b > a, partial, 0.0)
        return partial + self.cum_tail[j + 1]

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

    family = "tabulated"

    def __init__(self, ts, fs, scale: float = 1.0, _core: _TabulatedCore | None = None,
                 rows=None):
        self._core = _core if _core is not None else _TabulatedCore(ts, fs, rows=rows)
        self.scale = float(scale)

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
        if not (factor > 0) or not math.isfinite(factor):
            raise DomainError(f"scale factor must be positive, got {factor}")
        return TabulatedSurvival(None, None, scale=self.scale * factor, _core=self._core)

    def _on_table(self, u: np.ndarray, kernel, past: float) -> np.ndarray:
        """``kernel(min(u, t_max))`` where the table resolves u, ``past``
        elsewhere. Only the resolved entries are evaluated; a kernel may
        return several values per entry, stacked along a leading axis."""
        lim = self._core.ts[-1]
        inside = _within(u, lim)
        if np.all(inside):
            return kernel(np.minimum(u, lim))
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

    def _std_tail_integral(self, u):
        core = self._core
        return self._on_table(
            u, lambda r: r * np.exp(core.interp(r)) + core.integral_f_to_end(r), 0.0
        )

    def _tail_integral_and_survival(self, t):
        core = self._core

        def both(r):
            f = np.exp(core.interp(r))
            return np.stack((r * f + core.integral_f_to_end(r), f))

        tail, surv = self._on_table(t / self.scale, both, 0.0)
        return self.scale * tail, surv

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
    if not (t > 0):
        raise DomainError(f"check requires t > 0, got {t}")
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

"""Extended-value Orlicz functions, the norm functional, and Young conjugates.

An Orlicz function is a left-continuous convex M: [0, inf) -> [0, inf] with
M(0) = 0, neither identically 0 nor the 0/inf indicator. The associated norm
on R^n is the implicit scaling

    ||x||_M = inf { rho > 0 : sum_i M(|x_i| / rho) <= 1 },

computed here by bisection on rho. The starting bracket comes from one
vectorised probe of the function on the grid 2^-199 ... 2^199. The modular
sum is nonincreasing in rho, so each "is rho feasible?" is answered from a
known bracket a < rho* <= b where it can be, and a safeguarded Illinois
iteration on log rho first narrows that bracket to the bisection's
tolerance. The bisection then evaluates only the one or two midpoints that
fall inside it and returns the feasible end of its last bracket. That is
the float a plain bisection returns, bit for bit, wherever the computed
modular sum does not increase with rho. The moment function's sums carry
rounding noise from the cancellation in s E[|xi|; |xi| > 1/s] - F(1/s)
(about 1e-10), and there the result can differ from a plain bisection's by
about 1e-12 relative. +inf is an explicit value,
returned by the function itself past its domain: a single infinite term
makes the modular sum infinite, which keeps brackets well-defined there.

Long vectors (n >= 4096, ``_STEER_MIN_N``) are steered: a solve on a
512-entry surrogate (the 128 largest entries and a strided sample of the
rest, each standing for its stratum) guesses rho*, and the guess and one
Newton step from it get the first full modular sums, so the bracket is
narrow before the loops start. The loops, the Illinois iteration and the
bisection ask the same predicate as before, and a steered bracket only
answers what a full sum would answer, so the returned float keeps its bits
while moment functions take 4-6 full sums instead of 15-18.

The result is 0.0 only when a limit test, n * fun(inf) <= 1, shows that the
modular sum never exceeds 1. A bracket loop that runs out of its 200 steps
keeps moving rho by factors of 2^64 to the ends of the float range rather
than concluding "unbounded" or "infimum 0". The upper end starts no higher
than the largest float, so every solve runs on x itself, and the result is
+inf only when the largest float is infeasible.

Arguments are validated once, at the public entry points: ``orlicz_norm``
checks the vector, ``OrliczFunction.values`` and ``__call__`` refuse NaN
and negative arguments. ``evaluate`` and the distribution handles' kernels
(the models' raw ``_survival``, ``_neg_log_survival``, ``_tail_integral``)
check nothing, so a modular sum pays for the arithmetic alone. Past a
table's last knot the kernels read F = 0, so the handles need no mask.

The same functional is defined for merely positive increasing functions; such
handles carry ``is_orlicz=False`` and the functional need not be a norm (it
can even be 0 when the function is bounded and the modular sum never reaches
1 -- the solver returns that infimum honestly).

Distribution-derived instances:

  expected_overshoot_function(model)   M(s) = E(s|xi| - 1)_+
  neg_log_survival_function(model)     N(t) = -ln F(t)
  reciprocal_survival_function(model,k)  F(1/t) / (4(k-1)), increasing, not convex
  gaussian_comparison_function()       t below 1, t^2 from 1 on

M is evaluated through the identity M(s) = s * tail_integral(1/s) - F(1/s)
(integration by parts of the defining double integral), so no quadrature is
needed per call beyond what the model itself does.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .distributions import DistributionModel
from .errors import (
    DomainError,
    NonConvexError,
    NumericError,
    RangeError,
    UnboundedNormError,
)

__all__ = [
    "OrliczFunction",
    "Weights",
    "linear_function",
    "power_function",
    "gaussian_comparison_function",
    "from_callable",
    "expected_overshoot_function",
    "neg_log_survival_function",
    "reciprocal_survival_function",
    "orlicz_norm",
    "young_conjugate",
]

NORM_REL_TOL = 1e-12
_CONJUGATE_TOL = 1e-10
_MAX_DOUBLINGS = 200
# Past a 200-step bracket loop, rho moves by this factor to the ends of the
# float range: _HUGE, the largest float, and 0.
_EXPONENT_STEP = 2.0**64
_HUGE = sys.float_info.max
# The probe grid 2^-199 ... 2^199, then +inf; _PROBES[_ONE] == 1.0.
_PROBES = np.append(np.ldexp(1.0, np.arange(1 - _MAX_DOUBLINGS, _MAX_DOUBLINGS)), math.inf)
_ONE = _MAX_DOUBLINGS - 1
# Steering: vectors of at least _STEER_MIN_N entries are first solved on a
# surrogate of _STEER_M entries, the _STEER_TOP largest and a strided sample
# of the rest; the surrogate's slope is read over a step of _STEER_H in rho,
# and the Newton step from the guess is lengthened by _STEER_OVERSHOOT of
# itself so that it lands past the root.
_STEER_MIN_N = 4096
_STEER_M = 512
_STEER_TOP = 128
_STEER_H = 1.0 + 1e-4
_STEER_OVERSHOOT = 0.1


@dataclass(frozen=True)
class OrliczFunction:
    """Immutable handle for an extended-value function on [0, inf).

    ``kind`` names the construction; ``is_orlicz`` records convexity (handles
    built from non-convex data carry False and are treated as functionals,
    not norms). ``model`` is set for distribution-derived moment functions
    and enables the analytic conjugate shortcut.
    """

    kind: str
    label: str
    evaluate: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    is_orlicz: bool = True
    model: Optional[DistributionModel] = field(default=None, repr=False)

    def values(self, t) -> np.ndarray:
        """The function at each entry of t, in the shape of t, validated
        here: NaN or a negative entry raises DomainError. ``evaluate`` itself
        does no checking, and may return a scalar's value as shape (1,). It
        runs under the norm solver's errstate, so an overflow inside a
        handle (1/t for a subnormal t) reads as its limit, without a warning."""
        arr = np.asarray(t, dtype=float)
        if np.any(np.isnan(arr)):
            raise DomainError(f"{self.label} is defined on [0, inf); got nan")
        if arr.size and float(np.min(arr)) < 0:
            raise DomainError(f"{self.label} is defined on [0, inf); got {np.min(arr)}")
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return np.asarray(self.evaluate(arr), dtype=float).reshape(arr.shape)

    def __call__(self, t: float) -> float:
        return float(self.values(np.atleast_1d(np.asarray(t, dtype=float)))[0])

    def scaled(self, factor: float) -> "OrliczFunction":
        """Pointwise factor * self. Convexity is preserved."""
        if not (factor > 0) or not math.isfinite(factor):
            raise DomainError(f"scale factor must be positive, got {factor}")
        if factor == 1.0:
            return self
        base = self

        def _eval(t, _b=base, _f=factor):
            return _f * _b.evaluate(t)

        return OrliczFunction(
            kind="scaled",
            label=f"{factor:g}*{base.label}",
            evaluate=_eval,
            is_orlicz=base.is_orlicz,
        )


def linear_function() -> OrliczFunction:
    return OrliczFunction(kind="linear", label="t", evaluate=lambda t: t)


def power_function(q: float) -> OrliczFunction:
    """M(t) = t**q for q >= 1."""
    if q < 1:
        raise RangeError(f"power function requires exponent q >= 1, got {q}")
    return OrliczFunction(kind="power", label=f"t^{q:g}", evaluate=lambda t: t**q)


def gaussian_comparison_function() -> OrliczFunction:
    """Two-piece comparison function: t on [0, 1), t^2 from 1 on."""
    return OrliczFunction(
        kind="gaussian_comparison",
        label="min(t,t^2)-kink",
        evaluate=lambda t: np.where(t < 1.0, t, t * t),
    )


def from_callable(
    fn: Callable[[np.ndarray], np.ndarray],
    *,
    label: str = "custom",
    is_orlicz: bool = True,
) -> OrliczFunction:
    """Wrap a vectorized callable. The caller asserts convexity via ``is_orlicz``.
    A function that is +inf past some b returns inf there from ``fn``."""
    return OrliczFunction(kind="explicit", label=label, evaluate=fn, is_orlicz=is_orlicz)


def expected_overshoot_function(model: DistributionModel) -> OrliczFunction:
    """The Orlicz function M(s) = E(s|xi| - 1)_+ of a model with E|xi| < inf.

    Evaluated via M(s) = s * tail_integral(1/s) - F(1/s); M(0) = 0. For
    tabulated models, thresholds 1/s beyond the table contribute at most the
    table's certified truncation bound, so the kernels' F = 0 there gives 0.
    """

    def _eval(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros(t.shape)
        pos = t > 0.0
        tp = t[pos]
        if tp.size:
            tail, surv = model._tail_integral_and_survival(1.0 / tp)
            out[pos] = tp * tail - surv
        return np.maximum(out, 0.0)

    return OrliczFunction(
        kind="moment",
        label=f"M[{model.describe()}]",
        evaluate=_eval,
        is_orlicz=True,
        model=model,
    )


def neg_log_survival_function(
    model: DistributionModel, *, require_convex: bool = True
) -> OrliczFunction:
    """N(t) = -ln F(t). Convex exactly when the model is log-concave.

    With ``require_convex`` (default) a model failing the grid convexity
    check is rejected; pass False to obtain the functional anyway, flagged
    ``is_orlicz=False``. Beyond a tabulated model's range the value is +inf
    (a loaded table guarantees N(t_max) > 1, so this cannot flip a modular
    sum across the budget 1).
    """
    convex = model.n_is_convex()
    if require_convex and not convex:
        raise NonConvexError(
            f"negative log-survival of {model.describe()} fails the grid convexity check"
        )

    return OrliczFunction(
        kind="neg_log_survival",
        label=f"N[{model.describe()}]",
        evaluate=model._neg_log_survival,
        is_orlicz=convex,
    )


def reciprocal_survival_function(model: DistributionModel, k: int) -> OrliczFunction:
    """F(1/t) / (4(k-1)) for k >= 2: positive and increasing, not convex.

    The associated functional is computed with the non-norm flag; it is
    bounded by 1/(4(k-1)), so the functional can legitimately be 0. Where 1/t
    lies past a tabulated model's range the value is 0.
    """
    if k < 2:
        raise RangeError(f"reciprocal survival function requires k >= 2, got {k}")

    def _eval(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros(t.shape)
        pos = t > 0.0
        tp = t[pos]
        if tp.size:
            out[pos] = model._survival(1.0 / tp) / (4.0 * (k - 1))
        return out

    return OrliczFunction(
        kind="reciprocal_survival",
        label=f"NF{k}[{model.describe()}]",
        evaluate=_eval,
        is_orlicz=False,
    )


@dataclass(frozen=True)
class Weights:
    """Validated vector of positive weights with a declared sort order."""

    values: np.ndarray
    order: str  # "ascending" | "descending"

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", arr)
        if self.order not in ("ascending", "descending"):
            raise DomainError(f"order must be ascending or descending, got {self.order!r}")
        _validate_weights(arr)
        diffs = np.diff(arr)
        viol = diffs < 0 if self.order == "ascending" else diffs > 0
        where = np.flatnonzero(viol)
        if where.size:
            i = int(where[0])
            raise DomainError(
                f"weights not in {self.order} order: entry {i + 2} ({arr[i + 1]}) "
                f"violates entry {i + 1} ({arr[i]})"
            )

    @classmethod
    def ascending(cls, values) -> "Weights":
        return cls(np.asarray(values, dtype=float), "ascending")

    @classmethod
    def descending(cls, values) -> "Weights":
        return cls(np.asarray(values, dtype=float), "descending")

    def __len__(self) -> int:
        return int(self.values.size)


def _validate_weights(arr: np.ndarray) -> None:
    """DomainError unless ``arr`` is a nonempty 1-d vector of positive finite
    entries; the message names the first bad entry."""
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("weights must be a nonempty 1-d vector")
    bad = np.flatnonzero(~(np.isfinite(arr) & (arr > 0)))
    if bad.size:
        i = int(bad[0])
        raise DomainError(f"weights must be positive and finite: entry {i + 1} is {arr[i]}")


def _as_weights(x, order: str) -> Weights:
    """``x`` as ``Weights`` in ``order``: a ``Weights`` is checked to be declared
    in that order, anything else is validated as a vector in that order."""
    if isinstance(x, Weights):
        if x.order != order:
            raise DomainError(f"weights declared {x.order}, operation requires {order}")
        return x
    return Weights(np.asarray(x, dtype=float), order)


def _reciprocals(values: np.ndarray) -> np.ndarray:
    """``1.0 / values`` for positive finite weights, refusing weights whose
    reciprocal overflows (below about 5.6e-309) with a DomainError."""
    with np.errstate(over="ignore"):
        inv = 1.0 / values
    bad = np.flatnonzero(np.isinf(inv))
    if bad.size:
        i = int(bad[0])
        raise DomainError(
            f"weights too small: the reciprocal of entry {i + 1} ({values[i]}) overflows"
        )
    return inv


def _probe(fun: OrliczFunction, n: int):
    """(t_hi, t_lo, top): the first 2^i (i = 0, 1, ...) with fun >= 1 and the
    first 2^-i with fun <= 1/n, each None when no i < 200 gives one, and
    fun(inf), its supremum, for the limit test.

    One call of ``fun.evaluate`` on every point either scan can reach, plus
    +inf.
    """
    vals = np.asarray(fun.evaluate(_PROBES.copy()), dtype=float)
    up = np.flatnonzero(vals[_ONE:-1] >= 1.0)
    down = np.flatnonzero(vals[_ONE::-1] <= 1.0 / n)
    t_hi = float(_PROBES[_ONE + up[0]]) if up.size else None
    t_lo = float(_PROBES[_ONE - down[0]]) if down.size else None
    return t_hi, t_lo, float(vals[-1])


def orlicz_norm(x, fun: OrliczFunction) -> float:
    """The norm functional inf { rho > 0 : sum_i fun(|x_i| / rho) <= 1 }.

    One call of ``fun.evaluate`` on the grid 2^-199 ... 2^199 and +inf
    finds the per-element probes: the first 2^i (i >= 0) where
    fun >= 1 and the first 2^-i where fun <= 1/n, as scalar doubling and
    halving from 1 would, and sup fun. They set the starting bracket of a
    bisection on rho whose feasibility questions are answered from a bracket
    a < rho* <= b narrowed beforehand by a safeguarded Illinois iteration on
    log rho; see ``_solve``. Every other call of ``fun.evaluate`` is on the
    nonzero |x_i|/rho, with no argument checks: x is validated here. The
    returned rho is on the feasible side of a bracket of relative width
    ``NORM_REL_TOL`` (for subnormal norms, of two adjacent floats, so a norm
    below 5e-324 gives 5e-324), so the infimum is never overshot from below;
    where the modular sum is continuous the residual |sum - 1| is well below
    1e-9. It is the plain bisection's rho, bit for bit, wherever the
    computed sum does not increase with rho; the moment functions' sums
    cancel to about 1e-10, and there the two can differ by about 1e-12
    relative.

    Vectors of at least ``_STEER_MIN_N`` entries whose function reaches 1 on
    the grid are steered first: the same solve on a surrogate of
    ``_STEER_M`` entries (see ``_steer_guess``) guesses rho*, and that guess
    and one Newton step from it, along the surrogate's slope of log sum
    against log rho, are routed through the feasibility predicate on the
    full vector. This only chooses which rho get a full modular sum; every
    answer still comes from a full sum or from the bracket, so the bracket
    loops and the bisection replay unchanged and, under the same condition
    on the computed sum, the bits are those of the unsteered solve. Moment
    functions need 4-6 full sums instead of 15-18.

    The result is 0.0 exactly when the limit test n * sup fun <= 1 shows the
    sum <= 1 for every rho (a bounded functional). Otherwise, when a
    200-step bracket loop runs out, rho keeps moving by factors of 2^64 to
    the ends of the float range. Raises DomainError for the zero vector or
    NaN entries, UnboundedNormError for infinite entries, and NumericError
    when even the largest float is infeasible, i.e. the norm exceeds the
    float range.
    """
    if isinstance(x, Weights):
        x = x.values
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

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # Per-element probes: fun(t_hi) >= 1 gives an infeasible rho,
        # fun(t_lo) <= 1/n a feasible one.
        t_hi, t_lo, top = _probe(fun, n)
        if n * top <= 1.0:  # the sum is <= n sup fun <= 1 for every rho
            return 0.0
        rho = _solve(v, vmax, fun, t_hi, t_lo)
    if rho == math.inf:
        raise NumericError(f"norm overflows: it exceeds the float range ({fun.label})")
    return rho


def _modular_sum(v: np.ndarray, fun: OrliczFunction, rho: float) -> float:
    """The modular sum of fun at v / rho: every feasibility test of the norm
    solver is this float compared with 1, and it does not increase with rho.
    v holds the positive entries; nothing is checked."""
    return float(np.sum(fun.evaluate(v / rho)))


def _solve(v, vmax, fun, t_hi, t_lo) -> float:
    """Bisection on rho with every feasibility test routed through a known
    bracket; +inf only when the largest float is infeasible. The caller has
    ruled out a zero infimum by the limit test.

    a is the largest rho evaluated infeasible (sum sa > 1), b the smallest
    evaluated feasible (sum sb <= 1). A rho >= b is feasible and a rho <= a
    infeasible without evaluating, because the modular sum does not increase
    with rho; only a rho strictly inside (a, b) is evaluated. A steer (large
    vectors only) seeds (a, b) near rho* first. Between the bracket loops and
    the bisection, an Illinois iteration narrows (a, b) to relative width
    ``NORM_REL_TOL``, so the bisection takes its usual steps but evaluates
    only the one or two midpoints that land inside.
    """
    n = v.size

    # a starts at 0, infeasible by the limit test; b at +inf, where every
    # term is fun(0) = 0.
    a, sa, b, sb = 0.0, math.inf, math.inf, 0.0

    def feasible(rho: float) -> bool:
        nonlocal a, sa, b, sb
        if rho >= b:
            return True
        if rho <= a:
            return False
        s = _modular_sum(v, fun, rho)
        if s <= 1.0:
            b, sb = rho, s
            return True
        a, sa = rho, s
        return False

    hi = min(n * vmax / t_lo, _HUGE) if t_lo else vmax
    lo = vmax / t_hi if t_hi else vmax

    if t_hi is not None and n >= _STEER_MIN_N:
        guess = _steer_guess(v, fun, t_hi, t_lo)
        if guess is not None:
            g, slope = guess
            # The sum at g, then one Newton step in log rho along the
            # subsample's slope, overshot so that it lands past rho*.
            s_g = sb if feasible(g) else sa
            step = -_log_or_nan(s_g) / slope
            if abs(step) < 1.0:
                overshoot = max(_STEER_OVERSHOOT * abs(step), NORM_REL_TOL)
                feasible(g * math.exp(step + math.copysign(overshoot, step)))

    doublings = 0
    while not feasible(hi):  # by 2, then on to the top of the float range
        if hi == _HUGE:
            return math.inf
        hi = min(hi * (2.0 if doublings < _MAX_DOUBLINGS else _EXPONENT_STEP), _HUGE)
        doublings += 1
    lo = min(lo, hi)
    steps = 0
    if t_hi is None:
        # fun stays below 1 on the grid. Test first the last rho the halving
        # loop below would reach: the sum does not increase with rho, so if
        # that one is feasible, all of them are.
        bottom = lo
        for _ in range(_MAX_DOUBLINGS - 1):
            bottom *= 0.5
        if feasible(bottom):
            lo, steps = bottom, _MAX_DOUBLINGS
    # By 1/2, then on to the bottom of the float range: by the limit test some
    # rho > 0 is infeasible, and rho = 0 is (a = 0). If every positive float
    # is feasible instead, the bisection below ends on the smallest one.
    while feasible(lo):
        lo = lo * 0.5 if steps < _MAX_DOUBLINGS else lo / _EXPONENT_STEP
        steps += 1

    # Illinois on g(u) = log S(e^u) with secant weights ga, gb: the weight of
    # an endpoint kept twice in a row is halved, and each point is clamped
    # delta inside (a, b) so that both ends close in. A side whose sum is 0
    # or inf (or a = 0) gives the geometric (arithmetic) mean instead.
    ga, gb = _log_or_nan(sa), _log_or_nan(sb)
    last = None
    for _ in range(_MAX_DOUBLINGS):
        if b - a <= NORM_REL_TOL * b:
            break
        if a > 0.0 and math.isfinite(ga) and math.isfinite(gb):
            delta = 0.25 * NORM_REL_TOL * b
            rho = b * math.exp(gb * math.log(b / a) / (ga - gb))
            rho = min(max(rho, a + delta), b - delta)
        elif a > 0.0:
            rho = math.sqrt(a) * math.sqrt(b)
        else:
            rho = 0.5 * (a + b)
        if not a < rho < b:
            break
        if feasible(rho):
            if last == "b":  # a kept twice in a row
                ga *= 0.5
            gb, last = _log_or_nan(sb), "b"
        else:
            if last == "a":
                gb *= 0.5
            ga, last = _log_or_nan(sa), "a"

    while hi - lo > NORM_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        # Below about 5e-312, NORM_REL_TOL * hi is under the subnormal spacing:
        # stop once lo and hi are adjacent floats.
        if not lo < mid < hi:
            if mid < math.inf:
                break
            mid = 0.5 * lo + 0.5 * hi  # lo + hi overflowed near the largest float
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _steer_guess(v, fun, t_hi, t_lo):
    """(g, slope): a guess g for rho* and the slope of log sum against log
    rho there, from a surrogate of ``_STEER_M`` entries; None when either is
    not a usable number.

    The surrogate keeps the ``_STEER_TOP`` largest entries, which dominate
    the sum when the entries spread over many decades, and takes the rest
    as a strided sample of the sorted vector, one entry per stratum, each
    counted for its stratum. Its solve starts from the full vector's probes.
    Every call of ``fun.evaluate`` here is on ``_STEER_M`` entries.
    """
    n = v.size
    ordered = np.sort(v)
    rest, strata = ordered[: n - _STEER_TOP], _STEER_M - _STEER_TOP
    picks = ((np.arange(strata) + 0.5) * (rest.size / strata)).astype(np.intp)
    sub = np.concatenate((rest[picks], ordered[n - _STEER_TOP :]))
    counts = np.ones(_STEER_M)
    counts[:strata] = rest.size / strata
    surrogate = from_callable(lambda t: counts * fun.evaluate(t), label=fun.label)
    g = _solve(sub, float(ordered[-1]), surrogate, t_hi, t_lo)
    if not 0.0 < g < math.inf:
        return None
    s0, s1 = (_modular_sum(sub, surrogate, rho) for rho in (g, g * _STEER_H))
    slope = (_log_or_nan(s1) - _log_or_nan(s0)) / math.log(_STEER_H)
    return (g, slope) if slope < 0.0 else None


def _log_or_nan(s: float) -> float:
    return math.log(s) if 0.0 < s < math.inf else math.nan


def young_conjugate(fun: OrliczFunction, s: float, *, method: str = "auto") -> float:
    """The conjugate fun*(s) = sup_{t >= 0} (t*s - fun(t)), extended-valued.

    ``method``:
      * "auto": analytic tail-threshold shortcut for distribution-derived
        moment functions, golden-section search otherwise;
      * "tail": force the shortcut (moment functions only): F(t) at the t
        with tail_integral(t) = s, found by one norm solve to relative
        precision ``NORM_REL_TOL`` at every scale; a t past a table's last
        knot raises TabulationError, one past the float range NumericError;
      * "search": force the derivative-free search (always available).
    """
    if not (s >= 0):
        raise DomainError(f"conjugate argument must be >= 0, got {s}")
    if s == 0.0:
        return 0.0
    if method not in ("auto", "tail", "search"):
        raise DomainError(f"unknown conjugate method {method!r}")
    if method in ("auto", "tail") and fun.kind == "moment" and fun.model is not None:
        return _conjugate_by_tail(fun.model, s)
    if method == "tail":
        raise DomainError("tail method requires a distribution-derived moment function")
    return _conjugate_by_search(fun, s)


def _conjugate_by_tail(model: DistributionModel, s: float) -> float:
    """fun*(s) = F(t) at t = inf { t : tail_integral(t) <= s }: the norm of
    (1) under the increasing h(u) = tail_integral(1/u) / s, whose sup is
    mean/s > 1. Past a table's last knot the raw tail integral reads 0, so
    a t beyond the table lands just past it and ``survival`` refuses it."""
    mean = model.mean_abs()
    if s > mean:
        return math.inf
    if s >= mean:
        return 1.0
    # At rho = t near the largest float, u = 1/t is subnormal and 1/u can
    # overflow: read it as the largest float, not as inf (where the tail
    # integral is 0), so a threshold past the float range overflows the norm.
    h = from_callable(lambda u: model._tail_integral(np.minimum(1.0 / u, _HUGE)) / s,
                      label=f"tail threshold of {model.describe()}", is_orlicz=False)
    return float(model.survival(orlicz_norm([1.0], h)))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _conjugate_by_search(fun: OrliczFunction, s: float) -> float:
    def phi(t: float) -> float:
        value = fun(t)
        return -math.inf if math.isinf(value) else t * s - value

    best = 0.0  # phi(0) = 0

    # Expand until phi stops increasing (phi = -inf where fun = +inf);
    # persistent positive slope at a huge abscissa means the supremum is
    # infinite.
    right = 1.0
    f_r = phi(right)
    best = max(best, f_r)
    while True:
        f_next = phi(2.0 * right)
        if not (f_next > f_r + 1e-14 * max(1.0, abs(f_r))):
            right *= 2.0
            break
        right *= 2.0
        f_r = f_next
        best = max(best, f_r)
        if right > 1e15:
            slope = (phi(2.0 * right) - f_r) / right
            if slope > 1e-12:
                return math.inf
            break

    a, b = 0.0, right
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = phi(c), phi(d)
    best = max(best, fc, fd)
    while b - a > _CONJUGATE_TOL * max(1.0, b):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = phi(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = phi(d)
        best = max(best, fc, fd)
    return best

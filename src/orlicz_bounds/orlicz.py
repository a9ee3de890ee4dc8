"""Extended-value Orlicz functions, the norm functional, and Young conjugates.

An Orlicz function is a left-continuous convex M: [0, inf) -> [0, inf] with
M(0) = 0, neither identically 0 nor the 0/inf indicator. The associated norm
on R^n is the implicit scaling

    ||x||_M = inf { rho > 0 : sum_i M(|x_i| / rho) <= 1 },

computed here by bisection on rho. The starting bracket comes from one
vectorised probe of the function on the grid 2^-199 ... 2^199, made once
per handle: a handle keeps its probe, and a scaled handle keeps its base
and factor and reads factor * (the base's probe), the product its
``evaluate`` forms, so every member of a family of scalings of one N shares
one probe. The modular sum is nonincreasing in rho, so each "is rho
feasible?" is answered from a known bracket a < rho* <= b where it can be,
and a secant endgame on (log rho, log S) first narrows that bracket to the
bisection's tolerance: each new point is the secant through the two most
recently summed points, clamped inside (a, b), with regula falsi or a mean
of a and b when the secant leaves the bracket. The bisection then evaluates
only the one or two midpoints that fall inside it (each midpoint is
compared with (a, b) inline, so one the bracket answers costs no call) and
returns the feasible end of its last bracket. That is the float a plain
bisection returns, bit for bit, wherever the computed modular sum does not
increase with rho. The moment function's sums carry rounding noise from
the cancellation in s E[|xi|; |xi| > 1/s] - F(1/s) (about 1e-10), and there
the result can differ from a plain bisection's by about 1e-12 relative.
Every evaluation is one modular sum, ``_modular_sum``: the pairwise
``np.add.reduce`` that ``np.sum`` runs, without its Python wrapper, taken on
a long vector in blocks of at most ``_BLOCK`` entries along numpy's own
pairwise split, so its temporaries stay small and its float is unchanged.
+inf is an explicit value, returned by the function itself past its domain:
a single infinite term makes the modular sum infinite, which keeps brackets
well-defined there.

One seed rule puts the first full sums next to rho*, so the bracket is
narrow before the loops start. A seed (``_WarmStart``) is the root of an
earlier solve and the slope of log S against log rho near it (across at
least 1e-9 of log rho, so that the sums' rounding noise does not set it):
for a long vector (n >= 4096, ``_STEER_MIN_N``), whatever the function, a
solve on a 512-entry surrogate (the 128 largest entries and a strided
sample of the rest, each standing for its stratum); for a shorter one,
``orlicz_norm``'s ``warm``, the previous member of a bound family. The
seed's root and one Newton step from it, overshot so that it lands past
rho*, get the first full sums; a seeded bracket only answers what a full
sum would answer, so the returned float keeps its bits. Steered moment
functions take 4-6 full sums instead of 15-18, bounded functionals 4-8
instead of 7-21, and warm-started family members about 6 instead of 8-10.

The result is 0.0 only when a limit test, n * fun(inf) <= 1, shows that the
modular sum never exceeds 1. A bracket loop that runs out of its 200 steps
keeps moving rho by factors of 2^64 to the ends of the float range rather
than concluding "unbounded" or "infimum 0". The upper end starts no higher
than the largest float, so every solve runs on x itself, and the result is
+inf only when the largest float is infeasible.

Arguments are validated once, at the public entry points: ``orlicz_norm``
checks the vector (its smallest entry > 0 and its largest < inf; zeros,
NaN and inf are told apart only when that fails), ``OrliczFunction.values``
and ``__call__`` refuse NaN and negative arguments. ``evaluate`` and the
distribution handles' kernels (the models' raw ``_survival``,
``_neg_log_survival``, ``_tail_integral_and_survival``) check nothing, so a
modular sum pays for the arithmetic alone. Past a table's last knot and at
+inf the kernels read F = 0 and a tail integral of 0, so the handles need
no mask: an argument 0 becomes 1/0 = inf, where M and F(1/t) read 0, on the
same path as every other argument.

The same functional is defined for merely positive increasing functions,
such as the reciprocal survival function; there it need not be a norm (it
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
    _integer_in,
    _positive,
)

__all__ = [
    "OrliczFunction",
    "linear_function",
    "power_function",
    "gaussian_comparison_function",
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
# Seeds: vectors of at least _STEER_MIN_N entries are warm-started from a
# solve on a surrogate of _STEER_M entries, the _STEER_TOP largest and a
# strided sample of the rest; shorter ones from ``warm``, a bound family's
# neighbouring root. The Newton step from the seed is lengthened by
# _STEER_OVERSHOOT (surrogate) or _WARM_OVERSHOOT (neighbour) of itself, so
# that it lands past the root.
_STEER_MIN_N = 4096
_STEER_M = 512
_STEER_TOP = 128
_STEER_OVERSHOOT = 0.1
_WARM_OVERSHOOT = 0.01
# A seed's slope is taken across at least this much log rho.
_SLOPE_SPAN = 1e-9
# A modular sum evaluates at most this many entries at a time, so that its
# temporaries stay in cache; the steering surrogate's positional ``counts``
# need its _STEER_M entries in one block, so _BLOCK >= _STEER_M.
_BLOCK = 16384
_LOG_HUGE = math.log(_HUGE)


@dataclass(frozen=True)
class OrliczFunction:
    """Immutable handle for an extended-value function on [0, inf): a
    vectorized ``evaluate`` that returns +inf past the function's domain.

    ``model`` is set only for distribution-derived moment functions and
    enables the analytic conjugate shortcut.

    ``evaluate`` is elementwise: a solve may call it on any contiguous run
    of the entries (a block of a long modular sum).
    """

    label: str
    evaluate: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    model: Optional[DistributionModel] = field(default=None, repr=False)
    # A scaled handle is factor * base; it reads its probe off the base's.
    base: Optional["OrliczFunction"] = field(default=None, repr=False)
    factor: float = 1.0
    _probed: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def _probe_values(self) -> np.ndarray:
        """``evaluate`` on ``_PROBES``, computed once per handle (read-only).
        A scaled handle forms factor * (the base's probe), the product its
        ``evaluate`` forms, so the bits are those of a fresh call. Called
        under the solver's errstate."""
        vals = self._probed
        if vals is None:
            if self.base is not None:
                vals = self.factor * self.base._probe_values()
            else:
                vals = np.asarray(self.evaluate(_PROBES.copy()), dtype=float)
            vals.flags.writeable = False
            object.__setattr__(self, "_probed", vals)
        return vals

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
        """Pointwise factor * self."""
        _positive(factor, "scale factor")
        if factor == 1.0:
            return self
        base = self

        def _eval(t, _b=base, _f=factor):
            return _f * _b.evaluate(t)

        return OrliczFunction(
            label=f"{factor:g}*{base.label}",
            evaluate=_eval,
            base=base,
            factor=factor,
        )


def linear_function() -> OrliczFunction:
    return OrliczFunction(label="t", evaluate=lambda t: t)


def power_function(q: float) -> OrliczFunction:
    """M(t) = t**q for q >= 1."""
    if not (q >= 1):
        raise RangeError(f"power function requires exponent q >= 1, got {q}")
    return OrliczFunction(label=f"t^{q:g}", evaluate=lambda t: t**q)


def gaussian_comparison_function() -> OrliczFunction:
    """Two-piece comparison function: t on [0, 1), t^2 from 1 on."""
    return OrliczFunction(
        label="min(t,t^2)-kink",
        evaluate=lambda t: np.where(t < 1.0, t, t * t),
    )


def expected_overshoot_function(model: DistributionModel) -> OrliczFunction:
    """The Orlicz function M(s) = E(s|xi| - 1)_+ of a model with E|xi| < inf.

    Evaluated via M(s) = s * tail_integral(1/s) - F(1/s); M(0) = 0. For
    tabulated models, thresholds 1/s beyond the table contribute at most the
    table's certified truncation bound, so the kernels' F = 0 there gives 0.
    """

    def _eval(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        tail, surv = model._tail_integral_and_survival(1.0 / t)  # 0, 0 at 1/0 = inf
        out = t * tail
        out -= surv
        return np.maximum(out, 0.0, out=out)

    return OrliczFunction(
        label=f"M[{model.describe()}]",
        evaluate=_eval,
        model=model,
    )


def _unit_mean_moment_function(model: DistributionModel) -> OrliczFunction:
    """M(s / E|xi|), the moment function of xi / E|xi|, which has mean 1.
    At E|xi| = 1 that is M itself (s / 1.0 is s), and a sum skips the
    division and its temporary array."""
    mean = model.mean_abs()
    m = expected_overshoot_function(model)
    if mean == 1.0:
        return m
    return OrliczFunction(label=f"{m.label}(s/{mean:g})",
                          evaluate=lambda s: m.evaluate(s / mean))


def neg_log_survival_function(
    model: DistributionModel, *, require_convex: bool = True
) -> OrliczFunction:
    """N(t) = -ln F(t). Convex exactly when the model is log-concave.

    With ``require_convex`` (default) a model failing the grid convexity
    check is rejected; pass False to obtain the functional anyway. Beyond a
    tabulated model's range the value is +inf (a loaded table guarantees
    N(t_max) > 1, so this cannot flip a modular sum across the budget 1).
    """
    if require_convex and not model.n_is_convex():
        raise NonConvexError(
            f"negative log-survival of {model.describe()} fails the grid convexity check"
        )

    return OrliczFunction(label=f"N[{model.describe()}]", evaluate=model._neg_log_survival)


def reciprocal_survival_function(model: DistributionModel, k: int) -> OrliczFunction:
    """F(1/t) / (4(k-1)) for k >= 2: positive and increasing, not convex.

    The function is bounded by 1/(4(k-1)), so the associated functional
    need not be a norm and can legitimately be 0. Where 1/t lies past a
    tabulated model's range the value is 0.
    """
    k = _integer_in(k, "k of the reciprocal survival function", 2)

    def _eval(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return model._survival(1.0 / t) / (4.0 * (k - 1))  # F(1/0) = F(inf) = 0

    return OrliczFunction(label=f"NF{k}[{model.describe()}]", evaluate=_eval)


def _weights_and_reciprocals(x, order: str | None = None, *,
                             overflow_ok: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """(w, 1.0 / w) for the weights x, the one check of a weight vector.
    DomainError, naming the first bad entry of the first check that fails,
    unless x is a nonempty 1-d vector of positive finite entries, then in
    ``order`` ("ascending" or "descending") if one is given, then with no
    reciprocal overflowing (below about 5.6e-309) unless ``overflow_ok``,
    which forms no reciprocals and returns (w, None).
    A valid vector costs at most one division and one comparison of
    neighbours (NaN fails every comparison), the ends standing for every
    entry; only one that fails is scanned for the entry to name."""
    w = np.asarray(x, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise DomainError("weights must be a nonempty 1-d vector")
    inv = None
    if not overflow_ok:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            inv = 1.0 / w
    if order is None:
        ok = w.min() > 0.0 and w.max() < math.inf and (overflow_ok or inv.max() < math.inf)
    else:
        low, high = (0, -1) if order == "ascending" else (-1, 0)
        ok = (w[low] > 0.0 and w[high] < math.inf and (overflow_ok or inv[low] < math.inf)
              and np.all(w[1:] >= w[:-1] if order == "ascending" else w[1:] <= w[:-1]))
    if ok:
        return w, inv
    bad = np.flatnonzero(~(np.isfinite(w) & (w > 0)))
    if bad.size:
        i = int(bad[0])
        raise DomainError(f"weights must be positive and finite: entry {i + 1} is {w[i]}")
    if order is not None:
        diffs = np.diff(w)
        bad = np.flatnonzero(diffs < 0 if order == "ascending" else diffs > 0)
        if bad.size:
            i = int(bad[0])
            raise DomainError(
                f"weights not in {order} order: entry {i + 2} ({w[i + 1]}) "
                f"violates entry {i + 1} ({w[i]})"
            )
    i = int(np.flatnonzero(np.isinf(inv))[0])
    raise DomainError(f"weights too small: the reciprocal of entry {i + 1} ({w[i]}) overflows")


def _as_weights(x) -> np.ndarray:
    """The weights x, checked as ``_weights_and_reciprocals`` checks them
    without an order; a reciprocal may overflow, since no caller forms it,
    and none is formed here."""
    return _weights_and_reciprocals(x, overflow_ok=True)[0]


def _probe(fun: OrliczFunction, n: int):
    """(t_hi, t_lo, top): the first 2^i (i = 0, 1, ...) with fun >= 1 and the
    first 2^-i with fun <= 1/n, each None when no i < 200 gives one, and
    fun(inf), its supremum, for the limit test.

    Read off the handle's probe, ``fun`` on every point either scan can
    reach plus +inf, computed once per handle (``_probe_values``).
    """
    vals = fun._probe_values()
    up = np.flatnonzero(vals[_ONE:-1] >= 1.0)
    down = np.flatnonzero(vals[_ONE::-1] <= 1.0 / n)
    t_hi = float(_PROBES[_ONE + up[0]]) if up.size else None
    t_lo = float(_PROBES[_ONE - down[0]]) if down.size else None
    return t_hi, t_lo, float(vals[-1])


def orlicz_norm(x, fun: OrliczFunction, *, warm: Optional[_WarmStart] = None) -> float:
    """The norm functional inf { rho > 0 : sum_i fun(|x_i| / rho) <= 1 }.

    ``fun`` on the grid 2^-199 ... 2^199 and +inf, evaluated once per
    handle (a scaled handle scales its base's), finds the per-element
    probes: the first 2^i (i >= 0) where fun >= 1 and the first 2^-i where
    fun <= 1/n, as scalar doubling and halving from 1 would, and sup fun.
    They set the starting bracket of a bisection on rho whose feasibility
    questions are answered from a bracket a < rho* <= b narrowed beforehand
    by a safeguarded secant iteration on log rho; see ``_solve``. Every
    other call of ``fun.evaluate`` is on the nonzero |x_i|/rho, with no
    argument checks: x is validated here. The returned rho is on the
    feasible side of a bracket of relative width ``NORM_REL_TOL`` (for
    subnormal norms, of two adjacent floats, so a norm below 5e-324 gives
    5e-324), so the infimum is never overshot from below; where the modular
    sum is continuous the residual |sum - 1| is well below 1e-9. It is the
    plain bisection's rho, bit for bit, wherever the computed sum does not
    increase with rho; the moment functions' sums cancel to about 1e-10,
    and there the two can differ by about 1e-12 relative.

    A solve with a seed (``_WarmStart``: the root of an earlier solve and
    the slope of log sum against log rho near that root) first routes
    the sum at that root and one Newton step from it, overshot so that it
    lands past rho*, through the feasibility predicate. Vectors of at least
    ``_STEER_MIN_N`` entries take the seed of a solve on a surrogate of
    ``_STEER_M`` entries (``_steer``), whatever the function; shorter ones
    take ``warm``, a holder that each solve of a bound family fills
    (steered members too) and the next starts from. A seed changes cost
    only, never the result: every answer still comes from a full sum or
    from the bracket, so the bracket loops and the bisection replay
    unchanged and, under the same condition on the computed sum, the bits
    are those of a cold solve.

    The result is 0.0 exactly when the limit test n * sup fun <= 1 shows the
    sum <= 1 for every rho (a bounded functional). Otherwise, when a
    200-step bracket loop runs out, rho keeps moving by factors of 2^64 to
    the ends of the float range. Raises DomainError for the zero vector or
    NaN entries, UnboundedNormError for infinite entries, and NumericError
    when even the largest float is infeasible, i.e. the norm exceeds the
    float range.
    """
    v = np.abs(np.asarray(x, dtype=float).ravel())
    vmax = float(v.max()) if v.size else math.nan  # NaN if an entry is
    if not (vmax < math.inf and v.min() > 0.0):
        v = _positive_entries(v)
        vmax = float(v.max())
    n = v.size

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # Per-element probes: fun(t_hi) >= 1 gives an infeasible rho,
        # fun(t_lo) <= 1/n a feasible one.
        t_hi, t_lo, top = _probe(fun, n)
        if n * top <= 1.0:  # the sum is <= n sup fun <= 1 for every rho
            return 0.0
        rho = _solve(v, vmax, fun, t_hi, t_lo, warm)
    if rho == math.inf:
        raise NumericError(f"norm overflows: it exceeds the float range ({fun.label})")
    return rho


def _positive_entries(v: np.ndarray) -> np.ndarray:
    """The positive entries of |x| when some entry is not positive and
    finite: DomainError for the zero vector and for NaN, UnboundedNormError
    for an infinite entry."""
    pos = v > 0
    if v.size == 0 or not pos.any():
        raise DomainError("norm of the zero vector is undefined")
    if np.isnan(v).any():
        raise DomainError("weights must not contain NaN")
    if np.isinf(v).any():
        raise UnboundedNormError("norm is infinite: input contains infinite entries")
    return v[pos]


class _WarmStart:
    """What one solve of a bound family hands the next (``orlicz_norm``'s
    ``warm``): its root and the slope of log S against log rho near it
    (``_seed_slope``). Empty until a solve ends with a finite positive
    root."""

    __slots__ = ("root", "slope")

    def __init__(self):
        self.root = None
        self.slope = math.nan


def _modular_sum(v: np.ndarray, fun: OrliczFunction, rho: float) -> float:
    """The modular sum of fun at v / rho: every feasibility test of the norm
    solver is this float compared with 1, and it does not increase with rho.
    v holds the positive entries; nothing is checked."""
    return _block_sum(v, fun, rho)


def _block_sum(v, fun, rho) -> float:
    """``np.add.reduce(fun.evaluate(v / rho))`` (np.sum, unwrapped), with one
    ``evaluate`` per block of at most ``_BLOCK`` entries: numpy's pairwise
    sum halves a long run at n // 2 rounded down to a multiple of 8, so
    summing the halves apart and adding the two floats is its float."""
    n = v.size
    if n <= _BLOCK:
        return float(np.add.reduce(fun.evaluate(v / rho), axis=None))
    half = n // 2 - n // 2 % 8
    return _block_sum(v[:half], fun, rho) + _block_sum(v[half:], fun, rho)


def _solve(v, vmax, fun, t_hi, t_lo, warm=None) -> float:
    """Bisection on rho with every feasibility test routed through a known
    bracket; +inf only when the largest float is infeasible. The caller has
    ruled out a zero infimum by the limit test.

    a is the largest rho evaluated infeasible (sum sa > 1), b the smallest
    evaluated feasible (sum sb <= 1). A rho >= b is feasible and a rho <= a
    infeasible without evaluating, because the modular sum does not increase
    with rho; only a rho strictly inside (a, b) is evaluated. A seed (the
    surrogate's for long vectors, ``warm`` otherwise) puts (a, b) near rho*
    first, and ``warm`` receives the root. Between the bracket loops and
    the bisection, a secant endgame narrows (a, b) to relative width
    ``NORM_REL_TOL``, so the bisection takes its usual steps but evaluates
    only the one or two midpoints that land inside.
    """
    n = v.size

    # a starts at 0, infeasible by the limit test; b at +inf, where every
    # term is fun(0) = 0. ``summed`` holds every summed point as (log rho,
    # log S), the newest last, after two placeholders.
    a, sa, b, sb = 0.0, math.inf, math.inf, 0.0
    summed = [(math.nan, math.nan)] * 2

    def feasible(rho: float) -> bool:
        nonlocal a, sa, b, sb
        if rho >= b:
            return True
        if rho <= a:
            return False
        s = _modular_sum(v, fun, rho)
        summed.append((math.log(rho), _log_or_nan(s)))
        if s <= 1.0:
            b, sb = rho, s
            return True
        a, sa = rho, s
        return False

    hi = min(n * vmax / t_lo, _HUGE) if t_lo else vmax
    lo = vmax / t_hi if t_hi else vmax

    seed = _steer(v, fun, t_hi, t_lo) if n >= _STEER_MIN_N else warm
    if seed is not None and seed.root is not None:
        # The sum at the seed's root, then one Newton step in log rho along
        # its slope, overshot so that it lands past rho*.
        g = seed.root
        s_g = sb if feasible(g) else sa
        step = -_log_or_nan(s_g) / seed.slope
        if abs(step) < 1.0:
            overshoot = _STEER_OVERSHOOT if n >= _STEER_MIN_N else _WARM_OVERSHOOT
            step += math.copysign(max(overshoot * abs(step), NORM_REL_TOL), step)
            feasible(g * math.exp(step))

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

    # Secant on g(u) = log S(e^u) through the two most recently summed
    # points, each new point clamped delta inside (a, b) so that both ends
    # close in. When the secant leaves (a, b) or a sum is 0 or inf: regula
    # falsi on (a, b), unless the last two steps have not halved log(b / a)
    # (regula falsi creeps when one end's sum is far from 1) or a sum at a or
    # b is 0 or inf; then the geometric (arithmetic, when a = 0) mean.
    ratios = (math.inf, math.inf)  # b / a before the last two steps
    for _ in range(_MAX_DOUBLINGS):
        if b - a <= NORM_REL_TOL * b:
            break
        delta = 0.25 * NORM_REL_TOL * b
        ratio = b / a if a > 0.0 else math.inf
        rho = math.nan
        (u0, g0), (u1, g1) = summed[-2:]
        if g1 != g0:  # False when either is NaN
            u = u1 - g1 * (u1 - u0) / (g1 - g0)
            if u < _LOG_HUGE:
                rho = math.exp(u)
        # A secant that converged onto an end may round just past it.
        if not a - delta < rho < b + delta:
            ga, gb = _log_or_nan(sa), _log_or_nan(sb)
            if math.isfinite(ga) and math.isfinite(gb) and ratio <= math.sqrt(ratios[0]):
                rho = b * math.exp(gb * math.log(ratio) / (ga - gb))
            elif a > 0.0:
                rho = math.sqrt(a) * math.sqrt(b)
            else:
                rho = 0.5 * (a + b)
        ratios = (ratios[1], ratio)
        rho = min(max(rho, a + delta), b - delta)
        if not a < rho < b:
            break
        feasible(rho)

    while hi - lo > NORM_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        # Below about 5e-312, NORM_REL_TOL * hi is under the subnormal spacing:
        # stop once lo and hi are adjacent floats.
        if not lo < mid < hi:
            if mid < math.inf:
                break
            mid = 0.5 * lo + 0.5 * hi  # lo + hi overflowed near the largest float
        # The bracket answers most midpoints; only one inside (a, b) is summed.
        if mid >= b or (mid > a and feasible(mid)):
            hi = mid
        else:
            lo = mid
    if warm is not None and 0.0 < hi < math.inf:
        warm.root, warm.slope = hi, _seed_slope(summed)
    return hi


def _seed_slope(summed) -> float:
    """The slope of log S against log rho through the newest summed point
    and the newest earlier one at least ``_SLOPE_SPAN`` away in log rho;
    NaN when there is none or the slope is not negative. The final bracket
    is about 1e-12 wide, and the sums' rounding noise (about 1e-14 for N
    near t = 0) would be a large part of a slope across it."""
    u1, g1 = summed[-1]
    for u0, g0 in reversed(summed[:-1]):
        if abs(u1 - u0) >= _SLOPE_SPAN:
            slope = (g1 - g0) / (u1 - u0)
            return slope if slope < 0.0 else math.nan
    return math.nan


def _steer(v, fun, t_hi, t_lo) -> _WarmStart:
    """A warm start for the solve on v, read off a surrogate of ``_STEER_M``
    entries: the surrogate's solve fills a fresh holder with its root and
    slope, as any warm-started solve does (the root stays
    None when it is 0 or inf).

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
    surrogate = OrliczFunction(label=fun.label, evaluate=lambda t: counts * fun.evaluate(t))
    seed = _WarmStart()
    _solve(sub, float(ordered[-1]), surrogate, t_hi, t_lo, seed)
    return seed


def _log_or_nan(s: float) -> float:
    return math.log(s) if 0.0 < s < math.inf else math.nan


def young_conjugate(fun: OrliczFunction, s: float, *, method: str = "auto") -> float:
    """The conjugate fun*(s) = sup_{t >= 0} (t*s - fun(t)), extended-valued.

    ``method``:
      * "auto": for distribution-derived moment functions, the analytic
        tail-threshold shortcut: F(t) at the t with tail_integral(t) = s,
        found by one norm solve to relative precision ``NORM_REL_TOL`` at
        every scale (a t past a table's last knot raises TabulationError,
        one past the float range NumericError); golden-section search for
        every other function;
      * "search": force the derivative-free search (always available):
        doubling up to the top of the float range, then golden section to
        the absolute tolerance 1e-10 * max(1, bracket end), so a maximizer
        far below 1e-10 is not resolved.
    """
    if method not in ("auto", "search"):
        raise DomainError(f"unknown conjugate method {method!r}")
    if not (s >= 0):
        raise DomainError(f"conjugate argument must be >= 0, got {s}")
    if s == 0.0:
        return 0.0
    if method != "search" and fun.model is not None:
        return _conjugate_by_tail(fun.model, s)
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
    h = OrliczFunction(label=f"tail threshold of {model.describe()}",
                       evaluate=lambda u: model._tail_integral(np.minimum(1.0 / u, _HUGE)) / s)
    return float(model.survival(orlicz_norm([1.0], h)))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # the solver's errstate
def _conjugate_by_search(fun: OrliczFunction, s: float) -> float:
    # Every abscissa is finite and >= 0, so fun.evaluate is called directly,
    # without the argument checks of fun.values.
    def phi(t: float) -> float:
        value = float(np.ravel(fun.evaluate(np.array([t])))[0])
        return -math.inf if math.isinf(value) else t * s - value

    best = 0.0  # phi(0) = 0

    # Expand until phi stops increasing by a margin relative to phi itself
    # (phi = -inf where fun = +inf); a positive slope still at the top of the
    # float range means the supremum is infinite.
    right = 1.0
    f_r = phi(right)
    best = max(best, f_r)
    while True:
        f_next = phi(2.0 * right)
        if not (f_next > f_r + 1e-14 * abs(f_r)):
            right *= 2.0
            break
        right *= 2.0
        f_r = f_next
        best = max(best, f_r)
        if right > _HUGE / 4:
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

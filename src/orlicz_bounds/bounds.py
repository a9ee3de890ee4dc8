"""Two-sided bounds for expectations of order statistics of |x_i xi_i|.

For i.i.d. xi_i with log-concave survival F and positive weights x_i, the
expectation of the k-th smallest (or largest) of |x_i xi_i| is sandwiched by
explicit Orlicz-norm expressions that do not depend on n:

  k-min, ascending x, 1 <= k <= n/2:
      c1 * max_{1<=j<=k} ||(1/x_i)_{i=j..n}||_{N_j}^{-1}
        <= E k-min <= 16 e^2 * C_N * ln(k+1) * (same max),
      N_j = (2e/(k-j+1)) N,  N = -ln F,  c1 = 1 - 1/sqrt(2 pi),
      C_N = max{N(1), 1/N(1)}.  The lower bound holds without convexity of N.

  Gaussian closed form (same shape, norms collapse to harmonic sums):
      c0 * max_j (k+1-j) / sum_{i=j..n} 1/x_i  <=  E k-min
        <= 2 sqrt(2 pi) ln(k+1) * (same max),
      c0 = (1 - 1/sqrt(2 pi)) * sqrt(pi/2) / (2e).

  k-max, descending x, k > 1, k0 = floor(4(k-1)/F(1)), k + k0 <= n:
      (1/4) ( max_{0<=l<k0} ||(1/x_i)_{i=1..k+l}||_{(2e/(l+1))N}^{-1}
              + (1 + ln(8(k-1))/N(1))^{-1} ||(x_{k+k0},...,x_n)||_M )
        <= E k-max
        <= c ( C_N ln(k+1) * (same max) + ||(x_{k+k0},...,x_n)||_M ),
      where M(s) = E(s|xi| - 1)_+ and c is configurable (no sharp value is
      known; the default 32 is empirical and flagged in reports).

  k = 1 max: c_low E|xi| ||x||_M <= E max <= c_high E|xi| ||x||_M, M the
  moment function of xi / E|xi|; (c_low, c_high) default to (1/4, 8),
  empirical and flagged.

Moment variants: E(k-min)^p lower bound with the same max raised to p, and
the p-th moment upper bound (1 + Gamma(1+p)) ||(1/x_i)||_N^{-p} for the
minimum.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionModel
from .errors import DomainError, InfeasibleError, NumericError, RangeError
from .errors import _integer_in, _positive
from .orlicz import (
    _WarmStart,
    _unit_mean_moment_function,
    _weights_and_reciprocals,
    expected_overshoot_function,
    neg_log_survival_function,
    orlicz_norm,
)

__all__ = [
    "C1_LOWER",
    "C0_GAUSSIAN",
    "KMIN_UPPER_FACTOR",
    "KMAX_UPPER_C_DEFAULT",
    "MAX1_C_LOW_DEFAULT",
    "MAX1_C_HIGH_DEFAULT",
    "BoundConstants",
    "BoundReport",
    "kth_min_bounds",
    "kth_min_bounds_gaussian",
    "kth_max_bounds",
    "max_bounds",
    "kth_min_moment_lower",
    "min_moment_upper",
]

C1_LOWER = 1.0 - 1.0 / math.sqrt(2.0 * math.pi)
C0_GAUSSIAN = C1_LOWER / (2.0 * math.e) * math.sqrt(math.pi / 2.0)
KMIN_UPPER_FACTOR = 16.0 * math.e**2
GAUSSIAN_UPPER_FACTOR = 2.0 * math.sqrt(2.0 * math.pi)
KMAX_UPPER_C_DEFAULT = 32.0
MAX1_C_LOW_DEFAULT = 0.25
MAX1_C_HIGH_DEFAULT = 8.0

_TWO_E = 2.0 * math.e


@dataclass(frozen=True)
class BoundConstants:
    """The empirical constants of the bound routines.

    kmax_upper_c and the max-bound pair have no sharp values, so they are
    knobs with empirical defaults and are flagged in every report that uses
    them. The constants the estimates fix (C1_LOWER, C0_GAUSSIAN,
    KMIN_UPPER_FACTOR) are module constants.
    """

    kmax_upper_c: float = KMAX_UPPER_C_DEFAULT
    max1_c_low: float = MAX1_C_LOW_DEFAULT
    max1_c_high: float = MAX1_C_HIGH_DEFAULT

    def __post_init__(self):
        for field in dataclasses.fields(self):
            _positive(getattr(self, field.name), field.name)


def _n1_and_c_n(model: DistributionModel) -> tuple[float, float]:
    """(N(1), C_N) with C_N = max{N(1), 1/N(1)}, from a single evaluation of
    N(1). C_N is inf when 1/N(1) overflows; reports then keep it (and the
    k-max tail discount 1 + ln(8(k-1))/N(1)) as inf, which their JSON and
    CSV print as null, and the upper bound it multiplies is omitted with a
    note."""
    n1 = model.neg_log_survival(1.0)
    if not (n1 > 0):
        raise DomainError(f"C_N undefined: N(1) = {n1}")
    return n1, max(n1, 1.0 / n1)


@dataclass(frozen=True)
class BoundReport:
    """Lower/upper bound values with the constants and maximizers that
    produced them.

    ``terms`` holds the per-index inner values being maximized (per-j
    suffix-norm reciprocals for k-min, per-l prefix terms for k-max);
    ``argmax_j`` is the 1-based j for k-min and the 0-based l for k-max,
    matching each formula's index convention. ``empirical_constants`` lists
    constants with configurable empirical defaults used by this report.
    ``upper`` is None, with a note, when the upper bound is not valid (N not
    convex) or exceeds the float range.
    """

    kind: str
    k: int
    lower: float
    upper: float | None
    constants: dict
    terms: tuple
    argmax_j: int | None
    k0: int | None = None
    tail_norm: float | None = None
    empirical_constants: tuple = ()
    notes: tuple = ()

    def __post_init__(self):
        if self.upper is not None and not (self.lower <= self.upper * (1 + 1e-12)):
            raise DomainError(
                f"inconsistent report: lower {self.lower} > upper {self.upper}"
            )


def _finite_upper(upper: float | None, notes: tuple) -> tuple[float | None, tuple]:
    """(upper, notes), with an upper bound outside the float range replaced
    by None and a note: inf has overflowed, and 0.0 has underflowed, since
    every expectation bounded here is positive."""
    if upper is None or 0.0 < upper < math.inf:
        return upper, notes
    where = "it exceeds the float range" if upper > 0.0 else "below the float range"
    return None, notes + (f"upper bound omitted: {where}",)


def _norm_to_invert(x: np.ndarray, fun, warm=None) -> float:
    """||x||_fun for a caller that divides by it: DomainError naming the
    model in ``fun``'s label when the norm is 0 or its reciprocal overflows."""
    nm = orlicz_norm(x, fun, warm=warm)
    if not (nm > 0.0 and 1.0 / nm < math.inf):
        raise DomainError(f"the norm under {fun.label} is {nm!r}; its reciprocal is not finite")
    return nm


_RESCALED_NOTE = ("a norm exceeds the float range: its term is solved on the vector "
                  "divided by its largest entry, with reduced precision when subnormal")
_RESCALED_SUM_NOTE = ("a suffix sum exceeds the float range: its term is formed from the "
                      "reciprocals divided by the largest, with reduced precision when subnormal")


def _family_terms(members) -> tuple[list[float], tuple]:
    """(terms, notes): 1 / ||v||_fun for each (v, fun) of a bound family, in
    order, each solve warm-started from its neighbour's root (the floats do
    not depend on it). A norm past the float range is solved on v / max(v)
    instead and its term formed as (1 / ||v / m||) / m, since the norm is
    homogeneous; such a term is far below 1 and may be subnormal, with
    reduced precision, which the notes say."""
    warm = _WarmStart()
    terms, notes = [], ()
    for v, fun in members:
        try:
            terms.append(1.0 / _norm_to_invert(v, fun, warm))
        except NumericError:  # the norm exceeds the float range
            m = float(v.max())
            terms.append((1.0 / _norm_to_invert(v / m, fun)) / m)
            notes = (_RESCALED_NOTE,)
    return terms, notes


def _suffix_norm_terms(inv: np.ndarray, nfun, k: int) -> tuple[list[float], tuple]:
    """(terms, notes) of 1 / ||(1/x_i)_{i=j..n}||_{(2e/(k-j+1)) N} for
    j = 1..k; see ``_family_terms``."""
    return _family_terms((inv[j - 1 :], nfun.scaled(_TWO_E / (k - j + 1)))
                         for j in range(1, k + 1))


def kth_min_bounds(x, model: DistributionModel, k: int) -> BoundReport:
    """Sandwich for E k-min of |x_i xi_i|, ascending weights, 1 <= k <= n/2.

    When N = -ln F fails the convexity check only the lower bound is valid;
    the report then has upper=None and a note, as it does when the upper
    bound exceeds the float range.
    """
    w, inv = _weights_and_reciprocals(x, "ascending")
    k = _integer_in(k, "k of the k-min bounds (at most n/2)", 1, w.size // 2)
    convex = model.n_is_convex()
    nfun = neg_log_survival_function(model, require_convex=False)
    terms, notes = _suffix_norm_terms(inv, nfun, k)
    arg = int(np.argmax(terms))  # ties: smallest index
    m = terms[arg]
    n1, c_n = _n1_and_c_n(model)
    lower = C1_LOWER * m
    upper = KMIN_UPPER_FACTOR * c_n * math.log(k + 1) * m if convex else None
    if not convex:
        notes += ("upper bound omitted: negative log-survival is not convex",)
    upper, notes = _finite_upper(upper, notes)
    return BoundReport(
        kind="kmin",
        k=k,
        lower=lower,
        upper=upper,
        constants={
            "c1": C1_LOWER,
            "upper_kmin": KMIN_UPPER_FACTOR,
            "C_N": c_n,
            "N1": n1,
        },
        terms=tuple(terms),
        argmax_j=arg + 1,
        notes=notes,
    )


def kth_min_bounds_gaussian(x, k: int) -> BoundReport:
    """Closed-form Gaussian k-min sandwich via harmonic suffix sums. A sum
    past the float range is taken of 1/x_i divided by the largest, and its
    term divided by that again, as ``_family_terms`` does with a norm."""
    w, inv = _weights_and_reciprocals(x, "ascending")
    k = _integer_in(k, "k of the k-min bounds (at most n/2)", 1, w.size // 2)
    with np.errstate(over="ignore"):
        suffix = np.cumsum(inv[::-1])[::-1]  # suffix[j-1] = sum_{i=j..n} 1/x_i
    top, notes = float(inv[0]), ()
    if suffix[0] == math.inf:
        scaled, notes = np.cumsum((inv / top)[::-1])[::-1], (_RESCALED_SUM_NOTE,)
    terms = [float((k + 1 - j) / suffix[j - 1]) if suffix[j - 1] < math.inf
             else float((k + 1 - j) / scaled[j - 1]) / top for j in range(1, k + 1)]
    arg = int(np.argmax(terms))
    m = terms[arg]
    upper, notes = _finite_upper(GAUSSIAN_UPPER_FACTOR * math.log(k + 1) * m, notes)
    return BoundReport(
        kind="kmin_gaussian",
        k=k,
        lower=C0_GAUSSIAN * m,
        upper=upper,
        constants={"c0": C0_GAUSSIAN, "upper_factor": GAUSSIAN_UPPER_FACTOR},
        terms=tuple(terms),
        argmax_j=arg + 1,
        notes=notes,
    )


def kth_max_bounds(
    x,
    model: DistributionModel,
    k: int,
    constants: BoundConstants | None = None,
) -> BoundReport:
    """Sandwich for E k-max of |x_i xi_i|, descending weights, k > 1.

    Requires k + k0 <= n with k0 = floor(4(k-1)/F(1)). The upper constant is
    the configurable ``kmax_upper_c`` (empirical, flagged in the report).
    """
    cons = constants or BoundConstants()
    w, inv = _weights_and_reciprocals(x, "descending")
    n = w.size
    k = _integer_in(k, "k of the k-max bounds (use max_bounds for k = 1)", 2, n)
    f1 = model.survival(1.0)
    if not (f1 > 0):
        raise DomainError(
            f"k-max bounds need F(1) > 0, but F(1) underflows to 0 for {model.describe()}"
        )
    k0 = int(math.floor(4.0 * (k - 1) / f1))
    if k + k0 > n:
        raise InfeasibleError(
            f"k + k0 <= n fails: k={k}, k0={k0}, n={n}; need n >= {k + k0}",
            required_n=k + k0,
        )
    nfun = neg_log_survival_function(model)  # convexity required here
    terms, notes = _family_terms((inv[: k + ell], nfun.scaled(_TWO_E / (ell + 1)))
                                 for ell in range(k0))
    arg = int(np.argmax(terms))
    m = terms[arg]
    mfun = expected_overshoot_function(model)
    tail_norm = orlicz_norm(w[k + k0 - 1 :], mfun)
    n1, c_n = _n1_and_c_n(model)
    a = 1.0 + math.log(8.0 * (k - 1)) / n1
    lower = 0.25 * (m + tail_norm / a)
    upper, notes = _finite_upper(
        cons.kmax_upper_c * (c_n * math.log(k + 1) * m + tail_norm), notes)
    return BoundReport(
        kind="kmax",
        k=k,
        lower=lower,
        upper=upper,
        constants={
            "kmax_upper_c": cons.kmax_upper_c,
            "C_N": c_n,
            "N1": n1,
            "F1": float(f1),
            "tail_discount": a,
        },
        terms=tuple(terms),
        argmax_j=arg,  # 0-based l, matching the k-max formula's index
        k0=k0,
        tail_norm=tail_norm,
        empirical_constants=("kmax_upper_c",),
        notes=notes,
    )


def max_bounds(
    x, model: DistributionModel, constants: BoundConstants | None = None
) -> BoundReport:
    """Bounds c_low E|xi| ||x||_M <= E max |x_i xi_i| <= c_high E|xi| ||x||_M.

    M is the moment function of xi / E|xi|, so callers need no
    normalization precondition. The pair (c_low, c_high) has empirical
    defaults (1/4, 8), flagged in the report.
    """
    cons = constants or BoundConstants()
    v = np.asarray(x, dtype=float).ravel()
    if v.size == 0 or not np.any(v != 0):
        raise DomainError("max bounds require a nonzero vector")
    mean = model.mean_abs()
    nm = orlicz_norm(v, _unit_mean_moment_function(model))
    lower = cons.max1_c_low * mean * nm
    if not (lower < math.inf):
        raise NumericError(
            f"max lower bound exceeds the float range: E|xi| = {mean!r}, ||x||_M = {nm!r}"
        )
    upper, notes = _finite_upper(cons.max1_c_high * mean * nm, ())
    return BoundReport(
        kind="max1",
        k=1,
        lower=lower,
        upper=upper,
        constants={
            "max1_c_low": cons.max1_c_low,
            "max1_c_high": cons.max1_c_high,
            "mean_abs": mean,
            "unit_norm": nm,
        },
        terms=(nm,),
        argmax_j=None,
        empirical_constants=("max1_c_low", "max1_c_high"),
        notes=notes,
    )


def kth_min_moment_lower(x, model: DistributionModel, k: int, p: float) -> float:
    """Lower bound for E (k-min)^p: c1 * max_j ||(1/x_i)_{i=j..n}||_{N_j}^{-p}.

    Valid for 1 <= k <= n and any finite p > 0; does not need convexity of N.
    """
    _positive(p, "moment order p", RangeError)
    w, inv = _weights_and_reciprocals(x, "ascending")
    k = _integer_in(k, "k of the k-min moment bound", 1, w.size)
    nfun = neg_log_survival_function(model, require_convex=False)
    terms, _ = _suffix_norm_terms(inv, nfun, k)
    try:
        return C1_LOWER * max(terms) ** p
    except OverflowError:
        raise NumericError(
            f"k-min moment lower bound: the largest term to the power p={p:g} "
            "exceeds the float range"
        ) from None


def min_moment_upper(x, model: DistributionModel, p: float) -> float:
    """Upper bound for E (min)^p: (1 + Gamma(1+p)) * ||(1/x_i)||_N^{-p}.

    Requires N = -ln F convex (rejected otherwise). A factor outside the
    normal floats is taken in logs; NumericError where the bound is.
    """
    _positive(p, "moment order p", RangeError)
    _, inv = _weights_and_reciprocals(x, "ascending")
    nfun = neg_log_survival_function(model)  # NonConvexError if not convex
    nm = _norm_to_invert(inv, nfun)
    try:
        power = nm ** (-p)
        upper = (1.0 + math.gamma(1.0 + p)) * power
    except OverflowError:
        power = upper = math.inf
    if upper == math.inf or power < sys.float_info.min:
        try:
            log_gamma = math.lgamma(1.0 + p)
            upper = math.exp(log_gamma + math.log1p(math.exp(-log_gamma)) - p * math.log(nm))
        except OverflowError:
            upper = math.inf
    if not sys.float_info.min <= upper < math.inf:
        where = "exceeds the float range" if upper == math.inf else "is below the float range"
        raise NumericError(f"min moment upper bound at p={p:g} {where}")
    return upper

"""Seeded Monte Carlo estimators and exact combinatorial inequality checks.

Order-statistic expectations are estimated by averaging the k-th smallest
(or largest) of |x_i xi_i| over replications. Each row is partially
selected at the wanted order statistics, or sorted when more than two are
wanted (the selected values are the same either way). Replications are split
into chunks whose size depends only on n; chunk c draws from an independent
substream seeded by (seed, c), and per-chunk sums are combined in chunk
order, so results are bit-identical for a given (seed, replications)
regardless of how many worker threads run the chunks.

The exact checks use elementary symmetric polynomials computed by the
product recurrence e_l <- e_l + a_i e_{l-1} over rational arithmetic
(double-precision inputs are dyadic rationals, so this is exact); a subset
enumeration route is kept as an n <= 12 cross-check of the recurrence.
Every checker reports both sides; a False result is a diagnosable failure,
never a silent pass.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from numbers import Integral

import numpy as np

from .distributions import DistributionModel
from .errors import DomainError, NumericError, RangeError
from .orlicz import Weights, _reciprocals, _validate_weights, from_callable, orlicz_norm
from .reporting import CheckResult

__all__ = [
    "MonteCarloEstimate",
    "kth_smallest",
    "estimate_order_stat",
    "estimate_order_stats",
    "elementary_symmetric",
    "elementary_symmetric_by_enumeration",
    "check_symmetric_tail_bound",
    "check_kth_min_tail",
    "kth_min_tail_threshold",
    "check_min_survival_product",
    "check_kmax_split",
    "check_subset_product_chain",
]

_CHUNK_ROWS = 8192
_CHUNK_ELEMENTS = 8192 * 1024  # draws held by one chunk (64 MiB), unless n is larger
_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
_TINY = float(np.finfo(float).tiny)  # smallest normal double
_ENUMERATION_LIMIT = 22


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Replication average with a 99% normal-approximation half-width.

    Fully reproducible: (seed, replications, statistic, inputs) determine
    the mean bit-for-bit.
    """

    statistic: str  # "kmin" | "kmax"
    k: int
    power: float
    mean: float
    ci_halfwidth: float
    replications: int
    seed: int


def kth_smallest(values, k: int):
    """k-th smallest along the last axis via partial selection."""
    v = np.asarray(values, dtype=float)
    n = v.shape[-1]
    if not (1 <= k <= n):
        raise RangeError(f"order statistic requires 1 <= k <= n: got k={k}, n={n}")
    return np.partition(v, k - 1, axis=-1)[..., k - 1]


def _weights_vector(x) -> np.ndarray:
    if isinstance(x, Weights):
        return x.values  # validated on construction
    arr = np.asarray(x, dtype=float).ravel()
    _validate_weights(arr)
    return arr


def _integer_at_least(value, low: int) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= low


def _worker_count(threads: int, chunks: int) -> int:
    """Pool size: never more threads than chunks or than CPUs."""
    return min(threads, chunks, os.cpu_count() or 1)


def _selected_chunks(xv: np.ndarray, model: DistributionModel, kth, replications: int,
                     seed: int, threads: int, reduce) -> list:
    """``reduce(rows)`` for each chunk of replications, in chunk order.

    A chunk holds ``min(_CHUNK_ROWS, max(1, _CHUNK_ELEMENTS // n))`` rows
    (fewer in the last one), so its draws stay within ``_CHUNK_ELEMENTS``
    doubles unless a single row is longer. Chunk c is drawn from
    ``default_rng([seed, c])`` and turned into rows |xi| * x in place, in the
    array ``model.sample`` returned. Each row is then sorted when ``kth``
    names more than two positions, and partitioned at ``kth`` otherwise:
    numpy's multi-kth introselect is slower than its row sort, and both put
    the same value at every position in ``kth``, which is all ``reduce`` may
    read. Overflow in a chunk gives inf without a warning. Which thread runs
    a chunk never changes its result.
    """
    if not _integer_at_least(replications, 100):
        raise RangeError(f"need at least 100 replications, got {replications!r}")
    if not _integer_at_least(seed, 0):
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    if not _integer_at_least(threads, 1):
        raise RangeError(f"threads must be a positive integer, got {threads!r}")
    n = xv.size
    chunk_rows = min(_CHUNK_ROWS, max(1, _CHUNK_ELEMENTS // n))
    chunks = -(-replications // chunk_rows)
    sort_rows = np.size(kth) > 2

    def worker(c: int):
        rows = min(chunk_rows, replications - c * chunk_rows)
        rng = np.random.default_rng([int(seed), c])
        draws = model.sample(rng, rows * n).reshape(rows, n)
        with np.errstate(over="ignore"):
            np.abs(draws, out=draws)
            draws *= xv
            if sort_rows:
                draws.sort(axis=1)
            else:
                draws.partition(kth, axis=1)
            return reduce(draws)

    workers = _worker_count(threads, chunks)
    if workers == 1:
        return [worker(c) for c in range(chunks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, range(chunks)))


def estimate_order_stats(
    x,
    model: DistributionModel,
    ks,
    statistic: str = "kmin",
    replications: int = 100_000,
    seed: int = 0,
    power: float = 1.0,
    threads: int = 1,
) -> list[MonteCarloEstimate]:
    """Estimates for several k at once, sharing the same sample stream.

    Each k's estimate is identical to the one ``estimate_order_stat`` would
    produce with the same (seed, replications).
    """
    xv = _weights_vector(x)
    n = xv.size
    if statistic not in ("kmin", "kmax"):
        raise DomainError(f"statistic must be kmin or kmax, got {statistic!r}")
    ks = [int(k) for k in ks]
    for k in ks:
        if not (1 <= k <= n):
            raise RangeError(f"order statistic requires 1 <= k <= n: got k={k}, n={n}")
    if not (0 < power < math.inf):
        raise RangeError(f"power must be positive and finite, got {power}")

    sel = [(k - 1) if statistic == "kmin" else (n - k) for k in ks]

    def sums(part):
        out = np.empty((len(sel), 2))
        for pos, idx in enumerate(sel):
            col = part[:, idx]
            if power != 1.0:
                col = col**power
            out[pos, 0] = np.sum(col)
            out[pos, 1] = np.sum(col * col)
        return out

    kth = np.unique(sel)

    def totals(weights):
        out = np.zeros((len(sel), 2))
        for block in _selected_chunks(weights, model, kth, replications, seed, threads, sums):
            out += block  # fixed chunk order keeps the sum deterministic
        return out

    def moments(total, total_sq):
        mean = float(total) / replications
        return mean, (float(total_sq) - replications * mean * mean) / (replications - 1)

    raw, rescaled = totals(xv), None
    estimates = []
    for pos, k in enumerate(ks):
        mean, var = moments(*raw[pos])
        factor = 1.0
        underflowed = mean > 0 and (var <= 0 or raw[pos, 1] < _TINY)
        if underflowed or not (math.isfinite(mean) and math.isfinite(var)):
            # |xi| x or its square overflowed, or the squares fell below the
            # smallest normal double and the variance lost its digits: the
            # same draws on x / max(x), scaled back by max(x)^power (the
            # statistic is homogeneous)
            if rescaled is None:
                xmax = float(np.max(xv))
                rescaled = totals(xv / xmax)
                with np.errstate(over="ignore"):
                    scale_back = float(np.power(xmax, power))
            mean, var = moments(*rescaled[pos])
            factor = scale_back
        ci = _Z99 * math.sqrt(max(0.0, var) / replications)
        mean, ci = mean * factor, ci * factor
        if not (math.isfinite(var) and math.isfinite(mean) and math.isfinite(ci)):
            raise NumericError(
                f"{statistic} k={k} estimate overflows even with weights scaled to max 1"
            )
        estimates.append(
            MonteCarloEstimate(
                statistic=statistic,
                k=k,
                power=power,
                mean=mean,
                ci_halfwidth=ci,
                replications=replications,
                seed=seed,
            )
        )
    return estimates


def estimate_order_stat(
    x,
    model: DistributionModel,
    k: int,
    statistic: str = "kmin",
    replications: int = 100_000,
    seed: int = 0,
    power: float = 1.0,
    threads: int = 1,
) -> MonteCarloEstimate:
    """Mean of the k-th order statistic of |x_i xi_i| over replications."""
    return estimate_order_stats(
        x, model, [k], statistic, replications, seed, power, threads
    )[0]


def _frequency_kth_min_below(
    xv: np.ndarray,
    model: DistributionModel,
    k: int,
    t: float,
    replications: int,
    seed: int,
    threads: int = 1,
):
    """Empirical P(k-min <= t) with its binomial standard error."""

    def below(part):
        return int(np.count_nonzero(part[:, k - 1] <= t))

    hits = sum(_selected_chunks(xv, model, k - 1, replications, seed, threads, below))
    freq = hits / replications
    se = math.sqrt(max(freq * (1.0 - freq), 0.0) / replications)
    return freq, se


def check_kth_min_tail(
    x,
    model: DistributionModel,
    k: int,
    t: float,
    replications: int = 100_000,
    seed: int = 0,
    threads: int = 1,
) -> CheckResult:
    """Empirical P(k-min <= t) against a^k / ((1-a) sqrt(2 pi k)) with
    a = (e/k) sum_i G(t/x_i), valid while a < 1.

    a = 0 (e.g. t = 0 and a continuous distribution) is allowed and trivially
    true; a >= 1 violates the precondition.
    """
    xv = _weights_vector(x)
    n = xv.size
    if not (1 <= k <= n):
        raise RangeError(f"tail check requires 1 <= k <= n: got k={k}, n={n}")
    if t < 0:
        raise DomainError(f"threshold must be >= 0, got {t}")
    g = 1.0 - model.survival(t / xv) if t > 0 else np.zeros(n)
    aval = float(math.e / k * np.sum(g))
    if aval >= 1.0:
        raise DomainError(f"(e/k) sum G(t/x_i) must be < 1, got {aval:.6f}")
    if aval == 0.0:
        rhs = 0.0
    else:
        rhs = aval**k / ((1.0 - aval) * math.sqrt(2.0 * math.pi * k))
    freq, se = _frequency_kth_min_below(xv, model, k, t, replications, seed, threads)
    ok = freq <= rhs + 4.0 * se + 1e-12
    return CheckResult(
        name="kth_min_tail",
        ok=bool(ok),
        lhs=freq,
        rhs=float(rhs),
        detail={"a": aval, "ci": se, "t": t, "k": k, "replications": replications},
    )


def kth_min_tail_threshold(x, model: DistributionModel, k: int) -> float:
    """Largest threshold below which the tail-check precondition a < 1 holds.

    Equals the reciprocal norm of (1/x_i) under (e/k)G with G = 1 - F; +inf
    when a(t) stays below 1 for every t (possible since G <= 1). For
    tabulated models, G beyond the resolved region is replaced by its
    trivial upper bound 1, which only shrinks the returned threshold (never
    extrapolates).
    """
    xv = _weights_vector(x)
    if not (1 <= k <= xv.size):
        raise RangeError(f"threshold requires 1 <= k <= n: got k={k}, n={xv.size}")
    nm = orlicz_norm(_reciprocals(xv), _tail_threshold_function(model, k))
    return math.inf if nm == 0.0 else 1.0 / nm


def _tail_threshold_function(model: DistributionModel, k: int):
    """(e/k)G with G = 1 - F: the handle whose norm ``kth_min_tail_threshold``
    inverts. Bounded by e/k, so the functional can be 0. Past a tabulated
    model's range F reads 0, so G is its trivial upper bound 1 there."""

    def _g(u):
        return (math.e / k) * (1.0 - model._survival(u))

    return from_callable(_g, label=f"(e/{k})G", is_orlicz=False)


def check_min_survival_product(
    x,
    model: DistributionModel,
    t: float,
    replications: int = 100_000,
    seed: int = 0,
    threads: int = 1,
) -> CheckResult:
    """Empirical P(min > t) against the product of survivals, plus the
    union-bound side P(min <= t) <= sum_i G(t/x_i)."""
    xv = _weights_vector(x)
    if not (t > 0):
        raise DomainError(f"threshold must be positive, got {t}")
    surv = model.survival(t / xv)
    product = float(np.prod(surv))
    sum_g = float(np.sum(1.0 - surv))
    freq_le, se = _frequency_kth_min_below(xv, model, 1, t, replications, seed, threads)
    freq_gt = 1.0 - freq_le
    ok_product = abs(freq_gt - product) <= 4.0 * se + 1e-12
    union = CheckResult(
        name="min_survival_union",
        ok=bool(freq_le <= sum_g + 4.0 * se + 1e-12),
        lhs=freq_le,
        rhs=sum_g,
    )
    return CheckResult(
        name="min_survival_product",
        ok=bool(ok_product and union.ok),
        lhs=freq_gt,
        rhs=product,
        detail={
            "union": union,
            "ci": se,
            "t": t,
            "replications": replications,
        },
    )


def check_kmax_split(values, k: int, j: int) -> CheckResult:
    """Per-realization split: k-max over all entries never exceeds the j-th
    smallest of the first k+j-1 plus the maximum of the rest.

    ``values`` may be one realization (vector) or a batch (rows); absolute
    values are taken. Requires j <= n - k so the remainder is nonempty.
    """
    vals = np.abs(np.asarray(values, dtype=float))
    if vals.ndim == 1:
        vals = vals[None, :]
    if vals.ndim != 2:
        raise DomainError("values must be a vector or a batch of row vectors")
    n = vals.shape[1]
    if not (1 <= k <= n):
        raise RangeError(f"split check requires 1 <= k <= n: got k={k}, n={n}")
    if not (1 <= j <= n - k):
        raise RangeError(f"split check requires 1 <= j <= n - k: got j={j}, n-k={n - k}")
    kmax = np.partition(vals, n - k, axis=1)[:, n - k]
    jmin = np.partition(vals[:, : k + j - 1], j - 1, axis=1)[:, j - 1]
    rest = np.max(vals[:, k + j - 1 :], axis=1)
    rhs = jmin + rest
    tol = 1e-12 * np.maximum(1.0, np.abs(kmax))
    gaps = kmax - rhs
    worst = int(np.argmax(gaps))
    violations = int(np.count_nonzero(gaps > tol))
    return CheckResult(
        name="kmax_split",
        ok=violations == 0,
        lhs=float(kmax[worst]),
        rhs=float(rhs[worst]),
        detail={"violations": violations, "rows": int(vals.shape[0]), "k": k, "j": j},
    )


def elementary_symmetric(values) -> list[Fraction]:
    """e_0 .. e_n of nonnegative values, exact.

    Product recurrence over rationals; doubles are dyadic rationals, so no
    rounding occurs anywhere.
    """
    vals = np.asarray(values, dtype=float).ravel()
    if np.any(vals < 0) or np.any(~np.isfinite(vals)):
        raise DomainError("elementary symmetric polynomials need finite nonnegative values")
    fracs = [Fraction(float(v)) for v in vals]
    e = [Fraction(0)] * (len(fracs) + 1)
    e[0] = Fraction(1)
    for i, a in enumerate(fracs, start=1):
        for level in range(min(i, len(fracs)), 0, -1):
            e[level] += a * e[level - 1]
    return e

def elementary_symmetric_by_enumeration(values, order: int) -> Fraction:
    """Subset enumeration route (cross-check of the recurrence, n <= 12)."""
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size > 12:
        raise RangeError(f"enumeration limited to n <= 12, got {vals.size}")
    if not (0 <= order <= vals.size):
        raise RangeError(f"order must be in 0..{vals.size}, got {order}")
    fracs = [Fraction(float(v)) for v in vals]
    total = Fraction(0)
    for subset in combinations(fracs, order):
        prod = Fraction(1)
        for a in subset:
            prod *= a
        total += prod
    return total


def check_symmetric_tail_bound(a, k: int) -> CheckResult:
    """Exact sum_{l>=k} e_l(a) against a^k / ((1-a) sqrt(2 pi k)) with
    a = (e/k) sum a_i in (0, 1)."""
    vals = np.asarray(a, dtype=float).ravel()
    n = vals.size
    if n > _ENUMERATION_LIMIT:
        raise RangeError(f"check limited to n <= {_ENUMERATION_LIMIT}, got {n}")
    if not (1 <= k <= n):
        raise RangeError(f"check requires 1 <= k <= n: got k={k}, n={n}")
    esp = elementary_symmetric(vals)
    lhs = float(sum(esp[k:], Fraction(0)))
    aval = float(math.e / k * np.sum(vals))
    if not (0.0 < aval < 1.0):
        raise DomainError(f"(e/k) sum a_i must lie in (0, 1), got {aval}")
    rhs = aval**k / ((1.0 - aval) * math.sqrt(2.0 * math.pi * k))
    return CheckResult(
        name="symmetric_tail_bound",
        ok=bool(lhs < rhs),
        lhs=lhs,
        rhs=float(rhs),
        detail={"a": aval, "n": n, "k": k},
    )


def check_subset_product_chain(a, j: int) -> CheckResult:
    """Exact chain e_j(a) <= C(m,j) (mean a)^j <= (sum a)^j / j!.

    All three quantities are compared in rational arithmetic, so the
    equality cases (j = 0, j = 1, identical entries) are exact.
    """
    vals = np.asarray(a, dtype=float).ravel()
    m = vals.size
    if m > _ENUMERATION_LIMIT:
        raise RangeError(f"check limited to m <= {_ENUMERATION_LIMIT}, got {m}")
    if m == 0:
        raise RangeError("check requires a nonempty vector")
    if not (0 <= j <= m):
        raise RangeError(f"check requires 0 <= j <= m: got j={j}, m={m}")
    if np.any(vals < 0):
        raise DomainError("check requires nonnegative values")
    esp = elementary_symmetric(vals)
    esp_j, total = esp[j], esp[1]
    middle = Fraction(math.comb(m, j)) * (total / m) ** j
    right = total**j / Fraction(math.factorial(j))
    ok = esp_j <= middle <= right
    return CheckResult(
        name="subset_product_chain",
        ok=bool(ok),
        lhs=float(esp_j),
        rhs=float(right),
        detail={"middle": float(middle), "m": m, "j": j},
    )

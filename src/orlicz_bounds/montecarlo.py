"""Seeded Monte Carlo estimators and exact combinatorial inequality checks.

Order-statistic expectations are estimated by averaging the k-th smallest
(or largest) of |x_i xi_i| over replications, using partial selection rather
than full sorts. Replications are split into fixed-size chunks; chunk c
draws from an independent substream seeded by (seed, c), and per-chunk sums
are combined in chunk order, so results are bit-identical for a given
(seed, replications) regardless of how many worker threads run the chunks.

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
from .errors import DomainError, RangeError
from .orlicz import Weights, from_callable, orlicz_norm
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
_Z99 = 2.5758293035489004  # two-sided 99% normal quantile
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
    arr = x.values if isinstance(x, Weights) else np.asarray(x, dtype=float).ravel()
    if arr.size == 0 or np.any(~(np.isfinite(arr) & (arr > 0))):
        raise DomainError("weights must be a nonempty vector of positive finite entries")
    return arr


def _integer_at_least(value, low: int) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= low


def _worker_count(threads: int, chunks: int) -> int:
    """Pool size: never more threads than chunks or than CPUs."""
    return min(threads, chunks, os.cpu_count() or 1)


def _selected_chunks(xv: np.ndarray, model: DistributionModel, kth, replications: int,
                     seed: int, threads: int, reduce) -> list:
    """``reduce(rows)`` for each chunk of replications, in chunk order.

    Chunk c holds up to ``_CHUNK_ROWS`` replications drawn from
    ``default_rng([seed, c])``; its rows are |xi| * x, partitioned along each
    row at ``kth``. Which thread runs a chunk never changes its result.
    """
    if not _integer_at_least(replications, 100):
        raise RangeError(f"need at least 100 replications, got {replications!r}")
    if not _integer_at_least(seed, 0):
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    if not _integer_at_least(threads, 1):
        raise RangeError(f"threads must be a positive integer, got {threads!r}")
    n = xv.size
    chunks = -(-replications // _CHUNK_ROWS)

    def worker(c: int):
        rows = min(_CHUNK_ROWS, replications - c * _CHUNK_ROWS)
        rng = np.random.default_rng([int(seed), c])
        draws = model.sample(rng, rows * n).reshape(rows, n)
        return reduce(np.partition(np.abs(draws) * xv, kth, axis=1))

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

    stats = _selected_chunks(xv, model, np.unique(sel), replications, seed, threads, sums)
    totals = np.zeros((len(sel), 2))
    for block in stats:  # fixed chunk order keeps the sum deterministic
        totals += block

    estimates = []
    for pos, k in enumerate(ks):
        total, total_sq = totals[pos]
        mean = total / replications
        var = max(0.0, (total_sq - replications * mean * mean) / (replications - 1))
        ci = _Z99 * math.sqrt(var / replications)
        estimates.append(
            MonteCarloEstimate(
                statistic=statistic,
                k=k,
                power=power,
                mean=float(mean),
                ci_halfwidth=float(ci),
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
    limit = model.upper_limit()

    def _g(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        out = np.ones(u.shape)
        inside = u <= limit
        out[inside] = 1.0 - model.survival(u[inside])
        return (math.e / k) * out

    gfun = from_callable(_g, label=f"(e/{k})G", is_orlicz=False)
    nm = orlicz_norm(1.0 / xv, gfun)
    return math.inf if nm == 0.0 else 1.0 / nm


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
    if not (0 <= j <= m):
        raise RangeError(f"check requires 0 <= j <= m: got j={j}, m={m}")
    if np.any(vals < 0):
        raise DomainError("check requires nonnegative values")
    esp_j = elementary_symmetric(vals)[j]
    total = Fraction(0)
    for v in vals:
        total += Fraction(float(v))
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

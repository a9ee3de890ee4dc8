"""Seeded Monte Carlo estimators and exact combinatorial inequality checks.

Order-statistic expectations are estimated by averaging the k-th smallest
(or largest) of |x_i xi_i| over replications; ``estimate_order_stats``
estimates every order it is given from one sample stream. Each row is
partially selected at the wanted order statistics, or sorted when more than
two are wanted (the selected values are the same either way). The one frequency
check, the minimum's survival product, selects nothing: a row's minimum is
<= t exactly when any of its entries is, so it counts per row. Replications
are split into chunks whose size depends only on n; chunk c draws from an
independent substream seeded by (seed, c), and per-chunk sums are combined
in chunk order, so results are bit-identical for a given (seed,
replications) regardless of how many worker threads run the chunks.

The k-min tail check samples nothing: the events {|x_i xi_i| <= t} are
independent, so P(k-min <= t) is the Poisson-binomial chance that at least
k of them occur, computed exactly by a recurrence over k + 1 levels. The
other exact checks use elementary symmetric polynomials computed by the
product recurrence e_l <- e_l + a_i e_{l-1}. Doubles are dyadic rationals,
so each input is written as an integer over one common denominator 2^p and
the recurrence runs on Python integers: exact, and with no gcd until e_l is
formed once as E_l / 2^(p l).
Every checker reports both sides; a False result is a diagnosable failure,
never a silent pass.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .distributions import DistributionModel
from .errors import DomainError, NumericError, RangeError, _integer_in, _positive
from .orlicz import OrliczFunction, _as_weights, _weights_and_reciprocals, orlicz_norm
from .reporting import CheckResult

__all__ = [
    "MonteCarloEstimate",
    "estimate_order_stats",
    "elementary_symmetric",
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
    read. ``kth=None`` makes no selection, for a ``reduce`` that reads the
    rows in their drawn order (a count per row). Overflow in a chunk gives
    inf without a warning. Which thread runs a chunk never changes its
    result.
    """
    _integer_in(replications, "replications", 100)
    _integer_in(seed, "seed", 0, error=DomainError)
    _integer_in(threads, "threads", 1)
    n = xv.size
    chunk_rows = min(_CHUNK_ROWS, max(1, _CHUNK_ELEMENTS // n))
    chunks = -(-replications // chunk_rows)
    sort_rows = kth is not None and np.size(kth) > 2

    def worker(c: int):
        rows = min(chunk_rows, replications - c * chunk_rows)
        rng = np.random.default_rng([int(seed), c])
        draws = model.sample(rng, rows * n).reshape(rows, n)
        with np.errstate(over="ignore"):
            np.abs(draws, out=draws)
            draws *= xv
            if sort_rows:
                draws.sort(axis=1)
            elif kth is not None:
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
    """Means of the k-th order statistics of |x_i xi_i| over replications,
    one estimate per k in ``ks``, all from the same sample stream.

    Each k's estimate is identical to the one ``ks=[k]`` would produce with
    the same (seed, replications).
    """
    xv = _as_weights(x)
    n = xv.size
    if statistic not in ("kmin", "kmax"):
        raise DomainError(f"statistic must be kmin or kmax, got {statistic!r}")
    ks = [_integer_in(k, "order statistic k", 1, n) for k in ks]
    if not ks:
        raise RangeError("estimates need at least one order k")
    _positive(power, "power", RangeError)

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


def _poisson_binomial_tail(p: np.ndarray, k: int) -> float:
    """P(at least k of independent events with probabilities p occur).

    q[l] holds P(exactly l events so far) for l < k, and q[k] absorbs
    P(at least k). Each entry moves mass p_i one level up; every update adds
    nonnegative terms, so a tail of 1e-14 keeps its relative precision.
    """
    q = np.zeros(k + 1)
    q[0] = 1.0
    for pi in p:
        moved = q[:k] * pi
        q[:k] *= 1.0 - pi
        q[1:] += moved
    return float(q[k])


def _tail_bound(a: float, k: int) -> float:
    """a^k / ((1 - a) sqrt(2 pi k)), the right side of both tail checks,
    for a in [0, 1) and k >= 1."""
    return a**k / ((1.0 - a) * math.sqrt(2.0 * math.pi * k))


def check_kth_min_tail(x, model: DistributionModel, k: int, t: float) -> CheckResult:
    """Exact P(k-min <= t) against a^k / ((1-a) sqrt(2 pi k)) with
    a = (e/k) sum_i G(t/x_i), valid while a < 1.

    The k-min is <= t exactly when at least k of the independent events
    {|x_i xi_i| <= t}, of probabilities G(t/x_i), occur; the left side is
    that Poisson-binomial tail. a = 0 (e.g. t = 0 and a continuous
    distribution) is allowed and trivially true; a >= 1 violates the
    precondition.
    """
    xv = _as_weights(x)
    n = xv.size
    k = _integer_in(k, "k of the tail check", 1, n)
    if not (0 <= t < math.inf):
        raise DomainError(f"threshold must be finite and >= 0, got {t}")
    g = 1.0 - model.survival(t / xv) if t > 0 else np.zeros(n)
    aval = float(math.e / k * np.sum(g))
    if aval >= 1.0:
        raise DomainError(f"(e/k) sum G(t/x_i) must be < 1, got {aval:.6f}")
    rhs = _tail_bound(aval, k)
    lhs = _poisson_binomial_tail(g, k)
    return CheckResult(
        name="kth_min_tail",
        ok=bool(lhs <= rhs),
        lhs=lhs,
        rhs=rhs,
        detail={"a": aval, "t": t, "k": k},
    )


def kth_min_tail_threshold(x, model: DistributionModel, k: int) -> float:
    """Largest threshold below which the tail-check precondition a < 1 holds.

    Equals the reciprocal norm of (1/x_i) under (e/k)G with G = 1 - F; +inf
    when a(t) stays below 1 for every t (possible since G <= 1). For
    tabulated models, G beyond the resolved region is replaced by its
    trivial upper bound 1, which only shrinks the returned threshold (never
    extrapolates).
    """
    _, inv = _weights_and_reciprocals(x)
    k = _integer_in(k, "k of the tail threshold", 1, inv.size)
    nm = orlicz_norm(inv, _tail_threshold_function(model, k))
    return math.inf if nm == 0.0 else 1.0 / nm


def _tail_threshold_function(model: DistributionModel, k: int):
    """(e/k)G with G = 1 - F: the handle whose norm ``kth_min_tail_threshold``
    inverts. Bounded by e/k, so the functional can be 0. Past a tabulated
    model's range F reads 0, so G is its trivial upper bound 1 there."""

    def _g(u):
        return (math.e / k) * (1.0 - model._survival(u))

    return OrliczFunction(label=f"(e/{k})G", evaluate=_g)


def check_min_survival_product(
    x,
    model: DistributionModel,
    t: float,
    replications: int = 100_000,
    seed: int = 0,
    threads: int = 1,
) -> CheckResult:
    """Empirical P(min > t) against the product of survivals, plus the
    union-bound side P(min <= t) <= sum_i G(t/x_i). Both sides are decided
    within 4 standard errors of the frequency that the product gives,
    sqrt(product (1 - product) / R), so a sample in which no row (or every
    row) has its minimum above t does not fail a small but positive
    product; ``detail["ci"]`` reports the observed frequency's."""
    xv = _as_weights(x)
    _positive(t, "threshold")
    surv = model.survival(t / xv)
    product = float(np.prod(surv))
    sum_g = float(np.sum(1.0 - surv))

    def below(rows):  # rows whose minimum is <= t
        return int(np.count_nonzero(np.any(rows <= t, axis=1)))

    hits = sum(_selected_chunks(xv, model, None, replications, seed, threads, below))
    freq_le = hits / replications
    se = math.sqrt(max(freq_le * (1.0 - freq_le), 0.0) / replications)
    freq_gt = 1.0 - freq_le
    slack = 4.0 * math.sqrt(product * (1.0 - product) / replications) + 1e-12
    ok_product = abs(freq_gt - product) <= slack
    union = CheckResult(
        name="min_survival_union",
        ok=bool(freq_le <= sum_g + slack),
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
    values are taken. Requires j <= n - k so the remainder is nonempty, and
    finite values: a NaN or inf entry raises DomainError, never a pass.
    """
    vals = np.abs(np.asarray(values, dtype=float))
    if vals.ndim == 1:
        vals = vals[None, :]
    if vals.ndim != 2:
        raise DomainError("values must be a vector or a batch of row vectors")
    if not np.all(np.isfinite(vals)):
        raise DomainError("split check needs finite values")
    n = vals.shape[1]
    k = _integer_in(k, "k of the split check", 1, n)
    j = _integer_in(j, "j of the split check (at most n - k)", 1, n - k)
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

    Each double is m_i / 2^(q_i); with p the largest q_i it is A_i / 2^p for
    the integer A_i = m_i 2^(p - q_i). The product recurrence runs on the
    integers E_l = 2^(p l) e_l, so no rounding and no gcd occurs until each
    e_l is formed once as E_l / 2^(p l).
    """
    vals = np.asarray(values, dtype=float).ravel()
    if np.any(vals < 0) or np.any(~np.isfinite(vals)):
        raise DomainError("elementary symmetric polynomials need finite nonnegative values")
    pairs = [float(v).as_integer_ratio() for v in vals]
    shifts = [den.bit_length() - 1 for _, den in pairs]  # den = 2^q
    p = max(shifts, default=0)
    ints = [num << (p - q) for (num, _), q in zip(pairs, shifts)]
    e = [1] + [0] * len(ints)
    for i, a in enumerate(ints, start=1):
        for level in range(i, 0, -1):
            e[level] += a * e[level - 1]
    return [Fraction(big, 1 << (p * level)) for level, big in enumerate(e)]


def check_symmetric_tail_bound(a, k: int) -> CheckResult:
    """Exact sum_{l>=k} e_l(a) against a^k / ((1-a) sqrt(2 pi k)) with
    a = (e/k) sum a_i in (0, 1)."""
    vals = np.asarray(a, dtype=float).ravel()
    n = vals.size
    if n > _ENUMERATION_LIMIT:
        raise RangeError(f"check limited to n <= {_ENUMERATION_LIMIT}, got {n}")
    k = _integer_in(k, "k of the symmetric tail check", 1, n)
    esp = elementary_symmetric(vals)
    with np.errstate(over="ignore"):  # an overflow reads inf, which the test refuses
        aval = float(math.e / k * np.sum(vals))
    if not (0.0 < aval < 1.0):
        raise DomainError(f"(e/k) sum a_i must lie in (0, 1), got {aval}")
    # Formed after the test: with a in (0, 1) the exact sum is far below the float limit.
    lhs = float(sum(esp[k:], Fraction(0)))
    rhs = _tail_bound(aval, k)
    return CheckResult(
        name="symmetric_tail_bound",
        ok=bool(lhs < rhs),
        lhs=lhs,
        rhs=rhs,
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
    j = _integer_in(j, "j of the subset product chain", 0, m)
    if np.any(vals < 0):
        raise DomainError("check requires nonnegative values")
    esp = elementary_symmetric(vals)
    esp_j, total = esp[j], esp[1]
    middle = Fraction(math.comb(m, j)) * (total / m) ** j
    right = total**j / Fraction(math.factorial(j))
    ok = esp_j <= middle <= right
    sides = {}
    for side, value in (("e_j", esp_j), ("middle", middle), ("right", right)):
        try:
            sides[side] = float(value)
        except OverflowError:
            raise NumericError(
                f"subset product chain: the {side} side exceeds the float range (j={j})"
            ) from None
    return CheckResult(
        name="subset_product_chain",
        ok=bool(ok),
        lhs=sides["e_j"],
        rhs=sides["right"],
        detail={"middle": sides["middle"], "m": m, "j": j},
    )

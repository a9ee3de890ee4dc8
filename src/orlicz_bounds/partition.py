"""Constructive split of {1..n} into exactly k consecutive Orlicz-norm blocks.

Given ascending weights x and an Orlicz function H with 0 < H(1) < inf,
``build_partition`` returns k nonempty consecutive intervals A_1..A_k whose
per-block norms certify the scaled suffix-norm minimum up to an explicit
factor:

    min_{1<=j<=k} ||(1/x_i)_{i=j..n}||_{H/(k-j+1)}
        <= 4 max{H(1), 1/H(1)} * min_j ||(1/x_i)_{i in A_j}||_H .

The construction works with H normalized so H(1) = 1 (the factor accounts
for the normalization both ways, so running with H or H/H(1) produces the
same blocks). It scans j = 1..k, computing the scaled suffix norm
S_j = ||(1/x_i)_{i=j..n}||_{H/(k+1-j)}, and stops at the first j whose head
is small, 1/x_j <= S_j / 4. Blocks 1..j-1 are then singletons, and
(1/x_i)_{i>=j} is split greedily into k+1-j blocks: each of the first k-j is
the longest interval whose block norm stays below S_j / 2, and the last takes
the rest. The case labels name where the scan stops:

  case 1  at j = 1: greedy blocks only;
  case 3  at some j >= 2: singleton prefix, then greedy blocks;
  case 2  never: singletons A_j = {j} for j < k and one tail block.

All threshold comparisons carry a 1e-12 relative guard so the discrete
"largest integer such that" choices are stable under solver noise. The
returned partition is always re-verified; a certificate failure raises.

A norm is solved only where its value is used: the S_j where the scan may
stop (it sets the greedy limit) and the minima in the certificate. Every
other norm only feeds a comparison, and one modular sum
S(rho) = sum_i H(v_i / rho), the solver's own primitive, settles it. The
solver returns a feasible rho (S(rho) <= 1) within a relative 1e-12 of an
infeasible one (the next float down, for a subnormal rho), and S does not
increase with rho, so:

  S(c (1 - 2e-12)) < 1 - 1e-9   gives  ||v|| <= c  (a greedy block fits,
                                                   a scan step cannot stop);
  S(c) > 1 + 1e-9                gives  ||v|| > c   (a block does not fit,
                                                   a certificate candidate
                                                   cannot lower the minimum).

Each holds for any nondecreasing H, jumps to +inf included; the 1e-9
margins absorb rounding noise in the sums. Only a sum inside the margins
falls back to a solve. So every block, case and certificate value is the
float the all-solving construction gives, bit for bit. A norm ruled out
by a sum is never solved, so one beyond the float range does not raise
NumericError there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, PartitionError, RangeError
from .orlicz import (
    NORM_REL_TOL,
    OrliczFunction,
    _as_weights,
    _modular_sum,
    _reciprocals,
    orlicz_norm,
)
from .reporting import CheckResult

__all__ = ["PartitionResult", "build_partition", "verify_partition"]

_TIE_GUARD = 1.0 + 1e-12
_CERT_SLACK = 1e-8
# A modular sum decides a comparison with a norm when it clears 1 by this.
_SUM_SLACK = 1e-9
# A solver answer above c comes with an infeasible rho at or above c * _SHIFT,
# so a feasible sum at c * _SHIFT puts the answer at c or below.
_SHIFT = 1.0 - 2.0 * NORM_REL_TOL


@dataclass(frozen=True)
class PartitionResult:
    """Exactly k nonempty consecutive blocks covering {1..n} (1-based,
    inclusive), the case of the construction taken, and the
    ``verify_partition`` result certifying them (None on a result built by
    hand and not yet verified)."""

    blocks: tuple
    case_taken: str
    certificate: CheckResult | None = None

    @property
    def k(self) -> int:
        return len(self.blocks)


def _below_stop(head: float) -> float:
    """The largest float c with 0.25 * c * _TIE_GUARD < head: a suffix norm
    of at most c cannot stop the scan at an entry ``head``."""
    c = head / (0.25 * _TIE_GUARD)
    while c > 0.0 and 0.25 * c * _TIE_GUARD >= head:
        c = math.nextafter(c, 0.0)
    while 0.25 * math.nextafter(c, math.inf) * _TIE_GUARD < head:
        c = math.nextafter(c, math.inf)
    return c


def _smallest_norm(candidates: list, rho0: float) -> float:
    """min over (v, fun) in ``candidates`` of orlicz_norm(v, fun), solving
    only candidates that may lie at or below the running minimum.

    The candidates are taken in the order of their modular sums at one
    common rho0, so the smallest norm is usually solved first; a later one
    whose sum at the running minimum m exceeds 1 + _SUM_SLACK has norm > m
    and is skipped.
    """
    order = sorted(candidates, key=lambda c: _modular_sum(c[0], c[1], rho0))
    best = orlicz_norm(*order[0])
    for v, fun in order[1:]:
        if _modular_sum(v, fun, best) > 1.0 + _SUM_SLACK:
            continue
        best = min(best, orlicz_norm(v, fun))
    return best


def _largest_end(inv: np.ndarray, start: int, fun: OrliczFunction, limit: float) -> int:
    """Largest 0-based end index e with ||inv[start:e+1]||_fun <= limit.

    Galloping then binary search; valid because the block norm is
    nondecreasing in its right endpoint. Returns start-1 when even the
    single entry overflows. Each "fits?" is one or two modular sums, and a
    solve only when both land within ``_SUM_SLACK`` of 1.
    """
    n = inv.size
    cap = limit * _TIE_GUARD

    def fits(e: int) -> bool:
        v = inv[start : e + 1]
        if _modular_sum(v, fun, cap * _SHIFT) < 1.0 - _SUM_SLACK:
            return True
        if _modular_sum(v, fun, cap) > 1.0 + _SUM_SLACK:
            return False
        return orlicz_norm(v, fun) <= cap

    if not fits(start):
        return start - 1
    step = 1
    e = start
    while e + step < n and fits(e + step):
        e += step
        step *= 2
    lo, hi = e, min(n - 1, e + step - 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _greedy_blocks(inv: np.ndarray, start: int, blocks_needed: int, fun: OrliczFunction,
                   limit: float) -> list:
    """``blocks_needed`` blocks covering inv[start:]: greedy maximal intervals
    below ``limit`` for all but the last, which takes the rest."""
    n = inv.size
    blocks = []
    pos = start
    while len(blocks) < blocks_needed - 1:
        e = _largest_end(inv, pos, fun, limit)
        # inv is nonincreasing, so only the first interval can stall.
        if e < pos:
            raise PartitionError(
                f"greedy construction stalled at index {pos + 1}: single entry "
                f"exceeds the block limit"
            )
        blocks.append((pos, e))
        if e == n - 1:
            raise PartitionError(
                f"greedy construction produced {len(blocks)} blocks, "
                f"needs at least {blocks_needed}"
            )
        pos = e + 1
    blocks.append((pos, n - 1))
    return blocks


def build_partition(x, fun: OrliczFunction, k: int) -> PartitionResult:
    """Split {1..n} into k consecutive blocks certifying the suffix-norm
    minimum; see the module docstring for the construction and guards."""
    w = _as_weights(x, "ascending")
    n = len(w)
    if not (1 <= k <= n):
        raise RangeError(f"partition requires 1 <= k <= n: got k={k}, n={n}")
    h1 = fun(1.0)
    if not (0 < h1 < math.inf):
        raise DomainError(f"partition requires 0 < H(1) < inf, got H(1) = {h1}")

    hn = fun.scaled(1.0 / h1)  # normalized so hn(1) = 1
    inv = _reciprocals(w.values)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for j in range(1, k + 1):
            v, fun_j = inv[j - 1 :], hn.scaled(1.0 / (k + 1 - j))
            below = _below_stop(inv[j - 1]) * _SHIFT
            if _modular_sum(v, fun_j, below) < 1.0 - _SUM_SLACK:
                continue  # S_j < c: the stop test fails without solving S_j
            suffix_norm = orlicz_norm(v, fun_j)
            if inv[j - 1] <= 0.25 * suffix_norm * _TIE_GUARD:
                tail = _greedy_blocks(inv, j - 1, k + 1 - j, hn, 0.5 * suffix_norm)
                case = "case1" if j == 1 else "case3"
                break
        else:  # no stop: j == k, so entries 1..k-1 are singletons
            tail, case = [(k - 1, n - 1)], "case2"
    blocks = [(i, i) for i in range(j - 1)] + tail

    result = PartitionResult(blocks=tuple((a + 1, b + 1) for a, b in blocks), case_taken=case)
    check = verify_partition(w, fun, k, result)
    if not check.ok:
        raise PartitionError(
            f"constructed partition failed its certificate: "
            f"lhs={check.lhs:.12g} > rhs={check.rhs:.12g} ({case})"
        )
    return replace(result, certificate=check)


def verify_partition(x, fun: OrliczFunction, k: int, result: PartitionResult) -> CheckResult:
    """Recompute both sides of the certifying inequality for ``result``.

    Structure is validated first (exactly k nonempty consecutive intervals
    covering {1..n}); the norms are then recomputed from scratch with the
    original, unnormalized H. Each side is a minimum of k norms, of which
    only those a modular sum cannot rule out are solved.
    """
    w = _as_weights(x, "ascending")
    n = len(w)
    blocks = list(result.blocks)
    if len(blocks) != k:
        raise DomainError(f"malformed partition: {len(blocks)} blocks, expected {k}")
    expect = 1
    for a, b in blocks:
        if a != expect or b < a or b > n:
            raise DomainError(
                f"malformed partition: block ({a},{b}) breaks consecutive cover of 1..{n}"
            )
        expect = b + 1
    if expect != n + 1:
        raise DomainError(f"malformed partition: cover stops at {expect - 1}, expected {n}")

    h1 = fun(1.0)
    if not (0 < h1 < math.inf):
        raise DomainError(f"partition certificate requires 0 < H(1) < inf, got {h1}")
    inv = _reciprocals(w.values)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lhs = _smallest_norm(
            [(inv[j - 1 :], fun.scaled(1.0 / (k - j + 1))) for j in range(1, k + 1)], inv[0])
        min_block = _smallest_norm([(inv[a - 1 : b], fun) for a, b in blocks], inv[0])
    factor = 4.0 * max(h1, 1.0 / h1)
    rhs = factor * min_block
    ok = lhs <= rhs * (1.0 + _CERT_SLACK) + 1e-12
    return CheckResult(
        name="partition_certificate",
        ok=bool(ok),
        lhs=float(lhs),
        rhs=float(rhs),
        detail={"factor": factor, "min_block_norm": float(min_block), "k": k},
    )

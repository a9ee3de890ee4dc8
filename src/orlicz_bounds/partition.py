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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, PartitionError, RangeError
from .orlicz import OrliczFunction, _as_weights, _reciprocals, orlicz_norm
from .reporting import CheckResult

__all__ = ["PartitionResult", "build_partition", "verify_partition"]

_TIE_GUARD = 1.0 + 1e-12
_CERT_SLACK = 1e-8


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


def _largest_end(inv: np.ndarray, start: int, fun: OrliczFunction, limit: float) -> int:
    """Largest 0-based end index e with ||inv[start:e+1]||_fun <= limit.

    Galloping then binary search; valid because the block norm is
    nondecreasing in its right endpoint. Returns start-1 when even the
    single entry overflows.
    """
    n = inv.size
    cap = limit * _TIE_GUARD

    def fits(e: int) -> bool:
        return orlicz_norm(inv[start : e + 1], fun) <= cap

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

    for j in range(1, k + 1):
        suffix_norm = orlicz_norm(inv[j - 1 :], hn.scaled(1.0 / (k + 1 - j)))
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
    original, unnormalized H.
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

    lhs = min(
        orlicz_norm(inv[j - 1 :], fun.scaled(1.0 / (k - j + 1))) for j in range(1, k + 1)
    )
    min_block = min(orlicz_norm(inv[a - 1 : b], fun) for a, b in blocks)
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

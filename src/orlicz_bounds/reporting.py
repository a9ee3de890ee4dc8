"""Small shared result types and JSON-friendly serialization."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an inequality check, always carrying both sides.

    A failing check is diagnosable from (lhs, rhs, detail); it must never be
    swallowed silently by callers.
    """

    name: str
    ok: bool
    lhs: float
    rhs: float
    detail: dict[str, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


def to_jsonable(obj: Any) -> Any:
    """Convert dataclasses / numpy containers to plain JSON-serializable data.

    A non-finite float becomes None, so every report is strict JSON.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: to_jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dumps_report(obj: Any) -> str:
    """Deterministic JSON text for a report: sorted keys, stable float repr."""
    return json.dumps(to_jsonable(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"

"""Exception hierarchy and the argument checks every layer shares.

Two top-level branches matter for the CLI exit codes: ``PreconditionError``
(bad inputs, violated preconditions; exit 2) and ``NumericError`` (internal
numeric failures; exit 1).

Each kind of scalar argument is checked here, once: ``_integer_in`` for an
order k, a count or a seed (a Python or numpy integer in low..high; bool and
integral floats are refused), and ``_positive`` for a constant, a scale or a
moment order (a real number, not a bool, finite and > 0). Weight vectors are
checked in ``orlicz``, by ``_weights_and_reciprocals`` alone. ``_csv_lines``
reads both CSV inputs, weights and tables.
"""

from __future__ import annotations

import math
from numbers import Integral, Real


class OrliczBoundsError(Exception):
    """Base class for every error raised by this package."""


class PreconditionError(OrliczBoundsError, ValueError):
    """An input violates a documented precondition."""


class DomainError(PreconditionError):
    """Argument outside the mathematical domain of an operation."""


class RangeError(PreconditionError):
    """Integer parameter (k, p, replication count, ...) out of range."""


class InfeasibleError(PreconditionError):
    """The instance is too small for the requested bound.

    Carries ``required_n``, the smallest sequence length that would satisfy
    the precondition.
    """

    def __init__(self, message: str, required_n: int | None = None):
        super().__init__(message)
        self.required_n = required_n


class TabulationError(PreconditionError):
    """Tabulated survival data is malformed or does not cover a request."""


class NonConvexError(PreconditionError):
    """An operation requiring a convex function received a non-convex one."""


class NumericError(OrliczBoundsError, RuntimeError):
    """Internal numeric failure."""


class UnboundedNormError(NumericError):
    """The modular sum exceeds 1 for every scaling; the norm is infinite."""


class PartitionError(NumericError):
    """The interval-partition construction could not certify its output."""


def _integer_in(value, what: str, low: int, high: int | None = None,
                error: type[PreconditionError] = RangeError) -> int:
    """``value`` as an int. RangeError unless it is an integer (a bool is
    not); ``error`` unless low <= value <= high (no upper limit when
    ``high`` is None), which lets a seed and a sample count keep the
    DomainError they have always raised. The message names the argument
    as ``what``."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise RangeError(f"{what} must be an integer, got {value}")
    if value < low or (high is not None and value > high):
        limits = f">= {low}" if high is None else f"in {low}..{high}"
        raise error(f"{what} must be {limits}, got {value}")
    return int(value)


def _positive(value, what: str, error: type[PreconditionError] = DomainError):
    """``value``; ``error`` unless it is a real number, not a bool, in (0, inf)."""
    if not isinstance(value, Real) or isinstance(value, bool) or not 0 < value < math.inf:
        raise error(f"{what} must be positive and finite, got {value}")
    return value


def _csv_lines(path, what: str, error: type[PreconditionError]) -> list[tuple[int, str]]:
    """(line number, stripped text) of each non-blank line of the UTF-8 file
    ``path``, the ``what``; ``error`` when it cannot be read or is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None
    lines = ((lineno, raw.strip()) for lineno, raw in enumerate(text.split("\n"), start=1))
    return [(lineno, line) for lineno, line in lines if line]

import math
import weakref
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

from orlicz_bounds import DomainError, Gaussian, RangeError, SymExponential, TabulatedSurvival
from scipy import interpolate, special

_SCIPY_PCHIPS = weakref.WeakKeyDictionary()


@pytest.fixture(scope="session")
def gaussian():
    return Gaussian()


@pytest.fixture(scope="session")
def symexp():
    return SymExponential(rate=1.0)


@pytest.fixture(scope="session")
def gaussian_table_model():
    """Tabulated rendering of the standard Gaussian survival, dense and deep."""
    ts = np.linspace(0.0, 10.0, 401)
    fs = special.erfc(ts / np.sqrt(2.0))
    return TabulatedSurvival(ts, fs)


def _scipy_pchip(table):
    """scipy's PCHIP of ln F through a table's knots, without extrapolation,
    built from ``table.ts`` and ``table.log_fs`` alone and cached per table:
    the reference for the package's own PCHIP."""
    if table not in _SCIPY_PCHIPS:
        _SCIPY_PCHIPS[table] = interpolate.PchipInterpolator(table.ts, table.log_fs,
                                                             extrapolate=False)
    return _SCIPY_PCHIPS[table]


@pytest.fixture(scope="session")
def scipy_pchip():
    return _scipy_pchip


@pytest.fixture(scope="session")
def nonconvex_table_model():
    """A valid strictly-decreasing table whose -ln F is not convex."""
    ts = np.linspace(0.0, 25.0, 501)
    # N(t) = t + 0.8 sin(t): increasing (derivative >= 0.2) but with
    # oscillating curvature, so the convexity check must fail.
    n = ts + 0.8 * np.sin(ts)
    fs = np.exp(-n)
    fs[0] = 1.0
    return TabulatedSurvival(ts, fs)


def _esp_by_enumeration(values, order: int) -> Fraction:
    """e_order(values) summed over every subset of that size in exact
    rationals: the reference for ``elementary_symmetric``'s integer
    recurrence, for n <= 12."""
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size > 12:
        raise RangeError(f"enumeration limited to n <= 12, got {vals.size}")
    if np.any(vals < 0) or np.any(~np.isfinite(vals)):
        raise DomainError("elementary symmetric polynomials need finite nonnegative values")
    fracs = [Fraction(float(v)) for v in vals]
    return sum((math.prod(subset, start=Fraction(1)) for subset in combinations(fracs, order)),
               Fraction(0))


@pytest.fixture(scope="session")
def esp_by_enumeration():
    return _esp_by_enumeration

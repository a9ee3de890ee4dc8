"""Correctness oracles for the benchmark, run outside every timed region.

None of them calls the norm solver. The survival function F, N = -ln F and
the moment function M(s) = E(s|xi| - 1)_+ of each family are computed here
straight from scipy.special, or for the table from a fresh PCHIP of its
knots, not through ``orlicz_bounds.distributions``.

Each ``check_*`` returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import interpolate, special

from orlicz_bounds.partition import verify_partition

# Bracket of the norm check: the solver returns rho on the feasible side of
# a 1e-12 bracket, so the modular sum is <= 1 at rho and > 1 just below it.
MODULAR_SLACK = 1e-9
# Largest relative gap between a table-family bound and its Gaussian twin
# on this mix is ~6e-5 (k-min, n = 1e4); the PCHIP of ln F over 401 knots
# sets it.
TWIN_RTOL = 5e-4
# Monte Carlo means must lie within this many 99 % half-widths of the exact
# value.
MC_HALFWIDTHS = 4.0
_TWO_E = 2.0 * math.e
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


class GaussianRef:
    mean_abs = _SQRT_2_OVER_PI

    def survival(self, t):
        return special.erfc(np.asarray(t, dtype=float) / math.sqrt(2.0))

    def neg_log_survival(self, t):
        x = np.asarray(t, dtype=float) / math.sqrt(2.0)
        return x * x - np.log(special.erfcx(x))

    def moment(self, s):
        # M(s) = s * integral_u^inf F, u = 1/s; written with erfcx so that
        # nothing underflows before the final factor exp(-u^2/2).
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape)
        pos = s > 0
        u = 1.0 / s[pos]
        tail = _SQRT_2_OVER_PI - u * special.erfcx(u / math.sqrt(2.0))
        out[pos] = s[pos] * np.exp(-0.5 * u * u) * tail
        return np.maximum(out, 0.0)


class SymExpRef:
    def __init__(self, rate):
        self.rate = rate
        self.mean_abs = 1.0 / rate

    def survival(self, t):
        return np.exp(-self.rate * np.asarray(t, dtype=float))

    def neg_log_survival(self, t):
        return self.rate * np.asarray(t, dtype=float)

    def moment(self, s):
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape)
        pos = s > 0
        out[pos] = s[pos] / self.rate * np.exp(-self.rate / s[pos])
        return out


class TableRef:
    """F = exp(PCHIP of ln F through the knots), nothing beyond the last knot."""

    def __init__(self, ts, fs):
        self.ts = np.asarray(ts, dtype=float)
        self.tmax = float(self.ts[-1])
        self.log_f = interpolate.PchipInterpolator(self.ts, np.log(fs), extrapolate=False)
        # integral of F over each knot interval, then suffix sums to tmax
        seg = self._partial(self.ts[:-1], self.ts[1:])
        self.cum = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
        self.mean_abs = float(self.cum[0])

    def _partial(self, a, b):
        half, mid = 0.5 * (b - a), 0.5 * (b + a)
        pts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        return half * (np.exp(self.log_f(pts)) @ _GL_WEIGHTS)

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        inside = t <= self.tmax
        out[inside] = np.exp(self.log_f(t[inside]))
        return out

    def neg_log_survival(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, math.inf)
        inside = t <= self.tmax * (1 + 1e-12)
        out[inside] = -self.log_f(np.minimum(t[inside], self.tmax))
        return out

    def moment(self, s):
        # M(s) = s * integral_u^tmax F for u = 1/s < tmax, else 0.
        s = np.asarray(s, dtype=float)
        out = np.zeros(s.shape)
        pos = s > 1.0 / self.tmax
        u = 1.0 / s[pos]
        j = np.clip(np.searchsorted(self.ts, u, side="right") - 1, 0, len(self.ts) - 2)
        out[pos] = s[pos] * (self._partial(u, self.ts[j + 1]) + self.cum[j + 1])
        return out


def references(table_knots, table_survival, symexp_rate):
    return {
        "gaussian": GaussianRef(),
        "symexp": SymExpRef(symexp_rate),
        "table": TableRef(table_knots, table_survival),
    }


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def _norm_fails(label, rho, fun, v):
    """Failures of rho as the norm of v under fun: sum fun(v/rho) <= 1 and
    sum fun(v/(rho (1 - slack))) > 1."""
    at = float(np.sum(fun(v / rho)))
    below = float(np.sum(fun(v / (rho * (1.0 - MODULAR_SLACK)))))
    out = []
    if not at <= 1.0 + MODULAR_SLACK:
        out.append(f"{label}: modular sum {at!r} > 1 at rho={rho!r}")
    if not below > 1.0:
        out.append(f"{label}: modular sum {below!r} <= 1 below rho={rho!r}")
    return out


def check_bound(report, x, k, ref):
    """Check every norm behind ``report`` by its modular sums, and lower <= upper."""
    fails = []
    if report.upper is not None and not report.lower <= report.upper:
        fails.append(f"lower {report.lower!r} > upper {report.upper!r}")
    x = np.asarray(x, dtype=float)
    inv = 1.0 / x
    nls = ref.neg_log_survival
    if report.kind == "kmin":
        for j, term in enumerate(report.terms, start=1):
            c = _TWO_E / (k - j + 1)
            fails += _norm_fails(f"term j={j}", 1.0 / term, lambda t, c=c: c * nls(t),
                                 inv[j - 1:])
    elif report.kind == "kmax":
        for ell, term in enumerate(report.terms):
            c = _TWO_E / (ell + 1)
            fails += _norm_fails(f"term l={ell}", 1.0 / term, lambda t, c=c: c * nls(t),
                                 inv[: k + ell])
        fails += _norm_fails("tail_norm", report.tail_norm, ref.moment,
                             x[k + report.k0 - 1:])
    elif report.kind == "max1":
        mu = ref.mean_abs
        fails += _norm_fails("unit_norm", report.terms[0],
                             lambda s: ref.moment(s / mu), np.abs(x))
    elif report.kind == "kmin_gaussian":
        for j, term in enumerate(report.terms, start=1):
            want = (k + 1 - j) / math.fsum(inv[j - 1:])
            if not abs(term - want) <= 1e-9 * want:
                fails.append(f"term j={j}: {term!r} != harmonic form {want!r}")
    else:
        fails.append(f"unknown report kind {report.kind!r}")
    return fails


def check_twin(table_report, gaussian_report):
    """A table-family bound agrees with its Gaussian twin within TWIN_RTOL."""
    fails = []
    for name in ("lower", "upper"):
        a, b = getattr(table_report, name), getattr(gaussian_report, name)
        if (a is None) != (b is None) or (a is not None and abs(a - b) > TWIN_RTOL * abs(b)):
            fails.append(f"table {name} {a!r} vs gaussian twin {b!r}")
    return fails


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def _fewer_than(probs, k):
    """P(fewer than k of independent events happen), one row per t.

    Poisson-binomial recurrence over the events, truncated at k states:
    O(n k) per row.
    """
    rows, n = probs.shape
    dist = np.zeros((rows, k))
    dist[:, 0] = 1.0
    for i in range(n):
        p = probs[:, i : i + 1]
        shifted = np.zeros_like(dist)
        shifted[:, 1:] = dist[:, :-1]
        dist = dist * (1.0 - p) + shifted * p
    return dist.sum(axis=1)


def exact_order_stat_mean(x, ref, k, statistic="kmin", panels=64):
    """E of the k-th smallest (or largest) of |x_i xi_i|, by quadrature.

    E = integral_0^inf P(statistic > t) dt, with
      k-min: P(fewer than k of |x_i xi_i| <= t),
      k-max: 1 - P(fewer than k of |x_i xi_i| > t).
    """
    x = np.asarray(x, dtype=float)

    def tail(t):
        surv = ref.survival(t[:, None] / x[None, :])
        if statistic == "kmin":
            return _fewer_than(1.0 - surv, k)
        return 1.0 - _fewer_than(surv, k)

    end = 1e-6 * float(x.min())
    while tail(np.array([end]))[0] > 1e-16:
        end *= 2.0
    edges = np.linspace(0.0, end, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    vals = tail(pts).reshape(panels, -1)
    return float(np.sum(half * (vals @ _GL_WEIGHTS)))


def check_estimates(estimates, x, ref, statistic):
    fails = []
    for est in estimates:
        exact = exact_order_stat_mean(x, ref, est.k, statistic)
        if not abs(est.mean - exact) <= MC_HALFWIDTHS * est.ci_halfwidth + 1e-12 * exact:
            fails.append(
                f"k={est.k}: mean {est.mean!r} is {abs(est.mean - exact) / est.ci_halfwidth:.1f}"
                f" half-widths from exact {exact!r}"
            )
    return fails


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def check_verify(result):
    code, text = result
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"verify output is not JSON: {exc}"]
    fails = []
    if code != 0:
        fails.append(f"verify exit code {code}")
    if doc.get("all_ok") is not True or not doc.get("checks"):
        bad = [c["suite"] + "/" + c["check"] for c in doc.get("checks", []) if not c["ok"]]
        fails.append(f"verify all_ok is not true; failing: {bad[:5]}")
    return fails


def check_partition(result, x, fun, k):
    check = verify_partition(x, fun, k, result)
    return [] if check.ok else [f"certificate lhs {check.lhs!r} > rhs {check.rhs!r}"]

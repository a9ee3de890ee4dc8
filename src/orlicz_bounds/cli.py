"""Command-line interface.

Subcommands: bounds-kmin, bounds-kmax, bounds-max1, partition, simulate,
verify. Weights come from a CSV with one positive decimal per line;
distributions are given as ``gaussian``, ``symexp:<rate>`` or
``table:<path>``. Reports are JSON (default, deterministic byte-for-byte)
or CSV. Exit codes: 0 success, 2 precondition/input violations (the message
names the violated precondition), 1 internal numeric failure or verification
failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .bounds import (
    BoundConstants,
    kth_max_bounds,
    kth_min_bounds,
    kth_min_bounds_gaussian,
    max_bounds,
)
from .distributions import Gaussian, check_tail_integral_bound, parse_distribution
from .errors import OrliczBoundsError, PreconditionError
from .montecarlo import (
    check_kmax_split,
    check_kth_min_tail,
    check_min_survival_product,
    check_subset_product_chain,
    check_symmetric_tail_bound,
    estimate_order_stat,
    kth_min_tail_threshold,
)
from .orlicz import (
    Weights,
    expected_overshoot_function,
    gaussian_comparison_function,
    linear_function,
    neg_log_survival_function,
    power_function,
    young_conjugate,
)
from .partition import build_partition
from .reporting import CheckResult, dumps_report, to_jsonable

ENV_THREADS = "ORLICZ_BOUNDS_THREADS"

SUITES = (
    "sym-tail",
    "kmin-tail",
    "min-product",
    "kmax-split",
    "subset-chain",
    "tail-bound",
    "gaussian-equiv",
    "partition",
    "duality",
)

_PARTITION_SHAPES = ("linear", "quadratic", "gaussian-n")


@dataclass
class RunConfig:
    command: str
    dist: str | None = None
    weights_path: str | None = None
    k: int = 1
    power: float = 1.0
    replications: int = 100_000
    seed: int = 0
    fmt: str = "json"
    statistic: str = "kmin"
    shape: str = "linear"
    suites: tuple = ("all",)
    closed_form: bool = False
    kmax_upper_c: float | None = None
    max1_c_low: float | None = None
    max1_c_high: float | None = None
    threads: int = 1


def load_weights(path: str) -> np.ndarray:
    """Weights CSV: one positive decimal per line (blank lines ignored)."""
    values = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise PreconditionError(f"cannot read weights file {path}: {exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                value = float(line)
            except ValueError:
                raise PreconditionError(
                    f"{path}: line {lineno}: not a decimal number: {line!r}"
                ) from None
            if not (value > 0) or not math.isfinite(value):
                raise PreconditionError(
                    f"{path}: line {lineno}: weights must be positive, got {value}"
                )
            values.append(value)
    if not values:
        raise PreconditionError(f"{path}: no weights found")
    return np.array(values)


def _constants(cfg: RunConfig) -> tuple[BoundConstants, list[str]]:
    kwargs = {}
    overridden = []
    if cfg.kmax_upper_c is not None:
        kwargs["kmax_upper_c"] = cfg.kmax_upper_c
        overridden.append("kmax_upper_c")
    if cfg.max1_c_low is not None:
        kwargs["max1_c_low"] = cfg.max1_c_low
        overridden.append("max1_c_low")
    if cfg.max1_c_high is not None:
        kwargs["max1_c_high"] = cfg.max1_c_high
        overridden.append("max1_c_high")
    return BoundConstants(**kwargs), overridden


def _emit(payload, fmt: str, out) -> None:
    if fmt == "json":
        out.write(dumps_report(payload))
        return
    flat = to_jsonable(payload)

    def rows(prefix, obj):
        if isinstance(obj, dict):
            for key in sorted(obj):
                yield from rows(f"{prefix}{key}." if prefix else f"{key}.", obj[key])
        else:
            if isinstance(obj, list):
                text = ";".join(str(v) for v in obj)
            else:
                text = str(obj)
            yield f"{prefix[:-1]},{text}"

    for line in rows("", flat):
        out.write(line + "\n")


def _emit_table(rows, fmt: str, out) -> None:
    if fmt == "json":
        out.write(dumps_report({"checks": rows, "all_ok": all(r["ok"] for r in rows)}))
        return
    out.write("suite,check,lhs,rhs,ok\n")
    for r in rows:
        out.write(f"{r['suite']},{r['check']},{r['lhs']!r},{r['rhs']!r},{r['ok']}\n")


# ---------------------------------------------------------------------------
# verify sub-suites: each returns a list of (label, CheckResult). Registered
# order fixes the output order.
# ---------------------------------------------------------------------------


def _suite_sym_tail(model, cfg):
    rng = np.random.default_rng([cfg.seed, 1])
    checks = []
    for case in range(20):
        n = int(rng.integers(2, 23))
        k = int(rng.integers(1, n + 1))
        raw = rng.uniform(0.05, 1.0, n)
        target = rng.uniform(0.05, 0.95)
        a = raw * (target * k / math.e / raw.sum())
        checks.append((f"n={n},k={k}", check_symmetric_tail_bound(a, k)))
    return checks


def _suite_kmin_tail(model, cfg):
    rng = np.random.default_rng([cfg.seed, 2])
    checks = []
    for case in range(6):
        n = int(rng.integers(5, 31))
        k = int(rng.integers(1, n + 1))
        x = np.sort(rng.uniform(0.5, 5.0, n))
        t_max = kth_min_tail_threshold(x, model, k)
        if not math.isfinite(t_max):
            t_max = float(model.quantile(0.5) * x.min())
        t = float(rng.uniform(0.1, 0.95) * t_max)
        res = check_kth_min_tail(
            x, model, k, t, replications=cfg.replications, seed=cfg.seed + case,
            threads=cfg.threads,
        )
        checks.append((f"n={n},k={k},t={t:.3g}", res))
    return checks


def _suite_min_product(model, cfg):
    rng = np.random.default_rng([cfg.seed, 3])
    checks = []
    for case in range(6):
        n = int(rng.integers(2, 21))
        x = rng.uniform(0.5, 5.0, n)
        t = float(rng.uniform(0.05, 0.6) * model.mean_abs() * np.median(x))
        res = check_min_survival_product(
            x, model, t, replications=cfg.replications, seed=cfg.seed + 100 + case,
            threads=cfg.threads,
        )
        checks.append((f"n={n},t={t:.3g}", res))
        checks.append((f"n={n},t={t:.3g},union", res.detail["union"]))
    return checks


def _suite_kmax_split(model, cfg):
    rng = np.random.default_rng([cfg.seed, 4])
    checks = []
    for case in range(5):
        n = int(rng.integers(4, 25))
        k = int(rng.integers(1, n))
        j = int(rng.integers(1, n - k + 1))
        batch = rng.standard_normal((10_000, n)) * rng.uniform(0.5, 5.0, n)
        checks.append((f"n={n},k={k},j={j}", check_kmax_split(batch, k, j)))
    return checks


def _suite_subset_chain(model, cfg):
    rng = np.random.default_rng([cfg.seed, 5])
    checks = []
    for case in range(20):
        m = int(rng.integers(1, 23))
        j = int(rng.integers(0, m + 1))
        a = rng.uniform(0.0, 2.0, m)
        checks.append((f"m={m},j={j}", check_subset_product_chain(a, j)))
    return checks


def _suite_tail_bound(model, cfg):
    return [(f"t={t:g}", check_tail_integral_bound(model, t))
            for t in (0.25, 0.5, 1.0, 2.0, 3.0, 4.0)]


def _suite_gaussian_equiv(model, cfg):
    # Standard-normal claims; independent of --dist.
    gauss = Gaussian()
    grid = np.linspace(0.01, 10.0, 1000)
    h = gaussian_comparison_function().values(grid)
    n = gauss.neg_log_survival(grid)
    lo_c = 1.0 / math.sqrt(2.0 * math.pi * math.e)
    f = gauss.survival(grid)
    upper = math.sqrt(2 / math.pi) / grid * np.exp(-grid * grid / 2)
    lower = math.sqrt(2 / math.pi) / (math.e * grid) * np.exp(-(grid * grid + 1 / grid**2) / 2)
    pos = lower > 0  # the bound underflows to 0 at small t, where it is trivial

    def check(ok, lhs, rhs):
        return CheckResult(name="gaussian_equiv", ok=bool(ok), lhs=float(lhs), rhs=rhs)

    return [
        ("lower", check(np.all(n >= lo_c * h), np.min(n / h), lo_c)),
        ("upper", check(np.all(n <= 4.5 * h), np.max(n / h), 4.5)),
        ("survival-upper", check(np.all(f <= upper), np.max(f / upper), 1.0)),
        ("survival-lower", check(np.all(f >= lower), np.min(f[pos] / lower[pos]), 1.0)),
    ]


def _suite_partition(model, cfg):
    rng = np.random.default_rng([cfg.seed, 6])
    shapes = [
        ("linear", linear_function()),
        ("quadratic", power_function(2.0)),
        ("gaussian-n", neg_log_survival_function(Gaussian())),
    ]
    checks = []
    for case in range(24):
        n = int(rng.integers(2, 61))
        k = int(rng.integers(1, n + 1))
        x = np.sort(rng.uniform(0.2, 8.0, n))
        name, fun = shapes[case % len(shapes)]
        result = build_partition(x, fun, k)
        checks.append((f"{name},n={n},k={k},{result.case_taken}", result.certificate))
    return checks


def _suite_duality(model, cfg):
    mfun = expected_overshoot_function(model)
    checks = []
    for t in np.arange(0.0, 4.01, 0.25):
        s = model.tail_integral(float(t))
        via_search = young_conjugate(mfun, s, method="search")
        err = float(abs(via_search - model.survival(float(t))))
        checks.append((f"t={t:g}", CheckResult("duality", err <= 1e-6, err, 1e-6)))
    beyond = young_conjugate(mfun, model.mean_abs() * (1 + 1e-6))
    checks.append(("beyond-mean", CheckResult("duality", math.isinf(beyond), beyond, math.inf)))
    return checks


_SUITE_RUNNERS = {
    "sym-tail": _suite_sym_tail,
    "kmin-tail": _suite_kmin_tail,
    "min-product": _suite_min_product,
    "kmax-split": _suite_kmax_split,
    "subset-chain": _suite_subset_chain,
    "tail-bound": _suite_tail_bound,
    "gaussian-equiv": _suite_gaussian_equiv,
    "partition": _suite_partition,
    "duality": _suite_duality,
}


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _report_envelope(cfg: RunConfig, payload: dict, overridden) -> dict:
    report = {"command": cfg.command, "seed": cfg.seed if cfg.command == "simulate" else None}
    if cfg.dist:
        report["distribution"] = cfg.dist
    report.update(payload)
    if overridden:
        report.setdefault("empirical_constants", [])
        report["constant_overrides"] = sorted(overridden)
    return report


def _bound_report_payload(rep) -> dict:
    return {
        "kind": rep.kind,
        "k": rep.k,
        "lower": rep.lower,
        "upper": rep.upper,
        "constants": rep.constants,
        "terms": list(rep.terms),
        "argmax_j": rep.argmax_j,
        "k0": rep.k0,
        "tail_norm": rep.tail_norm,
        "empirical_constants": list(rep.empirical_constants),
        "notes": list(rep.notes),
    }


def run(cfg: RunConfig, out=None) -> int:
    out = out if out is not None else sys.stdout
    constants, overridden = _constants(cfg)

    if cfg.command == "bounds-kmin":
        model = parse_distribution(cfg.dist)
        w = Weights.ascending(load_weights(cfg.weights_path))
        if cfg.closed_form:
            if not isinstance(model, Gaussian):
                raise PreconditionError("--closed-form requires --dist gaussian")
            rep = kth_min_bounds_gaussian(w, cfg.k, constants)
        else:
            rep = kth_min_bounds(w, model, cfg.k, constants)
        _emit(_report_envelope(cfg, _bound_report_payload(rep), overridden), cfg.fmt, out)
        return 0

    if cfg.command == "bounds-kmax":
        model = parse_distribution(cfg.dist)
        w = Weights.descending(load_weights(cfg.weights_path))
        rep = kth_max_bounds(w, model, cfg.k, constants)
        _emit(_report_envelope(cfg, _bound_report_payload(rep), overridden), cfg.fmt, out)
        return 0

    if cfg.command == "bounds-max1":
        model = parse_distribution(cfg.dist)
        values = load_weights(cfg.weights_path)
        rep = max_bounds(values, model, constants)
        _emit(_report_envelope(cfg, _bound_report_payload(rep), overridden), cfg.fmt, out)
        return 0

    if cfg.command == "partition":
        w = Weights.ascending(load_weights(cfg.weights_path))
        fun = {
            "linear": linear_function,
            "quadratic": lambda: power_function(2.0),
            "gaussian-n": lambda: neg_log_survival_function(Gaussian()),
        }[cfg.shape]()
        result = build_partition(w, fun, cfg.k)
        payload = {
            "shape": cfg.shape,
            "k": cfg.k,
            "blocks": [list(b) for b in result.blocks],
            "case_taken": result.case_taken,
            "certificate_lhs": result.certificate.lhs,
            "certificate_rhs": result.certificate.rhs,
        }
        _emit(_report_envelope(cfg, payload, overridden), cfg.fmt, out)
        return 0

    if cfg.command == "simulate":
        model = parse_distribution(cfg.dist)
        values = load_weights(cfg.weights_path)
        est = estimate_order_stat(
            values,
            model,
            cfg.k,
            statistic=cfg.statistic,
            replications=cfg.replications,
            seed=cfg.seed,
            power=cfg.power,
            threads=cfg.threads,
        )
        payload = {
            "statistic": est.statistic,
            "k": est.k,
            "power": est.power,
            "mean": est.mean,
            "ci_halfwidth": est.ci_halfwidth,
            "replications": est.replications,
        }
        _emit(_report_envelope(cfg, payload, overridden), cfg.fmt, out)
        return 0

    if cfg.command == "verify":
        model = parse_distribution(cfg.dist) if cfg.dist else Gaussian()
        wanted = SUITES if "all" in cfg.suites else tuple(s for s in SUITES if s in cfg.suites)
        unknown = [s for s in cfg.suites if s not in SUITES and s != "all"]
        if unknown:
            raise PreconditionError(f"unknown verify suites: {', '.join(unknown)}")
        rows = [
            {"suite": name, "check": label, "lhs": float(res.lhs), "rhs": float(res.rhs),
             "ok": bool(res.ok)}
            for name in wanted
            for label, res in _SUITE_RUNNERS[name](model, cfg)
        ]
        _emit_table(rows, cfg.fmt, out)
        return 0 if all(r["ok"] for r in rows) else 1

    raise PreconditionError(f"unknown command {cfg.command!r}")


def _int_at_least(low: int):
    """argparse type: an integer >= low (anything else exits 2 with a message)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orlicz-bounds",
        description="Order-statistic expectation bounds, Orlicz norms, and their verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    try:
        default_threads = max(1, int(os.environ.get(ENV_THREADS, "1")))
    except ValueError:
        default_threads = 1

    def common(p, dist=True, weights=True):
        if dist:
            p.add_argument("--dist", default="gaussian",
                           help="gaussian | symexp:<rate> | table:<path>")
        if weights:
            p.add_argument("--weights", required=True, dest="weights_path",
                           help="CSV file, one positive decimal per line")
        p.add_argument("--format", default="json", choices=("json", "csv"), dest="fmt")
        p.add_argument("--threads", type=_int_at_least(1), default=default_threads)

    p = sub.add_parser("bounds-kmin", help="two-sided k-min expectation bounds")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--closed-form", action="store_true",
                   help="Gaussian harmonic-sum form instead of Orlicz norms")

    p = sub.add_parser("bounds-kmax", help="two-sided k-max expectation bounds")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kmax-upper-c", type=float, default=None)

    p = sub.add_parser("bounds-max1", help="max expectation bounds (k = 1)")
    common(p)
    p.add_argument("--max1-c-low", type=float, default=None)
    p.add_argument("--max1-c-high", type=float, default=None)

    p = sub.add_parser("partition", help="k-block certified interval partition")
    common(p, dist=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--shape", default="linear", choices=_PARTITION_SHAPES)

    p = sub.add_parser("simulate", help="Monte Carlo order-statistic estimate")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--stat", default="kmin", choices=("kmin", "kmax"), dest="statistic")
    p.add_argument("--power", type=float, default=1.0)
    p.add_argument("--reps", type=int, default=100_000, dest="replications")
    p.add_argument("--seed", type=_int_at_least(0), default=0)

    p = sub.add_parser("verify", help="run named verification suites")
    common(p, weights=False)
    p.add_argument("--suite", default="all",
                   help=f"comma-separated from: all, {', '.join(SUITES)}")
    p.add_argument("--reps", type=int, default=20_000, dest="replications")
    p.add_argument("--seed", type=_int_at_least(0), default=0)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in (
        "dist", "weights_path", "k", "power", "replications", "seed", "fmt",
        "statistic", "shape", "closed_form", "kmax_upper_c", "max1_c_low",
        "max1_c_high", "threads",
    ):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    if hasattr(args, "suite"):
        cfg.suites = tuple(s.strip() for s in args.suite.split(",") if s.strip())
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = config_from_args(args)
    try:
        return run(cfg)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OrliczBoundsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

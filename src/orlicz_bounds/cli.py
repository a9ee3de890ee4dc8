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

import numpy as np

from .bounds import (
    BoundConstants,
    kth_max_bounds,
    kth_min_bounds,
    kth_min_bounds_gaussian,
    max_bounds,
)
from .distributions import Gaussian, check_tail_integral_bound, parse_distribution
from .errors import OrliczBoundsError, PreconditionError, _csv_lines, _integer_in, _positive
from .montecarlo import (
    check_kmax_split,
    check_kth_min_tail,
    check_min_survival_product,
    check_subset_product_chain,
    check_symmetric_tail_bound,
    estimate_order_stats,
    kth_min_tail_threshold,
)
from .orlicz import (
    _unit_mean_moment_function,
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

# Partition shapes by name; this order fixes the parser choices and the
# order the partition suite cycles through.
_PARTITION_SHAPES = {
    "linear": linear_function,
    "quadratic": lambda: power_function(2.0),
    "gaussian-n": lambda: neg_log_survival_function(Gaussian()),
}


def load_weights(path: str) -> np.ndarray:
    """Weights CSV: one positive decimal per line (blank lines ignored)."""
    values = []
    for lineno, line in _csv_lines(path, "weights file", PreconditionError):
        try:
            values.append(_positive(float(line), "weight"))
        except ValueError as exc:  # not a number, or not positive and finite
            raise PreconditionError(f"{path}: line {lineno}: {exc}") from None
    if not values:
        raise PreconditionError(f"{path}: no weights found")
    return np.array(values)


def _constants(args) -> dict:
    """The BoundConstants fields overridden on the command line."""
    return {name: getattr(args, name) for name in ("kmax_upper_c", "max1_c_low", "max1_c_high")
            if getattr(args, name, None) is not None}


def _emit(payload, fmt: str, out) -> None:
    if fmt == "json":
        out.write(dumps_report(payload))
        return

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

    for line in rows("", payload):
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


def _suite_sym_tail(model, args):
    rng = np.random.default_rng([args.seed, 1])
    checks = []
    for case in range(20):
        n = int(rng.integers(2, 23))
        k = int(rng.integers(1, n + 1))
        raw = rng.uniform(0.05, 1.0, n)
        target = rng.uniform(0.05, 0.95)
        a = raw * (target * k / math.e / raw.sum())
        checks.append((f"n={n},k={k}", check_symmetric_tail_bound(a, k)))
    return checks


def _suite_kmin_tail(model, args):
    rng = np.random.default_rng([args.seed, 2])
    checks = []
    for case in range(6):
        n = int(rng.integers(5, 31))
        k = int(rng.integers(1, n + 1))
        x = np.sort(rng.uniform(0.5, 5.0, n))
        t_max = kth_min_tail_threshold(x, model, k)
        if not math.isfinite(t_max):
            t_max = float(model.quantile(0.5) * x.min())
        t = float(rng.uniform(0.1, 0.95) * t_max)
        checks.append((f"n={n},k={k},t={t:.3g}", check_kth_min_tail(x, model, k, t)))
    return checks


def _suite_min_product(model, args):
    rng = np.random.default_rng([args.seed, 3])
    checks = []
    for case in range(6):
        n = int(rng.integers(2, 21))
        x = rng.uniform(0.5, 5.0, n)
        t = float(rng.uniform(0.05, 0.6) * model.mean_abs() * np.median(x))
        res = check_min_survival_product(
            x, model, t, replications=args.replications, seed=args.seed + 100 + case,
            threads=args.threads,
        )
        checks.append((f"n={n},t={t:.3g}", res))
        checks.append((f"n={n},t={t:.3g},union", res.detail["union"]))
    return checks


def _suite_kmax_split(model, args):
    rng = np.random.default_rng([args.seed, 4])
    checks = []
    for case in range(5):
        n = int(rng.integers(4, 25))
        k = int(rng.integers(1, n))
        j = int(rng.integers(1, n - k + 1))
        batch = rng.standard_normal((10_000, n)) * rng.uniform(0.5, 5.0, n)
        checks.append((f"n={n},k={k},j={j}", check_kmax_split(batch, k, j)))
    return checks


def _suite_subset_chain(model, args):
    rng = np.random.default_rng([args.seed, 5])
    checks = []
    for case in range(20):
        m = int(rng.integers(1, 23))
        j = int(rng.integers(0, m + 1))
        a = rng.uniform(0.0, 2.0, m)
        checks.append((f"m={m},j={j}", check_subset_product_chain(a, j)))
    return checks


def _suite_tail_bound(model, args):
    return [(f"t={t:g}", check_tail_integral_bound(model, t))
            for t in (0.25, 0.5, 1.0, 2.0, 3.0, 4.0)]


def _suite_gaussian_equiv(model, args):
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


def _suite_partition(model, args):
    rng = np.random.default_rng([args.seed, 6])
    shapes = [(name, make()) for name, make in _PARTITION_SHAPES.items()]
    checks = []
    for case in range(24):
        n = int(rng.integers(2, 61))
        k = int(rng.integers(1, n + 1))
        x = np.sort(rng.uniform(0.2, 8.0, n))
        name, fun = shapes[case % len(shapes)]
        result = build_partition(x, fun, k)
        checks.append((f"{name},n={n},k={k},{result.case_taken}", result.certificate))
    return checks


def _suite_duality(model, args):
    # M*(s) = M1*(s / E|xi|), M1(u) = M(u / E|xi|): u s / E|xi| and M1(u) are
    # of order 1 at every scale, where t s and M(t) would cancel near 1/E|xi|.
    mean = model.mean_abs()
    m1 = _unit_mean_moment_function(model)
    checks = []
    for t in np.arange(0.0, 4.01, 0.25):
        s = model.tail_integral(float(t))
        via_search = young_conjugate(m1, s / mean, method="search")
        err = float(abs(via_search - model.survival(float(t))))
        checks.append((f"t={t:g}", CheckResult("duality", err <= 1e-6, err, 1e-6)))
    beyond = young_conjugate(expected_overshoot_function(model), mean * (1 + 1e-6))
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
SUITES = tuple(_SUITE_RUNNERS)


# ---------------------------------------------------------------------------
# command handlers: each returns the library result (or, for partition, the
# payload) that ``run`` wraps in the report envelope.
# ---------------------------------------------------------------------------


def _bounds_kmin(args, constants):
    model = parse_distribution(args.dist)
    w = load_weights(args.weights_path)
    if not args.closed_form:
        return kth_min_bounds(w, model, args.k)
    if not isinstance(model, Gaussian):
        raise PreconditionError("--closed-form requires --dist gaussian")
    return kth_min_bounds_gaussian(w, args.k)


def _bounds_kmax(args, constants):
    model = parse_distribution(args.dist)
    return kth_max_bounds(load_weights(args.weights_path), model, args.k, constants)


def _bounds_max1(args, constants):
    model = parse_distribution(args.dist)
    return max_bounds(load_weights(args.weights_path), model, constants)


def _partition(args, constants):
    w = load_weights(args.weights_path)
    result = build_partition(w, _PARTITION_SHAPES[args.shape](), args.k)
    return {
        "shape": args.shape,
        "k": args.k,
        "blocks": result.blocks,
        "case_taken": result.case_taken,
        "certificate_lhs": result.certificate.lhs,
        "certificate_rhs": result.certificate.rhs,
    }


def _simulate(args, constants):
    model = parse_distribution(args.dist)
    return estimate_order_stats(
        load_weights(args.weights_path), model, [args.k], statistic=args.statistic,
        replications=args.replications, seed=args.seed, power=args.power, threads=args.threads,
    )[0]


_COMMANDS = {
    "bounds-kmin": _bounds_kmin,
    "bounds-kmax": _bounds_kmax,
    "bounds-max1": _bounds_max1,
    "partition": _partition,
    "simulate": _simulate,
}


def _verify(args, out) -> int:
    model = parse_distribution(args.dist)
    asked = [s.strip() for s in args.suite.split(",") if s.strip()]
    if not asked:
        raise PreconditionError(f"--suite names no suite; choose all or from {', '.join(SUITES)}")
    unknown = [s for s in asked if s not in SUITES and s != "all"]
    if unknown:
        raise PreconditionError(f"unknown verify suites: {', '.join(unknown)}")
    wanted = SUITES if "all" in asked else [s for s in SUITES if s in asked]
    rows = [
        {"suite": name, "check": label, "lhs": float(res.lhs), "rhs": float(res.rhs),
         "ok": bool(res.ok)}
        for name in wanted
        for label, res in _SUITE_RUNNERS[name](model, args)
    ]
    _emit_table(rows, args.fmt, out)
    return 0 if all(r["ok"] for r in rows) else 1


def run(args: argparse.Namespace, out=None) -> int:
    """Run the parsed command line ``args``, writing the report to ``out``
    (stdout by default); returns the exit code."""
    out = out if out is not None else sys.stdout
    if args.command == "verify":
        return _verify(args, out)
    overrides = _constants(args)
    result = _COMMANDS[args.command](args, BoundConstants(**overrides))
    report = {"command": args.command, "seed": getattr(args, "seed", None)}
    if getattr(args, "dist", None):
        report["distribution"] = args.dist
    report.update(to_jsonable(result))
    if overrides:
        report["constant_overrides"] = sorted(overrides)
    _emit(report, args.fmt, out)
    return 0


def _checked(convert, check, env: str | None = None):
    """argparse type: ``check(convert(text))``, with ``check`` one of the
    library's argument checks; a value either refuses exits 2 with its
    message, which argparse prefixes with the argument's name.

    ``env`` names the environment variable that supplies the default; the
    message then names it too, since a bad default reports as this argument.
    """
    source = f" (the default is read from {env})" if env else ""

    def parse(text: str):
        try:
            return check(convert(text))
        except ValueError as exc:  # a PreconditionError is a ValueError too
            raise argparse.ArgumentTypeError(f"{exc}{source}") from None

    return parse


_THREADS = _checked(int, lambda v: _integer_in(v, "value", 1), ENV_THREADS)
_SEED = _checked(int, lambda v: _integer_in(v, "value", 0))
_REPS = _checked(int, lambda v: _integer_in(v, "value", 100))
_CONSTANT = _checked(float, lambda v: _positive(v, "value"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orlicz-bounds",
        description="Order-statistic expectation bounds, Orlicz norms, and their verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, dist=True, weights=True, k=True):
        p = sub.add_parser(name, help=help)
        if dist:
            p.add_argument("--dist", default="gaussian",
                           help="gaussian | symexp:<rate> | table:<path>")
        if weights:
            p.add_argument("--weights", required=True, dest="weights_path",
                           help="CSV file, one positive decimal per line")
        if k:
            p.add_argument("--k", type=int, required=True)
        p.add_argument("--format", default="json", choices=("json", "csv"), dest="fmt")
        return p

    def sampling(p, reps):
        # A string default goes through ``type`` too, so a bad environment
        # value exits 2 like a bad --threads.
        p.add_argument("--threads", type=_THREADS,
                       default=os.environ.get(ENV_THREADS, "1"),
                       help=f"worker threads (default: ${ENV_THREADS}, else 1)")
        p.add_argument("--reps", type=_REPS, default=reps, dest="replications")
        p.add_argument("--seed", type=_SEED, default=0)

    p = command("bounds-kmin", "two-sided k-min expectation bounds")
    p.add_argument("--closed-form", action="store_true",
                   help="Gaussian harmonic-sum form instead of Orlicz norms")

    p = command("bounds-kmax", "two-sided k-max expectation bounds")
    p.add_argument("--kmax-upper-c", type=_CONSTANT, default=None)

    p = command("bounds-max1", "max expectation bounds (k = 1)", k=False)
    p.add_argument("--max1-c-low", type=_CONSTANT, default=None)
    p.add_argument("--max1-c-high", type=_CONSTANT, default=None)

    p = command("partition", "k-block certified interval partition", dist=False)
    p.add_argument("--shape", default="linear", choices=tuple(_PARTITION_SHAPES))

    p = command("simulate", "Monte Carlo order-statistic estimate")
    p.add_argument("--stat", default="kmin", choices=("kmin", "kmax"), dest="statistic")
    p.add_argument("--power", type=float, default=1.0)
    sampling(p, reps=100_000)

    p = command("verify", "run named verification suites", weights=False, k=False)
    p.add_argument("--suite", default="all",
                   help=f"comma-separated from: all, {', '.join(SUITES)}")
    sampling(p, reps=20_000)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OrliczBoundsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

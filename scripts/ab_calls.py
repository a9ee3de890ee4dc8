#!/usr/bin/env python3
"""Interleaved call timings: a base revision's library against the working tree's.

    python3 scripts/ab_calls.py --base HEAD --reps 15
    python3 scripts/ab_calls.py --base HEAD~1 --out BENCH_calls.json

Extracts ``src/orlicz_bounds`` of the base revision with ``git archive``
into a temporary directory, under the package name ``orlicz_bounds_base``
(``src/`` uses only relative imports), and imports it next to the working
tree's ``orlicz_bounds`` in this one interpreter. Then it runs a fixed call
list on both: N, M and survival per family (gaussian, symexp, the 401-knot
erfc table) at n = 1e2, 1e4 and 1e5; the M norm per family at n = 1e2 and
1e5; ``kth_min_bounds`` (gaussian k = 7, table k = 20) and
``kth_max_bounds`` (table and gaussian, k = 5) at n = 100; one
``max_bounds``, one ``build_partition`` and one solve under
``reciprocal_survival_function`` at n = 1e4, a bounded functional that
never reaches 1 on the probe grid, steered like every vector of n >= 4096;
building the table anew, and 1e5 draws from it.
Each repetition runs every call on both sides, and which side runs first
alternates from one repetition to the next, so both see the same host
speed (which can swing by 2x within minutes). Every pair
of results must have the same ``repr`` (arrays and reports compared as
plain lists and dicts of floats), norms and bounds included, except on the
table's M rows: the table's moment kernel may round differently from one
revision to the next, so those rows compare by their largest difference
relative to s * tail_integral(1/s), the term that carries the kernel's
rounding (M itself cancels, by up to about 65x here).

It prints each call's median milliseconds per side, the ratio change /
base, the repetitions in which the change was faster and, for the kernel
rows, the largest relative difference seen. Every row is timed and
compared, whether or not an earlier one differed. Then, if any pair of
results differed (a kernel row: by more than ``KERNEL_REL_TOL``), it lists
every differing row, each with the first repetition it differed in and the
first differing leaf (say ``result['BoundReport']['constants']['mean_abs']``)
with both its reprs, and exits with status 1. Otherwise ``--out`` also
writes the rows, both commits and the machine to a JSON file.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "orlicz_bounds"
BASE_PACKAGE = "orlicz_bounds_base"

EVAL_SIZES = (100, 10_000, 100_000)
NORM_SIZES = (100, 100_000)
KERNEL_REL_TOL = 1e-15


def _inputs() -> dict:
    """The arguments every call gets, the same arrays for both sides."""
    from scipy import special

    rng = np.random.default_rng(20240601)
    knots = np.linspace(0.0, 10.0, 401)
    data = {"knots": knots, "survival": special.erfc(knots / np.sqrt(2.0))}
    for n in EVAL_SIZES:
        data["t", n] = rng.uniform(0.05, 8.0, n)  # inside the table
    for n in NORM_SIZES:
        data["x", n] = np.exp(rng.uniform(-7.0, 7.0, n))
    data["x100"] = np.sort(rng.uniform(0.5, 5.0, 100))
    data["x1e4"] = rng.uniform(0.5, 5.0, 10_000)
    data["x60"] = np.sort(rng.uniform(0.5, 5.0, 60))
    return data


def _loaded(lib, data: dict):
    """The 401-knot table, built anew, as the values its load computes."""
    model = lib.TabulatedSurvival(data["knots"], data["survival"])
    return [model.mean_abs(), model.n_is_convex(), model.describe()]


def call_list(lib, data: dict) -> list[tuple[str, callable]]:
    """(name, thunk) for every call, built on the package ``lib``."""
    models = {
        "gaussian": lib.Gaussian(),
        "symexp": lib.SymExponential(),
        "table": lib.TabulatedSurvival(data["knots"], data["survival"]),
    }
    calls = []
    for fam, model in models.items():
        n_fun = lib.neg_log_survival_function(model)
        m_fun = lib.expected_overshoot_function(model)
        for n in EVAL_SIZES:
            t = data["t", n]
            s = 1.0 / t
            calls += [
                (f"N/{fam}/n={n}", lambda f=n_fun, t=t: f.evaluate(t)),
                (f"M/{fam}/n={n}", lambda f=m_fun, s=s: f.evaluate(s)),
                (f"survival/{fam}/n={n}", lambda m=model, t=t: m.survival(t)),
            ]
        for n in NORM_SIZES:
            x = data["x", n]
            calls.append((f"norm/M/{fam}/n={n}", lambda f=m_fun, x=x: lib.orlicz_norm(x, f)))
    x100, table = data["x100"], models["table"]
    calls += [
        ("kth_min_bounds/gaussian/n=100/k=7",
         lambda: lib.kth_min_bounds(x100, models["gaussian"], 7)),
        ("kth_min_bounds/table/n=100/k=20", lambda: lib.kth_min_bounds(x100, table, 20)),
        ("kth_max_bounds/table/n=100/k=5", lambda: lib.kth_max_bounds(x100[::-1], table, 5)),
        ("kth_max_bounds/gaussian/n=100/k=5",
         lambda: lib.kth_max_bounds(x100[::-1], models["gaussian"], 5)),
        # A bounded functional: never reaches 1 on the probe grid.
        ("norm/reciprocal_survival/gaussian/n=1e4",
         lambda: lib.orlicz_norm(data["x1e4"],
                                 lib.reciprocal_survival_function(models["gaussian"], 3))),
        ("max_bounds/table/n=1e4", lambda: lib.max_bounds(data["x1e4"], table)),
        ("build_partition/gaussian-N/n=60/k=4",
         lambda: lib.build_partition(data["x60"],
                                     lib.neg_log_survival_function(models["gaussian"]), 4)),
        ("load/table", lambda: _loaded(lib, data)),
        ("sample/table/n=1e5", lambda: table.sample(np.random.default_rng(7), 100_000)),
    ]
    return calls


def kernel_scales(lib, data: dict) -> dict:
    """name -> s * tail_integral(1/s) for each table M row: the scale of
    the rounding its kernel may carry."""
    table = lib.TabulatedSurvival(data["knots"], data["survival"])
    return {f"M/table/n={n}": table.tail_integral(data["t", n]) / data["t", n]
            for n in EVAL_SIZES}


def plain(value):
    """``value`` as plain lists, dicts and floats, so that two packages'
    results compare by ``repr`` (floats repr exactly)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if hasattr(value, "__dataclass_fields__") and not isinstance(value, type):
        return {type(value).__name__: {k: plain(getattr(value, k))
                                       for k in value.__dataclass_fields__}}
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def first_difference(base, change, where: str = "result"):
    """(where, base repr, change repr) at the first leaf of two ``plain``
    values whose ``repr`` differs, walking dicts and lists of the same keys
    and length in order; None when the values agree."""
    if repr(base) == repr(change):
        return None
    if isinstance(base, dict) and isinstance(change, dict) and base.keys() == change.keys():
        pairs = [(f"{where}[{key!r}]", base[key], change[key]) for key in base]
    elif isinstance(base, list) and isinstance(change, list) and len(base) == len(change):
        pairs = [(f"{where}[{i}]", b, c) for i, (b, c) in enumerate(zip(base, change))]
    else:
        return where, repr(base), repr(change)
    for path, b, c in pairs:
        if (leaf := first_difference(b, c, path)) is not None:
            return leaf
    return None


def compare(base_lib, change_lib, reps: int) -> list[dict]:
    """Run the call list ``reps`` times on both packages, alternating which
    goes first; one row per call: each side's median ms, the ratio change /
    base and the change's wins. Prints the rows, then raises AssertionError
    if any pair of results differed, with one line per differing row that
    names the first differing leaf and both its reprs."""
    data = _inputs()
    sides = {"base": call_list(base_lib, data), "change": call_list(change_lib, data)}
    names = [name for name, _ in sides["base"]]
    times = {side: [[] for _ in names] for side in sides}
    scales = kernel_scales(base_lib, data)
    worst = {name: 0.0 for name in scales}
    differ = {}  # name -> (first repetition that differed, what differed)
    for rep in range(reps):
        order = ("base", "change") if rep % 2 == 0 else ("change", "base")
        for i, name in enumerate(names):
            results = {}
            for side in order:
                thunk = sides[side][i][1]
                start = time.perf_counter()
                results[side] = thunk()
                times[side][i].append(time.perf_counter() - start)
            if name in scales:
                diff = float(np.max(np.abs(results["change"] - results["base"]) / scales[name]))
                worst[name] = max(worst[name], diff)
                if not diff <= KERNEL_REL_TOL:
                    differ.setdefault(name, (rep, None))
            elif name not in differ and (leaf := first_difference(
                    plain(results["base"]), plain(results["change"]))) is not None:
                differ[name] = (rep, leaf)
    rows = []
    print(f"{'call':40s} {'base ms':>10s} {'change ms':>10s} {'ratio':>7s} {'wins':>7s} "
          f"{'max rel':>9s}")
    for i, name in enumerate(names):
        base_t, change_t = times["base"][i], times["change"][i]
        base_ms, change_ms = (1e3 * statistics.median(t) for t in (base_t, change_t))
        wins = sum(c < b for b, c in zip(base_t, change_t))
        rows.append({"call": name, "base_ms": base_ms, "change_ms": change_ms,
                     "ratio": change_ms / base_ms, "wins": wins, "reps": reps})
        if name in worst:
            rows[-1]["max_rel_diff"] = worst[name]
        rel = f"{worst[name]:9.2e}" if name in worst else ""
        print(f"{name:40s} {base_ms:10.3f} {change_ms:10.3f} {change_ms / base_ms:7.3f} "
              f"{f'{wins}/{reps}':>7s} {rel}")
    lines = []
    for name in names:
        if name not in differ:
            continue
        rep, leaf = differ[name]
        if leaf is None:
            what = f"differ by {worst[name]:.3g} relative, above {KERNEL_REL_TOL:g}"
        else:
            what = f"differ at {leaf[0]}: base {leaf[1]}, change {leaf[2]}"
        lines.append(f"{name}: results {what} (repetition {rep + 1})")
    if lines:  # raised, not asserted, so that -O keeps it
        raise AssertionError("\n".join(lines))
    return rows


def load_package(source: Path, name: str):
    """Import the package directory ``source`` under the module name ``name``."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(
        name, source / "__init__.py", submodule_search_locations=[str(source)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def extract_package(revision: str, tree: Path) -> Path:
    """``revision``'s ``src/orlicz_bounds`` in ``tree / orlicz_bounds_base``."""
    prefix = f"src/{PACKAGE}/"
    archive = subprocess.run(["git", "archive", "--format=tar", revision, prefix],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        members = [m for m in tar.getmembers() if m.name.startswith(prefix)]
        for member in members:
            member.name = BASE_PACKAGE + "/" + member.name[len(prefix):]
        tar.extractall(tree, members=members, filter="data")
    return tree / BASE_PACKAGE


def provenance(base: str) -> dict:
    """The revisions compared and the machine, as ``bench_pairs.py`` records them."""
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs.provenance(base)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--reps", type=int, default=15, help="repetitions of the call list")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the rows and their provenance to this JSON file")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    with tempfile.TemporaryDirectory(prefix="ab-calls-") as tmp:
        base_lib = load_package(extract_package(args.base, Path(tmp)), BASE_PACKAGE)
        change_lib = load_package(ROOT / "src" / PACKAGE, PACKAGE)
        try:
            rows = compare(base_lib, change_lib, args.reps)
        except AssertionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.out is not None:
        record = {**provenance(args.base), "reps": args.reps, "rows": rows}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

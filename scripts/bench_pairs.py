#!/usr/bin/env python3
"""Alternating benchmark pairs: a base revision against the working tree.

    python3 scripts/bench_pairs.py --base HEAD --workload certify --seeds 11-20
    python3 scripts/bench_pairs.py --base HEAD --workload all --counters

Extracts the base revision with ``git archive`` into a temporary directory
(a plain copy: nothing is registered in the repository) and runs
``perfbench/run.py --trace 0`` there and in this working tree, once per
seed, swapping which side runs first from one pair to the next. Each run's
last output line (perfbench's JSON object) is the only thing read; nothing
under ``perfbench/`` is changed. For every end-to-end metric named in
``BENCHMARK.json`` it prints each side's median and quartiles, the ratio of
the medians (change / base), how many pairs the change won (ties count for
neither side) and whether the change is worse than the base by more than
the metric's bound: "ok" or "WORSE", or "unresolved" when the base runs
spread (interquartile range over median) wider than the bound and not
every change run beats every base run. ``gain`` is "yes" when the change
won at least 9/10 of the pairs and the medians differ by more than the
base's interquartile range. Exit status 1 when any run reported a failed
request.

``--counters`` runs ``perfbench/run.py --trace 1`` once on each side instead
(seed: the first of ``--seeds``, default 1) and prints every ``exact.*``
counter of perfbench's text lines with the base value, the change's value
and their difference.

``--out BENCH_<label>.json`` also writes what was printed and measured to a
JSON file: the base revision and its commit, the working tree's commit and
whether it had uncommitted changes, the workload, seeds and seconds, the
machine (nproc, python, numpy and scipy versions), each side's perfbench
JSON objects and, per metric, the medians, quartiles, ratio, wins and both
verdicts (or, with ``--counters``, the counter table).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds or min(seeds) < 0:
        raise argparse.ArgumentTypeError(f"seeds must be integers >= 0, got {text!r}")
    return seeds


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> str:
    """perfbench's standard output from one run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise RuntimeError(f"perfbench in {tree} exited {proc.returncode}: {proc.stderr[-800:]}")
    return proc.stdout


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """perfbench's final JSON object from one untraced run in ``tree``."""
    return json.loads(run_perfbench(tree, workload, seed, seconds, 0).strip().splitlines()[-1])


def parse_counters(text: str) -> dict[str, float]:
    """{"<workload> exact.<name>": value} for every ``exact.*`` line of
    perfbench's text output; the workload is read off the last "== " header."""
    counters, workload = {}, ""
    for line in text.splitlines():
        parts = line.split()
        if line.startswith("== ") and len(parts) > 1:
            workload = parts[1]
        elif len(parts) > 1 and parts[0].startswith("exact."):
            counters[f"{workload} {parts[0]}"] = float(parts[1])
    return counters


def report_counters(base: dict[str, float], change: dict[str, float]) -> dict[str, dict]:
    """One line per counter: base, change and change - base ("-" where a
    side lacks it). Returns {counter: {"base", "change", "difference"}},
    with None for "-"."""
    table = {}
    print(f"{'counter':48s} {'base':>12s} {'change':>12s} {'difference':>12s}")
    for name in {**base, **change}:
        b, c = base.get(name), change.get(name)
        table[name] = {"base": b, "change": c,
                       "difference": None if None in (b, c) else c - b}
        cells = ["-" if v is None else f"{v:g}" for v in (b, c)]
        cells.append("-" if None in (b, c) else f"{c - b:+g}")
        print(f"{name:48s} " + " ".join(f"{cell:>12s}" for cell in cells))
    return table


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(runs: dict, metrics: list[dict]) -> dict[str, dict]:
    """One line per (workload.)metric present in the runs. Returns
    {metric: {"base", "change", "ratio", "wins", "pairs", "bound", "gain"}},
    each side as its median and quartiles."""
    base_runs, change_runs = runs["base"], runs["change"]
    pairs = len(base_runs)
    names = sorted(base_runs[0]["metrics"])
    rows = {}
    print(f"{'metric':38s} {'base median [q1, q3]':>30s} {'change median [q1, q3]':>30s} "
          f"{'ratio':>7s} {'wins':>6s} {'bound':>10s} gain")
    for name in names:
        spec = next((m for m in metrics if name.split(".")[-1] == m["name"]), None)
        if spec is None:
            continue
        base = [r["metrics"][name]["value"] for r in base_runs]
        change = [r["metrics"][name]["value"] for r in change_runs]
        higher = spec["better"] == "higher"
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
        ratio = cm / bm if bm else float("nan")
        worse = (1 - ratio) if higher else (ratio - 1)
        spread = (b3 - b1) / abs(bm) if bm else float("inf")
        dominates = min(change) > max(base) if higher else max(change) < min(base)
        if spread > spec["bound"] and not dominates:
            bound = "unresolved"
        else:
            bound = "ok" if worse <= spec["bound"] else "WORSE"
        gain = "yes" if wins >= 0.9 * pairs and abs(cm - bm) > b3 - b1 else "no"
        rows[name] = {"base": {"median": bm, "q1": b1, "q3": b3},
                      "change": {"median": cm, "q1": c1, "q3": c3},
                      "ratio": ratio, "wins": wins, "pairs": pairs, "bound": bound, "gain": gain}
        base_text = f"{bm:.5g} [{b1:.5g}, {b3:.5g}]"
        change_text = f"{cm:.5g} [{c1:.5g}, {c3:.5g}]"
        print(f"{name:38s} {base_text:>30s} {change_text:>30s} "
              f"{ratio:7.3f} {f'{wins}/{pairs}':>6s} {bound:>10s} {gain}")
    for side in ("base", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side}: {failed} failed / {attempted} attempted")
    return rows


def extract(revision: str, tree: Path) -> Path:
    """``revision``'s files in ``tree``, by ``git archive``."""
    archive = subprocess.run(["git", "archive", "--format=tar", revision],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")
    return tree


def git_output(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def provenance(base: str) -> dict:
    """The revisions compared and the machine they ran on."""
    return {
        "base": {"revision": base, "commit": git_output("rev-parse", f"{base}^{{commit}}")},
        "change": {"commit": git_output("rev-parse", "HEAD"),
                   "dirty": bool(git_output("status", "--porcelain", "--untracked-files=no"))},
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--workload", default="all",
                        choices=("bound-batch", "monte-carlo", "certify", "all"))
    parser.add_argument("--seeds", type=parse_seeds, default=None,
                        help="one pair per seed, e.g. 11-20 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--counters", action="store_true",
                        help="compare the exact.* counters of one traced run per side")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the runs, the verdicts and their provenance "
                             "to this JSON file, e.g. BENCH_<label>.json")
    args = parser.parse_args(argv)
    if args.seeds is None and not args.counters:
        parser.error("--seeds is required unless --counters is given")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    record = {**provenance(args.base), "workload": args.workload, "seeds": args.seeds,
              "seconds": seconds}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"base": extract(args.base, Path(tmp) / "base"), "change": ROOT}
        if args.counters:
            seed = args.seeds[0] if args.seeds else 1
            record["seeds"] = [seed]
            texts = {side: run_perfbench(tree, args.workload, seed, seconds, 1)
                     for side, tree in trees.items()}
            record["runs"] = {side: [json.loads(texts[side].strip().splitlines()[-1])]
                              for side in ("base", "change")}
            record["printed"], record["counters"] = echoed(
                report_counters, *(parse_counters(texts[side]) for side in ("base", "change")))
        else:
            runs = record["runs"] = {"base": [], "change": []}
            for i, seed in enumerate(args.seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    runs[side].append(run_bench(trees[side], args.workload, seed, seconds))
                print(f"pair {i + 1}/{len(args.seeds)} seed {seed} done ({order[0]} first)",
                      file=sys.stderr)
            record["printed"], record["metrics"] = echoed(report, runs, spec["end_to_end"])
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if any(r["failed"] for side in record["runs"].values() for r in side) else 0


def echoed(fn, *args):
    """(what ``fn(*args)`` printed, its value); the printed text also goes
    to standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        value = fn(*args)
    sys.stdout.write(buf.getvalue())
    return buf.getvalue(), value


if __name__ == "__main__":
    sys.exit(main())

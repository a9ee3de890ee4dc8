#!/usr/bin/env python3
"""Benchmark of the orlicz-bounds library and CLI.

    python3 perfbench/run.py --workload bound-batch --seed 1 --seconds 20 --trace 0

Workloads: bound-batch, monte-carlo, certify (see perfbench/README.md), or
``all`` to run the three in turn. One caller replays the workload's fixed
request mix, pass after pass (a closed loop). The ``--seconds`` of
measurement are split over WORKERS fresh processes run one after another
(worker.py), so one process's luck with the host does not set the figures.
This process checks the first pass of the first worker with oracles that
do not go through the timed code; every other pass must return the same
results.

``--trace 0`` prints the end-to-end metrics; their timings are in cal,
multiples of a calibration kernel timed beside each request, so that the
host's changes of speed cancel (see e2e_metrics). ``--trace 1`` runs one
worker that alternates untraced and traced passes, prints the per-layer
metrics and leaves the spans of its first traced pass in .perfbench/. The
last line of standard output is one JSON object: correct, attempted,
failed, metrics. The exit code is 1 when any request failed and 2 when the
library cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# One BLAS/OpenMP thread everywhere: the workloads choose their own threads.
PIN = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
WORKERS = 4
CHILD_RUNS = 3
# setup_s is in seconds at the host speed where worker.interpreter_kernel
# takes this long; the raw seconds are printed beside it.
NOMINAL_KERNEL_S = 0.002

# Timings are in cal: multiples of one run of the workload's calibration
# kernel (worker.KERNELS) timed right beside them.
E2E_UNITS = {
    "throughput_per_cal": "1/cal",
    "latency_cal_p50": "cal",
    "latency_cal_tail": "cal",
    "pass_cal": "cal",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# The workload-specific name of each generic metric, printed beside it.
ALIASES = {
    "bound-batch": {"throughput_per_cal": "bounds_per_cal", "latency_cal_p50": "bound_p50",
                    "latency_cal_tail": "bound_p95", "throughput_per_s": "bounds_per_s",
                    "latency_ms_p50": "bound_ms_p50", "latency_ms_tail": "bound_ms_p95"},
    "monte-carlo": {"throughput_per_cal": "mc_draws_per_cal, all requests",
                    "latency_cal_p50": "estimate_p50", "latency_cal_tail": "estimate_p70",
                    "throughput_per_s": "mc_draws_per_s, all requests",
                    "latency_ms_p50": "estimate_ms_p50", "latency_ms_tail": "estimate_ms_p70"},
    "certify": {"throughput_per_cal": "partitions_per_cal", "latency_cal_p50": "request_p50",
                "latency_cal_tail": "request_p90", "throughput_per_s": "partitions_per_s",
                "latency_ms_p50": "request_ms_p50", "latency_ms_tail": "request_ms_p90"},
}

_IMPORT_CHILD = """\
import sys, time
t = time.perf_counter()
import orlicz_bounds.cli
print(time.perf_counter() - t)
"""


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC), **PIN)
    env.pop("ORLICZ_BOUNDS_THREADS", None)
    return env


def run_child(argv, timeout=170):
    """(wall seconds, stdout) of one fresh interpreter; raises on failure."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:2]} exited {proc.returncode}: {proc.stderr[-800:]}")
    return wall, proc.stdout


def run_worker(workload, seed, seconds, trace, results_path="-"):
    """One measuring process; its set-up time is spawn to inputs ready."""
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    spawned = time.time()
    _wall, out = run_child([str(BENCH / "worker.py"), workload, str(seed), str(seconds),
                            str(trace), str(spans_path), str(results_path)])
    doc = json.loads(out.strip().splitlines()[-1])
    doc["setup_raw_s"] = doc["ready_at"] - spawned
    doc["setup_s"] = doc["setup_raw_s"] * NOMINAL_KERNEL_S / doc["setup_kernel_s"]
    return doc


def machine_facts():
    import numpy
    import scipy
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__}")


def oracle_failures(workload, requests, results, refs):
    """{request index: [messages]} for the reference pass."""
    import oracles

    fails = {}
    for i, (req, result) in enumerate(zip(requests, results)):
        if result is None:
            continue
        try:
            if req.kind == "bound":
                k = 1 if req.func == "max_bounds" else req.args[-1]
                msgs = oracles.check_bound(result, req.args[0], k, refs[req.meta["family"]])
            elif req.kind == "mc":
                msgs = oracles.check_estimates(result, req.args[0], refs[req.meta["family"]],
                                               req.meta["statistic"])
            elif req.kind == "verify":
                msgs = oracles.check_verify(result)
            else:
                msgs = oracles.check_partition(result, *req.args)
        except Exception as exc:  # an oracle that cannot run is a failed check
            msgs = [f"oracle raised {type(exc).__name__}: {exc}"]
        if msgs:
            fails.setdefault(i, []).extend(msgs)
    twins = {}
    for i, req in enumerate(requests):
        if req.meta.get("twin") is not None and results[i] is not None:
            twins.setdefault(req.meta["twin"], {})[i] = req.meta["family"]
    for group in twins.values():
        idx = list(group)
        if workload == "monte-carlo":
            for i in idx[1:]:
                if results[i] != results[idx[0]]:
                    fails.setdefault(i, []).append("threads=2 estimates differ from threads=1")
        by_family = {fam: i for i, fam in group.items()}
        if "table" in by_family and "gaussian" in by_family:
            t, g = by_family["table"], by_family["gaussian"]
            msgs = oracles.check_twin(results[t], results[g])
            if msgs:
                fails.setdefault(t, []).extend(msgs)
    return fails


def run_workload(workload, seed, seconds, trace):
    import oracles
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    results_path = OUT / f"results-{workload}-seed{seed}.pickle"
    count = 1 if trace else WORKERS
    docs = [run_worker(workload, seed, seconds / count, trace, results_path if w == 0 else "-")
            for w in range(count)]
    # The first pass of the first worker is the reference; the pickle is
    # this run's own output.
    with open(results_path, "rb") as fh:
        results = pickle.load(fh)
    results_path.unlink()
    ref_digests = docs[0]["digests"][0]

    requests = workloads.build(workload, seed)
    refs = oracles.references(workloads.TABLE_KNOTS, workloads.TABLE_SURVIVAL,
                              workloads.SYMEXP_RATE)
    bad = oracle_failures(workload, requests, results, refs)
    attempted = failed = 0
    later = {}
    for w, doc in enumerate(docs):
        raised = {(p, i): msg for p, i, msg in doc["errors"]}
        for p, digests in enumerate(doc["digests"]):
            for i, d in enumerate(digests):
                attempted += 1
                if (p, i) in raised:
                    later.setdefault(i, []).append(raised[p, i])
                elif d != ref_digests[i]:
                    later.setdefault(i, []).append(f"worker {w} pass {p} result differs")
                failed += i in bad or (p, i) in raised or d != ref_digests[i]
    for i, msgs in later.items():
        bad.setdefault(i, []).extend(msgs)

    if trace:
        metrics, notes, extra = trace_metrics(docs[0], bad)
        units = {k: spans.LAYER_METRICS[k][0] for k in metrics}
    else:
        metrics, notes, extra = e2e_metrics(workload, requests, docs)
        units = E2E_UNITS
    alias = {} if trace else ALIASES[workload]
    print(f"== {workload}  seed={seed}  seconds={seconds:g}  trace={trace}  ({machine_facts()})")
    for name, value in metrics.items():
        side = "  ".join(s for s in (alias.get(name), notes.get(name)) if s)
        print(f"  {name:44s} {value:16.6g} {units[name]:6s} {side}")
    for name, (value, unit) in extra.items():
        print(f"  {name:44s} {value:16.6g} {unit:6s} {alias.get(name, '')}")
    print(f"  {'error_rate':44s} {failed / attempted:16.6g} {'share':6s} "
          f"{failed} failed / {attempted} attempted")
    for i, msgs in sorted(bad.items())[:10]:
        label = requests[i].label if i >= 0 else "traced passes"
        print(f"  FAILED {label}: {msgs[0].strip()}", file=sys.stderr)
    result = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    return not bad and failed == 0, attempted, failed, result


def e2e_metrics(workload, requests, docs):
    """Timings in cal: each request's seconds over the mean of the two
    calibration-kernel runs either side of it. The host changes speed by up
    to 2x within minutes and the kernel changes with it, so the ratio holds
    still where seconds do not. The same figures in seconds are printed
    beside them."""
    import workloads

    tail = workloads.TAIL_PERCENTILE[workload]
    units = sum(r.units for r in requests)
    timed = {"cal": ([], [], []), "s": ([], [], [])}  # latencies, passes, rates
    kernel, per_label = [], {}
    for doc in docs:
        for durations, cal in zip(doc["passes"], doc["cal"]):
            kernel += cal
            in_cal = [d / (0.5 * (a + b)) for d, a, b in zip(durations, cal, cal[1:])]
            for scale, values in (("cal", in_cal), ("s", durations)):
                lat, passes, rate = timed[scale]
                lat += values
                passes.append(sum(values))
                rate.append(units / sum(v for r, v in zip(requests, values) if r.units > 0))
            for r, d in zip(requests, durations):
                per_label.setdefault(r.label, []).append(d)

    def summary(scale, ms=1.0):
        lat, passes, rate = timed[scale]
        return (statistics.median(rate), ms * statistics.median(lat),
                ms * statistics.quantiles(lat, n=100, method="inclusive")[tail - 1],
                statistics.median(passes))

    lat = timed["cal"][0]
    metrics = dict(zip(("throughput_per_cal", "latency_cal_p50", "latency_cal_tail",
                        "pass_cal"), summary("cal")))
    metrics["setup_s"] = statistics.median(d["setup_s"] for d in docs)
    metrics["peak_rss_mb"] = statistics.median(d["rss_mb"] for d in docs)
    beyond = int(len(lat) * (100 - tail) / 100)
    notes = {
        "setup_s": f"median of {len(docs)} fresh processes, at a "
                   f"{1e3 * NOMINAL_KERNEL_S:g} ms interpreter kernel",
        "peak_rss_mb": f"median of {len(docs)} processes",
        "throughput_per_cal": f"median of {len(timed['cal'][2])} passes",
        "latency_cal_p50": f"{len(lat)} requests",
        "latency_cal_tail": f"p{tail} of {len(lat)} requests, {beyond} beyond",
        "pass_cal": f"median of {len(timed['cal'][1])} passes of {len(requests)} requests",
    }
    extra = dict(zip(("throughput_per_s", "latency_ms_p50", "latency_ms_tail", "pass_s"),
                     zip(summary("s", ms=1e3), ("1/s", "ms", "ms", "s"))))
    extra["setup_raw_s"] = (statistics.median(d["setup_raw_s"] for d in docs), "s")
    extra["calibration_ms"] = (1e3 * statistics.median(kernel), "ms")
    if workload == "monte-carlo":
        for threads in (1, 2):
            reqs = [r for r in requests if r.kwargs["threads"] == threads]
            draws = sum(r.units * len(per_label[r.label]) for r in reqs)
            busy = sum(sum(per_label[r.label]) for r in reqs)
            extra[f"mc_draws_per_s_threads{threads}"] = (draws / busy, "1/s")
    if workload == "certify":
        verify = [d for r in requests if r.kind == "verify" for d in per_label[r.label]]
        extra["verify_all_s"] = (statistics.median(verify), "s")
    return metrics, notes, extra


def trace_metrics(doc, bad):
    summaries = doc["summaries"]
    exact0 = summaries[0][0]
    for p, (exact, _m) in enumerate(summaries[1:], start=1):
        if exact != exact0:
            bad.setdefault(-1, []).append(f"traced pass {p} counts {exact} != {exact0}")
    metrics = {name: statistics.median(s[1][name] for s in summaries)
               for name in summaries[0][1]}
    metrics["cli.import_ms"] = 1e3 * statistics.median(
        float(run_child(["-c", _IMPORT_CHILD])[1]) for _ in range(CHILD_RUNS))
    metrics["cli.cold_start_ms"] = 1e3 * statistics.median(
        run_child(["-m", "orlicz_bounds.cli", "verify", "--suite", "tail-bound"])[0]
        for _ in range(CHILD_RUNS))
    plain, traced = statistics.median(doc["plain_s"]), statistics.median(doc["traced_s"])
    metrics["trace.overhead_share"] = traced / plain - 1
    notes = {"trace.overhead_share": f"traced pass {traced:.3f} s vs untraced {plain:.3f} s, "
                                     f"{len(doc['traced_s'])} pairs"}
    return metrics, notes, {f"exact.{k}": (v, "count") for k, v in exact0.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("bound-batch", "monte-carlo", "certify", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "orlicz_bounds" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PIN)
    sys.path.insert(0, str(SRC))
    import orlicz_bounds

    if Path(orlicz_bounds.__file__).resolve().parent != SRC / "orlicz_bounds":
        print(f"error: imported orlicz_bounds from {orlicz_bounds.__file__}", file=sys.stderr)
        return 2

    names = (args.workload,)
    if args.workload == "all":
        names = ("bound-batch", "monte-carlo", "certify")
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, att, fail, result = run_workload(name, args.seed, args.seconds, args.trace)
        correct, attempted, failed = correct and ok, attempted + att, failed + fail
        if len(names) == 1:
            metrics = result
        else:
            metrics.update({f"{name}.{k}": v for k, v in result.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Measuring process of the benchmark; ``run.py`` starts it.

    python3 perfbench/worker.py <workload> <seed> <seconds> <trace> <spans path> <results path>

Builds the inputs, then replays whole passes of the request mix for about
``seconds``, and prints one JSON line: the wall-clock time at which the
inputs were ready, peak RSS, per-request seconds and result digests for
every pass, the median time of the interpreter kernel right after set-up,
and the requests that raised. With trace 0 every request sits between two
runs of the calibration kernel, whose seconds are kept too. The results of
the first pass are pickled to ``results path`` unless it is "-", for the
oracles in run.py.
With trace 1 it alternates untraced and traced passes, adds the per-layer
summary of every traced pass, and keeps the spans of the first traced pass
in memory until the end, when it writes them to ``spans path``.
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
MIN_TRACED_PASSES = 2
SETUP_KERNEL_RUNS = 25  # odd: the median is one of the runs


_CAL_VECTOR = np.linspace(0.5, 5.0, 4096)
_CAL_BUFFER = np.empty(1 << 16)


def interpreter_kernel():
    """Python-bound calibration work: an interpreter loop, small numpy calls,
    one vectorised pass over 32 KiB and exact Fraction sums. 1.3 to 3 ms on
    a 2-vCPU Xeon."""
    s = 0.0
    for i in range(6000):
        s += math.sqrt(i * 0.5)
    v = _CAL_VECTOR
    for _ in range(150):
        s += float(np.minimum(v[:64] * 1.3, 4.0).sum())
    for _ in range(10):
        s += float(np.log1p(np.exp(-v)).sum())
    f = Fraction(0)
    for i in range(1, 200):
        f += Fraction(1, i)
    return s, f


def bulk_kernel():
    """Array-bound calibration work: normal draws into 512 KiB, scaled and
    partially sorted, as in Monte Carlo sampling and selection. 1.5 to 3 ms
    on a 2-vCPU Xeon."""
    rng, buf = np.random.default_rng(0), _CAL_BUFFER
    s = 0.0
    for _ in range(2):
        rng.standard_normal(out=buf)
        np.abs(buf, out=buf)
        buf *= 1.3
        s += float(np.partition(buf, 100)[100])
    return s


# The calibration kernel of each workload does the kind of work the
# workload spends its time on: the host's swings slow interpreter work
# about twice as much as bulk array work.
KERNELS = {"bound-batch": interpreter_kernel, "monte-carlo": bulk_kernel,
           "certify": interpreter_kernel}


def calibration_time(kernel):
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def digest(result):
    """Stable fingerprint of a result; equal results give equal digests."""
    return hashlib.sha256(repr(result).encode()).hexdigest()[:20]


def run_pass(requests, errors, tracer=None, cal=None, kernel=None):
    """Run every request once: (per-request seconds, digests, results).

    With a list ``cal``, the calibration ``kernel`` runs before the first
    request and after every request, and its seconds go to ``cal``.
    """
    durations, digests, results = [], [], []
    if cal is not None:
        cal.append(calibration_time(kernel))
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.begin_request(i)
        t0 = time.perf_counter()
        try:
            result = req()
        except Exception:  # counted as a failed request; the loop goes on
            result = None
            errors.append((i, traceback.format_exc(limit=4)))
        durations.append(time.perf_counter() - t0)
        digests.append(None if result is None else digest(result))
        results.append(result)
        if cal is not None:
            cal.append(calibration_time(kernel))
    return durations, digests, results


def measure(requests, seconds, trace, spans_path, results_path, kernel):
    doc = {"passes": [], "cal": [], "digests": [], "errors": [], "plain_s": [],
           "traced_s": [], "summaries": []}

    def timed_pass(tracer=None):
        errors = []
        cal = None if trace else []
        t0 = time.perf_counter()
        durations, digests, results = run_pass(requests, errors, tracer, cal, kernel)
        elapsed = time.perf_counter() - t0
        if not doc["passes"] and results_path != "-":
            with open(results_path, "wb") as fh:
                pickle.dump(results, fh)
        doc["passes"].append(durations)
        doc["cal"].append(cal)
        doc["digests"].append(digests)
        doc["errors"] += [(len(doc["passes"]) - 1, i, msg) for i, msg in errors]
        return elapsed

    start = time.perf_counter()
    while True:
        if trace:
            import spans

            doc["plain_s"].append(timed_pass())
            tracer = spans.Tracer()
            tracer.install()
            try:
                doc["traced_s"].append(timed_pass(tracer))
            finally:
                tracer.uninstall()
            doc["summaries"].append(spans.pass_summary(tracer.spans, tracer.counts))
            if len(doc["traced_s"]) == 1:
                first_spans = tracer.spans
            rounds = len(doc["traced_s"])
        else:
            timed_pass()
            rounds = len(doc["passes"])
        elapsed = time.perf_counter() - start
        # stop at the whole pass that ends nearest to the budget
        if elapsed + 0.5 * elapsed / rounds >= seconds and (
                not trace or rounds >= MIN_TRACED_PASSES):
            break
    if trace:
        write_spans(spans_path, first_spans, [r.label for r in requests])
    return doc


def write_spans(path, span_list, labels):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": ["id", "parent", "request", "name", "start", "end",
                                        "size"], "requests": labels}) + "\n")
        for span in span_list:
            fh.write(json.dumps(span) + "\n")


def main(argv):
    workload, seed, seconds, trace, spans_path, results_path = argv
    sys.path.insert(0, str(BENCH.parent / "src"))
    import workloads

    requests = workloads.build(workload, int(seed))
    ready_at = time.time()
    setup_kernel_s = sorted(calibration_time(interpreter_kernel)
                            for _ in range(SETUP_KERNEL_RUNS))[SETUP_KERNEL_RUNS // 2]
    doc = measure(requests, float(seconds), int(trace), spans_path, results_path,
                  KERNELS[workload])
    doc["ready_at"] = ready_at
    doc["setup_kernel_s"] = setup_kernel_s
    doc["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(doc))


if __name__ == "__main__":
    main(sys.argv[1:])

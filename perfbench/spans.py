"""Outside-in tracing of the library's layers, and the per-layer metrics.

``Tracer.install`` replaces the names the layers call each other through
with wrappers that record one span per call: (id, parent, request, name,
start, end, size). Nothing inside ``src/`` changes; ``uninstall`` puts the
originals back. Spans stay in memory until the run writes them out.

A span's layer is the part of its name before the first dot. Self time is
a span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

import dataclasses
import itertools
import statistics
import threading
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from orlicz_bounds import bounds, cli, montecarlo, partition
from orlicz_bounds.distributions import DistributionModel

SUITES = cli.SUITES
# Solve size classes for orlicz.solve_ms_p50.<class>, by vector length n.
SIZE_CLASSES = (("small", 0, 100), ("medium", 100, 10_000), ("large", 10_000, float("inf")))
EXACT_CHECKS = ("montecarlo.check_symmetric_tail_bound", "montecarlo.check_subset_product_chain")

# Per-layer metrics, with the unit and the end-to-end metric each should move.
_BOUND = "throughput_per_s, latency_ms_tail on bound-batch"
LAYER_METRICS = {
    "distributions.neg_log_survival.ns_per_elem": ("ns", _BOUND),
    "distributions.tail_integral.ns_per_elem": ("ns", _BOUND),
    "distributions.survival.ns_per_elem": ("ns", _BOUND),
    "distributions.sample.ns_per_draw": ("ns", "throughput_per_s on monte-carlo"),
    "distributions.calls": ("count", "throughput_per_s on bound-batch"),
    "distributions.self_ms": ("ms", "throughput_per_s on bound-batch"),
    "orlicz.solves": ("count", _BOUND),
    "orlicz.evals_per_solve": ("count", _BOUND),
    "orlicz.solve_ms_p50.small": ("ms", "throughput_per_s, pass_s on certify"),
    "orlicz.solve_ms_p50.medium": ("ms", "throughput_per_s on bound-batch"),
    "orlicz.solve_ms_p50.large": ("ms", "latency_ms_tail on bound-batch"),
    "orlicz.self_ms": ("ms", "throughput_per_s on bound-batch"),
    "bounds.self_ms": ("ms", "latency_ms_p50 on bound-batch"),
    "bounds.solves_per_report": ("count", "latency_ms_p50 on bound-batch"),
    "partition.solves_per_case": ("count", "throughput_per_s on certify"),
    "partition.verify_share": ("share", "throughput_per_s on certify"),
    "partition.self_ms": ("ms", "throughput_per_s on certify"),
    "montecarlo.chunks": ("count", "throughput_per_s, pass_s on monte-carlo"),
    "montecarlo.self_ms": ("ms", "throughput_per_s, pass_s on monte-carlo"),
    "montecarlo.sample_share": ("share", "throughput_per_s, pass_s on monte-carlo"),
    "montecarlo.exact_check_ms": ("ms", "pass_s on certify"),
    **{f"cli.suite_ms.{s}": ("ms", "pass_s, latency_ms_tail on certify") for s in SUITES},
    "reporting.dumps_ms": ("ms", "pass_s on certify"),
    "cli.import_ms": ("ms", "setup_s on every workload"),
    "cli.cold_start_ms": ("ms", "setup_s on every workload"),
    "trace.overhead_share": ("share", "none: traced over untraced pass time, minus 1"),
}


def _size_of_arg(index):
    def size(args, kwargs):
        return int(np.size(args[index])) if len(args) > index else 0
    return size


def _count_arg(args, kwargs):
    return int(args[2] if len(args) > 2 else kwargs["count"])


class Tracer:
    """Span recorder for one pass; ``install``/``uninstall`` bracket it."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = -1
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = None
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_request(self, index):
        """Spans from here on belong to request ``index``. Worker threads
        (Monte Carlo chunks) attach to the innermost span open in this one."""
        self.request = index
        self._main = self._stack()

    def wrap(self, name, fn, size=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main[-1] if tracer._main else 0
            with tracer._lock:
                sid = next(tracer._ids)
            stack.append(sid)
            n = size(args, kwargs) if size else 0
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, tracer.request, name, t0, t1, n))

        traced.__wrapped__ = fn
        return traced

    def _wrap_solver(self, fn):
        """orlicz_norm, counting every evaluation of the function handle it
        is given (modular sums and bracket probes alike)."""
        tracer = self

        def solve(x, fun, **kwargs):
            def counted(t, _evaluate=fun.evaluate):
                tracer.counts["orlicz.evals"] += 1
                return _evaluate(t)

            return fn(x, dataclasses.replace(fun, evaluate=counted), **kwargs)

        return self.wrap("orlicz.orlicz_norm", solve,
                         lambda args, kwargs: int(np.size(getattr(args[0], "values", args[0]))))

    def targets(self):
        """(owner, attribute, wrapper factory) for every traced boundary."""
        plain = lambda name, size=None: (lambda fn: self.wrap(name, fn, size))
        out = [(mod, "orlicz_norm", self._wrap_solver) for mod in (bounds, partition, montecarlo)]
        for meth in ("survival", "neg_log_survival", "tail_integral"):
            out.append((DistributionModel, meth, plain(f"distributions.{meth}", _size_of_arg(1))))
        out.append((DistributionModel, "sample", plain("distributions.sample", _count_arg)))
        for fn in ("kth_min_bounds", "kth_max_bounds", "max_bounds", "kth_min_bounds_gaussian"):
            out.append((bounds, fn, plain(f"bounds.{fn}")))
        out += [
            (partition, "build_partition", plain("partition.build_partition")),
            (partition, "verify_partition", plain("partition.verify_partition")),
            (montecarlo, "estimate_order_stats", plain("montecarlo.estimate_order_stats")),
            (cli, "main", plain("cli.main")),
            (cli, "build_partition", plain("partition.build_partition")),
            (cli, "check_tail_integral_bound", plain("distributions.check_tail_integral_bound")),
            (cli, "young_conjugate", plain("orlicz.young_conjugate")),
            (cli, "kth_min_tail_threshold", plain("montecarlo.kth_min_tail_threshold")),
            (cli, "dumps_report", plain("reporting.dumps_report")),
        ]
        for fn in ("check_kmax_split", "check_kth_min_tail", "check_min_survival_product",
                   "check_subset_product_chain", "check_symmetric_tail_bound"):
            out.append((cli, fn, plain(f"montecarlo.{fn}")))
        for suite in SUITES:
            out.append((cli._SUITE_RUNNERS, suite, plain(f"cli.suite.{suite}")))
        return out

    def install(self):
        for owner, attr, factory in self.targets():
            original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            _set(owner, attr, factory(original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            _set(owner, attr, original)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def self_times(spans):
    """{span id: (self seconds, {child name: seconds covered})}.

    Overlapping children (Monte Carlo chunks on two threads) are merged
    before they are subtracted, so self time is never negative.
    """
    children = defaultdict(list)
    for sid, parent, _req, name, t0, t1, _n in spans:
        children[parent].append((t0, t1, name))
    out = {}
    for sid, _parent, _req, _name, t0, t1, _n in spans:
        covered_by = defaultdict(float)
        covered = 0.0
        end = t0
        for c0, c1, cname in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                covered_by[cname] += c1 - c0
                end = c1
        out[sid] = (t1 - t0 - covered, covered_by)
    return out


def pass_summary(spans, counts):
    """Per-layer figures of one traced pass; the ``exact`` part must repeat
    exactly for one seed."""
    selfs = self_times(spans)
    names = {sid: name for sid, _p, _r, name, *_ in spans}
    layer_self = Counter()
    by_name = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, duration, self, size
    solve_ms = defaultdict(list)
    solves_under = Counter()
    chunks = 0
    verify_in_build = 0.0
    sample_cover = mc_with_samples = 0.0
    for sid, parent, _req, name, t0, t1, n in spans:
        own, covered_by = selfs[sid]
        layer_self[name.split(".", 1)[0]] += own
        rec = by_name[name]
        rec[0] += 1
        rec[1] += t1 - t0
        rec[2] += own
        rec[3] += n
        parent_name = names.get(parent, "")
        if name == "orlicz.orlicz_norm":
            solves_under[parent_name.split(".", 1)[0]] += 1
            for cls, lo, hi in SIZE_CLASSES:
                if lo < n <= hi:
                    solve_ms[cls].append(1e3 * (t1 - t0))
        elif name == "distributions.sample" and parent_name.startswith("montecarlo."):
            chunks += 1
        elif name == "partition.verify_partition" and parent_name == "partition.build_partition":
            verify_in_build += t1 - t0
        if name.startswith("montecarlo.") and covered_by.get("distributions.sample"):
            sample_cover += covered_by["distributions.sample"]
            mc_with_samples += t1 - t0

    def ns_per(name):
        calls, _dur, own, size = by_name.get(name, (0, 0.0, 0.0, 0))
        return 1e9 * own / size if size else 0.0

    def dur_ms(*names_):
        return 1e3 * sum(by_name[n][1] for n in names_ if n in by_name)

    solves = by_name["orlicz.orlicz_norm"][0] if "orlicz.orlicz_norm" in by_name else 0
    reports = sum(v[0] for k, v in by_name.items() if k.startswith("bounds."))
    cases = by_name["partition.build_partition"][0] if "partition.build_partition" in by_name else 0
    dist_calls = sum(v[0] for k, v in by_name.items() if k.startswith("distributions."))
    exact = {
        "orlicz.solves": solves,
        "orlicz.evals": counts["orlicz.evals"],
        "partition.solves": solves_under["partition"],
        "partition.cases": cases,
        "montecarlo.chunks": chunks,
        "distributions.calls": dist_calls,
        "bounds.solves": solves_under["bounds"],
        "bounds.reports": reports,
    }
    build_ms = dur_ms("partition.build_partition")
    metrics = {
        "distributions.neg_log_survival.ns_per_elem": ns_per("distributions.neg_log_survival"),
        "distributions.tail_integral.ns_per_elem": ns_per("distributions.tail_integral"),
        "distributions.survival.ns_per_elem": ns_per("distributions.survival"),
        "distributions.sample.ns_per_draw": ns_per("distributions.sample"),
        "distributions.calls": dist_calls,
        "distributions.self_ms": 1e3 * layer_self["distributions"],
        "orlicz.solves": solves,
        "orlicz.evals_per_solve": counts["orlicz.evals"] / solves if solves else 0.0,
        "orlicz.self_ms": 1e3 * layer_self["orlicz"],
        "bounds.self_ms": 1e3 * layer_self["bounds"],
        "bounds.solves_per_report": solves_under["bounds"] / reports if reports else 0.0,
        "partition.solves_per_case": solves_under["partition"] / cases if cases else 0.0,
        "partition.verify_share": 1e3 * verify_in_build / build_ms if build_ms else 0.0,
        "partition.self_ms": 1e3 * layer_self["partition"],
        "montecarlo.chunks": chunks,
        "montecarlo.self_ms": 1e3 * layer_self["montecarlo"],
        "montecarlo.sample_share": sample_cover / mc_with_samples if mc_with_samples else 0.0,
        "montecarlo.exact_check_ms": dur_ms(*EXACT_CHECKS),
        "reporting.dumps_ms": dur_ms("reporting.dumps_report"),
    }
    for cls, _lo, _hi in SIZE_CLASSES:
        metrics[f"orlicz.solve_ms_p50.{cls}"] = (
            statistics.median(solve_ms[cls]) if solve_ms[cls] else 0.0)
    for suite in SUITES:
        metrics[f"cli.suite_ms.{suite}"] = dur_ms(f"cli.suite.{suite}")
    return exact, metrics

"""Tests of the benchmark's own machinery.

Run with:  python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from orlicz_bounds import bounds, montecarlo, orlicz, partition  # noqa: E402

MODELS = workloads.build_models()
REFS = oracles.references(workloads.TABLE_KNOTS, workloads.TABLE_SURVIVAL,
                          workloads.SYMEXP_RATE)


def test_self_time_of_synthetic_span_tree():
    tree = [
        (1, 0, 0, "bounds.kth_min_bounds", 0.0, 10.0, 0),
        (2, 1, 0, "orlicz.orlicz_norm", 1.0, 3.0, 5),
        (3, 1, 0, "orlicz.orlicz_norm", 2.0, 5.0, 5),  # overlaps span 2
        (4, 1, 0, "orlicz.orlicz_norm", 8.0, 9.0, 5),
        (5, 3, 0, "distributions.survival", 2.5, 4.5, 5),
        (6, 1, 0, "distributions.survival", 9.5, 11.0, 5),  # runs past its parent
    ]
    selfs = {sid: own for sid, (own, _cover) in spans.self_times(tree).items()}
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(2.0)
    assert selfs[6] == pytest.approx(1.5)


def _scaled(report, factor):
    tail = report.tail_norm * factor if report.tail_norm is not None else None
    return dataclasses.replace(report, terms=tuple(factor * t for t in report.terms),
                               tail_norm=tail)


@pytest.mark.parametrize("family", workloads.FAMILIES)
def test_bound_oracle_rejects_terms_scaled_by_one_percent(family):
    rng = np.random.default_rng(3)
    model, ref = MODELS[family], REFS[family]
    up = np.sort(rng.uniform(0.5, 5.0, 60))
    cases = [
        (bounds.kth_min_bounds(up, model, 4), up, 4),
        (bounds.kth_max_bounds(up[::-1].copy(), model, 2), up[::-1].copy(), 2),
        (bounds.max_bounds(up, model), up, 1),
    ]
    for report, x, k in cases:
        assert oracles.check_bound(report, x, k, ref) == []
        assert oracles.check_bound(_scaled(report, 1.01), x, k, ref)


def test_mc_oracle_rejects_mean_shifted_by_ten_halfwidths():
    x = np.sort(np.random.default_rng(4).uniform(0.5, 5.0, 20))
    for family, statistic in (("gaussian", "kmin"), ("table", "kmax")):
        ests = montecarlo.estimate_order_stats(x, MODELS[family], (1, 3), statistic,
                                               replications=5000, seed=9)
        assert oracles.check_estimates(ests, x, REFS[family], statistic) == []
        shifted = [dataclasses.replace(e, mean=e.mean + 10 * e.ci_halfwidth) for e in ests]
        assert len(oracles.check_estimates(shifted, x, REFS[family], statistic)) == 2


def _traced_pass(requests):
    tracer = spans.Tracer()
    tracer.install()
    try:
        for i, req in enumerate(requests):
            tracer.begin_request(i)
            req()
    finally:
        tracer.uninstall()
    return spans.pass_summary(tracer.spans, tracer.counts)


def test_traced_runs_with_one_seed_repeat_exact_counts():
    x = np.sort(np.random.default_rng(5).uniform(0.5, 5.0, 40))
    mk = workloads.Request
    requests = [
        mk("kmin", "bound", bounds, "kth_min_bounds", (x, MODELS["table"], 3)),
        mk("part", "partition", partition, "build_partition",
           (x[:12], orlicz.power_function(2.0), 4)),
        mk("mc", "mc", montecarlo, "estimate_order_stats", (x, MODELS["gaussian"], (2,)),
           {"replications": 20_000, "seed": 1, "threads": 2}),
    ]
    first, metrics = _traced_pass(requests)
    second, _ = _traced_pass(requests)
    assert first == second
    assert first["orlicz.solves"] > 0 and first["partition.solves"] > 0
    assert first["montecarlo.chunks"] == 3  # 20000 rows in chunks of 8192
    assert metrics["orlicz.evals_per_solve"] > 1
    assert 0 < metrics["partition.verify_share"] < 1
    # wrappers are gone after uninstall
    assert bounds.orlicz_norm is orlicz.orlicz_norm
    assert partition.verify_partition.__name__ == "verify_partition"


def test_calibrated_metrics_ignore_a_uniform_slowdown():
    requests = [workloads.Request(f"r{i}", "partition" if i else "verify", None, "f", (),
                                  units=float(i > 0)) for i in range(3)]
    durations, cal = [0.5, 0.2, 0.1], [0.010, 0.012, 0.008, 0.010]

    def doc(slow):
        return {"setup_s": 1.0, "setup_raw_s": slow, "rss_mb": 90.0,
                "passes": [[slow * d for d in durations]] * 3,
                "cal": [[slow * c for c in cal]] * 3}

    fast, _, fast_s = run.e2e_metrics("certify", requests, [doc(1.0)])
    slow, _, slow_s = run.e2e_metrics("certify", requests, [doc(2.0)])
    for name in ("throughput_per_cal", "latency_cal_p50", "latency_cal_tail", "pass_cal"):
        assert slow[name] == pytest.approx(fast[name])
    # each request in the mean of the kernel runs either side of it
    assert fast["pass_cal"] == pytest.approx(0.5 / 0.011 + 0.2 / 0.010 + 0.1 / 0.009)
    assert fast["throughput_per_cal"] == pytest.approx(2 / (0.2 / 0.010 + 0.1 / 0.009))
    assert slow_s["pass_s"][0] == pytest.approx(2 * fast_s["pass_s"][0])


def test_run_without_library_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""scripts/bench_pairs.py's verdicts on synthetic runs, and scripts/ab_calls.py run on the working tree."""

import dataclasses
import importlib.util
import json
import math
import statistics
import types
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

_METRICS = [
    {"name": "throughput_per_cal", "better": "higher", "bound": 0.25},
    {"name": "latency_cal_p50", "better": "lower", "bound": 0.25},
]


def _runs(name, values):
    return [{"metrics": {name: {"value": v}}, "failed": 0, "attempted": 5} for v in values]


def _verdict(capsys, name, base, change):
    bench_pairs.report({"base": _runs(name, base), "change": _runs(name, change)}, _METRICS)
    line = next(row for row in capsys.readouterr().out.splitlines() if row.startswith(name))
    return line.split()[-2:]  # [bound verdict, gain]


@pytest.mark.parametrize(
    "name, base, change, expected",
    [
        # tight base: the bound decides
        ("m.throughput_per_cal", [100, 101, 99, 100], [98, 97, 99, 98], ["ok", "no"]),
        ("m.throughput_per_cal", [100, 101, 99, 100], [60, 61, 59, 60], ["WORSE", "no"]),
        ("m.latency_cal_p50", [10, 10.1, 9.9, 10], [14, 14.2, 13.8, 14], ["WORSE", "no"]),
        ("m.throughput_per_cal", [100, 101, 99, 100], [200, 201, 199, 200], ["ok", "yes"]),
        # base spread wider than the bound: no verdict unless the change
        # beats every base run
        ("m.throughput_per_cal", [60, 140, 80, 120], [95, 100, 105, 90], ["unresolved", "no"]),
        ("m.throughput_per_cal", [60, 140, 80, 120], [50, 55, 52, 58], ["unresolved", "no"]),
        ("m.throughput_per_cal", [60, 140, 80, 120], [150, 160, 155, 170], ["ok", "yes"]),
        ("m.latency_cal_p50", [6, 14, 8, 12], [5, 4, 5.5, 3], ["ok", "yes"]),
    ],
)
def test_verdicts(capsys, name, base, change, expected):
    assert _verdict(capsys, name, base, change) == expected


def test_failures_are_counted(capsys):
    runs = {"base": _runs("m.latency_cal_p50", [1, 1]),
            "change": _runs("m.latency_cal_p50", [1, 1])}
    runs["change"][1]["failed"] = 2
    bench_pairs.report(runs, _METRICS)
    out = capsys.readouterr().out
    assert "change: 2 failed / 10 attempted" in out
    assert "base: 0 failed / 10 attempted" in out


def _perfbench_text(workloads):
    """perfbench's text output of a traced run over ``workloads``:
    {workload: {counter: value}}."""
    lines = []
    for workload, counters in workloads.items():
        lines.append(f"== {workload}  seed=1  seconds=30  trace=1  (nproc=2 python=3.11.7)")
        lines.append(f"  {'orlicz.evals_per_solve':44s} {9.8:16.6g} {'count':6s} ")
        for name, value in counters.items():
            lines.append(f"  {'exact.' + name:44s} {value:16.6g} {'count':6s} ")
        lines.append(f"  {'error_rate':44s} {0:16.6g} {'share':6s} 0 failed / 518 attempted")
    lines.append('{"correct": true, "attempted": 518, "failed": 0, "metrics": {}}')
    return "\n".join(lines) + "\n"


def test_counters_are_parsed_per_workload():
    text = _perfbench_text({"bound-batch": {"orlicz.solves": 420, "orlicz.evals": 4048},
                            "certify": {"orlicz.solves": 2738}})
    assert bench_pairs.parse_counters(text) == {
        "bound-batch exact.orlicz.solves": 420.0,
        "bound-batch exact.orlicz.evals": 4048.0,
        "certify exact.orlicz.solves": 2738.0,
    }


def test_counters_report_base_change_and_difference(capsys):
    base = bench_pairs.parse_counters(_perfbench_text(
        {"bound-batch": {"orlicz.solves": 420, "orlicz.evals": 4048, "partition.cases": 0}}))
    change = bench_pairs.parse_counters(_perfbench_text(
        {"bound-batch": {"orlicz.solves": 420, "orlicz.evals": 4120, "bounds.reports": 37}}))
    bench_pairs.report_counters(base, change)
    rows = {" ".join(line.split()[:2]): line.split()[2:]
            for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows["bound-batch exact.orlicz.solves"] == ["420", "420", "+0"]
    assert rows["bound-batch exact.orlicz.evals"] == ["4048", "4120", "+72"]
    assert rows["bound-batch exact.partition.cases"] == ["0", "-", "-"]
    assert rows["bound-batch exact.bounds.reports"] == ["-", "37", "-"]


_PROVENANCE = {"base": {"revision": "HEAD~1", "commit": "a" * 40},
               "change": {"commit": "b" * 40, "dirty": True},
               "machine": {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}}


def _run_main(monkeypatch, tmp_path, argv, **fakes):
    """bench_pairs.main on ``fakes`` in place of perfbench and git; returns
    (exit status, printed text, the --out file read back)."""
    monkeypatch.setattr(bench_pairs, "extract", lambda revision, tree: tree)
    monkeypatch.setattr(bench_pairs, "provenance", lambda base: _PROVENANCE)
    for name, fake in fakes.items():
        monkeypatch.setattr(bench_pairs, name, fake)
    out = tmp_path / "BENCH_test.json"
    status = bench_pairs.main([*argv, "--base", "HEAD~1", "--out", str(out)])
    return status, out.read_text()


def test_out_file_round_trip(monkeypatch, tmp_path, capsys):
    values = {"base": iter([100, 101, 99, 100]), "change": iter([80, 81, 79, 82])}

    def fake_run_bench(tree, workload, seed, seconds):
        side = "change" if tree == bench_pairs.ROOT else "base"
        run = _runs("certify.pass_cal", [next(values[side])])[0]
        return {**run, "seed": seed, "workload": workload, "seconds": seconds}

    status, text = _run_main(monkeypatch, tmp_path,
                             ["--workload", "certify", "--seeds", "11-14", "--seconds", "5"],
                             run_bench=fake_run_bench)
    record = json.loads(text)
    assert status == 0
    assert record["printed"] == capsys.readouterr().out
    assert {k: record[k] for k in _PROVENANCE} == _PROVENANCE
    assert (record["workload"], record["seeds"], record["seconds"]) == ("certify",
                                                                        [11, 12, 13, 14], 5.0)
    assert [r["metrics"]["certify.pass_cal"]["value"] for r in record["runs"]["base"]] == [
        100, 101, 99, 100]
    assert [r["seed"] for r in record["runs"]["change"]] == [11, 12, 13, 14]
    row = record["metrics"]["certify.pass_cal"]
    assert row["base"] == {"median": 100.0, "q1": 99.75, "q3": 100.25}
    assert row["change"]["median"] == 80.5
    assert row["ratio"] == pytest.approx(0.805)
    assert (row["wins"], row["pairs"], row["bound"], row["gain"]) == (4, 4, "ok", "yes")


def test_out_file_holds_the_counter_table(monkeypatch, tmp_path, capsys):
    texts = {"base": _perfbench_text({"certify": {"orlicz.solves": 76, "montecarlo.chunks": 9}}),
             "change": _perfbench_text({"certify": {"orlicz.solves": 76}})}

    def fake_run_perfbench(tree, workload, seed, seconds, trace):
        assert (seed, trace) == (3, 1)
        return texts["change" if tree == bench_pairs.ROOT else "base"]

    status, text = _run_main(monkeypatch, tmp_path, ["--counters", "--seeds", "3"],
                             run_perfbench=fake_run_perfbench)
    record = json.loads(text)
    assert status == 0
    assert record["printed"] == capsys.readouterr().out
    assert record["seeds"] == [3]
    assert record["counters"] == {
        "certify exact.orlicz.solves": {"base": 76.0, "change": 76.0, "difference": 0.0},
        "certify exact.montecarlo.chunks": {"base": 9.0, "change": None, "difference": None},
    }
    assert record["runs"]["base"][0]["attempted"] == 518


_AB_SPEC = importlib.util.spec_from_file_location(
    "ab_calls", Path(__file__).resolve().parent.parent / "scripts" / "ab_calls.py"
)
ab_calls = importlib.util.module_from_spec(_AB_SPEC)
_AB_SPEC.loader.exec_module(ab_calls)


def _working_tree_package(revision, tree):
    return ab_calls.ROOT / "src" / ab_calls.PACKAGE


def test_ab_calls_on_the_working_tree_against_itself(monkeypatch, tmp_path, capsys):
    """Both sides are the working tree: every call runs, every pair of
    results agrees, and the rows reach the --out file."""
    monkeypatch.setattr(ab_calls.bench_pairs, "extract", lambda revision, tree: ab_calls.ROOT)
    out = tmp_path / "calls.json"
    assert ab_calls.main(["--base", "HEAD", "--reps", "2", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    rows = record["rows"]
    # N, M, survival x 3 sizes; 2 norms; 8 reports and partitions; 1 norm;
    # the table's load and sample
    assert len(rows) == 3 * 3 * 3 + 3 * 2 + 8 + 1 + 2
    assert all(row["reps"] == 2 and 0 <= row["wins"] <= 2 and row["base_ms"] > 0 for row in rows)
    printed = capsys.readouterr().out
    assert all(row["call"] in printed for row in rows)
    assert record["base"]["revision"] == "HEAD"


def test_ab_calls_lists_every_differing_row(capsys):
    """A differing row stops nothing: every row is timed and printed, and
    the message lists each row that differed, in call order, with its first
    differing leaf and both its reprs. A kernel row one ulp off differs
    like any other."""
    lib = ab_calls.load_package(_working_tree_package(None, None), ab_calls.PACKAGE)
    shifted = types.SimpleNamespace(**vars(lib))
    shifted.orlicz_norm = lambda x, fun: lib.orlicz_norm(x, fun) * (1.0 + 2.0**-52)

    def moment(model):  # the table's M values one ulp up
        fun = lib.expected_overshoot_function(model)
        if not isinstance(model, lib.TabulatedSurvival):
            return fun
        return dataclasses.replace(fun, evaluate=lambda t: fun.evaluate(t) * (1.0 + 2.0**-52))

    shifted.expected_overshoot_function = moment
    with pytest.raises(AssertionError) as err:
        ab_calls.compare(lib, shifted, reps=1)
    lines = str(err.value).splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"norm/M/{fam}/n={n}" for fam in ("gaussian", "symexp")
        for n in ab_calls.NORM_SIZES] + [
        f"M/table/n={n}" for n in ab_calls.EVAL_SIZES] + [
        f"norm/M/table/n={n}" for n in ab_calls.NORM_SIZES] + [
        "norm/reciprocal_survival/gaussian/n=1e4"]
    x = ab_calls._inputs()["x", 100]
    norm = lib.orlicz_norm(x, lib.expected_overshoot_function(lib.Gaussian()))
    assert lines[0] == (f"norm/M/gaussian/n=100: results differ at result: "
                        f"base {norm!r}, change {norm * (1.0 + 2.0**-52)!r} (repetition 1)")
    printed = capsys.readouterr().out
    assert all(name in printed for name, _ in ab_calls.call_list(lib, ab_calls._inputs()))


def test_ab_calls_names_the_first_differing_leaf_of_a_report():
    lib = ab_calls.load_package(_working_tree_package(None, None), ab_calls.PACKAGE)
    report = lib.max_bounds([0.5, 1.0, 5.0], lib.Gaussian())
    mean = report.constants["mean_abs"]
    moved = dataclasses.replace(report, constants={**report.constants,
                                                   "mean_abs": math.nextafter(mean, 0.0)},
                                terms=tuple(2.0 * t for t in report.terms))
    base, change = ab_calls.plain(report), ab_calls.plain(moved)
    assert ab_calls.first_difference(base, base) is None
    assert ab_calls.first_difference(base, change) == (
        "result['BoundReport']['constants']['mean_abs']", repr(mean),
        repr(math.nextafter(mean, 0.0)))
    assert ab_calls.first_difference([1.0, [2.0, 3.0]], [1.0, [2.0]]) == (
        "result[1]", "[2.0, 3.0]", "[2.0]")


def test_ab_calls_ratio_does_not_favour_the_side_that_runs_second():
    """Equal code, where the side that runs second reads half the first and
    the host runs 3x slower in the repetitions where the change runs first:
    the per-side medians read 1.75 / 1.25, the ratio paired by order 1."""
    speed = [1.0, 3.0] * 8  # the base runs first in the even repetitions
    base_t = [s if rep % 2 == 0 else 0.5 * s for rep, s in enumerate(speed)]
    change_t = [0.5 * s if rep % 2 == 0 else s for rep, s in enumerate(speed)]
    assert statistics.median(change_t) / statistics.median(base_t) == 1.4
    assert ab_calls.paired_ratio(base_t, change_t) == pytest.approx(1.0, rel=1e-15)
    assert ab_calls.paired_ratio([1.0, 2.0], [2.0, 4.0]) == 2.0
    assert ab_calls.paired_ratio([1.0], [0.5]) == 0.5


@pytest.mark.parametrize("reps", ["15", "1", "0"])
def test_ab_calls_refuses_odd_reps(reps):
    with pytest.raises(SystemExit) as err:
        ab_calls.main(["--reps", reps])
    assert err.value.code == 2

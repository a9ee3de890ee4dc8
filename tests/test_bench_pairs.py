"""scripts/bench_pairs.py's verdict per metric, on synthetic runs."""

import importlib.util
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

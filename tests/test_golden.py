"""Golden outputs: exact CLI stdout bytes, bit-exact Monte Carlo figures and
bit-exact partition constructions.

The expected data under ``tests/golden/`` was recorded once from a known-good
build. Deterministic reports must stay byte-identical, and Monte Carlo
results must stay bit-identical for a given (seed, replications) at every
thread count, so any refactor of the report, check or sampling code has to
pass this module unchanged. The weights files are inputs, not outputs; so are
the shape, n, k, weight range and seed of each record in ``partition.json``,
whose blocks, case and certificate sides (as float.hex) are the outputs.
``erfc-table.csv`` (the standard Gaussian survival on 401 knots of [0, 10])
is an input too: the table records pin the CLI bytes, the norm bits of
table-backed handles, whose thresholds 1/t or t run past the last knot, and
the bits of the table's quantile and of Monte Carlo draws from it.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from orlicz_bounds import (
    Gaussian,
    SymExponential,
    TabulatedSurvival,
    build_partition,
    check_kth_min_tail,
    check_min_survival_product,
    estimate_order_stats,
    expected_overshoot_function,
    kth_min_tail_threshold,
    neg_log_survival_function,
    orlicz_norm,
    reciprocal_survival_function,
)
from orlicz_bounds.cli import _PARTITION_SHAPES, main
from orlicz_bounds.montecarlo import _tail_threshold_function

GOLDEN = Path(__file__).parent / "golden"
ASCENDING = str(GOLDEN / "ascending.csv")
DESCENDING = str(GOLDEN / "descending.csv")
TABLE = "erfc-table.csv"  # relative to GOLDEN, where the CLI cases run
PARTITION_CASES = json.loads((GOLDEN / "partition.json").read_text(encoding="utf-8"))

CLI_CASES = {
    "bounds-kmin": ["bounds-kmin", "--dist", "gaussian", "--weights", ASCENDING, "--k", "5"],
    "bounds-kmin-closed-form": ["bounds-kmin", "--dist", "gaussian", "--weights", ASCENDING,
                                "--k", "5", "--closed-form"],
    "bounds-kmax": ["bounds-kmax", "--dist", "gaussian", "--weights", DESCENDING, "--k", "2"],
    "bounds-max1": ["bounds-max1", "--dist", "symexp:2.0", "--weights", ASCENDING],
    "bounds-kmin-table": ["bounds-kmin", "--dist", f"table:{TABLE}", "--weights", ASCENDING,
                          "--k", "5"],
    "bounds-kmax-table": ["bounds-kmax", "--dist", f"table:{TABLE}", "--weights", DESCENDING,
                          "--k", "2"],
    "bounds-max1-table": ["bounds-max1", "--dist", f"table:{TABLE}", "--weights", ASCENDING],
    **{
        f"partition-{shape}": ["partition", "--weights", ASCENDING, "--k", "4",
                               "--shape", shape]
        for shape in ("linear", "quadratic", "gaussian-n")
    },
    **{
        f"simulate-kmin-threads{t}": ["simulate", "--dist", "gaussian", "--weights", ASCENDING,
                                      "--k", "5", "--reps", "20000", "--seed", "7",
                                      "--threads", str(t)]
        for t in (1, 2)
    },
    **{
        f"simulate-kmax-threads{t}": ["simulate", "--dist", "symexp:1", "--weights", ASCENDING,
                                      "--k", "2", "--stat", "kmax", "--power", "2.0",
                                      "--reps", "20000", "--seed", "1", "--threads", str(t)]
        for t in (1, 2)
    },
    "verify-gaussian": ["verify", "--suite", "all", "--dist", "gaussian"],
    "verify-symexp": ["verify", "--suite", "all", "--dist", "symexp:1"],
}


def run_cli(case: str, fmt: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(CLI_CASES[case] + ["--format", fmt])
    return code, buf.getvalue()


def montecarlo_figures() -> dict:
    """float.hex of every Monte Carlo figure, keyed by call and thread count,
    and of the k-min tail check, which samples nothing."""
    gauss, sym = Gaussian(), SymExponential(rate=1.0)
    x = np.sort(np.random.default_rng(0).uniform(0.5, 5.0, 15))
    out = {}
    for threads in (1, 2):
        runs = {
            "kmin": estimate_order_stats(x, gauss, [1, 4, 9], replications=20_000, seed=8,
                                         threads=threads),
            "kmax-power2": estimate_order_stats(x, sym, [1, 3], statistic="kmax",
                                                replications=20_000, seed=9, power=2.0,
                                                threads=threads),
        }
        for name, estimates in runs.items():
            for est in estimates:
                out[f"estimate/{name}/k={est.k}/threads={threads}"] = {
                    "mean": est.mean.hex(),
                    "ci_halfwidth": est.ci_halfwidth.hex(),
                }
        res = check_min_survival_product(x, sym, 0.4, replications=20_000, seed=6,
                                         threads=threads)
        out[f"check/min_survival_product/threads={threads}"] = {
            "lhs": res.lhs.hex(),
            "rhs": res.rhs.hex(),
            "ci": res.detail["ci"].hex(),
            "ok": res.ok,
        }
    res = check_kth_min_tail(x, gauss, 3, 0.1)
    out["check/kth_min_tail"] = {"lhs": res.lhs.hex(), "rhs": res.rhs.hex(), "ok": res.ok}
    return out


@pytest.mark.parametrize("fmt", ("json", "csv"))
@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_stdout_bytes(case, fmt, monkeypatch):
    monkeypatch.chdir(GOLDEN)  # reports echo the --dist spec: table paths stay relative
    code, out = run_cli(case, fmt)
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{case}.{fmt}").read_bytes()


def test_montecarlo_bits():
    expected = json.loads((GOLDEN / "montecarlo.json").read_text(encoding="utf-8"))
    assert montecarlo_figures() == expected


def partition_figures(case: dict) -> dict:
    """build_partition on the record's seeded weights, in the record's format."""
    rng = np.random.default_rng(case["seed"])
    x = np.sort(rng.uniform(case["low"], case["high"], case["n"]))
    res = build_partition(x, _PARTITION_SHAPES[case["shape"]](), case["k"])
    return {
        "blocks": [list(b) for b in res.blocks],
        "case_taken": res.case_taken,
        "lhs": res.certificate.lhs.hex(),
        "rhs": res.certificate.rhs.hex(),
    }


@pytest.mark.parametrize(
    "case", PARTITION_CASES,
    ids=[f"{c['shape']}/n={c['n']}/k={c['k']}/seed={c['seed']}" for c in PARTITION_CASES],
)
def test_partition_bits(case):
    got = partition_figures(case)
    assert got == {key: case[key] for key in got}


def table_norm_figures() -> dict:
    """float.hex of the norms of table-backed handles, and of the tail
    threshold, on seeded vectors, for the table and the table cut at t = 8;
    an exception is recorded by its type name."""
    full = TabulatedSurvival.from_csv(GOLDEN / TABLE)
    cut = full.ts <= 8.0
    models = {
        "table": full,
        "table-tmax8": TabulatedSurvival(full.ts[cut], full.fs[cut]),
    }
    vectors = {
        "uniform-30": np.random.default_rng(0).uniform(0.5, 5.0, 30),
        "loguniform-200": np.exp(np.random.default_rng(1).uniform(-7.0, 7.0, 200)),
        "uniform-1000": np.random.default_rng(2).uniform(1e-2, 1e2, 1000),
    }

    def outcome(solve):
        try:
            return solve().hex()
        except Exception as exc:  # compared by type
            return type(exc).__name__

    out = {}
    for mname, model in models.items():
        mfun = expected_overshoot_function(model)
        for vname, x in vectors.items():
            x = np.sort(x)
            inv = 1.0 / x
            record = {"M": outcome(lambda: orlicz_norm(x, mfun))}
            for k in (2, 7):
                nfun = neg_log_survival_function(model).scaled(2.0 * np.e / k)
                record[f"k={k}"] = {
                    "N": outcome(lambda: orlicz_norm(inv, nfun)),
                    "reciprocal-survival": outcome(
                        lambda: orlicz_norm(x, reciprocal_survival_function(model, k))),
                    "(e/k)G": outcome(
                        lambda: orlicz_norm(inv, _tail_threshold_function(model, k))),
                    "threshold": outcome(lambda: kth_min_tail_threshold(x, model, k)),
                }
            out[f"{mname}/{vname}"] = record
    return out


def test_table_norm_bits():
    expected = json.loads((GOLDEN / "table-norms.json").read_text(encoding="utf-8"))
    assert table_norm_figures() == expected


def montecarlo_table_figures() -> dict:
    """float.hex of Monte Carlo figures drawn from the erfc table (k-min
    through the row sort, k-max through the partition; one full 8192-row
    chunk plus a remainder), and of the table's quantile on a fixed vector:
    1, F(t_max), the dense-grid probabilities exp(dense_l), seeded uniforms
    and repeats of some of them."""
    table = TabulatedSurvival.from_csv(GOLDEN / TABLE)
    x = np.sort(np.random.default_rng(0).uniform(0.5, 5.0, 15))
    out = {}
    for threads in (1, 2):
        runs = {
            "kmin": estimate_order_stats(x, table, [1, 4, 9], replications=8192 + 37, seed=12,
                                         threads=threads),
            "kmax": estimate_order_stats(x, table, [2], statistic="kmax",
                                         replications=8192 + 37, seed=13, threads=threads),
        }
        for name, estimates in runs.items():
            for est in estimates:
                out[f"estimate/{name}/k={est.k}/threads={threads}"] = {
                    "mean": est.mean.hex(),
                    "ci_halfwidth": est.ci_halfwidth.hex(),
                }
    uniforms = np.random.default_rng(14).uniform(table.fs[-1], 1.0, 300)
    p = np.concatenate([[1.0, table.fs[-1]], np.exp(table._dense_l), uniforms,
                        np.repeat(uniforms[:40], 3), [1.0, table.fs[-1]]])
    out["quantile"] = [float(t).hex() for t in table.quantile(p)]
    return out


def test_montecarlo_table_bits():
    expected = json.loads((GOLDEN / "montecarlo-table.json").read_text(encoding="utf-8"))
    assert montecarlo_table_figures() == expected

"""Seeded inputs and fixed request mixes for the three benchmark workloads.

A workload is a fixed list of requests, replayed pass after pass by one
caller (a closed loop). The seed changes only the numbers inside the
requests -- weight vectors and Monte Carlo streams -- never the mix itself,
so the work in one pass hardly depends on the seed.

The library receives only the generated arrays; every call goes through the
module attribute at call time, so the traced run can wrap it from outside.
"""

from __future__ import annotations

import contextlib
import io
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from orlicz_bounds import bounds, cli, montecarlo, partition
from orlicz_bounds.distributions import Gaussian, SymExponential, TabulatedSurvival
from orlicz_bounds.orlicz import (
    linear_function,
    neg_log_survival_function,
    power_function,
)

WORKLOADS = ("bound-batch", "monte-carlo", "certify")

# The Gaussian rendered as a table: 401 knots of erfc on [0, 10]. F(10) is
# about 1.5e-23, far below the 2**-53 resolution of the sampler's uniforms,
# so sampling never reaches the unresolved tail.
TABLE_KNOTS = np.linspace(0.0, 10.0, 401)
TABLE_SURVIVAL = special.erfc(TABLE_KNOTS / np.sqrt(2.0))

FAMILIES = ("gaussian", "symexp", "table")
SYMEXP_RATE = 1.0

# bound-batch. (n, k) slots; every family gets the same weights for a slot,
# so each table request has a Gaussian twin with identical inputs.
KMIN_SLOTS = ((100, 1), (100, 7), (100, 20), (1000, 4), (1000, 12), (10_000, 2))
KMAX_SLOTS = ((100, 2), (100, 5), (1000, 3))
MAX_SLOTS = (("gaussian", 100_000), ("symexp", 100_000), ("table", 10_000),
             ("gaussian", 10_000))
KMIN_GAUSSIAN_SLOTS = ((1000, 20), (10_000, 5), (100_000, 10))
LOGU_N = 1000  # the log-uniform[1e-3, 1e3] weight class

# monte-carlo: criterion-1 shape (n=100, five k, 1e5 replications).
MC_KS = (1, 2, 5, 10, 50)
MC_REPS = 100_000
MC_TABLE_REPS = 10_000  # the quantile-Newton sampler is ~8x slower per draw
MC_KMAX = (1000, 3, 10_000)  # n, k, replications

# certify. The verify suites draw their own case sizes from --seed, which
# changes their work by +-20 %, so they run on one fixed seed; the partition
# batch below carries the workload seed in its weights.
VERIFY_SEED = 0
VERIFY_DISTS = ("gaussian", "symexp:1")
# n in [2, 200], k in [1, n]; shapes linear, quadratic, gaussian-n by i % 3. Large k at large n costs seconds
# per case, so the grid keeps k small where n is large.
PARTITION_GRID = (
    (2, 1), (3, 2), (4, 4), (5, 2), (7, 3), (9, 9), (12, 3), (16, 4),
    (20, 20), (24, 2), (30, 6), (36, 36), (40, 1), (50, 3), (60, 10), (64, 2),
    (70, 7), (80, 4), (90, 1), (100, 2), (110, 5), (120, 1), (130, 3), (140, 2),
    (150, 1), (160, 4), (170, 2), (180, 1), (190, 3), (200, 1), (200, 2),
)

# Tail percentile per workload: the highest one with at least ten requests
# beyond it in a 30 s run on a 2-vCPU host. Fixed, so that two commits are
# compared at the same percentile. Every mix has an odd number of requests,
# so the median falls inside one request's samples, not on the edge
# between two requests of different cost.
TAIL_PERCENTILE = {"bound-batch": 95, "monte-carlo": 70, "certify": 90}


@dataclass
class Request:
    """One library call of a workload.

    ``kind`` selects the oracle; ``meta`` carries what the oracle needs;
    ``units`` is the work it counts toward throughput (bound reports, draws
    or partition cases).
    """

    label: str
    kind: str
    module: object
    func: str
    args: tuple
    kwargs: dict = field(default_factory=dict)
    units: float = 1.0
    meta: dict = field(default_factory=dict)

    def __call__(self):
        return getattr(self.module, self.func)(*self.args, **self.kwargs)


def run_verify(argv):
    """``cli.main(argv)`` with standard output captured: (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def build_models():
    return {
        "gaussian": Gaussian(),
        "symexp": SymExponential(rate=SYMEXP_RATE),
        "table": TabulatedSurvival(TABLE_KNOTS, TABLE_SURVIVAL),
    }


def _rng(seed: int, *tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *tag])


def _uniform(rng, n):
    return rng.uniform(0.5, 5.0, n)


def _bound_batch(seed, models):
    reqs = []
    for slot, (n, k) in enumerate(KMIN_SLOTS):
        x = np.sort(_uniform(_rng(seed, 1, slot), n))
        for fam in FAMILIES:
            reqs.append(Request(f"kmin/{fam}/n={n}/k={k}", "bound", bounds,
                                "kth_min_bounds", (x, models[fam], k),
                                meta={"family": fam, "twin": ("kmin", slot)}))
    for slot, (n, k) in enumerate(KMAX_SLOTS):
        x = np.sort(_uniform(_rng(seed, 2, slot), n))[::-1].copy()
        for fam in FAMILIES:
            reqs.append(Request(f"kmax/{fam}/n={n}/k={k}", "bound", bounds,
                                "kth_max_bounds", (x, models[fam], k),
                                meta={"family": fam, "twin": ("kmax", slot)}))
    for slot, (fam, n) in enumerate(MAX_SLOTS):
        # The table request and its Gaussian twin share n, hence the stream.
        x = _uniform(_rng(seed, 3, n), n)
        reqs.append(Request(f"max/{fam}/n={n}", "bound", bounds, "max_bounds",
                            (x, models[fam]), meta={"family": fam, "twin": ("max", n)}))
    for slot, (n, k) in enumerate(KMIN_GAUSSIAN_SLOTS):
        x = np.sort(_uniform(_rng(seed, 4, slot), n))
        reqs.append(Request(f"kmin_gaussian/n={n}/k={k}", "bound", bounds,
                            "kth_min_bounds_gaussian", (x, k),
                            meta={"family": "gaussian", "twin": None}))
    logu = np.sort(np.exp(_rng(seed, 5).uniform(np.log(1e-3), np.log(1e3), LOGU_N)))
    for fam in ("gaussian", "table"):
        reqs.append(Request(f"kmin/{fam}/logu/n={LOGU_N}/k=10", "bound", bounds,
                            "kth_min_bounds", (logu, models[fam], 10),
                            meta={"family": fam, "twin": ("kmin", "logu")}))
    reqs.append(Request(f"max/symexp/logu/n={LOGU_N}", "bound", bounds, "max_bounds",
                        (logu, models["symexp"]), meta={"family": "symexp", "twin": None}))
    return reqs


def _mc(label, x, model, fam, ks, statistic, reps, seed, threads=1):
    return Request(
        f"{label}/threads={threads}", "mc", montecarlo, "estimate_order_stats",
        (x, model, ks),
        {"statistic": statistic, "replications": reps, "seed": seed, "threads": threads},
        units=float(reps * len(x)),
        # Requests sharing a twin key must return bit-identical estimates.
        meta={"family": fam, "statistic": statistic, "twin": label},
    )


def _monte_carlo(seed, models):
    x = np.sort(_uniform(_rng(seed, 6), 100))
    n, k, reps = MC_KMAX
    xk = _uniform(_rng(seed, 7), n)
    return [
        _mc("gaussian/n=100", x, models["gaussian"], "gaussian", MC_KS, "kmin",
            MC_REPS, seed),
        _mc("gaussian/n=100", x, models["gaussian"], "gaussian", MC_KS, "kmin",
            MC_REPS, seed, threads=2),
        _mc("symexp/n=100", x, models["symexp"], "symexp", MC_KS, "kmin", MC_REPS, seed),
        _mc("table/n=100", x, models["table"], "table", MC_KS, "kmin", MC_TABLE_REPS,
            seed),
        _mc(f"gaussian/kmax/n={n}/k={k}", xk, models["gaussian"], "gaussian", (k,),
            "kmax", reps, seed),
    ]


def _certify(seed, models):
    reqs = [
        Request(f"verify/{dist}", "verify", sys.modules[__name__], "run_verify",
                (["verify", "--suite", "all", "--dist", dist, "--seed", str(VERIFY_SEED),
                  "--threads", "1"],),
                units=0.0)
        for dist in VERIFY_DISTS
    ]
    shapes = (("linear", linear_function()), ("quadratic", power_function(2.0)),
              ("gaussian-n", neg_log_survival_function(Gaussian())))
    for i, (n, k) in enumerate(PARTITION_GRID):
        x = np.sort(_rng(seed, 8, i).uniform(0.2, 8.0, n))
        name, fun = shapes[i % 3]
        reqs.append(Request(f"partition/{name}/n={n}/k={k}", "partition", partition,
                            "build_partition", (x, fun, k)))
    return reqs


_BUILDERS = {"bound-batch": _bound_batch, "monte-carlo": _monte_carlo, "certify": _certify}


def build(workload: str, seed: int):
    """The request list of one pass of ``workload`` for ``seed``."""
    return _BUILDERS[workload](seed, build_models())

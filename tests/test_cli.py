"""CLI behavior: formats, determinism, exit codes, input validation."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicz_bounds
from orlicz_bounds import PreconditionError
from orlicz_bounds.cli import SUITES, build_parser, load_weights, main, run


@pytest.fixture
def ascending_weights(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("".join(f"{v}\n" for v in np.linspace(0.5, 5.0, 30)))
    return str(path)


@pytest.fixture
def descending_weights(tmp_path):
    path = tmp_path / "wd.csv"
    path.write_text("".join(f"{v}\n" for v in np.linspace(5.0, 0.5, 100)))
    return str(path)


def run_capture(argv):
    buf = io.StringIO()
    code = run(build_parser().parse_args(argv), out=buf)
    return code, buf.getvalue()


class TestBoundsCommands:
    def test_kmin_json_roundtrip(self, ascending_weights):
        code, out = run_capture(
            ["bounds-kmin", "--dist", "gaussian", "--weights", ascending_weights, "--k", "5"]
        )
        assert code == 0
        parsed = json.loads(out)
        assert parsed["lower"] < parsed["upper"]
        assert parsed["argmax_j"] in range(1, 6)
        assert parsed["constants"]["c1"]
        # byte-identical re-serialization
        again = json.dumps(parsed, indent=2, sort_keys=True) + "\n"
        assert again == out

    def test_kmin_closed_form(self, ascending_weights):
        code, out = run_capture(
            ["bounds-kmin", "--dist", "gaussian", "--weights", ascending_weights,
             "--k", "3", "--closed-form"]
        )
        assert code == 0
        assert json.loads(out)["kind"] == "kmin_gaussian"

    def test_closed_form_needs_gaussian(self, ascending_weights):
        assert main(
            ["bounds-kmin", "--dist", "symexp:1", "--weights", ascending_weights,
             "--k", "3", "--closed-form"]
        ) == 2

    def test_kmax_report(self, descending_weights):
        code, out = run_capture(
            ["bounds-kmax", "--dist", "gaussian", "--weights", descending_weights, "--k", "2"]
        )
        assert code == 0
        parsed = json.loads(out)
        assert parsed["k0"] == 12
        assert parsed["empirical_constants"] == ["kmax_upper_c"]

    def test_kmax_override_flagged(self, descending_weights):
        code, out = run_capture(
            ["bounds-kmax", "--dist", "gaussian", "--weights", descending_weights,
             "--k", "2", "--kmax-upper-c", "64"]
        )
        assert code == 0
        parsed = json.loads(out)
        assert parsed["constants"]["kmax_upper_c"] == 64.0
        assert parsed["constant_overrides"] == ["kmax_upper_c"]

    def test_kmax_infeasible_exit2(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("5\n4\n3\n")
        code = main(["bounds-kmax", "--dist", "gaussian", "--weights", str(path), "--k", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "need n >= 14" in err

    def test_kmax_survival_underflow_exit2(self, tmp_path, capsys):
        # F(1) = exp(-1e300) is 0 in floating point, so k0 = 4(k-1)/F(1) is undefined.
        path = tmp_path / "w.csv"
        path.write_text("3\n2\n1\n")
        code = main(["bounds-kmax", "--dist", "symexp:1e300", "--weights", str(path), "--k", "2"])
        assert code == 2
        assert "F(1) underflows to 0 for symexp(rate=1e+300)" in capsys.readouterr().err

    @pytest.mark.parametrize("dist", ["symexp:1e300", "symexp:1e-300"])
    def test_kmin_extreme_rates_exit0(self, dist, ascending_weights):
        # The suffix norms are about 1e301 and 1e-299: finite, so no
        # "unbounded" failure and no division by a norm reported as 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_capture(
                ["bounds-kmin", "--dist", dist, "--weights", ascending_weights, "--k", "1"]
            )
        assert code == 0
        assert 0.0 < json.loads(out)["lower"] < float("inf")

    def test_kmin_norm_below_float_range_exit2(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        path.write_text("1e300\n1e300\n1e300\n1e300\n")
        code = main(["bounds-kmin", "--dist", "symexp:1e-300", "--weights", str(path),
                     "--k", "1"])
        assert code == 2
        assert "N[symexp(rate=1e-300)] is 5e-324" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [1, 3])
    def test_kmin_norm_above_float_range_gives_its_term(self, k, tmp_path):
        # The suffix norms under (2e/(k-j+1)) * 1e10 t are about 1e311, but
        # their reciprocals (about 1e-311, subnormal) are floats: the norm is
        # solved on the weights' reciprocals divided by their largest entry.
        path = tmp_path / "w.csv"
        path.write_text("".join(f"{float(v)!r}\n" for v in np.linspace(1e-300, 6e-300, 12)))
        code, out = run_capture(
            ["bounds-kmin", "--dist", "symexp:1e10", "--weights", str(path), "--k", str(k)])
        assert code == 0

        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        report = json.loads(out, parse_constant=refuse)
        assert 0.0 < report["lower"]
        assert report["upper"] is None or report["lower"] <= report["upper"]
        assert len(report["terms"]) == k and all(0.0 < t < 1e-300 for t in report["terms"])
        assert any("exceeds the float range" in note for note in report["notes"])

    def test_max1(self, ascending_weights):
        code, out = run_capture(
            ["bounds-max1", "--dist", "symexp:2.0", "--weights", ascending_weights]
        )
        assert code == 0
        parsed = json.loads(out)
        assert parsed["lower"] < parsed["upper"]
        assert set(parsed["empirical_constants"]) == {"max1_c_low", "max1_c_high"}

    def test_max1_subnormal_weights_terminate(self, tmp_path):
        # A separate process, so a solver that never stops fails on the timeout.
        path = tmp_path / "w.csv"
        path.write_text("1e-315\n2e-315\n")
        src = str(Path(orlicz_bounds.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "orlicz_bounds.cli", "bounds-max1", "--weights", str(path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        parsed = json.loads(done.stdout)
        assert 0 < parsed["lower"] < parsed["upper"]

    def test_max1_upper_below_float_range_is_null(self, tmp_path):
        # E max is about 1.8e-330: the upper bound underflows to 0.0, which
        # would be false, so it is omitted; the lower bound 0.0 stays.
        path = tmp_path / "w.csv"
        path.write_text("1e-300\n1e-300\n1e-300\n")
        code, out = run_capture(["bounds-max1", "--dist", "symexp:1e30", "--weights", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["upper"] is None
        assert report["lower"] == 0.0
        assert report["notes"] == ["upper bound omitted: below the float range"]

    def test_too_short_table_exit2(self, ascending_weights, tmp_path, capsys):
        """A table whose tail past its last knot is not negligible is bad
        input: 50 knots of e^-t on [0, 2] leave mass up to 0.135 unresolved."""
        ts = np.linspace(0.0, 2.0, 50)
        path = tmp_path / "short.csv"
        path.write_text("".join(f"{t:.17g},{f:.17g}\n" for t, f in zip(ts, np.exp(-ts))))
        assert main(["bounds-max1", "--dist", f"table:{path}",
                     "--weights", ascending_weights]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: table too short: unresolved tail mass bound 1.353e-01")

    @pytest.mark.parametrize("argv", [["bounds-kmin", "--k", "1"], ["partition", "--k", "2"]])
    def test_weights_with_overflowing_reciprocal_exit_2(self, argv, tmp_path, capsys):
        path = tmp_path / "w.csv"
        path.write_text("1e-315\n2e-315\n3e-315\n4e-315\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning fails the test
            code = main(argv + ["--weights", str(path)])
        assert code == 2
        assert "reciprocal of entry 1 (1e-315) overflows" in capsys.readouterr().err

    def test_csv_format(self, ascending_weights):
        code, out = run_capture(
            ["bounds-kmin", "--dist", "gaussian", "--weights", ascending_weights,
             "--k", "2", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert any(line.startswith("lower,") for line in lines)
        assert any(line.startswith("upper,") for line in lines)


def _refuse_constant(token):
    raise ValueError(f"not strict JSON: {token}")


@pytest.mark.parametrize("rate", ["1e-309", "1e-308", "1e-300", "1e-70", "1e70", "1e300"])
@pytest.mark.parametrize("argv", [
    ["bounds-kmin", "--k", "1"],
    ["bounds-kmin", "--k", "3"],
    ["bounds-kmax", "--k", "2"],
    ["bounds-max1"],
], ids=["kmin-k1", "kmin-k3", "kmax-k2", "max1"])
def test_bounds_at_extreme_rates_print_strict_json(rate, argv, ascending_weights,
                                                   descending_weights, capsys):
    """Exit 0, 1 or 2 with no traceback and no warning; on exit 0 the JSON
    has no Infinity or NaN token: an upper bound beyond the float range is
    reported as null with a note."""
    weights = descending_weights if argv[0] == "bounds-kmax" else ascending_weights
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["--dist", f"symexp:{rate}", "--weights", weights])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert not caught, [str(w.message) for w in caught]
    if code == 0:
        report = json.loads(out, parse_constant=_refuse_constant)
        assert 0.0 < report["lower"]
        assert report["upper"] is None or report["lower"] <= report["upper"]
        if report["upper"] is None:
            assert "upper bound omitted: it exceeds the float range" in report["notes"]


def test_python_dash_m_runs_the_cli(ascending_weights):
    src = str(Path(orlicz_bounds.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "orlicz_bounds", "bounds-kmin", "--weights", ascending_weights,
         "--k", "2"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["command"] == "bounds-kmin"
    bad = subprocess.run(
        [sys.executable, "-m", "orlicz_bounds", "bounds-kmin", "--weights", ascending_weights,
         "--k", "99"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert bad.returncode == 2 and bad.stderr.startswith("error:")


class TestWeightsValidation:
    def test_order_error_names_entry(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        path.write_text("1.0\n3.0\n2.0\n")
        code = main(["bounds-kmin", "--dist", "gaussian", "--weights", str(path), "--k", "1"])
        assert code == 2
        assert "entry 3" in capsys.readouterr().err

    def test_nonpositive_entry(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        path.write_text("1.0\n-3.0\n")
        code = main(["bounds-kmin", "--dist", "gaussian", "--weights", str(path), "--k", "1"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_not_a_number(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        path.write_text("1.0\nfoo\n")
        code = main(["simulate", "--dist", "gaussian", "--weights", str(path), "--k", "1"])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        code = main(
            ["bounds-kmin", "--dist", "gaussian", "--weights", str(tmp_path / "nope.csv"),
             "--k", "1"]
        )
        assert code == 2

    def test_loader(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("1.5\n\n2.5\n")
        assert list(load_weights(str(path))) == [1.5, 2.5]

    @pytest.mark.parametrize("bad_table", (False, True))
    def test_non_utf8_input_exit_2(self, bad_table, tmp_path, capsys):
        weights = tmp_path / "w.csv"
        weights.write_bytes(b"1.5\n2.5\n" if bad_table else "1.5\n".encode("utf-16"))
        table = tmp_path / "t.csv"
        table.write_bytes(b"0,1\n1,0.5\xff\n")
        dist = f"table:{table}" if bad_table else "gaussian"
        code = main(["bounds-max1", "--dist", dist, "--weights", str(weights)])
        assert code == 2
        assert "not UTF-8" in capsys.readouterr().err

    @settings(max_examples=200, deadline=None)
    @given(data=st.one_of(
        st.binary(max_size=200),
        st.lists(st.one_of(st.floats(), st.text(max_size=6)), max_size=8).map(
            lambda lines: "\n".join(map(str, lines)).encode("utf-8", "surrogatepass")),
    ))
    def test_loader_any_bytes(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "w.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                values = load_weights(path)
            except PreconditionError:
                return
        assert values.size and np.all(np.isfinite(values) & (values > 0))


class TestSimulate:
    def test_byte_identical_runs(self, ascending_weights):
        argv = ["simulate", "--dist", "gaussian", "--weights", ascending_weights,
                "--k", "5", "--reps", "5000", "--seed", "7"]
        code1, out1 = run_capture(argv)
        code2, out2 = run_capture(argv)
        assert code1 == code2 == 0
        assert out1 == out2
        parsed = json.loads(out1)
        assert parsed["seed"] == 7
        assert parsed["replications"] == 5000

    def test_kmax_statistic(self, ascending_weights):
        code, out = run_capture(
            ["simulate", "--dist", "symexp:1", "--weights", ascending_weights,
             "--k", "2", "--stat", "kmax", "--reps", "2000", "--seed", "1"]
        )
        assert code == 0
        assert json.loads(out)["statistic"] == "kmax"

    def test_power_moment(self, ascending_weights):
        code, out = run_capture(
            ["simulate", "--dist", "gaussian", "--weights", ascending_weights,
             "--k", "1", "--power", "2.0", "--reps", "2000", "--seed", "1"]
        )
        assert code == 0
        assert json.loads(out)["power"] == 2.0

    def test_invalid_dist_exit2(self, ascending_weights):
        assert main(
            ["simulate", "--dist", "cauchy", "--weights", ascending_weights, "--k", "1"]
        ) == 2

    def test_missing_table_exit2(self, ascending_weights, tmp_path):
        assert main(
            ["simulate", "--dist", f"table:{tmp_path}/nope.csv",
             "--weights", ascending_weights, "--k", "1"]
        ) == 2


class TestPartitionCommand:
    def test_partition_json(self, ascending_weights):
        code, out = run_capture(
            ["partition", "--weights", ascending_weights, "--k", "4", "--shape", "linear"]
        )
        assert code == 0
        parsed = json.loads(out)
        assert len(parsed["blocks"]) == 4
        assert parsed["certificate_lhs"] <= parsed["certificate_rhs"] * (1 + 1e-8)
        assert parsed["case_taken"] in ("case1", "case2", "case3")

    def test_k_too_large_exit2(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("1.0\n2.0\n")
        assert main(["partition", "--weights", str(path), "--k", "5"]) == 2

    def test_certificate_rhs_beyond_the_float_range_is_null(self, tmp_path):
        # The one block's norm is 6.4e307, so 4 * max(H(1), 1/H(1)) times it
        # overflows.
        w = np.sort(10.0 ** np.random.default_rng(1).uniform(-308.0, -290.0, 60))
        path = tmp_path / "w.csv"
        path.write_text("".join(f"{float(v)!r}\n" for v in w))
        code, out = run_capture(["partition", "--weights", str(path), "--k", "1"])
        assert code == 0
        report = json.loads(out, parse_constant=_refuse_constant)
        assert report["certificate_rhs"] is None
        assert 0.0 < report["certificate_lhs"] < math.inf


class TestVerify:
    def test_fast_suites_table(self):
        code, out = run_capture(
            ["verify", "--suite", "sym-tail,subset-chain,tail-bound,gaussian-equiv,duality",
             "--dist", "gaussian", "--seed", "0", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "suite,check,lhs,rhs,ok"
        assert all(line.endswith("True") for line in lines[1:])
        suites = {line.split(",")[0] for line in lines[1:]}
        assert suites == {"sym-tail", "subset-chain", "tail-bound", "gaussian-equiv", "duality"}

    @pytest.mark.parametrize("dist", ["symexp:1e10", "symexp:1e30", "symexp:1e200"])
    def test_duality_at_small_scales(self, dist):
        code, out = run_capture(["verify", "--suite", "duality", "--dist", dist])
        assert code == 0
        assert json.loads(out)["all_ok"]

    def test_json_format_all_ok_flag(self):
        code, out = run_capture(
            ["verify", "--suite", "kmax-split", "--seed", "3"]
        )
        assert code == 0
        parsed = json.loads(out)
        assert parsed["all_ok"] is True

    def test_unknown_suite_exit2(self):
        assert main(["verify", "--suite", "bogus"]) == 2

    def test_mc_suites_small(self):
        code, out = run_capture(
            ["verify", "--suite", "kmin-tail,min-product,partition", "--dist", "symexp:1",
             "--reps", "4000", "--seed", "2"]
        )
        assert code == 0

    @pytest.mark.parametrize("dist", ["gaussian", "symexp:1"])
    def test_kmin_tail_rows_are_positive(self, dist):
        # the kmin-tail rows of the default verify --suite all; a sampled
        # left side read 0 on half of them, which passed without a test
        code, out = run_capture(["verify", "--suite", "kmin-tail", "--dist", dist])
        rows = json.loads(out)["checks"]
        assert code == 0 and len(rows) == 6
        assert all(0.0 < r["lhs"] <= r["rhs"] for r in rows), rows

    def test_registry_order_fixed(self):
        code1, out1 = run_capture(
            ["verify", "--suite", "tail-bound,sym-tail", "--seed", "0", "--format", "csv"]
        )
        code2, out2 = run_capture(
            ["verify", "--suite", "sym-tail,tail-bound", "--seed", "0", "--format", "csv"]
        )
        assert out1 == out2  # registry order, not flag order


class TestParsing:
    def test_threads_env_default(self, monkeypatch, ascending_weights):
        monkeypatch.setenv("ORLICZ_BOUNDS_THREADS", "3")
        parser = build_parser()
        args = parser.parse_args(
            ["simulate", "--dist", "gaussian", "--weights", ascending_weights, "--k", "1"]
        )
        assert args.threads == 3

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "kmin-tail", "--seed", "-1"],
        ["simulate", "--weights", "unused.csv", "--k", "1", "--seed", "-1"],
        ["verify", "--suite", "kmin-tail", "--threads", "0"],
        ["simulate", "--weights", "unused.csv", "--k", "1", "--threads", "-3"],
    ])
    def test_bad_seed_or_threads_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be >=" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0", "-5"])
    def test_bad_threads_env_exit_2(self, value, monkeypatch, capsys):
        monkeypatch.setenv("ORLICZ_BOUNDS_THREADS", value)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--weights", "unused.csv", "--k", "1"])
        assert exc.value.code == 2
        assert "ORLICZ_BOUNDS_THREADS" in capsys.readouterr().err
        # Commands without --threads never read the variable.
        args = build_parser().parse_args(["bounds-kmin", "--weights", "unused.csv", "--k", "1"])
        assert not hasattr(args, "threads")

    @pytest.mark.parametrize("argv, message", [
        (["bounds-max1", "--weights", "w.csv", "--max1-c-low", "-1"], "argument --max1-c-low"),
        (["bounds-max1", "--weights", "w.csv", "--max1-c-high", "nan"], "argument --max1-c-high"),
        (["bounds-max1", "--weights", "w.csv", "--max1-c-high", "big"], "argument --max1-c-high"),
        (["bounds-kmax", "--weights", "w.csv", "--k", "2", "--kmax-upper-c", "inf"],
         "argument --kmax-upper-c"),
        (["bounds-kmax", "--weights", "w.csv", "--k", "2", "--kmax-upper-c", "0"],
         "argument --kmax-upper-c"),
        (["bounds-kmin", "--weights", "w.csv", "--k", "1", "--threads", "2"],
         "unrecognized arguments: --threads 2"),
        (["verify", "--suite", "sym-tail", "--reps", "50"], "argument --reps"),
        (["verify", "--suite", "kmin-tail", "--reps", "50"], "argument --reps"),
        (["simulate", "--weights", "w.csv", "--k", "1", "--reps", "50"], "argument --reps"),
        (["simulate", "--weights", "w.csv", "--k", "1", "--reps", "1e5"], "argument --reps"),
    ])
    def test_rejected_while_parsing_exit_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--suite", ""], "--suite names no suite"),
        (["verify", "--suite", ","], "--suite names no suite"),
        (["verify", "--suite", "tail-bound", "--dist", ""], "unknown distribution spec"),
        (["simulate", "--weights", None, "--k", "1", "--power", "inf"], "power must be"),
    ])
    def test_rejected_before_running_exit_2(self, argv, message, ascending_weights, capsys):
        argv = [ascending_weights if a is None else a for a in argv]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_invalid_enum_exits_2(self, ascending_weights):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["simulate", "--dist", "gaussian", "--weights", ascending_weights,
                 "--k", "1", "--stat", "median"]
            )
        assert exc.value.code == 2


def test_cli_import_leaves_scipy_special_unloaded():
    src = str(Path(orlicz_bounds.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, orlicz_bounds.cli; print('scipy.special' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_table_bounds_leave_scipy_integrate_unloaded(ascending_weights):
    """A table integrates F by its own load-time fit, not by scipy.integrate,
    and interpolates ln F by its own PCHIP, not by scipy.interpolate."""
    src = str(Path(orlicz_bounds.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from orlicz_bounds.cli import main; "
         f"main(['bounds-max1', '--dist', 'table:{_GOLDEN_TABLE}', "
         f"'--weights', {ascending_weights!r}]); "
         "print('scipy.integrate' in sys.modules, 'scipy.interpolate' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "False False"


_GOLDEN_TABLE = str(Path(__file__).parent / "golden" / "erfc-table.csv")
_WEIGHTED = ("bounds-kmin", "bounds-kmax", "bounds-max1", "partition", "simulate")


@st.composite
def cli_argv(draw, weights_path):
    """Any command line the contract covers: every command; k from 0 to
    n + 1; n <= 12 weights log-uniform in one decade within 1e-300..1e300,
    in the command's order, unsorted, or repeated; gaussian, the erfc table
    or symexp at 10^e for e in -309..300; simulate with 100 replications
    and a power; verify on one suite with 100 replications. Returns the
    argument list and the weights to write to ``weights_path`` (None for
    verify)."""
    command = draw(st.sampled_from(_WEIGHTED + ("verify",)))
    if command == "verify":
        return ["verify", "--suite", draw(st.sampled_from(SUITES)),
                "--dist", draw(st.sampled_from(["gaussian", "symexp:1"])), "--reps", "100"], None
    n = draw(st.integers(1, 12))
    e = draw(st.integers(-300, 299))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = 10.0 ** rng.uniform(e, e + 1, n)
    layout = draw(st.sampled_from(["sorted", "unsorted", "repeated"]))
    if layout == "repeated":
        w = np.repeat(w[: -(-n // 3)], 3)[:n]
    if layout != "unsorted":
        w = np.sort(w)[::-1] if command == "bounds-kmax" else np.sort(w)
    argv = [command, "--weights", weights_path]
    if command != "bounds-max1":
        argv += ["--k", str(draw(st.integers(0, n + 1)))]
    if command == "partition":
        return argv + ["--shape", draw(st.sampled_from(["linear", "quadratic", "gaussian-n"]))], w
    dist = draw(st.one_of(st.sampled_from(["gaussian", f"table:{_GOLDEN_TABLE}"]),
                          st.integers(-309, 300).map(lambda p: f"symexp:1e{p}")))
    argv += ["--dist", dist]
    if command == "simulate":
        argv += ["--reps", "100", "--stat", draw(st.sampled_from(["kmin", "kmax"])),
                 "--power", draw(st.sampled_from(["0.5", "1", "2"]))]
    return argv, w


@settings(max_examples=300)
@given(data=st.data())
def test_cli_contract(data):
    """In process, over every command: exit 0, 1 or 2 with no exception and
    no warning; every exit-0 report is strict JSON; a lower bound is at most
    its upper bound, and an upper bound is null or positive."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "w.csv")
        argv, w = data.draw(cli_argv(path), label="argv, weights")
        if w is not None:
            Path(path).write_text("".join(f"{float(v)!r}\n" for v in w))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    if code != 0:
        return
    report = json.loads(out.getvalue(), parse_constant=_refuse_constant)
    if argv[0] == "verify":
        return
    if "upper" in report:
        upper = report["upper"]
        assert upper is None or 0.0 < upper, report
        assert upper is None or report["lower"] <= upper, report

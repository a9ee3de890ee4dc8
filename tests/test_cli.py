"""CLI behavior: formats, determinism, exit codes, input validation."""

import io
import json

import numpy as np
import pytest

from orlicz_bounds.cli import build_parser, load_weights, main, run


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

    def test_max1(self, ascending_weights):
        code, out = run_capture(
            ["bounds-max1", "--dist", "symexp:2.0", "--weights", ascending_weights]
        )
        assert code == 0
        parsed = json.loads(out)
        assert parsed["lower"] < parsed["upper"]
        assert set(parsed["empirical_constants"]) == {"max1_c_low", "max1_c_high"}

    def test_csv_format(self, ascending_weights):
        code, out = run_capture(
            ["bounds-kmin", "--dist", "gaussian", "--weights", ascending_weights,
             "--k", "2", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert any(line.startswith("lower,") for line in lines)
        assert any(line.startswith("upper,") for line in lines)


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

"""The experiment scripts run to their closing line at a tiny size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import orlicz_bounds

_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, closing", [
    ("kmin_sandwich_table.py", ["--n", "20", "--reps", "200", "--vectors", "1"],
     "all rows sandwiched (4-sigma margins)"),
    ("kmax_constant_scan.py", ["--reps", "200", "--trials", "1"],
     "smallest constant passing every instance:"),
], ids=["kmin-sandwich-table", "kmax-constant-scan"])
def test_experiment_script_runs(script, args, closing):
    src = str(Path(orlicz_bounds.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].startswith(closing)

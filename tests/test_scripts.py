"""Smoke runs of the experiment scripts in ``scripts/``."""

import pathlib
import subprocess
import sys

import pytest

from conftest import checkout_env

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args",
    [
        ("euler_top_experiment.py", ["--steps", "50"]),
        ("nonholonomic_experiment.py", ["--steps", "20"]),
        ("structural_sweep.py", ["--instances", "2", "--points", "3"]),
    ],
)
def test_script_runs(tmp_path, script, args):
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=checkout_env(),
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip()

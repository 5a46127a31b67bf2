"""Smoke runs of the experiment scripts in ``scripts/``."""

import importlib.util
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


def test_structural_sweep_reports_a_nan_residual(monkeypatch, capsys):
    """A NaN closedness residual reaches the printed table and the summary."""
    spec = importlib.util.spec_from_file_location(
        "structural_sweep", ROOT / "scripts" / "structural_sweep.py"
    )
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    monkeypatch.setattr(sweep, "closedness_residual", lambda P, x: float("nan"))
    monkeypatch.setattr(sys, "argv", ["structural_sweep.py", "--instances", "1", "--points", "3"])
    sweep.main()
    out = capsys.readouterr().out
    assert "closedness nan" in out

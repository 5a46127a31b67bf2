import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import checkout_env

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def run_cli(*args, cwd):
    """Run this checkout's CLI in ``cwd`` (see :func:`conftest.checkout_env`)."""
    return subprocess.run(
        [sys.executable, "-m", "algmech.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=checkout_env(),
    )


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def harmonic_config(tmp_path, steps=5000, **extra):
    cfg = {
        "scenario": {
            "scenario": "canonical",
            "n": 1,
            "hamiltonian": {
                "arity": 2,
                "terms": [{"coef": 0.5, "exp": [0, 2]}, {"coef": 0.5, "exp": [2, 0]}],
            },
        },
        "integration": {"h": 0.001, "steps": steps, "x0": {"q": [1.0], "p": [0.0]}},
        "verification": {
            "points": 10,
            "seed": 1,
            "checks": ["theorem43_equivalence", "omega_frame", "closedness"],
        },
        "output": {"trajectory": "out.csv", "report": "report.json"},
    }
    cfg.update(extra)
    return write_config(tmp_path, cfg)


def test_simulate_writes_contracted_csv(tmp_path):
    path = harmonic_config(tmp_path, steps=2000)
    r = run_cli("simulate", path, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "out.csv").read_text().strip().split("\n")
    assert lines[0] == "t,q1,p1,H,dHdt"
    assert len(lines) == 2002
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    H = data[:, 3]
    assert np.max(np.abs(H - H[0])) <= 1e-10


def test_simulate_rejects_negative_step(tmp_path):
    path = harmonic_config(tmp_path)
    cfg = json.loads(pathlib.Path(path).read_text())
    cfg["integration"]["h"] = -1
    path = write_config(tmp_path, cfg, "bad.json")
    r = run_cli("simulate", path, cwd=tmp_path)
    assert r.returncode == 1
    assert "integration.h must be positive" in r.stderr


def test_simulate_divergence_exit_code(tmp_path):
    cases = [
        # dp/dt = p^2: the state after a step leaves float range
        ({"coef": 0.5, "exp": [2]}, 0.5, 10.0),
        # dp/dt = 4 p^4: the state stays finite while H and its gradient at it overflow
        ({"coef": 1.0, "exp": [4]}, 0.1, 2.0),
    ]
    for k, (term, h, p0) in enumerate(cases):
        cfg = {
            "scenario": {
                "scenario": "lie_poisson",
                "structure": [[[-1.0]]],
                "hamiltonian": {"arity": 1, "terms": [term]},
            },
            "integration": {"h": h, "steps": 1000, "x0": {"q": [], "p": [p0]}},
            "output": {"trajectory": f"part{k}.csv"},
        }
        path = write_config(tmp_path, cfg, f"cfg{k}.json")
        r = run_cli("simulate", path, cwd=tmp_path)
        assert r.returncode == 2, r.stderr
        assert "diverged" in r.stderr
        assert "Traceback" not in r.stderr
        lines = (tmp_path / f"part{k}.csv").read_text().strip().split("\n")
        assert len(lines) >= 2
        last_good = int(r.stderr.split("last good step ")[1].split(";")[0])
        assert len(lines) == last_good + 2  # header plus samples 0..last_good


def test_verify_report_and_exit_codes(tmp_path):
    path = harmonic_config(tmp_path)
    r = run_cli("verify", path, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert isinstance(report, list) and len(report) == 3
    for entry in report:
        assert set(entry) == {"check", "points", "max_residual", "tolerance", "pass"}
        assert entry["pass"]


def test_verify_unknown_check(tmp_path):
    path = harmonic_config(tmp_path)
    cfg = json.loads(pathlib.Path(path).read_text())
    cfg["verification"]["checks"] = ["bogus_check"]
    path = write_config(tmp_path, cfg, "unknown.json")
    r = run_cli("verify", path, cwd=tmp_path)
    assert r.returncode == 1
    assert "unknown check" in r.stderr


def test_verify_failing_check_nonzero_exit(tmp_path):
    path = harmonic_config(tmp_path)
    cfg = json.loads(pathlib.Path(path).read_text())
    # a negative control on a structure whose defects all vanish must fail
    cfg["verification"]["checks"] = [{"name": "structure_checks", "expect_fail": True}]
    path = write_config(tmp_path, cfg, "failing.json")
    r = run_cli("verify", path, cwd=tmp_path)
    assert r.returncode == 1
    assert "FAIL" in r.stdout


def test_report_summary(tmp_path):
    path = harmonic_config(tmp_path, steps=2000)
    assert run_cli("simulate", path, cwd=tmp_path).returncode == 0
    r = run_cli("report", str(tmp_path / "out.csv"), cwd=tmp_path)
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "rows: 2001"
    drift_line = [ln for ln in r.stdout.splitlines() if ln.startswith("H drift:")][0]
    assert float(drift_line.split(":")[1]) <= 1e-10


def test_report_rejects_empty_and_malformed(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    r = run_cli("report", str(empty), cwd=tmp_path)
    assert r.returncode == 1
    assert "trajectory file is empty" in r.stderr
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    r = run_cli("report", str(bad), cwd=tmp_path)
    assert r.returncode == 1
    assert "malformed trajectory header" in r.stderr


def test_determinism_byte_identical(tmp_path):
    path = harmonic_config(tmp_path, steps=500)
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for d in (a, b):
        assert run_cli("simulate", path, "--out", "t.csv", cwd=d).returncode == 0
        assert run_cli("verify", path, "--report", "r.json", cwd=d).returncode == 0
    assert (a / "t.csv").read_bytes() == (b / "t.csv").read_bytes()
    assert (a / "r.json").read_bytes() == (b / "r.json").read_bytes()


def test_seed_flag_changes_probes(tmp_path):
    path = harmonic_config(tmp_path)
    r1 = run_cli("verify", path, "--seed", "1", "--report", "r1.json", cwd=tmp_path)
    r2 = run_cli("verify", path, "--seed", "2", "--report", "r2.json", cwd=tmp_path)
    r0 = run_cli("verify", path, "--report", "r0.json", cwd=tmp_path)
    assert r1.returncode == 0 and r2.returncode == 0 and r0.returncode == 0
    report1 = (tmp_path / "r1.json").read_bytes()
    # another seed draws other probe points, so the residuals differ
    assert report1 != (tmp_path / "r2.json").read_bytes()
    # the config's verification.seed is 1, so --seed 1 changes nothing
    assert report1 == (tmp_path / "r0.json").read_bytes()


def test_explicit_split_override(tmp_path):
    path = harmonic_config(tmp_path)
    cfg = json.loads(pathlib.Path(path).read_text())
    zero = {"arity": 1, "terms": []}
    cfg["scenario"]["split"] = {"Dl": [[[zero]]], "Dr": [[[zero]]]}
    cfg["verification"]["checks"] = ["theorem43_equivalence", "split_consistency"]
    path = write_config(tmp_path, cfg, "split_ok.json")
    assert run_cli("verify", path, cwd=tmp_path).returncode == 0

    cfg["scenario"]["split"] = {
        "Dl": [[[{"arity": 1, "terms": [{"coef": 0.5, "exp": [0]}]}]]],
        "Dr": [[[zero]]],
    }
    path = write_config(tmp_path, cfg, "split_bad.json")
    r = run_cli("verify", path, cwd=tmp_path)
    assert r.returncode == 1
    assert "does not split the bracket" in r.stderr


@pytest.mark.parametrize(
    "name",
    sorted(p.name for p in CONFIG_DIR.glob("*.json")),
)
def test_shipped_configs_round_trip(tmp_path, name):
    """Every example config in the repo validates and runs under both commands."""
    cfg_path = str(CONFIG_DIR / name)
    r = run_cli("simulate", cfg_path, cwd=tmp_path)
    assert r.returncode == 0, (name, r.stderr)
    r = run_cli("verify", cfg_path, cwd=tmp_path)
    assert r.returncode == 0, (name, r.stdout, r.stderr)
    traj = json.loads(pathlib.Path(cfg_path).read_text())["output"]["trajectory"]
    r = run_cli("report", str(tmp_path / traj), cwd=tmp_path)
    assert r.returncode == 0, (name, r.stderr)


@pytest.mark.parametrize(
    "override,key",
    [
        ({"points": 0}, "verification.checks[0].points"),
        ({"points": -3}, "verification.checks[0].points"),
        ({"points": 2.5}, "verification.checks[0].points"),
        ({"tolerance": "nan", "expect_fail": True}, "verification.checks[0].tolerance"),
        ({"tolerance": -1.0}, "verification.checks[0].tolerance"),
        ({"tolerance": 0}, "verification.checks[0].tolerance"),
    ],
)
def test_verify_rejects_bad_check_overrides(tmp_path, override, key):
    path = harmonic_config(tmp_path)
    cfg = json.loads(pathlib.Path(path).read_text())
    cfg["verification"]["checks"] = [{"name": "closedness", **override}]
    path = write_config(tmp_path, cfg, "bad_override.json")
    r = run_cli("verify", path, cwd=tmp_path)
    assert r.returncode == 1
    assert key in r.stderr
    assert not (tmp_path / "report.json").exists()


def test_verify_rejects_non_finite_tolerance_class(tmp_path):
    path = harmonic_config(tmp_path)
    cfg = json.loads(pathlib.Path(path).read_text())
    cfg["verification"]["tolerances"] = {"analytic": "nan"}
    path = write_config(tmp_path, cfg, "bad_class.json")
    r = run_cli("verify", path, cwd=tmp_path)
    assert r.returncode == 1
    assert "verification.tolerances.analytic" in r.stderr

"""Golden `simulate` and `verify` outputs of the nine shipped configs.

Each file ``tests/data/golden/<config>.csv`` is the trajectory CSV that
``algmech simulate`` wrote for that config with its step count capped at
``GOLDEN_STEPS``, and ``<config>.verify.json`` the report ``algmech verify``
wrote for the config as shipped.  Every value must be reproduced within
``1e-9 * (1 + |ref|)``, the bound the benchmark applies to final states; a
report's check names, point counts, tolerances and pass flags exactly.  A
change whose numerics legitimately move a value beyond it re-baselines with
``PYTHONPATH=src python3 tests/test_golden.py`` and records the largest
deviation per config in ``CHANGES.md``.
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from algmech.cli import cmd_simulate, cmd_verify

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
GOLDEN_DIR = ROOT / "tests" / "data" / "golden"
GOLDEN_STEPS = 200
CONFIGS = sorted(p.stem for p in CONFIG_DIR.glob("*.json"))


def simulate_capped(name, out_dir) -> pathlib.Path:
    """Run `simulate` on a shipped config with steps capped; return the CSV path."""
    out_dir = pathlib.Path(out_dir)
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    cfg["integration"]["steps"] = min(cfg["integration"]["steps"], GOLDEN_STEPS)
    cfg_path = out_dir / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg))
    csv_path = out_dir / f"{name}.csv"
    assert cmd_simulate(str(cfg_path), out=str(csv_path)) == 0
    return csv_path


def verify_shipped(name, out_dir) -> pathlib.Path:
    """Run `verify` on a shipped config as shipped; return the report path."""
    report = pathlib.Path(out_dir) / f"{name}.verify.json"
    assert cmd_verify(str(CONFIG_DIR / f"{name}.json"), report_path=str(report)) == 0
    return report


def read_csv(path):
    lines = pathlib.Path(path).read_text().splitlines()
    return lines[0], np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def test_every_shipped_config_has_a_golden():
    assert len(CONFIGS) == 9
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.csv")) == CONFIGS
    assert sorted(p.name for p in GOLDEN_DIR.glob("*.verify.json")) == [
        f"{name}.verify.json" for name in CONFIGS
    ]


@pytest.mark.parametrize("name", CONFIGS)
def test_simulate_matches_golden(name, tmp_path):
    ref_header, ref = read_csv(GOLDEN_DIR / f"{name}.csv")
    header, got = read_csv(simulate_capped(name, tmp_path))
    assert header == ref_header
    assert got.shape == ref.shape
    excess = np.abs(got - ref) - 1e-9 * (1.0 + np.abs(ref))
    worst = np.unravel_index(np.argmax(excess), excess.shape)
    assert np.all(excess <= 0.0), (
        f"row {worst[0]}, column {header.split(',')[worst[1]]}: "
        f"{got[worst]!r} against golden {ref[worst]!r}"
    )


@pytest.mark.parametrize("name", CONFIGS)
def test_verify_matches_golden(name, tmp_path):
    ref = json.loads((GOLDEN_DIR / f"{name}.verify.json").read_text())
    got = json.loads(verify_shipped(name, tmp_path).read_text())
    exact = ("check", "points", "tolerance", "pass")
    assert [{k: e[k] for k in exact} for e in got] == [{k: e[k] for k in exact} for e in ref]
    for e, r in zip(got, ref):
        bound = 1e-9 * (1.0 + abs(r["max_residual"]))
        assert abs(e["max_residual"] - r["max_residual"]) <= bound, (
            f"{e['check']}: {e['max_residual']!r} against golden {r['max_residual']!r}"
        )


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for config in CONFIGS:
        path = simulate_capped(config, GOLDEN_DIR)
        (GOLDEN_DIR / f"{config}.json").unlink()
        print(f"wrote {path}", file=sys.stderr)
        print(f"wrote {verify_shipped(config, GOLDEN_DIR)}", file=sys.stderr)

"""Tests of the benchmark's own checks and tracing.

Run: python3 -m pytest -q bench/test_bench.py   (from the repository root)
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import families  # noqa: E402
from checks import check_simulate, check_verify  # noqa: E402
from tracing import TARGETS, Tracer, summarize, under  # noqa: E402
from workload import Client, load_pools, run_rounds  # noqa: E402

POOLS = load_pools(os.path.join(HERE, "reference.json"))


def _simulate(tmp_path, family, entry):
    from algmech import cli

    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out.csv"
    cfg.write_text(json.dumps(families.simulate_config(family, entry["x0"])))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["simulate", str(cfg), "--out", str(out)])
    return rc, out.read_text()


@pytest.fixture(scope="module")
def harmonic(tmp_path_factory):
    family = "canonical_harmonic"
    ref = {**POOLS[family], **POOLS[family]["pool"][0]}
    rc, text = _simulate(tmp_path_factory.mktemp("sim"), family, ref)
    return rc, text, ref, families.SIMULATE[family][1]


def test_simulate_output_matches_reference(harmonic):
    rc, text, ref, steps = harmonic
    assert check_simulate(rc, text, ref, steps) == []


def _replace_last_value(text, column, factor):
    lines = text.splitlines()
    row = lines[-1].split(",")
    row[column] = repr(float(row[column]) * factor)
    return "\n".join(lines[:-1] + [",".join(row)]) + "\n"


@pytest.mark.parametrize("column", [1, 2, 3])  # q1, p1, H
def test_perturbed_trajectory_is_a_failure(harmonic, column):
    rc, text, ref, steps = harmonic
    bad = _replace_last_value(text, column, 1.0 + 1e-6)
    assert check_simulate(rc, bad, ref, steps)


def test_rounding_level_difference_passes(harmonic):
    rc, text, ref, steps = harmonic
    assert check_simulate(rc, _replace_last_value(text, 1, 1.0 + 1e-14), ref, steps) == []


def test_truncated_csv_wrong_header_and_exit_code_are_failures(harmonic):
    rc, text, ref, steps = harmonic
    lines = text.splitlines()
    assert check_simulate(rc, "\n".join(lines[:-1]) + "\n", ref, steps)
    assert check_simulate(rc, text.replace("t,q1", "t,x1", 1), ref, steps)
    assert check_simulate(2, text, ref, steps)
    assert check_simulate(rc, None, ref, steps)


def _report(residual, passed=True, points=100):
    return json.dumps([{"check": "closedness", "points": points, "max_residual": residual,
                        "tolerance": 1e-8, "pass": passed}])


def test_verify_report_checks():
    expected = [("closedness", 100)]
    assert check_verify(0, _report(1e-12), expected) == []
    assert check_verify(0, _report(float("nan")), expected)  # NaN hidden behind pass=true
    assert check_verify(0, _report(float("inf")), expected)
    assert check_verify(0, _report(1e-12, passed=False), expected)
    assert check_verify(0, _report(1e-12, points=3), expected)
    assert check_verify(1, _report(1e-12), expected)
    assert check_verify(0, "[]", expected)
    assert check_verify(0, "not json", expected)


def test_same_seed_same_inputs(tmp_path):
    a, b, c = (Client(POOLS, seed, str(tmp_path)) for seed in (5, 5, 6))
    picks = [[cl._pick("euler_top")["x0"] for _ in range(20)] for cl in (a, b, c)]
    assert picks[0] == picks[1]
    assert picks[0] != picks[2]


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    import algmech.algebroid
    import algmech.hamiltonian
    import algmech.prolongation
    from algmech import cli

    original = algmech.algebroid.structure_eval
    tracer = Tracer()
    tracer.install()
    try:
        assert algmech.hamiltonian.structure_eval is algmech.prolongation.structure_eval
        assert algmech.hamiltonian.structure_eval.__wrapped__ is original
        invs = run_rounds(cli, Client(POOLS, 1, str(tmp_path)), "trajectory", 0, tracer)
    finally:
        tracer.uninstall()
    assert algmech.hamiltonian.structure_eval is original
    assert all(not inv.problems for inv in invs)
    spans = tracer.arrays()
    dur = spans["end"] - spans["start"]
    assert np.all(dur >= 0)
    summary = summarize(spans)
    assert summary["cli.main"]["calls"] == len(invs)
    for s in summary.values():
        assert s["self_s"] <= s["total_s"] + 1e-9
    steps = summarize(spans, under(spans, "hamiltonian.integrate"))["hamiltonian.rk4_step"]["calls"]
    assert steps == sum(inv.steps for inv in invs)
    # euler_top (n = 0) always evaluates the structure at the same empty point
    assert summary["algebroid.structure_eval"]["repeats"] > 0


def test_every_target_exists():
    import algmech.cli  # noqa: F401  (imports every module)

    for _, module, attr, _, _ in TARGETS:
        obj = sys.modules[module]
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj)

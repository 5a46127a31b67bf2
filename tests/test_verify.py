import json
import math
import pathlib

import numpy as np
import pytest

from algmech.algebroid import worst_residual
from algmech.config import build_scenario
from algmech.errors import InputError
from algmech.hamiltonian import PhasePoint, integrate
from algmech.randoms import random_phase_point
from algmech.scenarios import build_canonical
from algmech import verify
from algmech.verify import CHECKS, run_check

from conftest import build_euler_top, harmonic_hamiltonian, nonjacobi_spec
from algmech.scenarios import build_constrained


CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _canonical_bundle():
    return build_canonical(1, harmonic_hamiltonian())


def test_registry_names():
    assert set(CHECKS) == {
        "theorem43_equivalence",
        "omega_frame",
        "omega_dlr_consistency",
        "closedness",
        "curvature_identities",
        "structure_checks",
        "split_consistency",
        "legendre_equivalence",
        "casimir_drift",
        "energy_rate_fd",
        "dA_squared",
    }


def test_unknown_check_rejected():
    with pytest.raises(InputError):
        run_check("no_such_check", _canonical_bundle(), {"points": 3}, 0)


def test_theorem43_on_random_instances_passes():
    out = run_check(
        "theorem43_equivalence",
        _canonical_bundle(),
        {"points": 30, "random_instances": 4},
        42,
    )
    assert out["pass"] and out["max_residual"] <= 1e-9
    assert out["points"] == 30 and out["tolerance"] == 1e-9


def test_checks_on_euler_top():
    b = build_euler_top()
    for name in (
        "omega_frame",
        "omega_dlr_consistency",
        "closedness",
        "curvature_identities",
        "structure_checks",
        "split_consistency",
    ):
        out = run_check(name, b, {"points": 10}, 1)
        assert out["pass"], (name, out)


def test_casimir_drift_check():
    b = build_euler_top()
    out = run_check("casimir_drift", b, {"points": 1, "steps": 2000, "h": 1e-3}, 2)
    assert out["pass"] and out["max_residual"] <= 1e-8


def test_expect_fail_inverts_outcome():
    b = build_constrained(nonjacobi_spec())
    raw = run_check("structure_checks", b, {"points": 3}, 3)
    assert not raw["pass"]
    inv = run_check("structure_checks", b, {"points": 3, "expect_fail": True}, 3)
    assert inv["pass"]
    assert inv["max_residual"] == raw["max_residual"]


def test_tolerance_override():
    b = _canonical_bundle()
    out = run_check("closedness", b, {"points": 3, "tolerance": 1e-3}, 4)
    assert out["tolerance"] == 1e-3


def test_report_schema():
    out = run_check("omega_frame", _canonical_bundle(), {"points": 2}, 5)
    assert set(out) == {"check", "points", "max_residual", "tolerance", "pass"}
    assert isinstance(out["pass"], bool)
    assert isinstance(out["max_residual"], float)


# -- NaN residuals fail ---------------------------------------------------------


def _nan_at_second_row(value):
    """``value`` with the residual of the second probe of its first batch replaced by NaN."""
    injected = []

    def fake(*args, **kwargs):
        out = np.array(value(*args, **kwargs), dtype=float)
        if not injected and out.ndim == 1 and out.shape[0] >= 2:
            out[1] = math.nan
            injected.append(1)
        return out

    return fake


@pytest.mark.parametrize(
    "check,target",
    [
        ("closedness", "closedness_residual"),
        ("split_consistency", "verify_split"),
        ("theorem43_equivalence", "_theorem43_gap"),
        ("dA_squared", "d_squared_scalar_residual"),
    ],
)
def test_nan_residual_fails_the_check(monkeypatch, check, target):
    import algmech.verify as verify

    monkeypatch.setattr(verify, target, _nan_at_second_row(getattr(verify, target)))
    cfg = {"points": 4, "random_instances": 1}
    out = run_check(check, _canonical_bundle(), cfg, 11)
    assert math.isnan(out["max_residual"])
    assert out["pass"] is False


def test_worst_residual_propagates_nan():
    from algmech.algebroid import worst_residual

    assert worst_residual([0.0, 2.0, 1.0]) == 2.0
    for values in ([math.nan, 1.0], [0.0, math.nan], [1.0, math.nan, 3.0], []):
        assert math.isnan(worst_residual(values))


def test_nan_residual_fails_a_negative_control(monkeypatch):
    import algmech.verify as verify

    monkeypatch.setitem(verify.CHECKS, "closedness", lambda bundle, cfg, rng: math.nan)
    out = run_check("closedness", _canonical_bundle(), {"points": 2, "expect_fail": True}, 0)
    assert out["pass"] is False


def test_nan_anchor_morphism_defect_is_reported(monkeypatch):
    from algmech.algebroid import canonical_tangent, structure_checks
    from algmech.fields import TensorField

    A = canonical_tangent(2)
    real = TensorField.eval_grad

    def nan_jet(self, q):
        vals, grads = real(self, q)
        if self is A.anchor_left:
            grads[:, 0, :] = math.nan
        return vals, grads

    monkeypatch.setattr(TensorField, "eval_grad", nan_jet)
    rep = structure_checks(A, [0.1, 0.2])
    assert math.isnan(rep.anchor_morphism_defect)


def test_nan_split_residual_rejects_the_pair(monkeypatch):
    import algmech.prolongation as prolongation
    from algmech.errors import InvalidStructureError

    b = _canonical_bundle()  # its 5 split probes are checked in one batch
    monkeypatch.setattr(
        prolongation, "verify_split", _nan_at_second_row(prolongation.verify_split)
    )
    with pytest.raises(InvalidStructureError):
        b.prolongation()


def test_an_invalid_split_is_rejected_on_every_call(monkeypatch):
    import algmech.prolongation as prolongation
    from algmech.errors import InvalidStructureError

    real = prolongation.verify_split

    def nan_split(*args):
        out = np.array(real(*args), dtype=float)
        out[1] = math.nan
        return out

    b = _canonical_bundle()
    monkeypatch.setattr(prolongation, "verify_split", nan_split)
    for _ in range(2):  # a rejected pair is not remembered as checked
        with pytest.raises(InvalidStructureError):
            b.prolongation()


def test_a_shipped_verify_builds_each_table_and_lifted_structure_once(monkeypatch, tmp_path):
    """canonical_harmonic: one scenario prolongation and five random instances."""
    import algmech.fields as fields
    import algmech.prolongation as prolongation
    from algmech.cli import main

    calls = {"jet_table": 0, "split": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(fields, "_jet_table", counted("jet_table", fields._jet_table))
    monkeypatch.setattr(prolongation, "verify_split", counted("split", prolongation.verify_split))
    report = str(tmp_path / "report.json")
    assert main(["verify", str(CONFIG_DIR / "canonical_harmonic.json"), "--report", report]) == 0
    assert calls["jet_table"] <= 2 and calls["split"] == 6, calls


# -- trajectory checks against their former per-sample loops --------------------


def _former_legendre_equivalence(bundle, cfg, rng):
    """legendre_equivalence as a loop over samples: max |q - q_ref| and max |p - v_ref| per sample."""
    steps, h = int(cfg.get("steps", 1000)), float(cfg.get("h", 1e-3))
    n, k = bundle.algebroid.n, bundle.algebroid.m
    q0 = np.asarray(cfg.get("q0", np.zeros(n)), dtype=float)
    v0 = np.asarray(cfg.get("v0", 0.1 + 0.1 * np.arange(k)), dtype=float)
    traj = integrate(bundle.algebroid, bundle.hamiltonian, PhasePoint(q0, v0), h, steps)
    ref = verify.lagrangian_reference(cfg["constraint_spec"], v0, q0, h, steps)
    residuals = []
    for z, y in zip(traj.states(), ref):
        if n:
            residuals.append(np.max(np.abs(z[:n] - y[:n])))
        residuals.append(np.max(np.abs(z[n:] - y[n:])))
    return worst_residual(residuals)


def _former_energy_rate_fd(bundle, cfg, rng):
    """energy_rate_fd as a loop over the strided sample indices, one scalar at a time."""
    steps, h = int(cfg.get("steps", 1000)), float(cfg.get("h", 1e-3))
    A = bundle.algebroid
    x0 = cfg.get("x0")
    x0 = PhasePoint(*random_phase_point(rng, A.n, A.m, 0.5)) if x0 is None else PhasePoint(**x0)
    traj = integrate(A, bundle.hamiltonian, x0, h, steps)
    Hs, rates = traj.h_values(), traj.rate_values()
    stride = max(1, steps // 100)
    return worst_residual(
        abs((Hs[i + 1] - Hs[i - 1]) / (2 * h) - rates[i]) for i in range(1, steps, stride)
    )


def _perturbed(reference):
    """``reference`` off by parts in 1e9, the same at each call.

    The two routes of legendre_equivalence agree to the last bit on
    generalized_servo, whose momenta stay constant, and a residual of 0
    would hide a difference.
    """

    def wrapped(*args):
        Y = reference(*args)
        return Y * (1.0 + 1e-9 * np.random.default_rng(0).uniform(-1, 1, Y.shape))

    return wrapped


# X = (q2, q1^2) makes dH/dt of gradient_extension non-zero (the shipped X conserves H)
_SWIRL = {"vector_field": [
    {"arity": 2, "terms": [{"coef": 1.0, "exp": [0, 1]}]},
    {"arity": 2, "terms": [{"coef": 1.0, "exp": [2, 0]}]},
]}


@pytest.mark.parametrize(
    "config,override,check,former",
    [
        ("nonholonomic_classical", {}, "legendre_equivalence", _former_legendre_equivalence),
        ("generalized_servo", {}, "legendre_equivalence", _former_legendre_equivalence),
        ("gradient_extension", _SWIRL, "energy_rate_fd", _former_energy_rate_fd),
        ("canonical_harmonic", {}, "energy_rate_fd", _former_energy_rate_fd),
    ],
)
def test_trajectory_check_is_bit_identical_to_its_sample_loop(
    monkeypatch, config, override, check, former
):
    monkeypatch.setattr(verify, "lagrangian_reference", _perturbed(verify.lagrangian_reference))
    cfg = json.loads((CONFIG_DIR / f"{config}.json").read_text())
    bundle, spec = build_scenario({**cfg["scenario"], **override})
    entries = [e if isinstance(e, dict) else {"name": e} for e in cfg["verification"]["checks"]]
    (entry,) = [e for e in entries if e["name"] == check]
    ccfg = {**entry, "points": 1, "constraint_spec": spec}
    seed = cfg["verification"]["seed"]
    residual = CHECKS[check](bundle, ccfg, np.random.default_rng(seed))
    expected = former(bundle, ccfg, np.random.default_rng(seed))
    assert residual > 0.0
    assert np.float64(residual).tobytes() == np.float64(expected).tobytes()


def test_closedness_is_blind_to_the_curvature_at_rank_two():
    # at m <= 2 no three horizontal slots differ, so closedness cannot see R;
    # curvature_identities on the same bundle does
    cfg = json.loads((CONFIG_DIR / "gradient_extension.json").read_text())
    cfg["scenario"]["curvature"] = np.random.default_rng(3).uniform(-1, 1, (2, 2, 2, 2)).tolist()
    bundle, _ = build_scenario(cfg["scenario"])
    closed = run_check("closedness", bundle, {"points": 25}, 0)
    curvature = run_check("curvature_identities", bundle, {"points": 25}, 0)
    assert closed["max_residual"] == 0.0 and closed["pass"]
    assert curvature["max_residual"] == pytest.approx(2.7376035290165914, rel=1e-6)
    assert not curvature["pass"]

import math

import numpy as np
import pytest

from algmech.errors import InputError
from algmech.scenarios import build_canonical, build_euler_top
from algmech.verify import CHECKS, run_check

from conftest import harmonic_hamiltonian, nonjacobi_spec
from algmech.scenarios import build_constrained


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

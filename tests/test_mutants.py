"""Mutant kill matrix: deliberate defects that a shipped ``verify`` must catch.

Each row monkeypatches one function of the package into a defect.  With the
defect, ``verify`` on the row's shipped config must exit 1 with the row's
check failing; without it, the same check must read a small non-zero
residual, so the pass is a measurement and not an identity.
"""

import json
import pathlib

import numpy as np
import pytest

from algmech.cli import cmd_verify
from algmech.scenarios import _AdaptedFrame

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def scale_adapted_frame(monkeypatch):
    """The adapted frame's jet dU, scaled by 1.001 where it is assembled.

    :meth:`_AdaptedFrame._frame_jet` assembles every frame, so the kinematic
    jet of an RK4 stage and the whole jet of a core are both scaled.  The
    columns are left metric-orthonormal, so the build's frame checks pass
    and the defect reaches ``verify``.
    """
    frame_jet = _AdaptedFrame._frame_jet

    def scaled(self, Q, complete=True):
        U, dU, Gv, dG = frame_jet(self, Q, complete)
        return U, 1.001 * dU, Gv, dG

    monkeypatch.setattr(_AdaptedFrame, "_frame_jet", scaled)


def drop_frame_derivative(monkeypatch):
    """The frame bracket without its frame-derivative term d_{rho E_a} E_b - d_{rho E_b} E_a.

    One function builds the kinematic bracket of an RK4 stage and the adapted
    structure of the core, so the split stays consistent with the defective
    bracket; only the velocity-side oracle can see it.
    """
    snapshot = _AdaptedFrame._kinematic_snapshot

    def without_derivative(self, E, dE, EG, s):
        return snapshot(self, E, np.zeros_like(dE), EG, s)

    monkeypatch.setattr(_AdaptedFrame, "_kinematic_snapshot", without_derivative)


# mutant -> (shipped config, the check that must catch it, the largest clean reading).
# Sizes: nonholonomic_classical as shipped, its legendre_equivalence entry at 300
# RK4 steps of h = 1e-3 from q0 = (0.4, -0.2, 0.1), v0 = (0.5, -0.3), 15 points;
# clean it reads 1.1e-15, with the frame's jet scaled 1.07e-5 and without the
# frame derivative 1.08e-2, against a tolerance of 1e-6.
MUTANTS = {
    "adapted_frame_x1.001": (scale_adapted_frame, "nonholonomic_classical",
                             "legendre_equivalence", 1e-12),
    "bracket_without_frame_derivative": (drop_frame_derivative, "nonholonomic_classical",
                                         "legendre_equivalence", 1e-12),
}


def _verify(name, tmp_path):
    report = tmp_path / "report.json"
    rc = cmd_verify(str(CONFIG_DIR / f"{name}.json"), report_path=str(report))
    return rc, {e["check"]: e for e in json.loads(report.read_text())}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_the_check_reads_a_small_nonzero_residual_without_the_mutant(tmp_path, mutant):
    _, name, check, bound = MUTANTS[mutant]
    rc, entries = _verify(name, tmp_path)
    assert rc == 0
    assert 0.0 < entries[check]["max_residual"] <= bound
    assert entries[check]["pass"]


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_the_mutant_fails_verify(tmp_path, monkeypatch, mutant):
    apply, name, check, _ = MUTANTS[mutant]
    apply(monkeypatch)
    rc, entries = _verify(name, tmp_path)
    assert rc == 1
    assert not entries[check]["pass"]

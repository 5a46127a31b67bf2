"""Named verification checks over seeded probe points.

Each check evaluates one numerical claim about a scenario bundle (or about
randomly generated instances) at K probe points and reports
``{check, points, max_residual, tolerance, pass}``.  The registered names are
the contract of the command-line ``verify`` subcommand.

A point-based check draws its K probes in one call of the generator (in the
order of K single draws: q, then p, per probe) and evaluates them as one
batch.
"""

from __future__ import annotations

import math

import numpy as np

from .algebroid import max_abs, structure_checks, worst_residual
from .connections import curvature_identity_residuals, split_residual, verify_split
from .errors import InputError, NumericError
from .hamiltonian import PhasePoint, ham_field, integrate
from .prolongation import (
    ProlongationData,
    closedness_residual,
    d_squared_oneform_residual,
    d_squared_scalar_residual,
    lr_ham_field,
    omega,
)
from .randoms import (
    random_algebroid,
    random_curvature,
    random_phase_function,
    random_phase_point,
    random_phase_points,
    random_polynomial_tensor,
    random_valid_split,
)
from .scenarios import ScenarioBundle, lagrangian_reference


def _probes(rng, A, count) -> PhasePoint:
    """``count`` probe points in [-1, 1]^(n+m) as one batch."""
    return PhasePoint(*random_phase_points(rng, A.n, A.m, count))


def _base_probes(rng, A, count) -> np.ndarray:
    """``count`` base points in [-1, 1]^n, [count, n].

    Over a point (n = 0) every probe is the same empty point, so there is
    one row, and the stream is not consumed.
    """
    return rng.uniform(-1, 1, size=(count if A.n else 1, A.n))


def _theorem43_gap(P: ProlongationData, H, x) -> np.ndarray:
    """Relative gap between the section-route and tensor-route fields, per point of x."""
    lhs = lr_ham_field(P, H, x)
    rhs = ham_field(P.base, H, x)
    return np.max(np.abs(lhs - rhs), axis=-1) / (1.0 + np.max(np.abs(rhs), axis=-1))


def check_theorem43_equivalence(bundle, cfg, rng):
    """Section route equals tensor route, on the scenario and random instances.

    The lifted structure is built once per instance, for all of its points.
    """
    K = cfg["points"]
    residuals = []
    if bundle is not None:
        P = bundle.prolongation()
        residuals.append(_theorem43_gap(P, bundle.hamiltonian, _probes(rng, bundle.algebroid, K)))
    for _ in range(int(cfg.get("random_instances", 5))):
        A = random_algebroid(rng)
        split = random_valid_split(rng, A)
        P = ProlongationData(A, split, random_curvature(rng, A.m, A.n))
        H = random_phase_function(rng, A.n, A.m)
        residuals.append(_theorem43_gap(P, H, _probes(rng, A, max(1, K // 10))))
    return worst_residual(residuals)


def check_omega_frame(bundle, cfg, rng):
    """Frame pairing is exactly [[0, I], [-I, 0]] with unit determinant."""
    P = bundle.prolongation()
    m = bundle.algebroid.m
    block = np.zeros((2 * m, 2 * m))
    block[:m, m:] = np.eye(m)
    block[m:, :m] = -np.eye(m)
    O = omega(P, _probes(rng, bundle.algebroid, cfg["points"]), "frame_formula")
    return worst_residual([max_abs(O - block, 2), np.abs(np.linalg.det(O) - 1.0)])


def check_omega_dlr_consistency(bundle, cfg, rng):
    """Generic differential route reproduces the frame pairing."""
    P = bundle.prolongation()
    x = _probes(rng, bundle.algebroid, cfg["points"])
    return worst_residual(max_abs(omega(P, x, "generic_dlr") - omega(P, x, "frame_formula"), 2))


def check_closedness(bundle, cfg, rng):
    """Full differential of the frame pairing; zero when R satisfies the first Bianchi identity.

    Blind at rank m <= 2: R enters only through a cyclic sum over three
    distinct horizontal slots, so any R reads 0 there (a random constant R on
    gradient_extension reads 0.0 and passes, while ``curvature_identities``
    reads order one and fails).
    """
    P = bundle.prolongation()
    return worst_residual(closedness_residual(P, _probes(rng, bundle.algebroid, cfg["points"])))


def check_curvature_identities(bundle, cfg, rng):
    """Skew and first-Bianchi residuals of the scenario's curvature tensor."""
    R = bundle.curvature.eval(_base_probes(rng, bundle.algebroid, cfg["points"]))
    rep = curvature_identity_residuals(R)
    return worst_residual([rep.skew_residual, rep.bianchi_residual])


def check_structure_checks(bundle, cfg, rng):
    """Max of the four structural defects at the probe points."""
    rep = structure_checks(bundle.algebroid, _base_probes(rng, bundle.algebroid, cfg["points"]))
    return worst_residual(
        [rep.skew_defect, rep.anchor_lr_defect, rep.jacobiator_norm, rep.anchor_morphism_defect]
    )


def check_split_consistency(bundle, cfg, rng):
    """The bracket against Dl - Dr^T; a builder's lifted base reads all three in one call."""
    A = bundle.algebroid
    q = _base_probes(rng, A, cfg["points"])
    if bundle._base_at is None:
        return worst_residual(verify_split(A, bundle.split, q))
    s, Dl, Dr, _ = bundle._base_at(q, curvature=False)
    return worst_residual(split_residual(s.B, Dl, Dr))


def check_legendre_equivalence(bundle, cfg, rng):
    """Velocity-side reference trajectory matches the momentum-side one."""
    spec = cfg.get("constraint_spec")
    if spec is None:
        raise InputError("legendre_equivalence requires a constrained scenario")
    steps = int(cfg.get("steps", 1000))
    h = float(cfg.get("h", 1e-3))
    n, k = bundle.algebroid.n, bundle.algebroid.m
    q0 = np.asarray(cfg.get("q0", np.zeros(n)), dtype=float)
    v0 = np.asarray(cfg.get("v0", 0.1 + 0.1 * np.arange(k)), dtype=float)
    traj = integrate(bundle.algebroid, bundle.hamiltonian, PhasePoint(q0, v0), h, steps)
    ref = lagrangian_reference(spec, v0, q0, h, steps)
    return worst_residual([np.abs(traj.states() - ref)])


def check_casimir_drift(bundle, cfg, rng):
    if not bundle.monitors:
        raise InputError("casimir_drift requires a scenario with monitors")
    steps = int(cfg.get("steps", 10000))
    h = float(cfg.get("h", 1e-3))
    x0 = cfg.get("x0", {"q": np.zeros(bundle.algebroid.n), "p": np.ones(bundle.algebroid.m)})
    x0 = PhasePoint(x0["q"], x0["p"])
    traj = integrate(bundle.algebroid, bundle.hamiltonian, x0, h, steps, bundle.monitors)
    M = traj.monitor_table()
    return worst_residual([np.abs(M - M[0])])


def check_energy_rate_fd(bundle, cfg, rng):
    """Stored dH/dt against a central difference of H along the flow."""
    steps = int(cfg.get("steps", 1000))
    h = float(cfg.get("h", 1e-3))
    x0 = cfg.get("x0")
    if x0 is None:
        x0 = PhasePoint(*random_phase_point(rng, bundle.algebroid.n, bundle.algebroid.m, 0.5))
    else:
        x0 = PhasePoint(x0["q"], x0["p"])
    traj = integrate(bundle.algebroid, bundle.hamiltonian, x0, h, steps)
    Hs = traj.h_values()
    i = np.arange(1, steps, max(1, steps // 100))
    return worst_residual([np.abs((Hs[i + 1] - Hs[i - 1]) / (2 * h) - traj.rate_values()[i])])


def check_dA_squared(bundle, cfg, rng):
    """Twice-applied skew differential on a random function and one-section."""
    P = bundle.prolongation()
    A = bundle.algebroid
    phi = random_phase_function(rng, A.n, A.m, degree=2)
    theta = random_polynomial_tensor(rng, (2 * A.m,), A.n + A.m, 1)
    residuals = [d_squared_scalar_residual(P, phi, _probes(rng, A, cfg["points"]))]
    residuals.append(d_squared_oneform_residual(P, theta, _probes(rng, A, 1)))
    return worst_residual(residuals)


# check -> (its function; the class of verification.tolerances that sets its
# tolerance, or None; its default tolerance)
CHECKS = {
    "theorem43_equivalence": (check_theorem43_equivalence, "analytic", 1e-9),
    "omega_frame": (check_omega_frame, None, 1e-15),
    "omega_dlr_consistency": (check_omega_dlr_consistency, None, 1e-8),
    "closedness": (check_closedness, None, 1e-8),
    "curvature_identities": (check_curvature_identities, "fd", 1e-5),
    "structure_checks": (check_structure_checks, None, 1e-10),
    "split_consistency": (check_split_consistency, None, 1e-10),
    "legendre_equivalence": (check_legendre_equivalence, None, 1e-6),
    "casimir_drift": (check_casimir_drift, None, 1e-8),
    "energy_rate_fd": (check_energy_rate_fd, None, 1e-6),
    "dA_squared": (check_dA_squared, None, 1e-8),
}


def run_check(name, bundle: ScenarioBundle, cfg, seed) -> dict:
    """Run one registered check; ``cfg`` holds points/tolerance/extras.

    The check's function and default tolerance are its row of
    :data:`CHECKS`; ``cfg["tolerance"]`` overrides that default.

    With ``expect_fail`` set, passing means the residual *exceeded* the
    tolerance, as expected for a negative control.

    A check whose computation leaves float range (a diverged trajectory, a
    non-finite jet) reports an infinite residual and fails, also as a
    negative control: nothing was measured.  A batch of ``points`` too large
    to allocate raises :class:`InputError`.
    """
    if name not in CHECKS:
        raise InputError(f"unknown check name {name!r}")
    check, _, default = CHECKS[name]
    rng = np.random.default_rng(seed)
    tolerance = float(cfg.get("tolerance", default))
    try:
        residual = check(bundle, cfg, rng)
    except NumericError:  # IntegrationDivergedError included
        residual, ok = math.inf, False
    except MemoryError as exc:  # a batch no array can hold is a bad request, not a result
        K = cfg["points"]
        raise InputError(f"points is too large: {K} points cannot be allocated") from exc
    else:
        # a NaN residual fails both comparisons, so it fails a negative control too
        if cfg.get("expect_fail", False):
            ok = residual > tolerance
        else:
            ok = residual <= tolerance
    return {
        "check": name,
        "points": int(cfg["points"]),
        "max_residual": float(residual),
        "tolerance": tolerance,
        "pass": bool(ok),
    }

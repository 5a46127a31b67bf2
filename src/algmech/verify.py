"""Named verification checks over seeded probe points.

Each check evaluates one numerical claim about a scenario bundle (or about
randomly generated instances) at K probe points and reports
``{check, points, max_residual, tolerance, pass}``.  The registered names are
the contract of the command-line ``verify`` subcommand.
"""

from __future__ import annotations

import numpy as np

from .algebroid import structure_checks, worst_residual
from .connections import verify_split
from .errors import InputError
from .hamiltonian import PhasePoint, energy_rate, ham_field, integrate
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
    random_valid_split,
)
from .scenarios import ScenarioBundle, lagrangian_reference


def _probe(rng, A, scale=1.0) -> PhasePoint:
    q, p = random_phase_point(rng, A.n, A.m, scale)
    return PhasePoint(q, p)


def _theorem43_gap(P: ProlongationData, H, x) -> float:
    """Relative gap between the section-route and tensor-route fields at x."""
    lhs = lr_ham_field(P, H, x)
    rhs = ham_field(P.base, H, x)
    return float(np.max(np.abs(lhs - rhs)) / (1.0 + np.max(np.abs(rhs))))


def check_theorem43_equivalence(bundle, cfg, rng):
    """Section route equals tensor route, on the scenario and random instances.

    The lifted structure is built once per instance, for all of its points.
    """
    K = cfg["points"]
    residuals = []
    if bundle is not None:
        P = bundle.prolongation()
        for _ in range(K):
            residuals.append(_theorem43_gap(P, bundle.hamiltonian, _probe(rng, bundle.algebroid)))
    for _ in range(int(cfg.get("random_instances", 5))):
        A = random_algebroid(rng)
        split = random_valid_split(rng, A)
        P = ProlongationData(A, split, random_curvature(rng, A.m, A.n))
        H = random_phase_function(rng, A.n, A.m)
        for _ in range(max(1, K // 10)):
            residuals.append(_theorem43_gap(P, H, _probe(rng, A)))
    return worst_residual(residuals)


def check_omega_frame(bundle, cfg, rng):
    """Frame pairing is exactly [[0, I], [-I, 0]] with unit determinant."""
    P = bundle.prolongation()
    m = bundle.algebroid.m
    block = np.zeros((2 * m, 2 * m))
    block[:m, m:] = np.eye(m)
    block[m:, :m] = -np.eye(m)
    residuals = []
    for _ in range(cfg["points"]):
        x = _probe(rng, bundle.algebroid)
        O = omega(P, x, "frame_formula")
        residuals.append(np.max(np.abs(O - block)))
        residuals.append(abs(np.linalg.det(O) - 1.0))
    return worst_residual(residuals)


def check_omega_dlr_consistency(bundle, cfg, rng):
    """Generic differential route reproduces the frame pairing."""
    P = bundle.prolongation()
    residuals = []
    for _ in range(cfg["points"]):
        x = _probe(rng, bundle.algebroid)
        residuals.append(np.max(np.abs(omega(P, x, "generic_dlr") - omega(P, x, "frame_formula"))))
    return worst_residual(residuals)


def check_closedness(bundle, cfg, rng):
    P = bundle.prolongation()
    return worst_residual(
        closedness_residual(P, _probe(rng, bundle.algebroid)) for _ in range(cfg["points"])
    )


def check_curvature_identities(bundle, cfg, rng):
    """Skew and first-Bianchi residuals of the scenario's curvature tensor."""
    A = bundle.algebroid
    residuals = []
    for _ in range(cfg["points"]):
        q = rng.uniform(-1, 1, size=A.n)
        R = bundle.curvature.eval(q)
        residuals.append(np.max(np.abs(R + np.swapaxes(R, 1, 2))))
        cyc = R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2))
        residuals.append(np.max(np.abs(cyc)))
    return worst_residual(residuals)


def check_structure_checks(bundle, cfg, rng):
    """Max of the four structural defects at the probe points."""
    A = bundle.algebroid
    residuals = []
    for _ in range(cfg["points"]):
        rep = structure_checks(A, rng.uniform(-1, 1, size=A.n))
        residuals += [
            rep.skew_defect,
            rep.anchor_lr_defect,
            rep.jacobiator_norm,
            rep.anchor_morphism_defect,
        ]
    return worst_residual(residuals)


def check_split_consistency(bundle, cfg, rng):
    A = bundle.algebroid
    return worst_residual(
        verify_split(A, bundle.split, rng.uniform(-1, 1, size=A.n)) for _ in range(cfg["points"])
    )


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
    residuals = []
    for smp, (_, lq, lv) in zip(traj.samples, ref):
        if n:
            residuals.append(np.max(np.abs(smp[1].q - lq)))
        residuals.append(np.max(np.abs(smp[1].p - lv)))
    return worst_residual(residuals)


def check_casimir_drift(bundle, cfg, rng):
    if not bundle.monitors:
        raise InputError("casimir_drift requires a scenario with monitors")
    steps = int(cfg.get("steps", 10000))
    h = float(cfg.get("h", 1e-3))
    x0 = cfg.get("x0", {"q": np.zeros(bundle.algebroid.n), "p": np.ones(bundle.algebroid.m)})
    x0 = PhasePoint(x0["q"], x0["p"])
    traj = integrate(bundle.algebroid, bundle.hamiltonian, x0, h, steps, bundle.monitors)
    return worst_residual(
        np.max(np.abs(vals - vals[0]))
        for vals in (traj.monitor_values(name) for name in traj.monitor_names)
    )


def check_energy_rate_fd(bundle, cfg, rng):
    """Stored dH/dt against a central difference of H along the flow."""
    steps = int(cfg.get("steps", 1000))
    h = float(cfg.get("h", 1e-3))
    x0 = cfg.get("x0")
    x0 = _probe(rng, bundle.algebroid, scale=0.5) if x0 is None else PhasePoint(x0["q"], x0["p"])
    traj = integrate(bundle.algebroid, bundle.hamiltonian, x0, h, steps)
    Hs = traj.h_values()
    rates = np.array([s[3] for s in traj.samples])
    stride = max(1, steps // 100)
    return worst_residual(
        abs((Hs[i + 1] - Hs[i - 1]) / (2 * h) - rates[i]) for i in range(1, steps, stride)
    )


def check_dA_squared(bundle, cfg, rng):
    """Twice-applied skew differential on a random function and one-section."""
    P = bundle.prolongation()
    A = bundle.algebroid
    phi = random_phase_function(rng, A.n, A.m, degree=2)
    theta = np.array(
        [random_phase_function(rng, A.n, A.m, degree=1) for _ in range(2 * A.m)],
        dtype=object,
    )
    residuals = [d_squared_scalar_residual(P, phi, _probe(rng, A)) for _ in range(cfg["points"])]
    residuals.append(d_squared_oneform_residual(P, theta, _probe(rng, A)))
    return worst_residual(residuals)


# check -> (the class of verification.tolerances that sets its tolerance, or
# None; its default tolerance)
TOLERANCES = {
    "theorem43_equivalence": ("analytic", 1e-9),
    "omega_frame": (None, 1e-15),
    "omega_dlr_consistency": (None, 1e-8),
    "closedness": (None, 1e-8),
    "curvature_identities": ("fd", 1e-5),
    "structure_checks": (None, 1e-10),
    "split_consistency": (None, 1e-10),
    "legendre_equivalence": (None, 1e-6),
    "casimir_drift": (None, 1e-8),
    "energy_rate_fd": (None, 1e-6),
    "dA_squared": (None, 1e-8),
}

CHECKS = {
    "theorem43_equivalence": check_theorem43_equivalence,
    "omega_frame": check_omega_frame,
    "omega_dlr_consistency": check_omega_dlr_consistency,
    "closedness": check_closedness,
    "curvature_identities": check_curvature_identities,
    "structure_checks": check_structure_checks,
    "split_consistency": check_split_consistency,
    "legendre_equivalence": check_legendre_equivalence,
    "casimir_drift": check_casimir_drift,
    "energy_rate_fd": check_energy_rate_fd,
    "dA_squared": check_dA_squared,
}


def run_check(name, bundle: ScenarioBundle, cfg, seed) -> dict:
    """Run one registered check; ``cfg`` holds points/tolerance/extras.

    The tolerance is ``cfg["tolerance"]`` if given, else the check's default
    in :data:`TOLERANCES`.

    With ``expect_fail`` set, passing means the residual *exceeded* the
    tolerance, as expected for a negative control.
    """
    if name not in CHECKS:
        raise InputError(f"unknown check name {name!r}")
    rng = np.random.default_rng(seed)
    tolerance = float(cfg.get("tolerance", TOLERANCES[name][1]))
    residual = CHECKS[name](bundle, cfg, rng)
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

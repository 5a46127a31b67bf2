"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; all tolerances are pinned here.
"""

import numpy as np
import pytest

from algmech.algebroid import (
    canonical_tangent,
    structure_checks,
    structure_eval,
    sym_skew_parts,
)
from algmech.connections import (
    curvature_at,
    curvature_field,
    curvature_identity_residuals,
    default_split,
    levi_civita,
    metric_compatible_pair,
)
from algmech.fields import TensorField, tensor_from_config
from algmech.hamiltonian import PhasePoint, ham_field, integrate, rk4_step
from algmech.prolongation import (
    ProlongationData,
    closedness_residual,
    d_squared_oneform_residual,
    d_squared_scalar_residual,
    lr_ham_field,
    omega,
)
from algmech.randoms import (
    random_algebroid,
    random_curvature,
    random_phase_function,
    random_valid_split,
)
from algmech.scenarios import (
    build_canonical,
    build_constrained,
    build_contorsion,
    build_gradient_extension,
    lagrangian_reference,
)

from conftest import (
    build_euler_top,
    ctilde_display,
    curved_plane_metric,
    euler_hamiltonian,
    field_from_polynomial,
    generalized_so3_spec,
    harmonic_hamiltonian,
    monitor_values,
    nonjacobi_spec,
    so3_algebra,
    tr3_classical_spec,
)


def _report(number, ok, detail):
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _shipped_bundles():
    """The scenario families exercised by the cross-cutting criteria."""
    contorsion_T = np.zeros((3, 3, 3))
    contorsion_T[0, 0, 1] = 1.0
    bundles = {
        "canonical": build_canonical(1, harmonic_hamiltonian()),
        "euler_top": build_euler_top(),
        "gradient_extension": build_gradient_extension(
            curved_plane_metric(),
            tensor_from_config(
                [field_from_polynomial([(1.0, [0, 0])], 2), TensorField.zeros((), 2)], (2,), 2
            ),
        ),
        "constrained": build_constrained(tr3_classical_spec()),
        "generalized": build_constrained(generalized_so3_spec()),
        "contorsion": build_contorsion(
            TensorField.from_constants(np.eye(3), 3),
            T=TensorField.from_constants(contorsion_T, 3),
        ),
        "nonjacobi": build_constrained(nonjacobi_spec()),
    }
    return bundles


def _probe(rng, A, scale=1.0):
    return PhasePoint(
        rng.uniform(-scale, scale, A.n), rng.uniform(-scale, scale, A.m)
    )


def test_criterion_01_equivalence_of_the_two_routes():
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(20):
        A = random_algebroid(rng, degree=2)
        P = ProlongationData(A, default_split(A), TensorField.zeros((A.m,) * 4, A.n))
        for _ in range(5):
            H = random_phase_function(rng, A.n, A.m, degree=3)
            for _ in range(20):
                x = _probe(rng, A)
                lhs = lr_ham_field(P, H, x)
                rhs = ham_field(A, H, x)
                worst = max(
                    worst, np.max(np.abs(lhs - rhs)) / (1.0 + np.max(np.abs(rhs)))
                )
    # invariance under the splitting and the free curvature tensor
    drift = 0.0
    for _ in range(5):
        A = random_algebroid(rng, n=2, m=2, degree=2)
        H = random_phase_function(rng, 2, 2, degree=3)
        P0 = ProlongationData(A, default_split(A), TensorField.zeros((2,) * 4, 2))
        P1 = ProlongationData(A, random_valid_split(rng, A), random_curvature(rng, 2, 2))
        for _ in range(20):
            x = _probe(rng, A)
            f0 = lr_ham_field(P0, H, x)
            f1 = lr_ham_field(P1, H, x)
            drift = max(drift, np.max(np.abs(f1 - f0)) / (1.0 + np.max(np.abs(f0))))
    ok = worst <= 1e-9 and drift <= 1e-12
    _report(1, ok, f"route equivalence residual {worst:.2e} (<=1e-9), "
                   f"split/curvature invariance {drift:.2e} (<=1e-12)")


def test_criterion_02_frame_pairing_and_generic_route():
    worst_exact = 0.0
    rng = np.random.default_rng(2)
    for m in (1, 2, 3):
        A = random_algebroid(rng, n=1, m=m, degree=1)
        P = ProlongationData(A, default_split(A), TensorField.zeros((m,) * 4, 1))
        O = omega(P, PhasePoint([0.2], np.zeros(m)))
        block = np.zeros((2 * m, 2 * m))
        block[:m, m:] = np.eye(m)
        block[m:, :m] = -np.eye(m)
        worst_exact = max(worst_exact, np.max(np.abs(O - block)))
        worst_exact = max(worst_exact, abs(np.linalg.det(O) - 1.0))
    worst_dlr = 0.0
    for name, b in _shipped_bundles().items():
        P = b.prolongation()
        for _ in range(5):
            x = _probe(rng, b.algebroid)
            worst_dlr = max(
                worst_dlr,
                np.max(np.abs(omega(P, x, "generic_dlr") - omega(P, x, "frame_formula"))),
            )
    ok = worst_exact == 0.0 and worst_dlr <= 1e-8
    _report(2, ok, f"frame pairing exact (residual {worst_exact:.1e}), "
                   f"generic route gap {worst_dlr:.2e} (<=1e-8)")


def test_criterion_03_closedness():
    rng = np.random.default_rng(3)
    worst_zero = 0.0
    for name, b in _shipped_bundles().items():
        A = b.algebroid
        P = ProlongationData(A, b.split, TensorField.zeros((A.m,) * 4, A.n))
        for _ in range(5):
            worst_zero = max(worst_zero, closedness_residual(P, _probe(rng, A)))
    so3 = so3_algebra()
    Gam3 = levi_civita(so3, TensorField.from_constants(np.eye(3), 0))
    P3 = ProlongationData(so3, metric_compatible_pair(Gam3), curvature_field(so3, Gam3))
    worst_so3 = max(
        closedness_residual(P3, PhasePoint([], rng.uniform(-1, 1, 3))) for _ in range(10)
    )
    A2 = canonical_tangent(2)
    Gam2 = levi_civita(A2, curved_plane_metric())
    P2 = ProlongationData(A2, metric_compatible_pair(Gam2), curvature_field(A2, Gam2))
    worst_tr2 = max(closedness_residual(P2, _probe(rng, A2)) for _ in range(10))
    Rbad = np.zeros((3, 3, 3, 3))
    Rbad[0, 0, 1, 2] = 1.0
    Rbad[0, 1, 0, 2] = -1.0
    Pbad = ProlongationData(so3, default_split(so3), TensorField.from_constants(Rbad, 0))
    control = closedness_residual(Pbad, PhasePoint([], [1.0, 0.0, 0.0]))
    ok = worst_zero <= 1e-10 and worst_so3 <= 1e-8 and worst_tr2 <= 1e-5 and control >= 0.5
    _report(3, ok, f"closed: R=0 {worst_zero:.2e} (<=1e-10), metric-curvature "
                   f"{worst_so3:.2e} (<=1e-8) / {worst_tr2:.2e} (<=1e-5), "
                   f"negative control {control:.2f} (>=0.5)")


def test_criterion_04_curvature_identities():
    rng = np.random.default_rng(4)
    so3 = so3_algebra()
    Gam3 = levi_civita(so3, TensorField.from_constants(np.eye(3), 0))
    worst_const = 0.0
    for _ in range(50):
        rep = curvature_identity_residuals(curvature_at(so3, Gam3, []))
        worst_const = max(worst_const, rep.skew_residual, rep.bianchi_residual)
    A2 = canonical_tangent(2)
    Gam2 = levi_civita(A2, curved_plane_metric())
    worst_fd = 0.0
    for _ in range(50):
        rep = curvature_identity_residuals(curvature_at(A2, Gam2, rng.uniform(-1, 1, 2)))
        worst_fd = max(worst_fd, rep.skew_residual, rep.bianchi_residual)
    ok = worst_const <= 1e-10 and worst_fd <= 1e-5
    _report(4, ok, f"curvature identities: constant case {worst_const:.2e} (<=1e-10), "
                   f"derivative case {worst_fd:.2e} (<=1e-5)")


def test_criterion_05_euler_top():
    b = build_euler_top((1.0, 2.0, 3.0))
    field = ham_field(b.algebroid, b.hamiltonian, PhasePoint([], [1.0, 1.0, 1.0]))
    field_err = np.max(np.abs(field - np.array([-1 / 6, 2 / 3, -1 / 2])))
    traj = integrate(
        b.algebroid, b.hamiltonian, PhasePoint([], [1.0, 1.0, 1.0]), 1e-3, 10000, b.monitors
    )
    Hs = traj.h_values()
    cas = monitor_values(traj, "casimir")
    h_drift = np.max(np.abs(Hs - Hs[0]))
    c_drift = np.max(np.abs(cas - cas[0]))
    ok = field_err <= 1e-14 and h_drift <= 1e-8 and c_drift <= 1e-8
    _report(5, ok, f"rigid body: field error {field_err:.2e} (<=1e-14), "
                   f"energy drift {h_drift:.2e}, invariant drift {c_drift:.2e} (<=1e-8)")


def test_criterion_06_gradient_extension():
    G = curved_plane_metric()
    X = tensor_from_config(
        [field_from_polynomial([(1.0, [0, 0])], 2), TensorField.zeros((), 2)], (2,), 2
    )
    b = build_gradient_extension(G, X)
    h, steps = 1e-3, 1000
    traj = integrate(b.algebroid, b.hamiltonian, PhasePoint([0.2, 0.1], [0.3, -0.4]), h, steps)
    q = np.array([0.2, 0.1])
    marginal = 0.0
    for z in traj.states():
        marginal = max(marginal, np.max(np.abs(z[:2] - q)))
        q = rk4_step(lambda y: np.array([1.0, 0.0]), q, h)
    from algmech.connections import levi_civita as lc

    Gamma = lc(canonical_tangent(2), G)
    rng = np.random.default_rng(6)
    block = 0.0
    for _ in range(100):
        qq = rng.uniform(-1, 1, 2)
        p = rng.uniform(-1, 1, 2)
        out = ham_field(b.algebroid, b.hamiltonian, PhasePoint(qq, p))
        Gm = Gamma.eval(qq)
        expect = 2 * np.einsum("k,kij,i->j", p, Gm, np.array([1.0, 0.0]))
        block = max(block, np.max(np.abs(out[2:] - expect)))
    ok = marginal <= 1e-12 and block <= 1e-10
    _report(6, ok, f"gradient extension: base-flow marginal {marginal:.2e} (<=1e-12), "
                   f"momentum block {block:.2e} (<=1e-10)")


def test_criterion_07_legendre_equivalence():
    worst = {}
    spec_c = tr3_classical_spec()
    bc = build_constrained(spec_c)
    q0, v0 = np.array([0.4, -0.2, 0.1]), np.array([0.5, -0.3])
    traj = integrate(bc.algebroid, bc.hamiltonian, PhasePoint(q0, v0), 1e-3, 1000)
    ref = lagrangian_reference(spec_c, v0, q0, 1e-3, 1000)
    worst["classical"] = np.max(np.abs(traj.states() - ref))  # q and v of every sample
    spec_g = generalized_so3_spec()
    bg = build_constrained(spec_g)
    v0g = np.array([0.7, -0.4])
    traj_g = integrate(bg.algebroid, bg.hamiltonian, PhasePoint([], v0g), 1e-3, 1000)
    ref_g = lagrangian_reference(spec_g, v0g, [], 1e-3, 1000)
    worst["generalized"] = np.max(np.abs(traj_g.states() - ref_g))  # n = 0: v only
    ok = worst["classical"] <= 1e-6 and worst["generalized"] <= 1e-6
    _report(7, ok, f"velocity/momentum equivalence: classical {worst['classical']:.2e}, "
                   f"generalized {worst['generalized']:.2e} (<=1e-6)")


def test_criterion_08_torsion_energy_law():
    G = TensorField.from_constants(np.eye(3), 3)
    S = np.zeros((3, 3, 3))
    S[0, 0, 1] = 1.0
    skew = build_contorsion(G, S=TensorField.from_constants(S, 3))
    h = 1e-3
    x0 = PhasePoint(np.zeros(3), [1.0, 2.0, 3.0])
    traj = integrate(skew.algebroid, skew.hamiltonian, x0, h, 10000)
    Hs = traj.h_values()
    drift = np.max(np.abs(Hs - Hs[0]))

    def fd_gap(bundle, steps=1000):
        t = integrate(bundle.algebroid, bundle.hamiltonian, x0, h, steps)
        vals = t.h_values()
        rates = t.rate_values()
        gap = 0.0
        for i in range(1, steps, max(1, steps // 100)):
            gap = max(gap, abs((vals[i + 1] - vals[i - 1]) / (2 * h) - rates[i]))
        return gap

    direct = build_contorsion(G, T=TensorField.from_constants(S, 3))
    gap_skew = fd_gap(skew)
    gap_direct = fd_gap(direct)
    ok = drift <= 1e-8 and gap_skew <= 1e-6 and gap_direct <= 1e-6
    _report(8, ok, f"torsion energy law: skew drift {drift:.2e} (<=1e-8), "
                   f"rate-vs-difference {gap_skew:.2e}/{gap_direct:.2e} (<=1e-6)")


def test_criterion_09_projection_consistency():
    from algmech.scenarios import _AdaptedFrame

    rng = np.random.default_rng(9)
    worst_ct, worst_split = 0.0, 0.0
    frames = [(_AdaptedFrame(tr3_classical_spec()), 25), (_AdaptedFrame(generalized_so3_spec()), 1),
              (_AdaptedFrame(nonjacobi_spec()), 1)]
    for frame, npts in frames:
        for _ in range(npts):
            q = rng.uniform(-0.7, 0.7, frame.n)
            core = frame._compute_core(q)
            B, _, _ = frame.projected_structure_at(core)
            ct = ctilde_display(frame, q)
            Dl, Dr = frame.split_at(core, frame.christoffels(q, core))
            worst_ct = max(worst_ct, np.max(np.abs(ct - B)))
            worst_split = max(worst_split, np.max(np.abs(B - (Dl - np.swapaxes(Dr, 1, 2)))))
    worst_proj = 0.0
    for frame, npts in frames:
        for _ in range(min(npts, 25)):
            core = frame._compute_core(rng.uniform(-0.7, 0.7, frame.n))
            k = frame.k
            worst_proj = max(worst_proj, np.max(np.abs(core["P"] @ core["Pi"] - np.eye(k))))
            worst_proj = max(worst_proj, np.max(np.abs(core["P"][:, :k] - np.eye(k))))
    # Leibniz rule of the built left connection through the defining route
    frame = frames[0][0]
    g = field_from_polynomial([(0.5, [0, 1, 0]), (0.2, [2, 0, 0])], 3)
    worst_leib = 0.0
    for _ in range(25):
        q = rng.uniform(-0.7, 0.7, 3)
        core = frame._compute_core(q)
        Dl, _ = frame.split_at(core, frame.christoffels(q, core))
        Gam = frame.christoffels(q, core)
        P, Pi, rho = core["P"], core["Pi"], core["rho_new"]
        gv, gg = g.eval(q), g.gradient(q)
        for a in range(frame.k):
            for b in range(frame.k):
                def img(qq):
                    c = frame._compute_core(qq)
                    return c["Pi"][:, b] * g.eval(qq)

                dY = np.empty((frame.M, 3))
                for i in range(3):
                    qp, qm = q.copy(), q.copy()
                    qp[i] += frame.h
                    qm[i] -= frame.h
                    dY[:, i] = (img(qp) - img(qm)) / (2 * frame.h)
                inner = np.einsum("gm,m->g", Gam[:, a, :], Pi[:, b] * gv) + dY @ rho[:, a]
                route_a = P @ inner
                route_b = gv * Dl[:, a, b]
                route_b[b] += float(rho[:, a] @ gg)
                worst_leib = max(worst_leib, np.max(np.abs(route_a - route_b)))
    ok = worst_ct <= 1e-8 and worst_split <= 1e-8 and worst_proj <= 1e-8 and worst_leib <= 1e-8
    _report(9, ok, f"projection consistency: closed-form coefficients {worst_ct:.2e}, "
                   f"split difference {worst_split:.2e}, projectors {worst_proj:.2e}, "
                   f"Leibniz {worst_leib:.2e} (<=1e-8)")


def test_criterion_10_differential_calculus():
    rng = np.random.default_rng(10)
    # twice-applied skew differential on Lie-type lifted structures
    worst_lie = 0.0
    A2 = canonical_tangent(2)
    P2 = ProlongationData(A2, default_split(A2), TensorField.zeros((2,) * 4, 2))
    so3 = so3_algebra()
    Gam3 = levi_civita(so3, TensorField.from_constants(np.eye(3), 0))
    P3 = ProlongationData(so3, metric_compatible_pair(Gam3), curvature_field(so3, Gam3))
    for P in (P2, P3):
        A = P.base
        phi = random_phase_function(rng, A.n, A.m, degree=2)
        theta = tensor_from_config(
            [random_phase_function(rng, A.n, A.m, degree=1) for _ in range(2 * A.m)],
            (2 * A.m,),
            A.n + A.m,
        )
        for _ in range(3):
            x = _probe(rng, A)
            worst_lie = max(worst_lie, d_squared_scalar_residual(P, phi, x))
        worst_lie = max(worst_lie, d_squared_oneform_residual(P, theta, _probe(rng, A)))
    # the non-Jacobi projected bracket must be detected
    bnj = build_constrained(nonjacobi_spec())
    jac = structure_checks(bnj.algebroid, []).jacobiator_norm
    phi = random_phase_function(rng, 0, 3, degree=2)
    detected = d_squared_scalar_residual(
        bnj.prolongation(), phi, PhasePoint([], [1.0, 0.5, -0.8])
    )
    # decompose / recombine
    worst_rec = 0.0
    for _ in range(10):
        A = random_algebroid(rng)
        q = rng.uniform(-1, 1, A.n)
        s = structure_eval(A, q)
        B_A, rho_A, B_S, rho_S = sym_skew_parts(s)
        worst_rec = max(worst_rec, np.max(np.abs(B_A + B_S - s.B)))
        if A.n:
            worst_rec = max(worst_rec, np.max(np.abs(rho_A + rho_S - s.rho_l)))
            worst_rec = max(worst_rec, np.max(np.abs(rho_A - rho_S - s.rho_r)))
    ok = worst_lie <= 1e-8 and jac > 1e-3 and detected > 1e-3 and worst_rec <= 1e-14
    _report(10, ok, f"degree-raising calculus: squared differential {worst_lie:.2e} "
                    f"(<=1e-8), non-Jacobi detection {detected:.2e} (>1e-3, "
                    f"jacobiator {jac:.2e}), recombination {worst_rec:.2e} (<=1e-14)")

import itertools

import numpy as np
import pytest

from algmech.algebroid import structure_checks, structure_eval
from algmech.connections import verify_split
from algmech.errors import InputError
from algmech.fields import SmoothField, TensorField, field_from_polynomial, tensor_from_config
from algmech.hamiltonian import PhasePoint, energy_rate, ham_field, integrate
from algmech.scenarios import (
    ConstraintSpec,
    _AdaptedFrame,
    build_constrained,
    build_contorsion,
    build_euler_top,
    build_gradient_extension,
    lagrangian_reference,
)

from conftest import (
    ctilde_display,
    curved_plane_metric,
    generalized_curved_spec,
    generalized_so3_spec,
    nonjacobi_spec,
    se2r_algebra,
    tr3_classical_spec,
)
from algmech.algebroid import canonical_tangent, so3_algebra


# -- gradient extension -------------------------------------------------------


def test_gradient_extension_flat_dynamics():
    G = TensorField.from_constants(np.eye(2), 2)
    X = tensor_from_config(
        [field_from_polynomial([(1.0, [0, 1])], 2), field_from_polynomial([(1.0, [1, 0])], 2)],
        (2,),
        2,
    )
    b = build_gradient_extension(G, X)
    out = ham_field(b.algebroid, b.hamiltonian, PhasePoint([1.0, 2.0], [3.0, 4.0]))
    assert np.allclose(out, [2.0, 1.0, 4.0, 3.0], atol=1e-14)


def test_gradient_extension_zero_field_is_static():
    G = TensorField.from_constants(np.eye(2), 2)
    X = TensorField.zeros((2,), 2)
    b = build_gradient_extension(G, X)
    traj = integrate(b.algebroid, b.hamiltonian, PhasePoint([0.4, -0.3], [1.0, 2.0]), 1e-2, 20)
    z = traj.states()
    assert np.max(np.abs(z - z[0])) == 0.0


def test_gradient_extension_curved_momentum_block():
    """Momentum transport includes the Christoffel correction term."""
    G = curved_plane_metric()
    X = tensor_from_config(
        [field_from_polynomial([(1.0, [0, 0])], 2), SmoothField.zero(2)], (2,), 2
    )
    b = build_gradient_extension(G, X)
    rng = np.random.default_rng(0)
    from algmech.connections import levi_civita

    Gamma = levi_civita(canonical_tangent(2), G)
    for _ in range(20):
        q = rng.uniform(-1, 1, 2)
        p = rng.uniform(-1, 1, 2)
        out = ham_field(b.algebroid, b.hamiltonian, PhasePoint(q, p))
        Gm = Gamma.eval(q)
        Xv = np.array([1.0, 0.0])
        # dp_j = p_k (dX^k/dq_j + 2 Gamma[k, i, j] X^i); X is constant here
        expect = 2 * np.einsum("k,kij,i->j", p, Gm, Xv)
        assert np.allclose(out[:2], Xv, atol=1e-12)
        assert np.max(np.abs(out[2:] - expect)) <= 1e-10


def test_gradient_extension_q_marginal_matches_standalone_flow():
    from algmech.hamiltonian import rk4_step

    G = TensorField.from_constants(np.eye(2), 2)
    X = tensor_from_config(
        [field_from_polynomial([(1.0, [0, 1])], 2), field_from_polynomial([(-1.0, [1, 0])], 2)],
        (2,),
        2,
    )
    b = build_gradient_extension(G, X)
    traj = integrate(b.algebroid, b.hamiltonian, PhasePoint([0.3, 0.4], [0.2, 0.1]), 1e-2, 100)
    q = np.array([0.3, 0.4])
    for z in traj.states():
        assert np.array_equal(z[:2], q)
        q = rk4_step(lambda y: np.array([y[1], -y[0]]), q, 1e-2)


def test_gradient_extension_requires_spd_metric():
    bad = TensorField.from_constants(np.diag([1.0, -1.0]), 2)
    with pytest.raises(InputError):
        build_gradient_extension(bad, TensorField.zeros((2,), 2))


# -- Lie-Poisson / Euler top --------------------------------------------------


def test_euler_top_field_and_drift():
    b = build_euler_top((1.0, 2.0, 3.0))
    out = ham_field(b.algebroid, b.hamiltonian, PhasePoint([], [1.0, 1.0, 1.0]))
    assert np.max(np.abs(out - [-1 / 6, 2 / 3, -1 / 2])) <= 1e-14
    traj = integrate(b.algebroid, b.hamiltonian, PhasePoint([], [1.0, 1.0, 1.0]), 1e-3, 2000, b.monitors)
    c = traj.monitor_values("casimir")
    Hs = traj.h_values()
    assert np.max(np.abs(c - c[0])) <= 1e-9
    assert np.max(np.abs(Hs - Hs[0])) <= 1e-9


def test_euler_top_split_is_valid_and_curvature_consistent():
    b = build_euler_top()
    assert verify_split(b.algebroid, b.split, []) <= 1e-14
    R = b.curvature.eval([])
    assert np.max(np.abs(R + np.swapaxes(R, 1, 2))) <= 1e-14
    cyc = R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2))
    assert np.max(np.abs(cyc)) <= 1e-14


# -- constrained scenarios ----------------------------------------------------


def test_classical_projection_is_skew_with_equal_anchors():
    b = build_constrained(tr3_classical_spec())
    rng = np.random.default_rng(1)
    for _ in range(5):
        q = rng.uniform(-0.8, 0.8, 3)
        rep = structure_checks(b.algebroid, q)
        assert rep.skew_defect <= 1e-10
        s = structure_eval(b.algebroid, q)
        assert np.max(np.abs(s.rho_l - s.rho_r)) <= 1e-10


def test_full_constraint_recovers_ambient(so3):
    spec = ConstraintSpec(
        ambient=so3,
        metric=TensorField.from_constants(np.eye(3), 0),
        kinematic_basis=TensorField.from_constants(np.eye(3), 0),
    )
    b = build_constrained(spec)
    assert np.array_equal(structure_eval(b.algebroid, []).B, structure_eval(so3, []).B)
    out = ham_field(b.algebroid, b.hamiltonian, PhasePoint([], [1.0, 1.0, 1.0]))
    eul = build_euler_top((1.0, 1.0, 1.0))
    ref = ham_field(eul.algebroid, eul.hamiltonian, PhasePoint([], [1.0, 1.0, 1.0]))
    assert np.max(np.abs(out - ref)) <= 1e-14


def test_so3_plane_constraint_is_static():
    spec = ConstraintSpec(
        ambient=so3_algebra(),
        metric=TensorField.from_constants(np.eye(3), 0),
        kinematic_basis=tensor_from_config([[1, 0, 0], [0, 1, 0]], (2, 3), 0),
    )
    b = build_constrained(spec)
    assert np.all(structure_eval(b.algebroid, []).B == 0.0)
    out = ham_field(b.algebroid, b.hamiltonian, PhasePoint([], [0.4, -0.9]))
    assert np.all(out == 0.0)


def test_ctilde_display_matches_direct_and_split_difference():
    for spec in (tr3_classical_spec(), generalized_so3_spec(), nonjacobi_spec()):
        frame = _AdaptedFrame(spec)
        rng = np.random.default_rng(2)
        for _ in range(4):
            q = rng.uniform(-0.7, 0.7, frame.n)
            core = frame.core_at(q)
            B, _, _ = frame.projected_structure_at(core)
            ct = ctilde_display(frame, q)
            Dl, Dr = frame.split_at(q, core)
            assert np.max(np.abs(ct - B)) <= 1e-8
            assert np.max(np.abs(B - (Dl - np.swapaxes(Dr, 1, 2)))) <= 1e-8


def _ctilde_loop(core, k, n):
    """The closed-form projected coefficients, one entry and one product at a time."""
    C, g, dg, rho = core["C_new"], core["g"], core["dg"], core["rho_new"]
    GD = core["Ginv"][:k, :k]
    out = np.zeros((k, k, k))
    for a, b, c in itertools.product(range(k), repeat=3):
        acc = 0.0
        for d in range(k):
            val = C[a, d, b]
            val += float(g[a, :] @ C[k:, d, b])
            val -= float(g[d, :] @ C[a, k:, b])
            val -= float(g[d, :] @ (g[a, :] @ C[k:, k:, b]))
            if n:
                val -= float(g[d, :] @ (dg[a, :, :] @ rho[:, b]))
            acc += GD[c, d] * val
        out[a, b, c] = -acc
    return out


def test_ctilde_display_matches_entrywise_loop():
    specs = (tr3_classical_spec(), generalized_so3_spec(), nonjacobi_spec(), generalized_curved_spec())
    for spec in specs:
        frame = _AdaptedFrame(spec)
        rng = np.random.default_rng(4)
        for _ in range(3):
            q = rng.uniform(-0.7, 0.7, frame.n)
            ref = _ctilde_loop(frame.core_at(q), frame.k, frame.n)
            assert np.max(np.abs(ctilde_display(frame, q) - ref)) <= 1e-13 * (1 + np.max(np.abs(ref)))


def test_ctilde_display_on_a_curved_generalized_frame():
    # the cross block g varies over the base; the projected bracket reads the
    # variational projector's exact jet from the core
    frame = _AdaptedFrame(generalized_curved_spec())
    rng = np.random.default_rng(5)
    for _ in range(4):
        q = rng.uniform(-0.7, 0.7, frame.n)
        B, _, _ = frame.projected_structure_at(frame.core_at(q))
        assert np.max(np.abs(frame.core_at(q)["dg"])) > 0.01
        assert np.max(np.abs(ctilde_display(frame, q) - B)) <= 1e-13


# -- exact adapted-frame jet --------------------------------------------------


def _fd_jet(key, shape, frame, q, h=None):
    """A central-difference sweep of the core entry ``key``, by default with the frame's step.

    The stencil is one batch of the core, so its centre row must equal the
    core at ``q`` alone bit for bit.
    """
    return TensorField.from_array_fn(
        lambda Q: frame.core_at(Q)[key], shape, frame.n, h=h or frame.h
    ).eval_grad(q)


def test_exact_metric_and_projector_jets_match_central_differences():
    """``dG_new`` and ``dPi`` of a generalized frame over a curved chart, at 20 points.

    Central differences converge to them as O(h^2): the error falls 100x per
    decade of h until rounding, so 50x from 1e-3 to 1e-4 is required.
    """
    frame = _AdaptedFrame(generalized_curved_spec())
    M, k = frame.M, frame.k
    Q = np.random.default_rng(23).uniform(-0.7, 0.7, (20, frame.n))
    core = frame.core_at(Q)
    for key, shape, jet in (("G_new", (M, M), core["dG_new"]), ("Pi", (M, k), core["dPi"])):
        errors = [
            np.max(np.abs(jet - _fd_jet(key, shape, frame, Q, h)[1])) for h in (1e-3, 1e-4, 1e-5)
        ]
        assert errors[0] >= 50 * errors[1], (key, errors)
        assert errors[2] <= 1e-6 * (1 + np.max(np.abs(jet))), (key, errors)


@pytest.mark.parametrize("make_spec", [tr3_classical_spec, generalized_curved_spec])
def test_exact_frame_jet_matches_central_differences_of_gram_schmidt(make_spec):
    frame = _AdaptedFrame(make_spec())
    M, k = frame.M, frame.k
    rng = np.random.default_rng(21)
    for _ in range(5):
        q = rng.uniform(-0.7, 0.7, frame.n)
        U, dU = frame.core_at(q)["U"], frame.core_at(q)["dU"]
        U_fd, dU_fd = _fd_jet("U", (M, M), frame, q)
        assert np.array_equal(U, U_fd)
        assert np.max(np.abs(np.moveaxis(dU, 0, 2) - dU_fd)) <= 1e-7
        # the cross Gram block's jet, formerly a sweep over core points
        _, dg_fd = _fd_jet("g", (k, M - k), frame, q)
        assert np.max(np.abs(frame.core_at(q)["dg"] - dg_fd)) <= 1e-7


@pytest.mark.parametrize("make_spec", [tr3_classical_spec, generalized_curved_spec])
def test_frame_jet_keeps_the_metric_orthonormal_blocks(make_spec):
    """d(U^T G U) vanishes on the orthonormal blocks; the metric jet is taken here."""
    spec = make_spec()
    frame = _AdaptedFrame(spec)
    k = frame.k
    rng = np.random.default_rng(22)
    # the first point lies 0.003 off the plane q2 = 0, where tr3's completion
    # switches unit vector and its last column is ill-conditioned
    points = [np.array([0.461, -0.0027, 0.27])[: frame.n]]
    points += [rng.uniform(-0.8, 0.8, frame.n) for _ in range(20)]
    for q in points:
        U, dU = frame.core_at(q)["U"], frame.core_at(q)["dU"]
        Gv, Gg = spec.metric.eval_grad(q)
        D = np.swapaxes(dU, 1, 2) @ Gv @ U + U.T @ np.moveaxis(Gg, 2, 0) @ U + U.T @ Gv @ dU
        assert np.max(np.abs(D[:, :k, :k])) <= 1e-12
        assert np.max(np.abs(D[:, k:, k:])) <= 1e-12
        if spec.classical:
            assert np.max(np.abs(D)) <= 1e-12


def _frame_loop(spec, q):
    """The adapted frame at one point, one vector and one product at a time.

    The pointwise metric Gram-Schmidt and completion loop that the stacked
    frame replaces, kept as its reference.
    """
    n, M, k = spec.ambient.n, spec.ambient.m, spec.rank
    Gv = spec.metric.eval(q)

    def gram_schmidt(rows):
        kept = []
        for v in rows:
            w = np.array(v, dtype=float)
            for u in kept:
                w = w - u * float(u @ Gv @ w)
            kept.append(w / np.sqrt(float(w @ Gv @ w)))
        return kept

    d_frame = gram_schmidt(spec.kinematic_basis.eval(q))
    span = list(d_frame)
    if not spec.classical:
        span = gram_schmidt(spec.variational_basis.eval(q))
    perp = []
    for mu in range(M):
        if len(perp) == M - k:
            break
        w = np.eye(M)[mu]
        for u in span + perp:
            w = w - u * float(u @ Gv @ w)
        nrm = float(w @ Gv @ w)
        if nrm > 1e-8:
            perp.append(w / np.sqrt(nrm))
    return np.column_stack(d_frame + perp)


@pytest.mark.parametrize(
    "make_spec", [tr3_classical_spec, generalized_curved_spec, generalized_so3_spec, nonjacobi_spec]
)
def test_stacked_frame_matches_the_pointwise_loop(make_spec):
    """The stacked frame over a batch is the per-point loop's frame to rounding.

    The arithmetic order differs (the seed span is projected off every unit
    vector at once), so the frames agree to a few hundred ulps: 1e-12, the
    completion column near tr3's switch plane included.
    """
    spec = make_spec()
    frame = _AdaptedFrame(spec)
    n = spec.ambient.n
    Q = np.random.default_rng(24).uniform(-0.8, 0.8, (12, n))
    if n == 3:
        Q[0] = [0.461, -0.0027, 0.27]
    U = frame.core_at(Q)["U"]
    for q, Uq in zip(Q, U):
        assert np.max(np.abs(Uq - _frame_loop(spec, q))) <= 1e-12


def test_one_gram_schmidt_frame_per_core_point(frame_calls):
    """Every core_at call is one frame evaluation: a repeated point is evaluated again."""
    frame = _AdaptedFrame(tr3_classical_spec())
    rng = np.random.default_rng(23)
    for _ in range(3):
        q = rng.uniform(-0.7, 0.7, 3)
        frame.core_at(q)
        frame.core_at(q)
    assert frame_calls == [1] * 6


def test_projector_identities():
    for spec in (generalized_so3_spec(), nonjacobi_spec()):
        frame = _AdaptedFrame(spec)
        core = frame.core_at(np.zeros(0))
        k = frame.k
        P, Pi, G = core["P"], core["Pi"], core["G_new"]
        assert np.max(np.abs(P[:, :k] - np.eye(k))) <= 1e-10  # P fixes the subbundle
        assert np.max(np.abs(P[:, k:] - core["g"])) <= 1e-10  # P on the complement
        assert np.max(np.abs(P @ Pi - np.eye(k))) <= 1e-10  # P o Pi restricted = id
        # the variational image is metric-orthogonal to the completion frame
        assert np.max(np.abs((G @ Pi)[k:, :])) <= 1e-10


def test_generalized_bracket_non_skew():
    b = build_constrained(generalized_so3_spec())
    rep = structure_checks(b.algebroid, [])
    assert rep.skew_defect > 0.5
    s = structure_eval(b.algebroid, [])
    assert abs(s.B[0, 1, 1] - 1.0) <= 1e-12  # self-bracket of the tilted section


def test_constrained_split_validates():
    for spec in (tr3_classical_spec(), generalized_so3_spec()):
        b = build_constrained(spec)
        rng = np.random.default_rng(3)
        for _ in range(5):
            q = rng.uniform(-0.5, 0.5, b.algebroid.n)
            assert verify_split(b.algebroid, b.split, q) <= 1e-10


def test_rank_deficient_basis_rejected():
    spec_kwargs = dict(
        ambient=so3_algebra(),
        metric=TensorField.from_constants(np.eye(3), 0),
    )
    with pytest.raises(InputError):
        build_constrained(
            ConstraintSpec(
                kinematic_basis=tensor_from_config([[1, 0, 0], [2, 0, 0]], (2, 3), 0),
                **spec_kwargs,
            )
        )


def test_variational_rank_mismatch_rejected():
    with pytest.raises(InputError):
        ConstraintSpec(
            ambient=so3_algebra(),
            metric=TensorField.from_constants(np.eye(3), 0),
            kinematic_basis=tensor_from_config([[1, 0, 0], [0, 1, 0]], (2, 3), 0),
            variational_basis=tensor_from_config([[1, 0, 0]], (1, 3), 0),
        )


def test_compatibility_failure_names_point():
    # variational complement contains part of the kinematic subbundle:
    # D = span{e1, e2}, variational includes e3 only, complement = {e1,e2}-plane
    with pytest.raises(InputError):
        spec = ConstraintSpec(
            ambient=so3_algebra(),
            metric=TensorField.from_constants(np.eye(3), 0),
            kinematic_basis=tensor_from_config([[1, 0, 0], [0, 1, 0]], (2, 3), 0),
            variational_basis=tensor_from_config([[0, 0, 1], [1, 0, 0]], (2, 3), 0),
        )
        build_constrained(spec)


# -- Legendre equivalence -----------------------------------------------------


def test_legendre_classical():
    spec = tr3_classical_spec()
    b = build_constrained(spec)
    q0 = np.array([0.4, -0.2, 0.1])
    v0 = np.array([0.5, -0.3])
    traj = integrate(b.algebroid, b.hamiltonian, PhasePoint(q0, v0), 1e-3, 300)
    ref = lagrangian_reference(spec, v0, q0, 1e-3, 300)
    assert ref.shape == traj.states().shape == (301, 5)
    worst = 0.0
    for z, y in zip(traj.states(), ref):
        worst = max(worst, np.max(np.abs(z[:3] - y[:3])), np.max(np.abs(z[3:] - y[3:])))
    assert worst <= 1e-6


def test_legendre_generalized():
    spec = generalized_so3_spec()
    b = build_constrained(spec)
    v0 = np.array([0.7, -0.4])
    traj = integrate(b.algebroid, b.hamiltonian, PhasePoint([], v0), 1e-3, 500)
    ref = lagrangian_reference(spec, v0, [], 1e-3, 500)
    worst = max(np.max(np.abs(z - v)) for z, v in zip(traj.states(), ref))  # n = 0: z = p
    assert worst <= 1e-6


def test_legendre_free_particle():
    spec = ConstraintSpec(
        ambient=canonical_tangent(2),
        metric=TensorField.from_constants(np.eye(2), 2),
        kinematic_basis=TensorField.from_constants(np.eye(2), 2),
    )
    ref = lagrangian_reference(spec, [0.3, -0.1], [0.0, 0.0], 1e-2, 50)
    assert ref.shape == (51, 4)
    for k, (q, v) in enumerate(zip(ref[:, :2], ref[:, 2:])):
        t = k * 1e-2
        assert np.allclose(v, [0.3, -0.1], atol=1e-14)
        assert np.allclose(q, np.array([0.3, -0.1]) * t, atol=1e-12)


def test_legendre_euler_top_via_full_constraint(so3):
    # inertia-weighted metric; the adapted frame diagonalizes it, and the
    # velocity-side trajectory maps onto the momentum-side one exactly
    spec = ConstraintSpec(
        ambient=so3,
        metric=TensorField.from_constants(np.diag([1.0, 2.0, 3.0]), 0),
        kinematic_basis=TensorField.from_constants(np.eye(3), 0),
    )
    b = build_constrained(spec)
    v0 = np.array([0.2, -0.4, 0.3])
    traj = integrate(b.algebroid, b.hamiltonian, PhasePoint([], v0), 1e-3, 1000)
    ref = lagrangian_reference(spec, v0, [], 1e-3, 1000)
    worst = max(np.max(np.abs(z - v)) for z, v in zip(traj.states(), ref))  # n = 0: z = p
    assert worst <= 1e-6


# -- contorsion ---------------------------------------------------------------


def _single_entry_tensor(n, idx, value=1.0):
    out = np.zeros((n, n, n))
    out[idx] = value
    return out


def test_contorsion_skew_conserves_energy():
    G = TensorField.from_constants(np.eye(3), 3)
    S = TensorField.from_constants(_single_entry_tensor(3, (0, 0, 1)), 3)
    b = build_contorsion(G, S=S)
    s = structure_eval(b.algebroid, np.zeros(3))
    assert s.B[0, 0, 1] == 1.0 and s.B[0, 1, 0] == -1.0
    x = PhasePoint(np.zeros(3), [1.0, 2.0, 3.0])
    assert abs(energy_rate(b.algebroid, b.hamiltonian, x)) <= 1e-14
    traj = integrate(b.algebroid, b.hamiltonian, x, 1e-3, 2000, b.monitors)
    Hs = traj.h_values()
    assert np.max(np.abs(Hs - Hs[0])) <= 1e-9


def test_contorsion_symmetric_part_cancels():
    G = TensorField.from_constants(np.eye(2), 2)
    S = np.zeros((2, 2, 2))
    S[0, 0, 1] = 1.0
    S[0, 1, 0] = 1.0
    b = build_contorsion(G, S=TensorField.from_constants(S, 2))
    assert np.all(structure_eval(b.algebroid, np.zeros(2)).B == 0.0)


def test_contorsion_direct_torsion_dissipates():
    G = TensorField.from_constants(np.eye(3), 3)
    T = TensorField.from_constants(_single_entry_tensor(3, (0, 0, 1)), 3)
    b = build_contorsion(G, T=T)
    x = PhasePoint(np.zeros(3), [1.0, 2.0, 3.0])
    assert abs(energy_rate(b.algebroid, b.hamiltonian, x) - 2.0) <= 1e-14
    # the dissipation monitor records the self-bracket of H
    assert abs(b.monitors["dissipation"].value(x.z) + 2.0) <= 1e-14


def test_contorsion_rejects_both_or_neither():
    G = TensorField.from_constants(np.eye(2), 2)
    T = TensorField.zeros((2, 2, 2), 2)
    with pytest.raises(InputError):
        build_contorsion(G)
    with pytest.raises(InputError):
        build_contorsion(G, S=T, T=T)


def test_contorsion_energy_rate_matches_fd_along_flow():
    G = TensorField.from_constants(np.eye(3), 3)
    T = TensorField.from_constants(_single_entry_tensor(3, (0, 0, 1)), 3)
    b = build_contorsion(G, T=T)
    h = 1e-3
    traj = integrate(b.algebroid, b.hamiltonian, PhasePoint(np.zeros(3), [1.0, 2.0, 3.0]), h, 400)
    Hs = traj.h_values()
    rates = traj.rate_values()
    for i in range(1, 399, 20):
        fd = (Hs[i + 1] - Hs[i - 1]) / (2 * h)
        assert abs(fd - rates[i]) <= 1e-6


# -- non-Jacobi projection ----------------------------------------------------


def test_nonjacobi_instance_profile():
    b = build_constrained(nonjacobi_spec())
    rep = structure_checks(b.algebroid, [])
    assert rep.skew_defect <= 1e-12
    assert abs(rep.jacobiator_norm - 0.19245008972987568) <= 1e-9


def test_adapted_frame_is_freed_after_use():
    """The frame's fields close over the frame; the cycle must stay collectable."""
    import gc
    import weakref

    from algmech import scenarios

    frame = scenarios._AdaptedFrame(tr3_classical_spec())
    q = np.array([0.1, -0.2, 0.3])
    frame.projected_structure_at(frame.core_at(q))
    ref = weakref.ref(frame)
    del frame
    gc.collect()
    assert ref() is None


# -- the lifted structure of a bundle is built once -----------------------------


def test_a_bundle_builds_its_lifted_structure_once():
    from algmech.config import build_scenario

    bundle, _ = build_scenario({"scenario": "canonical", "n": 1, "hamiltonian": 1.0})
    P = bundle.prolongation()
    assert bundle.prolongation() is P and P.split is bundle.split


def test_an_overridden_curvature_is_the_one_the_lifted_structure_reads():
    """A constrained bundle rebuilt with its own curvature does not read the frame's."""
    import pathlib

    from algmech.config import build_scenario, load_config
    from algmech.prolongation import prolong_eval

    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "nonholonomic_classical.json"
    scenario = load_config(path).scenario
    x = PhasePoint(np.random.default_rng(5).uniform(-0.5, 0.5, (4, 3)), [[0.3, -0.2]] * 4)
    k = 2
    own = prolong_eval(build_scenario(scenario)[0].prolongation(), x).B[:, k:, :k, :k]
    assert np.max(np.abs(own)) > 1e-3  # the frame's curvature is not zero here
    zero, _ = build_scenario({**scenario, "curvature": "zero"})
    assert np.all(prolong_eval(zero.prolongation(), x).B[:, k:, :k, :k] == 0.0)


def test_a_gradient_extension_rk4_step_solves_the_koszul_relation_at_most_twice(monkeypatch):
    """Two of the four stages of a step sit on the base point of the stage before them."""
    import pathlib

    import algmech.connections as connections
    from algmech.config import build_scenario, initial_point, load_config

    solves = []
    christoffels_at = connections.christoffels_at

    def counted(*args):
        solves.append(1)
        return christoffels_at(*args)

    monkeypatch.setattr(connections, "christoffels_at", counted)
    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "gradient_extension.json"
    cfg = load_config(path)
    bundle, _ = build_scenario(cfg.scenario)
    solves.clear()
    steps = 50
    x0 = initial_point(cfg.integration, bundle)
    integrate(bundle.algebroid, bundle.hamiltonian, x0, cfg.integration["h"], steps)
    assert len(solves) <= 2 * steps + 1  # the initial state, then at most two a step


def test_a_bundle_with_an_overridden_split_checks_its_own_pair():
    from algmech.config import _apply_overrides, build_scenario
    from algmech.errors import InvalidStructureError

    scenario = {"scenario": "lie_poisson", "structure": "so3", "inertia": [1.0, 2.0, 3.0]}
    bundle, _ = build_scenario(scenario)
    P = bundle.prolongation()
    default = _apply_overrides(bundle, {"split": "default"})
    assert default.prolongation() is not P and default.prolongation().split is default.split
    bad = np.zeros((3, 3, 3)).tolist()  # Dl - Dr must give the so(3) bracket, not 0
    broken = _apply_overrides(bundle, {"split": {"Dl": bad, "Dr": bad}})
    with pytest.raises(InvalidStructureError):
        broken.prolongation()
    assert bundle.prolongation() is P


@pytest.mark.parametrize(
    "override",
    [
        {"curvature": "scenario"},
        {"split": "scenario"},
        {"curvature": "scenario", "split": "scenario"},
    ],
    ids=["curvature", "split", "both"],
)
def test_a_scenario_override_keeps_the_one_evaluation_base(frame_calls, monkeypatch, override):
    """"scenario" keeps the builder's choice, and with it the builder's lifted base.

    A prolong_eval at 4 points on nonholonomic_classical is one frame evaluation
    over their stencil, and on gradient_extension one Koszul solve.
    """
    import pathlib

    import algmech.connections as connections
    import algmech.scenarios as scenarios
    from algmech.config import build_scenario, load_config
    from algmech.prolongation import prolong_eval

    solves = []
    christoffels_at = connections.christoffels_at

    def counted(*args):
        solves.append(1)
        return christoffels_at(*args)

    for module in (connections, scenarios):  # levi_civita's and the frame's solve
        monkeypatch.setattr(module, "christoffels_at", counted)
    configs = pathlib.Path(__file__).resolve().parents[1] / "configs"
    counts = {}
    for name in ("nonholonomic_classical", "gradient_extension"):
        scenario = load_config(configs / f"{name}.json").scenario
        for extra in ({}, override):
            bundle, _ = build_scenario({**scenario, **extra})
            P = bundle.prolongation()
            A = bundle.algebroid
            rng = np.random.default_rng(8)
            x = PhasePoint(rng.uniform(-0.5, 0.5, (4, A.n)), rng.uniform(-0.5, 0.5, (4, A.m)))
            frame_calls.clear()
            solves.clear()
            prolong_eval(P, x)
            counts[name, bool(extra)] = (list(frame_calls), len(solves))
    assert counts["nonholonomic_classical", False] == ([28], 1)
    assert counts["gradient_extension", False] == ([], 1)
    for name in ("nonholonomic_classical", "gradient_extension"):
        assert counts[name, True] == counts[name, False], name

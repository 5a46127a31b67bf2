import collections
import itertools
import math
import re
import warnings

import numpy as np
import pytest

from algmech import connections, scenarios
from algmech.algebroid import (
    AlgebroidStructure, _structure_values, base_probes, structure_checks, structure_eval,
)
from algmech.connections import verify_split
from algmech.errors import InputError
from algmech.fields import TensorField, tensor_from_config
from algmech.hamiltonian import PhasePoint, energy_rate, ham_field, integrate
from algmech.scenarios import (
    ConstraintSpec,
    _AdaptedFrame,
    build_constrained,
    build_contorsion,
    build_gradient_extension,
    euler_top_hamiltonian,
    lagrangian_reference,
)

from conftest import (
    build_euler_top,
    ctilde_display,
    curved_plane_metric,
    field_from_polynomial,
    generalized_curved_spec,
    generalized_so3_inertia_spec,
    generalized_so3_spec,
    monitor_values,
    nonjacobi_spec,
    se2r_algebra,
    so3_algebra,
    tr3_classical_spec,
)
from algmech.algebroid import canonical_tangent


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
        [field_from_polynomial([(1.0, [0, 0])], 2), TensorField.zeros((), 2)], (2,), 2
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


@pytest.mark.parametrize("bad", ["metric", "vector_field"])
def test_gradient_extension_refuses_data_of_another_arity(bad):
    """A metric or a vector field over a chart of another dimension is refused by name."""
    G = TensorField.from_constants(np.eye(2), 3 if bad == "metric" else 2)
    X = TensorField.from_constants([1.0, 0.0], 3 if bad == "vector_field" else 2)
    with pytest.raises(InputError, match="arity 3"):
        build_gradient_extension(G, X)


# -- Lie-Poisson / Euler top --------------------------------------------------


def test_euler_top_field_and_drift():
    b = build_euler_top((1.0, 2.0, 3.0))
    out = ham_field(b.algebroid, b.hamiltonian, PhasePoint([], [1.0, 1.0, 1.0]))
    assert np.max(np.abs(out - [-1 / 6, 2 / 3, -1 / 2])) <= 1e-14
    traj = integrate(b.algebroid, b.hamiltonian, PhasePoint([], [1.0, 1.0, 1.0]), 1e-3, 2000, b.monitors)
    c = monitor_values(traj, "casimir")
    Hs = traj.h_values()
    assert np.max(np.abs(c - c[0])) <= 1e-9
    assert np.max(np.abs(Hs - Hs[0])) <= 1e-9


@pytest.mark.parametrize("inertia", [0.0, -1.0, 1e-320, math.nan])
def test_euler_top_hamiltonian_refuses_an_inertia_without_a_finite_coefficient(inertia):
    """Each 1/(2 I) must be finite and positive; the builder says so and warns nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="inertia entries must be > 0"):
            euler_top_hamiltonian([inertia, 2.0, 3.0])


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
            core = frame._compute_core(q)
            B, _, _ = frame.projected_structure_at(core)
            ct = ctilde_display(frame, q)
            Dl, Dr = frame.split_at(core, frame.christoffels(q, core))
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
            ref = _ctilde_loop(frame._compute_core(q), frame.k, frame.n)
            assert np.max(np.abs(ctilde_display(frame, q) - ref)) <= 1e-13 * (1 + np.max(np.abs(ref)))


def test_ctilde_display_on_a_curved_generalized_frame():
    # the cross block g varies over the base; the projected bracket reads the
    # variational projector's exact jet from the core
    frame = _AdaptedFrame(generalized_curved_spec())
    rng = np.random.default_rng(5)
    for _ in range(4):
        q = rng.uniform(-0.7, 0.7, frame.n)
        B, _, _ = frame.projected_structure_at(frame._compute_core(q))
        assert np.max(np.abs(frame._compute_core(q)["dg"])) > 0.01
        assert np.max(np.abs(ctilde_display(frame, q) - B)) <= 1e-13


# -- exact adapted-frame jet --------------------------------------------------


def _fd_jet(key, shape, frame, q, h=None):
    """A central-difference sweep of the core entry ``key``, by default with the frame's step.

    The stencil is one batch of the core, so its centre row must equal the
    core at ``q`` alone bit for bit.
    """
    return TensorField.from_array_fn(
        lambda Q: frame._compute_core(Q)[key], shape, frame.n, h=h or frame.h
    ).eval_grad(q)


def test_exact_metric_and_projector_jets_match_central_differences():
    """``dG_new`` and ``dPi`` of a generalized frame over a curved chart, at 20 points.

    Central differences converge to them as O(h^2): the error falls 100x per
    decade of h until rounding, so 50x from 1e-3 to 1e-4 is required.
    """
    frame = _AdaptedFrame(generalized_curved_spec())
    M, k = frame.M, frame.k
    Q = np.random.default_rng(23).uniform(-0.7, 0.7, (20, frame.n))
    core = frame._compute_core(Q)
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
        U, dU = frame._compute_core(q)["U"], frame._compute_core(q)["dU"]
        U_fd, dU_fd = _fd_jet("U", (M, M), frame, q)
        assert np.array_equal(U, U_fd)
        assert np.max(np.abs(np.moveaxis(dU, 0, 2) - dU_fd)) <= 1e-7
        # the cross Gram block's jet, formerly a sweep over core points
        _, dg_fd = _fd_jet("g", (k, M - k), frame, q)
        assert np.max(np.abs(frame._compute_core(q)["dg"] - dg_fd)) <= 1e-7


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
        U, dU = frame._compute_core(q)["U"], frame._compute_core(q)["dU"]
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
    U = frame._compute_core(Q)["U"]
    for q, Uq in zip(Q, U):
        assert np.max(np.abs(Uq - _frame_loop(spec, q))) <= 1e-12


def test_one_gram_schmidt_frame_per_core_point(frame_calls):
    """Every _compute_core call is one frame evaluation: a repeated point is evaluated again."""
    frame = _AdaptedFrame(tr3_classical_spec())
    rng = np.random.default_rng(23)
    for _ in range(3):
        q = rng.uniform(-0.7, 0.7, 3)
        frame._compute_core(q)
        frame._compute_core(q)
    assert frame_calls == [1] * 6


def test_projector_identities():
    for spec in (generalized_so3_spec(), nonjacobi_spec()):
        frame = _AdaptedFrame(spec)
        core = frame._compute_core(np.zeros(0))
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


@pytest.mark.parametrize("skew, anchor, named, probe", [
    (False, None, "bracket not skew", 0),  # fails at every probe: the origin is named
    (True, "q", "anchors differ", 1),  # equal at the origin only
    (False, "q", "bracket not skew", 0),  # the origin's own failure
    (False, "1", "anchors differ", 0),  # both fail there: the anchors are checked first
])
def test_the_lie_type_check_names_the_first_failing_probe(skew, anchor, named, probe):
    """Over a line, M = 2: the first construction probe in row order that fails is named."""
    B = np.zeros((2, 2, 2))
    if not skew:
        B[0, 0, 1] = 1.0
    q = field_from_polynomial([(1.0, [1])], 1)
    rho = {None: [[0.0, 0.0]], "1": [[1.0, 0.0]], "q": [[q, 0.0]]}
    ambient = AlgebroidStructure(
        n=1, m=2, bracket=TensorField.from_constants(B, 1),
        anchor_left=tensor_from_config(rho[anchor], (1, 2), 1),
        anchor_right=TensorField.from_constants([[0.0, 0.0]], 1),
    )
    point = base_probes(1, seed=scenarios._PROBE_SEED)[probe].tolist()
    with pytest.raises(InputError, match=f"Lie-type: ambient {named} at {re.escape(str(point))}$"):
        ConstraintSpec(
            ambient=ambient,
            metric=TensorField.from_constants(np.eye(2), 1),
            kinematic_basis=TensorField.from_constants([[1.0, 0.0]], 1),
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


# spec -> (builder, q0, v0, whether p(t) moves); generalized_so3 is the shipped
# generalized_servo, whose constrained field is zero
LEGENDRE_SPECS = {
    "tr3_classical": (tr3_classical_spec, [0.4, -0.2, 0.1], [0.5, -0.3], True),
    "generalized_curved": (generalized_curved_spec, [0.3, -0.2], [0.4, 0.2], True),
    "generalized_so3": (generalized_so3_spec, [], [0.7, -0.4], False),
    "generalized_so3_inertia": (generalized_so3_inertia_spec, [], [0.7, -0.4], True),
}


@pytest.mark.parametrize("name", list(LEGENDRE_SPECS))
def test_legendre_reference_never_evaluates_the_adapted_frame(monkeypatch, name):
    make, q0, v0, _ = LEGENDRE_SPECS[name]
    spec = make()

    def refuse(*args):
        raise AssertionError("the reference evaluated the adapted frame or its Christoffels")

    monkeypatch.setattr(_AdaptedFrame, "_compute_core", refuse)
    monkeypatch.setattr(connections, "christoffels_at", refuse)
    monkeypatch.setattr(scenarios, "christoffels_at", refuse)
    ref = lagrangian_reference(spec, v0, q0, 1e-3, 50)
    assert ref.shape == (51, len(q0) + len(v0)) and np.isfinite(ref).all()


@pytest.mark.parametrize("name", list(LEGENDRE_SPECS))
def test_legendre_reference_agrees_with_the_momentum_route(name):
    make, q0, v0, moves = LEGENDRE_SPECS[name]
    spec = make()
    b = build_constrained(spec)
    Z = integrate(b.algebroid, b.hamiltonian, PhasePoint(q0, v0), 1e-3, 300).states()
    ref = lagrangian_reference(spec, v0, q0, 1e-3, 300)
    assert np.max(np.abs(Z - ref)) <= 1e-12
    # a constant p(t) would make the comparison an identity
    assert (np.max(np.abs(Z[:, len(q0):] - Z[0, len(q0):])) > 1e-3) == moves


@pytest.mark.parametrize("make", [generalized_so3_spec, generalized_so3_inertia_spec])
def test_legendre_reference_reads_data_over_a_point_once(monkeypatch, make):
    spec = make()
    reads = collections.Counter()
    for method in ("eval", "eval_grad"):

        def counted(self, q, read=getattr(TensorField, method)):
            reads[id(self)] += 1
            return read(self, q)

        monkeypatch.setattr(TensorField, method, counted)
    structure = scenarios.structure_eval

    def counted_structure(A, q):
        reads["structure"] += 1
        return structure(A, q)

    monkeypatch.setattr(scenarios, "structure_eval", counted_structure)
    lagrangian_reference(spec, [0.7, -0.4], [], 1e-3, 100)
    tensors = (spec.metric, spec.kinematic_basis, spec.variational_basis)
    assert reads == {**{id(T): 1 for T in tensors}, "structure": 1}


STEP_MESSAGE = "step size h must be a finite number > 0"
STEPS_MESSAGE = "steps must be an integer >= 1"


@pytest.mark.parametrize(
    "h,steps,message",
    [(h, 10, STEP_MESSAGE) for h in (-1e-3, 0.0, float("nan"), float("inf"))]
    + [(1e-3, steps, STEPS_MESSAGE) for steps in (0, float("nan"), 2.7, True, "3")],
)
def test_legendre_reference_refuses_the_steps_that_integrate_refuses(h, steps, message):
    make, q0, v0, _ = LEGENDRE_SPECS["tr3_classical"]
    with pytest.raises(InputError, match=message):
        lagrangian_reference(make(), v0, q0, h, steps)


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
    assert abs(b.monitors["dissipation"].eval(x.z) + 2.0) <= 1e-14


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
    frame.projected_structure_at(frame._compute_core(q))
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


def test_a_gradient_extension_stage_at_a_fresh_point_is_one_metric_jet_and_one_solve(monkeypatch):
    """The tangent frame is read when the bracket is built, never by an RK4 stage.

    Each distinct stage point reads the metric and the Koszul right-hand side
    from one product of the packed Koszul table: no tensor's ``eval_grad``
    and no ``_koszul_rhs`` run in a stage, and the point makes one
    ``check_metric`` and one ``christoffels_at``; a stage on the point
    before it does none of these.
    """
    import pathlib
    import sys

    from algmech.config import initial_point, load_config

    path = pathlib.Path(__file__).resolve().parents[1] / "configs" / "gradient_extension.json"
    cfg = load_config(path)
    n = 2
    G = tensor_from_config(cfg.scenario["metric"], (n, n), n)
    X = tensor_from_config(cfg.scenario["vector_field"], (n,), n)
    bundle = build_gradient_extension(G, X)
    A = bundle.algebroid
    fresh, others = [], []
    calls = collections.Counter()

    def counted_structure_values(module):
        def counted(S, q):
            # integrate reads the structure only at a stage point that differs from the last
            if S is A:
                fresh.append(np.asarray(q).tobytes())
            else:
                others.append(module)
            return _structure_values(S, q)

        return counted

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # structure_eval (in ham_field, at the initial state) and the stage kernel read it
    for name, module in list(sys.modules.items()):
        if name.startswith("algmech") and hasattr(module, "_structure_values"):
            monkeypatch.setattr(module, "_structure_values", counted_structure_values(name))
    monkeypatch.setattr(TensorField, "eval_grad", counted("eval_grad", TensorField.eval_grad))
    for name in ("_koszul_rhs", "check_metric", "christoffels_at"):
        monkeypatch.setattr(connections, name, counted(name, getattr(connections, name)))
    steps = 40
    x0 = initial_point(cfg.integration, bundle)
    integrate(A, bundle.hamiltonian, x0, cfg.integration["h"], steps)
    assert others == []  # no read of the canonical frame
    assert len(fresh) >= 2 * steps + 1 and len(set(fresh)) == len(fresh)
    assert calls["eval_grad"] == 0 and calls["_koszul_rhs"] == 0
    assert calls["check_metric"] == len(fresh) and calls["christoffels_at"] == len(fresh)


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

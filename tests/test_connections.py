import itertools

import numpy as np
import pytest

from algmech.algebroid import (
    AlgebroidStructure,
    algebroid_from_constants,
    canonical_tangent,
    levi_civita_symbol,
    structure_eval,
)
from algmech.connections import (
    CHRISTOFFEL_FD_STEP,
    ConnectionPair,
    _koszul_rhs,
    christoffels_at,
    curvature_arrays,
    curvature_at,
    curvature_field,
    curvature_identity_residuals,
    default_split,
    levi_civita,
    verify_split,
)
from algmech.errors import InputError
from algmech.fields import TensorField, tensor_from_config
from algmech.hamiltonian import PhasePoint
from algmech.prolongation import ProlongationData, prolong_eval
from algmech.randoms import random_algebroid
from algmech.scenarios import _AdaptedFrame

from conftest import (
    curved_plane_metric, field_from_polynomial, nested, so3_algebra, tr3_classical_spec,
)


def test_default_split_canonical(canonical2):
    cp = default_split(canonical2)
    q = [0.3, 0.1]
    assert np.all(cp.Dl.eval(q) == 0.0)
    assert np.all(cp.Dr.eval(q) == 0.0)


def test_default_split_so3(so3):
    cp = default_split(so3)
    eps = levi_civita_symbol()
    # Dr[c, a, b] = -B[c, b, a] = eps_{abc}
    assert np.array_equal(cp.Dr.eval([]), np.transpose(eps, (2, 0, 1)))


def test_default_split_verifies_on_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(10):
        A = random_algebroid(rng)
        cp = default_split(A)
        for _ in range(10):
            q = rng.uniform(-1, 1, size=A.n)
            assert verify_split(A, cp, q) <= 1e-14


def test_verify_split_levi_civita_pair(so3):
    G = TensorField.from_constants(np.eye(3), 0)
    Gamma = levi_civita(so3, G)
    assert verify_split(so3, ConnectionPair(Dl=Gamma, Dr=Gamma), []) <= 1e-14


def test_verify_split_detects_perturbation(canonical2):
    cp = default_split(canonical2)
    bump = TensorField.from_terms([2], [1e-3], [[0, 0]], (2, 2, 2), 2)  # flat 2 is [0, 1, 0]
    cp2 = ConnectionPair(Dl=cp.Dl + bump, Dr=cp.Dr)
    assert abs(verify_split(canonical2, cp2, [0.0, 0.0]) - 1e-3) <= 1e-12


def test_levi_civita_flat(canonical2):
    Gamma = levi_civita(canonical2, TensorField.from_constants(np.eye(2), 2))
    assert np.all(Gamma.eval([0.4, -0.2]) == 0.0)


def test_levi_civita_curved_plane(canonical2):
    Gamma = levi_civita(canonical2, curved_plane_metric())
    q1 = 0.7
    G = Gamma.eval([q1, -0.3])
    assert abs(G[1, 0, 1] - q1 / (1 + q1 * q1)) <= 1e-12
    assert abs(G[1, 1, 0] - q1 / (1 + q1 * q1)) <= 1e-12
    assert abs(G[0, 1, 1] + q1) <= 1e-12
    others = G.copy()
    others[1, 0, 1] = others[1, 1, 0] = others[0, 1, 1] = 0.0
    assert np.max(np.abs(others)) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_christoffels_at_curved_plane_closed_form(canonical2, seed):
    """diag(1, 1 + x^2) in (x, y): Gamma^x_yy = -x, Gamma^y_xy = Gamma^y_yx = x / (1 + x^2)."""
    Gamma = levi_civita(canonical2, curved_plane_metric())
    rng = np.random.default_rng(seed)
    for q in rng.uniform(-2.0, 2.0, size=(8, 2)):
        x = float(q[0])
        expected = np.zeros((2, 2, 2))
        expected[0, 1, 1] = -x
        expected[1, 0, 1] = expected[1, 1, 0] = x / (1.0 + x * x)
        assert np.max(np.abs(Gamma.eval(q) - expected)) <= 1e-14


def _koszul_rhs_loop(Gv, Gg, Bv, rho):
    """Entrywise reference for the Koszul right-hand side K[a, b, g]."""
    m, n = Gv.shape[0], rho.shape[0]
    K = np.zeros((m, m, m))
    for a, b, g in itertools.product(range(m), repeat=3):
        val = 0.0
        if n:
            val += float(Gg[b, g] @ rho[:, a]) + float(Gg[a, g] @ rho[:, b])
            val -= float(Gg[a, b] @ rho[:, g])
        val += float(Bv[:, g, b] @ Gv[:, a]) + float(Bv[:, g, a] @ Gv[:, b])
        val -= float(Bv[:, b, a] @ Gv[:, g])
        K[a, b, g] = val
    return K


@pytest.mark.parametrize("m,n", [(1, 0), (3, 0), (2, 1), (2, 2), (3, 3)])
def test_koszul_rhs_matches_entrywise_loop(m, n):
    rng = np.random.default_rng(10 * m + n)
    Gv, Gg = rng.normal(size=(m, m)), rng.normal(size=(m, m, n))
    Bv, rho = rng.normal(size=(m, m, m)), rng.normal(size=(n, m))
    ref = _koszul_rhs_loop(Gv, Gg, Bv, rho)
    assert np.max(np.abs(_koszul_rhs(Gv, Gg, Bv, rho) - ref)) <= 1e-14 * (1 + np.max(np.abs(ref)))


def test_levi_civita_so3_brute_force_koszul(so3):
    """Oracle: solve the defining relation entrywise over all 27 index triples."""
    G = np.eye(3)
    s = structure_eval(so3, [])
    Gamma = levi_civita(so3, TensorField.from_constants(G, 0)).eval([])
    for a, b, g in itertools.product(range(3), repeat=3):
        rhs = 0.0
        # metric terms vanish (constant G, no base); bracket terms remain
        rhs += float(s.B[:, g, b] @ G[:, a])
        rhs += float(s.B[:, g, a] @ G[:, b])
        rhs -= float(s.B[:, b, a] @ G[:, g])
        lhs = 2.0 * float(G[g] @ Gamma[:, a, b])
        assert abs(lhs - rhs) <= 1e-14
    eps = levi_civita_symbol()
    assert np.max(np.abs(Gamma - 0.5 * np.transpose(eps, (2, 0, 1)))) <= 1e-14


def test_levi_civita_rejects_bad_metric(canonical2):
    bad = TensorField.from_constants(np.array([[1.0, 2.0], [0.0, 1.0]]), 2)
    with pytest.raises(InputError):
        levi_civita(canonical2, bad).eval([0.0, 0.0])
    indef = TensorField.from_constants(np.diag([1.0, -1.0]), 2)
    with pytest.raises(InputError):
        levi_civita(canonical2, indef).eval([0.0, 0.0])


# -- the packed Koszul table ----------------------------------------------------


def _random_packed_metric(rng, m, n):
    """A packed [m, m] metric of degree <= 2 over n coordinates, SPD on [-1, 1]^n.

    A constant diagonal 4m plus one to three symmetric random terms per
    entry pair, each at most 0.4 in size there; the first one varies.
    """
    rows, coefs, exps = [], [], []
    for a in range(m):
        rows.append(a * m + a)
        coefs.append(4.0 * m)
        exps.append([0] * n)
        for b in range(a, m):
            for k in range(rng.integers(1, 4)):  # the first term is not constant
                e = rng.multinomial(rng.integers(k == 0, 3), [1.0 / n] * n).tolist()
                c = rng.uniform(-0.4, 0.4)
                for r in sorted({a * m + b, b * m + a}):
                    rows.append(r)
                    coefs.append(c)
                    exps.append(e)
    return TensorField.from_terms(rows, coefs, exps, (m, m), n)


def _random_constant_frame(rng, m, n):
    """A constant frame with a non-zero bracket and non-zero (equal) anchors."""
    B, rho = rng.normal(size=(m, m, m)), rng.normal(size=(n, m))
    assert np.max(np.abs(B)) > 0.1 and (n == 0 or np.max(np.abs(rho)) > 0.1)
    return algebroid_from_constants(B, rho, n=n)


def _assert_table_matches_the_jet_route(A, G, Q):
    """levi_civita at each point of ``Q`` and over ``Q`` as a batch, against the per-point route.

    The route: the metric jet from ``G.eval_grad``, the frame from
    ``structure_eval``, then ``christoffels_at(Gv, _koszul_rhs(...))``.
    """
    Gamma = levi_civita(A, G)
    for q in [*Q, Q]:
        Gv, Gg = G.eval_grad(q)
        s = structure_eval(A, q)
        assert np.linalg.eigvalsh(Gv).min() > 0  # SPD at the probes
        ref = christoffels_at(Gv, _koszul_rhs(Gv, Gg, s.B, s.rho_l))
        out = Gamma.eval(q)
        assert out.shape == ref.shape
        assert np.all(np.abs(out - ref) <= 1e-14 * (1 + np.abs(ref)))


@pytest.mark.parametrize("seed", range(24))
def test_packed_koszul_table_matches_the_metric_jet_route(seed):
    rng = np.random.default_rng(1000 + seed)
    n, m = 1 + seed % 3, 1 + (seed // 3) % 3
    G = _random_packed_metric(rng, m, n)
    assert G._terms is not None and G._const is None
    A = _random_constant_frame(rng, m, n)
    _assert_table_matches_the_jet_route(A, G, rng.uniform(-1, 1, (7, n)))


def test_packed_koszul_table_matches_the_jet_route_on_special_metrics():
    rng = np.random.default_rng(77)
    sin = {"arity": 1, "builtin": "sin"}
    square = {"arity": 1, "terms": [{"coef": 2.0, "exp": [0]}, {"coef": 1.0, "exp": [2]}]}
    closure = tensor_from_config([[3.0, sin], [sin, square]], (2, 2), 1)  # a closure entry
    assert closure._terms is None  # array-valued: its packed part plus the sin entries
    array_valued = TensorField.from_array_fn(
        lambda Q: np.stack([3.0 + Q, 0.5 * Q**2, 0.5 * Q**2, 2.0 + 0 * Q], axis=-1)
        .reshape(Q.shape[:-1] + (2, 2)),
        (2, 2),
        1,
    )
    const = TensorField.from_constants([[2.0, 0.3], [0.3, 1.5]], 2)
    cases = [
        (_random_constant_frame(rng, 2, 1), closure, rng.uniform(-1, 1, (7, 1))),
        (_random_constant_frame(rng, 2, 1), array_valued, rng.uniform(-1, 1, (7, 1))),
        (so3_algebra(), TensorField.from_constants(np.diag([1.0, 2.0, 3.0]), 0), np.zeros((7, 0))),
        (_random_constant_frame(rng, 2, 2), const, rng.uniform(-1, 1, (7, 2))),
    ]
    for A, G, Q in cases:
        _assert_table_matches_the_jet_route(A, G, Q)


def test_levi_civita_refuses_a_varying_frame():
    from algmech.scenarios import build_gradient_extension

    X = tensor_from_config([1.0, 0.0], (2,), 2)
    varying = build_gradient_extension(curved_plane_metric(), X).algebroid  # bracket 2 Gamma(q)
    with pytest.raises(InputError, match="needs a constant frame; this frame's bracket or anchors"):
        levi_civita(varying, curved_plane_metric())
    anchor = tensor_from_config([[field_from_polynomial([(1.0, [1])], 1)]], (1, 1), 1)
    moving = AlgebroidStructure(1, 1, TensorField.zeros((1, 1, 1), 1), anchor, anchor)
    with pytest.raises(InputError, match="needs a constant frame"):
        levi_civita(moving, TensorField.from_constants(np.eye(1), 1))


def test_curvature_flat(canonical2):
    Gamma = TensorField.zeros((2, 2, 2), 2)
    R = curvature_at(canonical2, Gamma, [0.1, 0.2])
    rep = curvature_identity_residuals(R)
    assert np.all(R == 0.0)
    assert rep.skew_residual == 0.0 and rep.bianchi_residual == 0.0


def test_curvature_curved_plane(canonical2):
    Gamma = levi_civita(canonical2, curved_plane_metric())
    R = curvature_at(canonical2, Gamma, [0.5, -0.1])
    rep = curvature_identity_residuals(R)
    assert np.max(np.abs(R)) > 1e-3  # genuinely curved
    assert rep.skew_residual <= 1e-6
    assert rep.bianchi_residual <= 1e-6


def test_curvature_so3_quarter(so3):
    Gamma = levi_civita(so3, TensorField.from_constants(np.eye(3), 0))
    R = curvature_at(so3, Gamma, [])
    rep = curvature_identity_residuals(R)
    out = R[:, 0, 1, 1]  # curvature of the (e1, e2) pair applied to e2
    assert np.max(np.abs(out - [0.25, 0.0, 0.0])) <= 1e-14
    assert rep.skew_residual <= 1e-14 and rep.bianchi_residual <= 1e-14


def _per_component_fd(at, shape, arity):
    """The per-component form: one FD closure per entry over the pointwise array."""
    entries = [
        TensorField.from_callable(lambda q, idx=idx: at(q)[idx], arity, h=CHRISTOFFEL_FD_STEP)
        for idx in np.ndindex(*shape)
    ]
    return tensor_from_config(nested(entries, shape), shape, arity)


@pytest.mark.parametrize("which", ["curved_plane", "so3"])
def test_christoffels_and_curvature_are_bit_equal_to_per_component_fields(which, canonical2, so3):
    if which == "so3":
        A, G = so3, TensorField.from_constants(np.diag([1.0, 2.0, 3.0]), 0)
    else:
        A, G = canonical2, curved_plane_metric()
    m, n = A.m, A.n
    Gamma = levi_civita(A, G)
    R = curvature_field(A, Gamma)
    ref_gamma = _per_component_fd(Gamma.eval, (m, m, m), n)
    ref_R = _per_component_fd(lambda q: curvature_at(A, ref_gamma, q), (m,) * 4, n)
    rng = np.random.default_rng(17)
    for q in [np.zeros(n)] + [rng.uniform(-1, 1, size=n) for _ in range(3)]:
        for T, ref in ((Gamma, ref_gamma), (R, ref_R)):
            (v, g), (rv, rg) = T.eval_grad(q), ref.eval_grad(q)
            assert np.array_equal(v, rv) and np.array_equal(g, rg)


def test_default_split_of_array_valued_and_packed_brackets(canonical2):
    from algmech.scenarios import build_gradient_extension

    X = tensor_from_config(
        [field_from_polynomial([(1.0, [0, 1])], 2), TensorField.zeros((), 2)], (2,), 2
    )
    A = build_gradient_extension(curved_plane_metric(), X).algebroid  # bracket 2 Gamma
    rng = np.random.default_rng(3)
    cp = default_split(A)
    for q in rng.uniform(-1, 1, size=(4, 2)):
        assert verify_split(A, cp, q) == 0.0
        assert np.max(np.abs(A.bracket.eval(q))) > 1e-3
    packed = random_algebroid(rng, n=2, m=2)
    cp = default_split(packed)
    assert cp.Dr._terms is not None and cp.Dr._fn is None  # exact packed jets
    for q in rng.uniform(-1, 1, size=(4, 2)):
        (v, g), (bv, bg) = cp.Dr.eval_grad(q), packed.bracket.eval_grad(q)
        assert np.allclose(v, -np.swapaxes(bv, 1, 2), rtol=1e-14, atol=1e-14)
        assert np.allclose(g, -np.swapaxes(bg, 1, 2), rtol=1e-14, atol=1e-14)
        assert verify_split(packed, cp, q) <= 1e-15


def _lifted_anchors(A, cp, x):
    """The lifted anchors at ``x`` of the pair ``cp`` (zero curvature).

    Columns :m of ``rho_l`` (``rho_r``) are the left (right) horizontal
    lifts of the frame sections, columns m: the vertical lifts.
    """
    snap = prolong_eval(ProlongationData(A, cp, TensorField.zeros((A.m,) * 4, A.n)), x)
    return snap.rho_l, snap.rho_r


def test_lift_canonical(canonical1):
    cp = default_split(canonical1)
    rho_l, _ = _lifted_anchors(canonical1, cp, PhasePoint([0.3], [0.8]))
    assert np.array_equal(rho_l[:, 0], [1.0, 0.0])


def test_lift_so3_horizontal_right(so3):
    cp = default_split(so3)
    rho_l, rho_r = _lifted_anchors(so3, cp, PhasePoint([], [1.0, 2.0, 3.0]))
    assert np.allclose(rho_r[:, 0], [0.0, 3.0, -2.0])
    assert np.all(rho_l[:, 0] == 0.0)


def test_lift_vertical():
    A = random_algebroid(np.random.default_rng(1), n=3, m=2)
    cp = default_split(A)
    for rho in _lifted_anchors(A, cp, PhasePoint([0.1, 0.2, 0.3], [0.5, 0.6])):
        assert np.array_equal(rho[:, 2:] @ [2.0, 5.0], [0.0, 0.0, 0.0, 2.0, 5.0])


def test_lift_linear_in_coefficients(so3):
    cp = default_split(so3)
    rho_l, rho_r = _lifted_anchors(so3, cp, PhasePoint([], [0.4, -0.2, 1.0]))
    rng = np.random.default_rng(8)
    # horizontal left, horizontal right, vertical
    for cols in (rho_l[:, :3], rho_r[:, :3], rho_l[:, 3:]):
        u, v = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        lhs = cols @ (2.0 * u - v)
        rhs = 2.0 * (cols @ u) - cols @ v
        assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_horizontal_lift_characterization(so3):
    """Contract the lift with jets of pullback and fibre-linear test functions."""
    cp = default_split(so3)
    x = PhasePoint([], [1.0, 2.0, 3.0])
    Dr = cp.Dr.eval([])
    _, rho_r = _lifted_anchors(so3, cp, x)
    for a in range(3):
        vec = rho_r[:, a]
        # fibre-linear test function p_beta: derivative equals Dr[g,a,b] p_g
        for b in range(3):
            grad = np.zeros(3)
            grad[b] = 1.0
            assert abs(vec @ grad - Dr[:, a, b] @ x.p) <= 1e-10


def test_horizontal_lift_characterization_pullbacks(canonical2):
    """Applied to base-pullback functions the lift returns the anchor derivative."""
    Gamma = levi_civita(canonical2, curved_plane_metric())
    cp = ConnectionPair(Dl=Gamma, Dr=Gamma)
    f = field_from_polynomial([(1.0, [2, 1]), (0.5, [0, 1])], 2)
    x = PhasePoint([0.6, -0.3], [0.2, 0.9])
    s = structure_eval(canonical2, x.q)
    gf = f.gradient(x.q)
    rho_l, _ = _lifted_anchors(canonical2, cp, x)
    for a in range(2):
        vec = rho_l[:, a]
        assert abs(vec[:2] @ gf - s.rho_l[:, a] @ gf) <= 1e-10


def test_connection_axioms_for_scenario_built_pair():
    """Leibniz rule: the defining projector route against the Christoffel route.

    For sections X = sum f_a s_a, Y = sum g_b s_b with polynomial coefficients,
    the defining route projects the ambient covariant derivative of the
    variational image of Y; the axiom route contracts the built Christoffels
    and adds the anchor-derivative term.  Both must agree.
    """
    spec = tr3_classical_spec()
    frame = _AdaptedFrame(spec)
    rng = np.random.default_rng(9)
    k, M = frame.k, frame.M
    f = [field_from_polynomial([(0.7, [1, 0, 0]), (-0.4, [0, 1, 1])], 3),
         field_from_polynomial([(0.3, [0, 0, 1]), (1.0, [0, 0, 0])], 3)]
    g = [field_from_polynomial([(0.5, [0, 1, 0]), (0.2, [2, 0, 0])], 3),
         field_from_polynomial([(-0.8, [1, 1, 0]), (0.6, [0, 0, 0])], 3)]
    h = frame.h
    for _ in range(5):
        q = rng.uniform(-0.8, 0.8, 3)
        core = frame._compute_core(q)
        Dl, _ = frame.split_at(core, frame.christoffels(q, core))
        Gam = frame.christoffels(q, core)
        P, Pi, rho = core["P"], core["Pi"], core["rho_new"]
        fv = np.array([fc.eval(q) for fc in f])
        gv = np.array([gc.eval(q) for gc in g])
        gg = np.array([gc.gradient(q) for gc in g])  # [k, n]

        # defining route: ambient coefficients of the variational image of Y
        def Y_ambient(qq):
            c = frame._compute_core(qq)
            return c["Pi"] @ np.array([gc.eval(qq) for gc in g])

        Yv = Y_ambient(q)
        dY = np.empty((M, 3))
        for i in range(3):
            qp, qm = q.copy(), q.copy()
            qp[i] += h
            qm[i] -= h
            dY[:, i] = (Y_ambient(qp) - Y_ambient(qm)) / (2 * h)
        route_a = np.zeros(k)
        for a in range(k):
            inner = np.einsum("gm,m->g", Gam[:, a, :], Yv) + dY @ rho[:, a]
            route_a += fv[a] * (P @ inner)

        # axiom route: Christoffel contraction plus anchor derivative of g
        route_b = np.einsum("a,b,cab->c", fv, gv, Dl)
        route_b += np.einsum("a,ia,ci->c", fv, rho[:, :k], gg)
        assert np.max(np.abs(route_a - route_b)) <= 1e-8


def test_split_consistency_for_torsion_free_pair(canonical2):
    Gamma = levi_civita(canonical2, curved_plane_metric())
    cp = ConnectionPair(Dl=Gamma, Dr=Gamma)
    for q in ([0.0, 0.0], [0.5, -0.5], [1.0, 2.0]):
        assert verify_split(canonical2, cp, q) <= 1e-12


def test_curvature_identities_for_projected_connection():
    spec = tr3_classical_spec()
    frame = _AdaptedFrame(spec)
    # the adapted Christoffels with a central-difference jet at the frame's step
    Gamma = TensorField.from_array_fn(
        lambda Q: frame.christoffels(Q, frame._compute_core(Q)), (frame.M,) * 3, frame.n, h=frame.h
    )
    rng = np.random.default_rng(10)
    for _ in range(5):
        q = rng.uniform(-0.8, 0.8, 3)
        core = frame._compute_core(q)
        R = curvature_arrays(*Gamma.eval_grad(q), core["C_new"], core["rho_new"])
        assert np.max(np.abs(R + np.swapaxes(R, 1, 2))) <= 1e-5
        cyc = R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2))
        assert np.max(np.abs(cyc)) <= 1e-5

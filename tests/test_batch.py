"""The batch axis: K points in one call equal K calls at one point each.

Every point-based function takes one point or a batch with a leading axis of
length K.  Row k of a batched result must be the single-point result at
point k, bit for bit, on every family of the ``probe`` benchmark (the
shipped configs of the five unconstrained families and the Bianchi negative
control), over a point (n = 0) and with the array-valued Christoffels of
gradient_extension, and on the constrained families, whose adapted-frame
core is evaluated once per batch (FD stencils included).  A batched check draws its probes in one call of the
generator, in the order of the former per-probe draws, and evaluates the
lifted structure a fixed number of times whatever K is.
"""

import pathlib

import numpy as np
import pytest

from algmech import prolongation as prolongation_module
from algmech.algebroid import (
    canonical_tangent,
    d_skew,
    d_skew_oneform,
    d_skew_scalar,
    d_sym,
    diff_lr_section,
    so3_algebra,
    structure_checks,
    structure_eval,
    sym_skew_parts,
)
from algmech.config import build_scenario, load_config
from algmech.connections import curvature_at, levi_civita, verify_split
from algmech.fields import TensorField, tensor_from_config
from algmech.hamiltonian import PhasePoint, ham_field
from algmech.prolongation import (
    closedness_residual,
    d_squared_oneform_residual,
    d_squared_scalar_residual,
    lr_ham_field,
    omega,
    prolong_eval,
)
from algmech.errors import InputError
from algmech.randoms import (
    random_phase_function,
    random_phase_point,
    random_phase_points,
    random_polynomial_tensor,
)
from algmech.scenarios import ConstraintSpec, _AdaptedFrame, build_constrained
from algmech.verify import CHECKS, run_check

from conftest import curved_plane_metric, generalized_curved_spec

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
PROBE_FAMILIES = [
    "canonical_harmonic",
    "euler_top",
    "gradient_extension",
    "contorsion_skew",
    "contorsion_dissipative",
    "closedness_negative",
]


def _bundle(name):
    return build_scenario(load_config(CONFIG_DIR / f"{name}.json").scenario)[0]


def _same(batched, single_results):
    """Row k of ``batched`` is ``single_results[k]``, bit for bit, and shapes agree."""
    single = np.array(single_results)
    return np.asarray(batched).shape == single.shape and np.array_equal(batched, single)


def _points(rng, A, K):
    q, p = random_phase_points(rng, A.n, A.m, K, scale=0.8)
    return PhasePoint(q, p), [PhasePoint(q[k], p[k]) for k in range(K)]


@pytest.fixture(scope="module", params=PROBE_FAMILIES)
def family(request):
    bundle = _bundle(request.param)
    return bundle, bundle.prolongation()


@pytest.mark.parametrize("K", [1, 7])
def test_structure_and_tensor_route_batch(family, K):
    bundle, P = family
    A, H = bundle.algebroid, bundle.hamiltonian
    rng = np.random.default_rng(K)
    X, xs = _points(rng, A, K)
    s = structure_eval(A, X.q)
    singles = [structure_eval(A, x.q) for x in xs]
    for name in ("B", "rho_l", "rho_r"):
        assert _same(getattr(s, name), [getattr(t, name) for t in singles])
    for part, parts in zip(sym_skew_parts(s), zip(*(sym_skew_parts(t) for t in singles))):
        assert _same(part, parts)
    assert _same(ham_field(A, H, X), [ham_field(A, H, x) for x in xs])
    assert _same(H.gradient(X.z), [H.gradient(x.z) for x in xs])
    assert _same(verify_split(A, bundle.split, X.q), [verify_split(A, bundle.split, x.q) for x in xs])
    rep = structure_checks(A, X.q)
    for k, x in enumerate(xs):
        assert [r[k] for r in vars(rep).values()] == list(vars(structure_checks(A, x.q)).values())


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
def test_h_and_monitor_values_batch(name):
    """integrate evaluates H and the monitors once over all recorded states."""
    bundle = _bundle(name)
    X, xs = _points(np.random.default_rng(3), bundle.algebroid, 7)
    for F in [bundle.hamiltonian, *bundle.monitors.values()]:
        assert _same(F.value(X.z), [F.value(x.z) for x in xs])


def test_many_term_polynomial_value_batch():
    # a matrix-vector product over the whole batch rounds differently from a dot per point
    rng = np.random.default_rng(4)
    F = random_phase_function(rng, 2, 2, degree=4)
    Z = rng.uniform(-1, 1, (50, 4))
    assert F._terms[0].shape[0] >= 10
    assert _same(F.value(Z), [F.value(z) for z in Z])


@pytest.mark.parametrize("K", [1, 7])
def test_lifted_calculus_batch(family, K):
    bundle, P = family
    A, H = bundle.algebroid, bundle.hamiltonian
    rng = np.random.default_rng(10 + K)
    X, xs = _points(rng, A, K)
    s = prolong_eval(P, X)
    singles = [prolong_eval(P, x) for x in xs]
    for name in ("B", "rho_l", "rho_r", "q"):
        assert _same(getattr(s, name), [getattr(t, name) for t in singles])
    N, size = A.n + A.m, P.frame_size
    phi = random_phase_function(rng, A.n, A.m, degree=2)
    kappa = random_polynomial_tensor(rng, (size,), N, 2)
    T = random_polynomial_tensor(rng, (size, size), N, 2)
    assert _same(diff_lr_section(s, kappa), [diff_lr_section(t, kappa) for t in singles])
    assert _same(d_skew_scalar(s, phi), [d_skew_scalar(t, phi) for t in singles])
    assert _same(d_skew_oneform(s, kappa), [d_skew_oneform(t, kappa) for t in singles])
    assert _same(d_skew(s, T), [d_skew(t, T) for t in singles])
    assert _same(d_sym(s, T), [d_sym(t, T) for t in singles])
    for method in ("frame_formula", "generic_dlr"):
        assert _same(omega(P, X, method), [omega(P, x, method) for x in xs])
    assert _same(lr_ham_field(P, H, X), [lr_ham_field(P, H, x) for x in xs])
    assert _same(closedness_residual(P, X), [closedness_residual(P, x) for x in xs])
    assert _same(
        d_squared_scalar_residual(P, phi, X), [d_squared_scalar_residual(P, phi, x) for x in xs]
    )
    assert _same(
        d_squared_oneform_residual(P, kappa, X),
        [d_squared_oneform_residual(P, kappa, x) for x in xs],
    )


@pytest.mark.parametrize("K", [1, 7])
def test_christoffels_and_curvature_batch(K):
    rng = np.random.default_rng(20 + K)
    cases = [
        (canonical_tangent(2), curved_plane_metric(), rng.uniform(-1, 1, (K, 2))),
        (so3_algebra(), TensorField.from_constants(np.diag([1.0, 2.0, 3.0]), 0), np.zeros((K, 0))),
    ]
    for A, G, Q in cases:
        Gamma = levi_civita(A, G)
        assert _same(Gamma.eval(Q), [Gamma.eval(q) for q in Q])
        assert _same(curvature_at(A, Gamma, Q), [curvature_at(A, Gamma, q) for q in Q])
        v, g = Gamma.eval_grad(Q)
        singles = [Gamma.eval_grad(q) for q in Q]
        assert _same(v, [a for a, _ in singles]) and _same(g, [b for _, b in singles])
    # gradient_extension's bracket is twice the array-valued Christoffels
    A = _bundle("gradient_extension").algebroid
    Q = rng.uniform(-1, 1, (K, 2))
    v, g = A.bracket.eval_grad(Q)
    singles = [A.bracket.eval_grad(q) for q in Q]
    assert _same(v, [a for a, _ in singles]) and _same(g, [b for _, b in singles])


def test_a_metric_defect_in_a_batch_names_its_point():
    """G = diag(q, q) over a line is positive-definite only at q > 0."""
    from algmech.algebroid import algebroid_from_constants
    from algmech.errors import InputError
    from algmech.fields import SmoothField

    A = algebroid_from_constants(np.zeros((2, 2, 2)), [[1.0, 0.0]], n=1)
    q, zero = SmoothField.coordinate(0, 1), SmoothField.zero(1)
    G = tensor_from_config([[q, zero], [zero, q]], (2, 2), 1)
    with pytest.raises(InputError, match=r"not positive-definite at \[-0.5\]"):
        levi_civita(A, G).eval([[0.5], [-0.5], [0.25]])


# -- probes: one draw per check, in the order of the per-probe draws ---------------


@pytest.mark.parametrize("n,m", [(0, 3), (1, 1), (3, 2)])
def test_batched_probes_equal_the_per_probe_sequence(n, m):
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    q, p = random_phase_points(a, n, m, 9)
    for k in range(9):
        qk, pk = random_phase_point(b, n, m)
        assert np.array_equal(q[k], qk) and np.array_equal(p[k], pk)
    assert a.uniform() == b.uniform()  # the stream continues in step


@pytest.mark.parametrize(
    "name,target",
    [
        ("closedness", "closedness_residual"),
        ("omega_dlr_consistency", "omega"),
        ("split_consistency", "verify_split"),
    ],
)
def test_a_batched_check_draws_the_per_probe_points(monkeypatch, name, target):
    """The check sees the points that K single draws (q, then p, per probe) give."""
    import algmech.verify as verify

    bundle = _bundle("canonical_harmonic")
    A = bundle.algebroid
    seen = []
    real = getattr(verify, target)

    def spy(*args, **kwargs):
        point = args[2] if target == "verify_split" else args[1].z
        seen.append(np.array(point))
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, target, spy)
    run_check(name, bundle, {"points": 6}, 17)
    rng = np.random.default_rng(17)
    if target == "verify_split":
        expected = [rng.uniform(-1, 1, size=A.n) for _ in range(6)]
    else:
        expected = [np.concatenate(random_phase_point(rng, A.n, A.m)) for _ in range(6)]
    assert np.array_equal(seen[0], np.array(expected))


# -- the lifted structure is evaluated a fixed number of times per check -----------

POINT_CHECKS = [
    "theorem43_equivalence",
    "omega_frame",
    "omega_dlr_consistency",
    "closedness",
    "curvature_identities",
    "structure_checks",
    "split_consistency",
    "dA_squared",
]


@pytest.mark.parametrize("name", POINT_CHECKS)
def test_prolong_eval_calls_do_not_grow_with_the_probe_count(monkeypatch, name):
    assert set(POINT_CHECKS) <= set(CHECKS)
    calls = []
    real = prolongation_module.prolong_eval

    def counted(P, x):
        calls.append(1)
        return real(P, x)

    monkeypatch.setattr(prolongation_module, "prolong_eval", counted)
    bundle = _bundle("euler_top")
    counts = []
    for K in (4, 40):
        calls.clear()
        run_check(name, bundle, {"points": K, "random_instances": 2}, 3)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 4, counts


# -- constrained families: one stacked adapted-frame core per batch ------------------

CONSTRAINED = ["nonholonomic_classical", "generalized_servo", "nonjacobi_projected", "curved"]


def _constrained(name):
    """A constrained bundle and its spec: a shipped config, or the generalized spec over a plane."""
    if name == "curved":
        spec = generalized_curved_spec()
        return build_constrained(spec), spec
    return build_scenario(load_config(CONFIG_DIR / f"{name}.json").scenario)


@pytest.mark.parametrize("K", [1, 5])
@pytest.mark.parametrize("name", CONSTRAINED)
def test_constrained_core_and_structures_batch(name, K):
    """Row k of every constrained evaluation over a batch is the single-point result."""
    rng = np.random.default_rng(30 + K)
    batched, spec = _constrained(name)
    single, _ = _constrained(name)  # a second bundle: the single points are evaluated alone
    A, A1 = batched.algebroid, single.algebroid
    X, xs = _points(rng, A, K)
    frame, frame1 = _AdaptedFrame(spec), _AdaptedFrame(spec)
    core = frame.core_at(X.q)
    cores = [frame1.core_at(x.q) for x in xs]
    for key in core:
        assert _same(core[key], [c[key] for c in cores]), key
    s = structure_eval(A, X.q)
    singles = [structure_eval(A1, x.q) for x in xs]
    for part in ("B", "rho_l", "rho_r"):
        assert _same(getattr(s, part), [getattr(t, part) for t in singles])
    for D, D1 in ((batched.split.Dl, single.split.Dl), (batched.split.Dr, single.split.Dr)):
        assert _same(D.eval(X.q), [D1.eval(x.q) for x in xs])
    assert _same(batched.curvature.eval(X.q), [single.curvature.eval(x.q) for x in xs])
    s = prolong_eval(batched.prolongation(), X)
    P1 = single.prolongation()
    singles = [prolong_eval(P1, x) for x in xs]
    for part in ("B", "rho_l", "rho_r"):
        assert _same(getattr(s, part), [getattr(t, part) for t in singles])


def _defective_spec():
    """Over a line: the kinematic row (q - 3, 0) vanishes at q = 3, and at q = 2 the
    variational row (q - 2, 1) leaves the kinematic direction in its complement."""
    from algmech.algebroid import algebroid_from_constants
    from algmech.fields import SmoothField

    def line(c0, c1):
        return SmoothField.polynomial([(c0, [0]), (c1, [1])], 1)

    return ConstraintSpec(
        ambient=algebroid_from_constants(np.zeros((2, 2, 2)), [[1.0, 0.0]], [[1.0, 0.0]], n=1),
        metric=TensorField.from_constants(np.eye(2), 1),
        kinematic_basis=tensor_from_config([[line(-3.0, 1.0), 0.0]], (1, 2), 1),
        variational_basis=tensor_from_config([[line(-2.0, 1.0), 1.0]], (1, 2), 1),
    )


@pytest.mark.parametrize(
    "points,message",
    [
        ([[0.5], [3.0], [0.25]], r"kinematic basis rank deficient at \[3.0\]"),
        ([[3.0], [2.0]], r"kinematic basis rank deficient at \[3.0\]"),
        ([[0.5], [2.0], [3.0]], r"compatibility failed: .* at \[2.0\]"),
    ],
)
def test_a_frame_defect_in_a_batch_names_its_point(points, message):
    """The first failing point in row order is named, with its own failure."""
    A = build_constrained(_defective_spec()).algebroid  # the probes lie in [-1, 1]
    with pytest.raises(InputError, match=message):
        structure_eval(A, points)


@pytest.mark.parametrize("K", [1, 4, 60])
def test_one_frame_evaluation_per_core_call(frame_calls, K):
    _, spec = _constrained("nonholonomic_classical")
    frame = _AdaptedFrame(spec)
    frame_calls.clear()
    frame.core_at(np.random.default_rng(K).uniform(-0.7, 0.7, (K, 3)))
    assert frame_calls == [K]


@pytest.mark.parametrize(
    "name",
    ["theorem43_equivalence", "omega_dlr_consistency", "closedness", "curvature_identities",
     "split_consistency"],
)
def test_frame_evaluations_do_not_grow_with_the_probe_count(frame_calls, name):
    calls = frame_calls
    counts = []
    for K in (3, 30):
        bundle, _ = _constrained("nonholonomic_classical")  # a fresh bundle: its split is checked
        calls.clear()
        run_check(name, bundle, {"points": K, "random_instances": 1}, 3)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 3, counts


# the lifted structure's split check at its 5 probes and each prolong_eval are
# one frame evaluation over the stencil of their points; a structure
# snapshot, the curvature and each split tensor are one evaluation each
FRAME_EVALUATIONS = {
    "theorem43_equivalence": [35, 21, 3],  # split check, prolong_eval, ham_field
    "omega_dlr_consistency": [35, 21],
    "closedness": [35, 21],
    "curvature_identities": [21],
    "split_consistency": [3, 3, 3],  # the bracket, Dl, Dr
}


@pytest.mark.parametrize("name", list(FRAME_EVALUATIONS))
def test_frame_evaluations_of_each_point_check(frame_calls, name):
    bundle, _ = _constrained("nonholonomic_classical")
    frame_calls.clear()
    run_check(name, bundle, {"points": 3, "random_instances": 1}, 3)
    assert frame_calls == FRAME_EVALUATIONS[name]


# a generalized frame over a curved chart (n = 2) reads its metric and projector
# jets from its own core: a prolong_eval at 4 points is one evaluation over their
# stencil (5 points each), and the point checks evaluate as the classical frame does
CURVED_FRAME_EVALUATIONS = {
    "prolong_eval": [20],
    "theorem43_equivalence": [25, 15, 3],  # split check, prolong_eval, ham_field
    "split_consistency": [3, 3, 3],  # the bracket, Dl, Dr
}


@pytest.mark.parametrize("name", list(CURVED_FRAME_EVALUATIONS))
def test_frame_evaluations_of_a_curved_generalized_frame(frame_calls, name):
    bundle, _ = _constrained("curved")
    if name == "prolong_eval":
        P = bundle.prolongation()
        X, _ = _points(np.random.default_rng(6), bundle.algebroid, 4)
        frame_calls.clear()
        prolong_eval(P, X)
    else:
        frame_calls.clear()
        run_check(name, bundle, {"points": 3, "random_instances": 1}, 3)
    assert frame_calls == CURVED_FRAME_EVALUATIONS[name]


def test_a_constrained_rk4_stage_is_one_frame_evaluation(frame_calls):
    from algmech.config import initial_point
    from algmech.hamiltonian import integrate

    cfg = load_config(CONFIG_DIR / "nonholonomic_classical.json")
    bundle, _ = build_scenario(cfg.scenario)
    x0 = initial_point(cfg.integration, bundle)
    frame_calls.clear()
    steps = 25
    integrate(bundle.algebroid, bundle.hamiltonian, x0, 1e-3, steps)
    assert frame_calls == [1] * (4 * steps + 1)  # the initial state, then 4 stages a step

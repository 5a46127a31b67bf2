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
    diff_lr_section,
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

from conftest import (
    curved_plane_metric,
    d_sym,
    generalized_curved_spec,
    generalized_so3_spec,
    so3_algebra,
    tr3_classical_spec,
)

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
        assert _same(F.eval(X.z), [F.eval(x.z) for x in xs])


def test_many_term_polynomial_value_batch():
    # a matrix-vector product over the whole batch rounds differently from a dot per point
    rng = np.random.default_rng(4)
    F = random_phase_function(rng, 2, 2, degree=4)
    Z = rng.uniform(-1, 1, (50, 4))
    assert F._terms[0].shape[0] >= 10
    assert _same(F.eval(Z), [F.eval(z) for z in Z])


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

    A = algebroid_from_constants(np.zeros((2, 2, 2)), [[1.0, 0.0]], n=1)
    q, zero = TensorField.polynomial([(1.0, [1])], 1), TensorField.zeros((), 1)
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
    core = frame._compute_core(X.q)
    cores = [frame1._compute_core(x.q) for x in xs]
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


def _defective_spec(classical=False):
    """Over a line: the kinematic row (q - 3, 0) vanishes at q = 3, and at q = 2 the
    variational row (q - 2, 1) leaves the kinematic direction in its complement."""
    from algmech.algebroid import algebroid_from_constants

    def line(c0, c1):
        return TensorField.polynomial([(c0, [0]), (c1, [1])], 1)

    return ConstraintSpec(
        ambient=algebroid_from_constants(np.zeros((2, 2, 2)), [[1.0, 0.0]], [[1.0, 0.0]], n=1),
        metric=TensorField.from_constants(np.eye(2), 1),
        kinematic_basis=tensor_from_config([[line(-3.0, 1.0), 0.0]], (1, 2), 1),
        variational_basis=(
            None if classical else tensor_from_config([[line(-2.0, 1.0), 1.0]], (1, 2), 1)
        ),
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


@pytest.mark.parametrize("points", [[[0.5], [3.0], [0.25]], [[3.0], [2.0]], [[2.0], [3.0]]])
def test_a_classical_snapshot_names_its_rank_deficient_point(points):
    """The kinematic snapshot of a classical frame names the first deficient point too."""
    A = build_constrained(_defective_spec(classical=True)).algebroid
    with pytest.raises(InputError, match=r"kinematic basis rank deficient at \[3.0\]"):
        structure_eval(A, points)


@pytest.mark.parametrize("K", [1, 4, 60])
def test_one_frame_evaluation_per_core_call(frame_calls, K):
    _, spec = _constrained("nonholonomic_classical")
    frame = _AdaptedFrame(spec)
    frame_calls.clear()
    frame._compute_core(np.random.default_rng(K).uniform(-0.7, 0.7, (K, 3)))
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


# the lifted structure's split check is one frame evaluation at its 5 probes,
# each prolong_eval, the curvature and each tensor jet one over the stencil of
# their points; a structure snapshot is one evaluation, and the split check
# reads the bracket, Dl and Dr from one
FRAME_EVALUATIONS = {
    "theorem43_equivalence": [5, 21, 3],  # split check, prolong_eval, ham_field
    "omega_dlr_consistency": [5, 21],
    "closedness": [5, 21],
    "curvature_identities": [21],
    "split_consistency": [3],
    "structure_checks": [3, 21, 21],  # the snapshot, then the bracket's and left anchor's jets
    # split check, prolong_eval at the 3 points, the scalar sweep over their chart stencil
    # (3 x 11 points), prolong_eval at the one-section's point, and its sweep (11 points)
    "dA_squared": [5, 21, 231, 7, 77],
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
    "theorem43_equivalence": [5, 15, 3],  # split check, prolong_eval, ham_field
    "split_consistency": [3],
    "structure_checks": [3, 15, 15],
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


def test_a_classical_rk4_stage_reads_only_the_kinematic_frame(monkeypatch):
    """No completion and no determinant along a classical constrained trajectory."""
    from algmech import scenarios
    from algmech.config import initial_point
    from algmech.hamiltonian import integrate

    cfg = load_config(CONFIG_DIR / "nonholonomic_classical.json")
    bundle, spec = build_scenario(cfg.scenario)  # the build completes the frame at its probes
    x0 = initial_point(cfg.integration, bundle)
    calls = []
    complete, det = scenarios._complete, np.linalg.det

    def counted(fn, name):
        return lambda *args: calls.append(name) or fn(*args)

    monkeypatch.setattr(scenarios, "_complete", counted(complete, "_complete"))
    monkeypatch.setattr(np.linalg, "det", counted(det, "det"))
    traj = integrate(bundle.algebroid, bundle.hamiltonian, x0, 1e-3, 25)
    assert calls == []
    assert np.max(np.abs(traj.states()[-1] - traj.states()[0])) > 1e-3  # it moved
    _AdaptedFrame(spec)._compute_core(x0.q)
    assert calls == ["_complete", "det"]  # the counters see a full core


@pytest.mark.parametrize("K", [None, 5, 21])
@pytest.mark.parametrize("name", ["nonholonomic_classical", "tr3"])
def test_a_classical_stage_is_the_kinematic_block_of_the_core(name, K):
    """The thin stage snapshot and the core's bracket on all M columns agree bit for bit."""
    spec = tr3_classical_spec() if name == "tr3" else _constrained(name)[1]
    frame = _AdaptedFrame(spec)
    k = frame.k
    q = np.random.default_rng(11).uniform(-0.7, 0.7, (3,) if K is None else (K, 3))
    B, rho, _ = frame.structure_at(q)
    core = frame._compute_core(q)
    assert B.tobytes() == np.ascontiguousarray(core["C_new"][..., :k, :k, :k]).tobytes()
    assert rho.tobytes() == np.ascontiguousarray(core["rho_new"][..., :k]).tobytes()


def test_a_classical_core_completes_and_brackets_once(monkeypatch):
    """One core evaluation: one completion of E, one bracket formula, on all M columns."""
    from algmech import scenarios

    frame = _AdaptedFrame(_constrained("nonholonomic_classical")[1])
    calls = []
    complete, snapshot = scenarios._complete, _AdaptedFrame._kinematic_snapshot

    def counted_complete(F, FG, Gv):  # records the rows it completes
        calls.append(("_complete", F.shape[1]))
        return complete(F, FG, Gv)

    def counted_snapshot(self, E, dE, EG, s):  # records the columns it brackets
        calls.append(("snapshot", E.shape[-1]))
        return snapshot(self, E, dE, EG, s)

    monkeypatch.setattr(scenarios, "_complete", counted_complete)
    monkeypatch.setattr(_AdaptedFrame, "_kinematic_snapshot", counted_snapshot)
    frame._compute_core(np.random.default_rng(12).uniform(-0.7, 0.7, (4, 3)))
    assert calls == [("_complete", frame.k), ("snapshot", frame.M)]


@pytest.mark.parametrize("name", ["nonholonomic_classical", "curved"])
def test_the_split_check_of_the_lifted_structure_needs_no_stencil(frame_calls, name):
    """Build and prolongation: the frame at the build's probes and at the split's, 5 each."""
    bundle, _ = _constrained(name)
    bundle.prolongation()
    assert frame_calls == [5, 5]


# constrained systems over a point (n = 0): every tensor is a constant, folded at build
OVER_A_POINT = ["generalized_servo", "nonjacobi_projected", "generalized_so3"]


def _over_a_point(name):
    """A bundle over a point, its spec and its config; generalized_so3 runs the servo's config."""
    if name == "generalized_so3":
        spec = generalized_so3_spec()
        return build_constrained(spec), spec, load_config(CONFIG_DIR / "generalized_servo.json")
    cfg = load_config(CONFIG_DIR / f"{name}.json")
    return (*build_scenario(cfg.scenario), cfg)


@pytest.mark.parametrize("name", OVER_A_POINT)
def test_over_a_point_build_simulate_and_verify_are_one_frame_evaluation(frame_calls, name):
    from algmech.config import initial_point
    from algmech.hamiltonian import integrate

    bundle, spec, cfg = _over_a_point(name)
    bundle.prolongation()
    icfg, vcfg = cfg.integration, cfg.verification
    x0 = initial_point(icfg, bundle)
    integrate(bundle.algebroid, bundle.hamiltonian, x0, icfg["h"], icfg["steps"], bundle.monitors)
    for pos, entry in enumerate(vcfg["checks"]):  # as cli.cmd_verify runs them
        entry = {"name": entry} if isinstance(entry, str) else dict(entry)
        ccfg = {"points": vcfg["points"], "constraint_spec": spec, **entry}
        assert run_check(ccfg.pop("name"), bundle, ccfg, vcfg["seed"] + pos)["pass"]
    assert frame_calls == [1]


@pytest.mark.parametrize("name", OVER_A_POINT)
def test_over_a_point_every_tensor_is_the_lifted_base_at_the_point(name):
    bundle, spec, _ = _over_a_point(name)
    s, Dl, Dr, R = _AdaptedFrame(spec).lifted_base(np.zeros(0))
    A = bundle.algebroid
    for T, ref in (
        (A.bracket, s.B), (A.anchor_left, s.rho_l), (A.anchor_right, s.rho_r),
        (bundle.split.Dl, Dl), (bundle.split.Dr, Dr), (bundle.curvature, R),
    ):
        assert T._const is not None and np.array_equal(T.eval(np.zeros(0)), ref)
    assert bundle._base_at is None


@pytest.mark.parametrize("K", [None, 5])
def test_the_constrained_split_and_curvature_read_the_lifted_base(K):
    bundle, spec = _constrained("nonholonomic_classical")
    frame = _AdaptedFrame(spec)
    q = np.random.default_rng(41).uniform(-0.7, 0.7, (3,) if K is None else (K, 3))
    _, Dl, Dr, R = frame.lifted_base(q, False)
    assert R is None
    assert np.array_equal(bundle.split.Dl.eval(q), Dl)
    assert np.array_equal(bundle.split.Dr.eval(q), Dr)
    assert np.array_equal(bundle.curvature.eval(q), frame.lifted_base(q)[3])
    # the bracket and both anchors are the entries of one structure_at call
    A = bundle.algebroid
    for T, ref in zip((A.bracket, A.anchor_left, A.anchor_right), frame.structure_at(q)):
        assert np.array_equal(T.eval(q), ref)

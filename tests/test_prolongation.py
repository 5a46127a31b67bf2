import pathlib

import numpy as np
import pytest

from algmech.algebroid import (
    AlgebroidStructure,
    canonical_tangent,
    d_skew,
    max_abs,
    structure_checks,
    structure_eval,
    worst_residual,
)
from algmech.connections import (
    ConnectionPair,
    curvature_field,
    default_split,
    levi_civita,
)
from algmech.config import build_scenario, load_config
from algmech.errors import InputError, InvalidStructureError
from algmech.fields import TensorField, tensor_from_config
from algmech.hamiltonian import PhasePoint, ham_field
from algmech.prolongation import (
    ProlongationData,
    closedness_residual,
    d_squared_oneform_residual,
    d_squared_scalar_residual,
    lr_ham_field,
    omega,
    prolong_eval,
    right_ham_section,
)
from algmech.randoms import (
    random_algebroid,
    random_curvature,
    random_phase_function,
    random_phase_points,
    random_valid_split,
)
from algmech.scenarios import build_constrained

from conftest import (
    d_full, d_sym, euler_hamiltonian, field_from_polynomial, harmonic_hamiltonian, nonjacobi_spec,
    so3_algebra,
)

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def canonical_prolongation(n=1):
    A = canonical_tangent(n)
    return ProlongationData(A, default_split(A), TensorField.zeros((n,) * 4, n))


def so3_default_prolongation(so3):
    return ProlongationData(so3, default_split(so3), TensorField.zeros((3,) * 4, 0))


def so3_metric_prolongation(so3):
    Gamma = levi_civita(so3, TensorField.from_constants(np.eye(3), 0))
    return ProlongationData(so3, ConnectionPair(Dl=Gamma, Dr=Gamma), curvature_field(so3, Gamma))


def test_prolong_eval_canonical():
    P = canonical_prolongation()
    snap = prolong_eval(P, PhasePoint([0.2], [0.7]))
    assert np.all(snap.B == 0.0)
    assert np.array_equal(snap.rho_l, np.eye(2))
    assert np.array_equal(snap.rho_r, np.eye(2))


def test_prolong_eval_so3(so3):
    P = so3_default_prolongation(so3)
    snap = prolong_eval(P, PhasePoint([], [1.0, 2.0, 3.0]))
    # horizontal-horizontal: base bracket coefficient, no lifted fibre part
    assert snap.B[2, 0, 1] == 1.0
    assert np.all(snap.B[3:, 0, 1] == 0.0)
    # fibre-horizontal: right Christoffels of the zero-reference splitting
    assert np.allclose(snap.B[3:, 3 + 0, 1], [0.0, 0.0, 1.0])
    # fibre frame sections anchor to the fibre directions on both sides
    assert np.array_equal(snap.rho_l[:, 3:], np.eye(3))
    assert np.array_equal(snap.rho_r[:, 3:], np.eye(3))


def test_prolong_eval_vertical_anchor_columns():
    rng = np.random.default_rng(0)
    A = random_algebroid(rng, n=2, m=2)
    P = ProlongationData(A, default_split(A), random_curvature(rng, 2, 2))
    x = PhasePoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
    snap = prolong_eval(P, x)
    expect = np.vstack([np.zeros((2, 2)), np.eye(2)])
    assert np.array_equal(snap.rho_l[:, 2:], expect)
    assert np.array_equal(snap.rho_r[:, 2:], expect)


def test_prolongation_rejects_bad_split(so3):
    cp = default_split(so3)
    bump = np.zeros((3, 3, 3))
    bump[0, 0, 0] = 1e-3
    bad = ConnectionPair(Dl=cp.Dl + TensorField.from_constants(bump, 0), Dr=cp.Dr)
    with pytest.raises(InvalidStructureError):
        ProlongationData(so3, bad, TensorField.zeros((3,) * 4, 0))


@pytest.mark.parametrize(
    "shape,arity", [((2, 2, 2), 1), ((2, 2, 2, 3), 1), ((2, 2, 2, 2), 0), ((2, 2, 2, 2), 2)]
)
def test_a_curvature_of_the_wrong_shape_or_arity_is_refused(shape, arity):
    A = random_algebroid(np.random.default_rng(3), n=1, m=2)
    with pytest.raises(InputError, match="curvature tensor does not match the base algebroid"):
        ProlongationData(A, default_split(A), TensorField.zeros(shape, arity))
    ProlongationData(A, default_split(A), TensorField.zeros((2,) * 4, 1))  # the right one


def test_liouville(so3):
    """The canonical dual section that omega's generic route differentiates."""
    P = so3_default_prolongation(so3)
    assert np.array_equal(
        P._liouville.eval(PhasePoint([], [1.0, 2.0, 3.0]).z), [1, 2, 3, 0, 0, 0]
    )
    assert np.all(P._liouville.eval(PhasePoint([], [0, 0, 0]).z) == 0.0)
    P1 = canonical_prolongation()
    assert np.array_equal(P1._liouville.eval(PhasePoint([0.0], [7.0]).z), [7.0, 0.0])


def test_omega_frame_block():
    rng = np.random.default_rng(1)
    A = random_algebroid(rng, n=1, m=2)
    P = ProlongationData(A, default_split(A), TensorField.zeros((2,) * 4, 1))
    O = omega(P, PhasePoint([0.1], [0.4, -0.6]))
    assert np.array_equal(
        O, [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    )
    assert np.max(np.abs(O + O.T)) == 0.0
    assert abs(np.linalg.det(O) - 1.0) <= 1e-15


def test_omega_generic_route_canonical():
    P = canonical_prolongation()
    x = PhasePoint([0.5], [0.25])
    assert np.max(np.abs(omega(P, x, "generic_dlr") - omega(P, x))) <= 1e-10


def test_omega_generic_route_so3(so3):
    P = so3_default_prolongation(so3)
    x = PhasePoint([], [1.0, 2.0, 3.0])
    assert np.max(np.abs(omega(P, x, "generic_dlr") - omega(P, x))) <= 1e-10


def test_omega_determinant_unity_for_small_ranks():
    rng = np.random.default_rng(2)
    for m in (1, 2, 3):
        A = random_algebroid(rng, n=1, m=m)
        P = ProlongationData(A, default_split(A), TensorField.zeros((m,) * 4, 1))
        O = omega(P, PhasePoint([0.0], np.zeros(m)))
        assert np.max(np.abs(O + O.T)) == 0.0
        assert abs(np.linalg.det(O) - 1.0) <= 1e-14


def test_right_ham_section_canonical():
    P = canonical_prolongation()
    xi = right_ham_section(P, harmonic_hamiltonian(), PhasePoint([1.0], [2.0]))
    assert np.allclose(xi, [2.0, -1.0], atol=0)


def test_right_ham_section_so3_euler(so3):
    P = so3_default_prolongation(so3)
    x = PhasePoint([], [1.0, 1.0, 1.0])
    xi = right_ham_section(P, euler_hamiltonian(), x)
    assert np.allclose(xi[:3], [1.0, 0.5, 1 / 3])
    Dr = P.split.Dr.eval([])
    gp = np.array([1.0, 0.5, 1 / 3])
    expect = -np.einsum("gab,g,b->a", Dr, x.p, gp)
    assert np.allclose(xi[3:], expect)


def test_right_ham_section_base_pullback():
    P = canonical_prolongation(2)
    H = field_from_polynomial([(1.0, [2, 0, 0, 0]), (1.0, [0, 1, 0, 0])], 4)
    x = PhasePoint([0.5, -1.0], [0.3, 0.4])
    xi = right_ham_section(P, H, x)
    assert np.all(xi[:2] == 0.0)
    assert np.allclose(xi[2:], [-1.0, -1.0])  # minus the base gradient


def test_lr_field_equals_tensor_route_examples(so3):
    P = canonical_prolongation()
    x = PhasePoint([1.0], [2.0])
    assert np.allclose(lr_ham_field(P, harmonic_hamiltonian(), x), [2.0, -1.0])
    P3 = so3_default_prolongation(so3)
    xe = PhasePoint([], [1.0, 1.0, 1.0])
    assert np.max(np.abs(lr_ham_field(P3, euler_hamiltonian(), xe) - [-1 / 6, 2 / 3, -1 / 2])) <= 1e-14


def test_lr_field_equals_tensor_route_random():
    rng = np.random.default_rng(3)
    A = random_algebroid(rng, n=2, m=2, degree=2)
    split = random_valid_split(rng, A)
    R = random_curvature(rng, 2, 2)
    P = ProlongationData(A, split, R)
    H = random_phase_function(rng, 2, 2, degree=3)
    for _ in range(100):
        x = PhasePoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        lhs = lr_ham_field(P, H, x)
        rhs = ham_field(A, H, x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * (1 + np.max(np.abs(rhs)))


def test_lr_field_invariant_under_split_and_curvature_choice():
    rng = np.random.default_rng(4)
    A = random_algebroid(rng, n=2, m=3, degree=2)
    H = random_phase_function(rng, 2, 3, degree=3)
    P0 = ProlongationData(A, default_split(A), TensorField.zeros((3,) * 4, 2))
    P1 = ProlongationData(A, random_valid_split(rng, A), random_curvature(rng, 3, 2))
    P2 = ProlongationData(A, default_split(A), random_curvature(rng, 3, 2))
    for _ in range(20):
        x = PhasePoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 3))
        f0 = lr_ham_field(P0, H, x)
        assert np.max(np.abs(lr_ham_field(P1, H, x) - f0)) <= 1e-12 * (1 + np.max(np.abs(f0)))
        assert np.max(np.abs(lr_ham_field(P2, H, x) - f0)) <= 1e-12 * (1 + np.max(np.abs(f0)))


def test_d_skew_of_frame_pairing_is_zero_canonical():
    P = canonical_prolongation()
    x = PhasePoint([0.3], [0.9])
    assert np.all(d_skew(prolong_eval(P, x), omega(P, x)) == 0.0)


def test_d_skew_constant_tensor_zero_bracket():
    A = canonical_tangent(2)
    P = ProlongationData(A, default_split(A), TensorField.zeros((2,) * 4, 2))
    T = np.array(
        [[0, 1, 2, 0], [-1, 0, 0, 3], [-2, 0, 0, 1], [0, -3, -1, 0]], dtype=float
    )
    assert np.all(d_skew(prolong_eval(P, PhasePoint([0.1, 0.2], [0.3, 0.4])), T) == 0.0)


def bianchi_violating_prolongation(so3):
    R = np.zeros((3, 3, 3, 3))
    R[0, 0, 1, 2] = 1.0
    R[0, 1, 0, 2] = -1.0
    return ProlongationData(so3, default_split(so3), TensorField.from_constants(R, 0))


def test_d_skew_detects_bianchi_violation(so3):
    P = bianchi_violating_prolongation(so3)
    x = PhasePoint([], [1.0, 0.0, 0.0])
    ds = d_skew(prolong_eval(P, x), omega(P, x))
    assert abs(ds[0, 1, 2] - 1.0) <= 1e-14  # the cyclic fibre-weighted sum


def test_d_sym_of_skew_pairing_vanishes(so3):
    P = so3_default_prolongation(so3)
    x = PhasePoint([], [0.5, -0.5, 1.0])
    assert np.all(d_sym(prolong_eval(P, x), omega(P, x)) == 0.0)


def test_d_sym_constant_symmetric_flat_line():
    A = canonical_tangent(1)
    P = ProlongationData(A, default_split(A), TensorField.zeros((1,) * 4, 1))
    T = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert np.all(d_sym(prolong_eval(P, PhasePoint([0.2], [0.4])), T) == 0.0)


def test_closedness_zero_curvature_all_scenarios(so3):
    rng = np.random.default_rng(5)
    for P in (canonical_prolongation(), so3_default_prolongation(so3)):
        m, n = P.base.m, P.base.n
        for _ in range(10):
            x = PhasePoint(rng.uniform(-1, 1, n), rng.uniform(-1, 1, m))
            assert closedness_residual(P, x) <= 1e-10


def test_closedness_levi_civita_curvature(so3):
    P = so3_metric_prolongation(so3)
    rng = np.random.default_rng(6)
    for _ in range(10):
        x = PhasePoint([], rng.uniform(-1, 1, 3))
        assert closedness_residual(P, x) <= 1e-8


def test_closedness_negative_control(so3):
    P = bianchi_violating_prolongation(so3)
    assert closedness_residual(P, PhasePoint([], [1.0, 0.0, 0.0])) >= 0.5


@pytest.mark.parametrize(
    "config", ["gradient_extension.json", "nonholonomic_classical.json", "euler_top.json"]
)
def test_closedness_sees_curvature_only_from_rank_three(config):
    """A random constant R on the shipped splitting: closedness reads exactly
    zero at m = 2 (no three distinct horizontal slots for R's cyclic sum) and
    order one at m = 3."""
    bundle, _ = build_scenario(load_config(CONFIG_DIR / config).scenario)
    A = bundle.algebroid
    rng = np.random.default_rng(13)
    R = TensorField.from_constants(rng.uniform(-1, 1, (A.m,) * 4), A.n)
    P = ProlongationData(A, bundle.split, R)
    worst = worst_residual(
        closedness_residual(P, PhasePoint(rng.uniform(-1, 1, A.n), rng.uniform(-1, 1, A.m)))
        for _ in range(5)
    )
    if A.m == 2:
        assert worst == 0.0
    else:
        assert A.m == 3 and worst >= 0.1


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_closedness_is_the_full_differential_of_the_pairing(config):
    """The pairing is constant and skew, so the skew differential that
    closedness takes is the full one bit for bit, at one point and at a batch."""
    bundle, _ = build_scenario(load_config(CONFIG_DIR / config).scenario)
    A, P = bundle.algebroid, bundle.prolongation()
    q, p = random_phase_points(np.random.default_rng(17), A.n, A.m, 8)
    for x in (PhasePoint(q, p), PhasePoint(q[0], p[0])):
        O = omega(P, x, "frame_formula")
        full = max_abs(d_full(prolong_eval(P, x), O), 3)
        assert np.array_equal(closedness_residual(P, x), full)


def test_d_squared_lie_prolongations(so3):
    rng = np.random.default_rng(7)
    P2 = canonical_prolongation(2)
    phi = random_phase_function(rng, 2, 2, degree=2)
    x = PhasePoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
    assert d_squared_scalar_residual(P2, phi, x) <= 1e-8

    P3 = so3_metric_prolongation(so3)
    phi3 = random_phase_function(rng, 0, 3, degree=2)
    x3 = PhasePoint([], [1.0, 2.0, 3.0])
    assert d_squared_scalar_residual(P3, phi3, x3) <= 1e-8
    theta = tensor_from_config(
        [random_phase_function(rng, 0, 3, degree=1) for _ in range(6)], (6,), 3
    )
    assert d_squared_oneform_residual(P3, theta, x3) <= 1e-8


def lifted_algebroid(P: ProlongationData) -> AlgebroidStructure:
    """The lifted structure as an algebroid over the (q, p) chart, for the generic diagnostics.

    Its tensors are array-valued reads of :func:`prolong_eval`, so their jets
    are central differences.
    """
    n = P.base.n
    nm, size = n + P.base.m, P.frame_size

    def part(name, shape):
        return TensorField.from_array_fn(
            lambda z: getattr(prolong_eval(P, PhasePoint.from_z(z, n)), name), shape, nm
        )

    return AlgebroidStructure(
        n=nm,
        m=size,
        bracket=part("B", (size, size, size)),
        anchor_left=part("rho_l", (nm, size)),
        anchor_right=part("rho_r", (nm, size)),
    )


def test_metric_lift_is_canonical_bracket(so3):
    """With the metric splitting and its curvature, the lifted structure is
    the canonical one: skew, single-anchored, Jacobi, anchor morphism."""
    P = so3_metric_prolongation(so3)
    lifted = lifted_algebroid(P)
    rep = structure_checks(lifted, [1.0, 2.0, 3.0])
    assert rep.skew_defect <= 1e-12
    assert rep.anchor_lr_defect <= 1e-12
    assert rep.jacobiator_norm <= 1e-9
    assert rep.anchor_morphism_defect <= 1e-9


def test_default_lift_of_generic_base_is_not_lie():
    """A generic base with the zero-reference splitting lifts to a structure
    failing skewness; the diagnostics must see it."""
    rng = np.random.default_rng(12)
    A = random_algebroid(rng, n=1, m=2)
    P = ProlongationData(A, default_split(A), TensorField.zeros((2,) * 4, 1))
    rep = structure_checks(lifted_algebroid(P), [0.3, 0.5, -0.2])
    assert rep.skew_defect > 1e-3 or rep.anchor_lr_defect > 1e-3


def test_d_squared_nonjacobi_exceeds_threshold():
    bundle = build_constrained(nonjacobi_spec())
    P = bundle.prolongation()
    rng = np.random.default_rng(8)
    phi = random_phase_function(rng, 0, 3, degree=2)
    x = PhasePoint([], [1.0, 0.5, -0.8])
    assert d_squared_scalar_residual(P, phi, x) > 1e-3


def test_full_differential_splits():
    rng = np.random.default_rng(9)
    A = random_algebroid(rng, n=1, m=2)
    P = ProlongationData(A, default_split(A), random_curvature(rng, 2, 1))
    x = PhasePoint([0.2], [0.3, -0.4])
    T = rng.uniform(-1, 1, (4, 4))
    s = prolong_eval(P, x)
    assert np.max(np.abs(d_full(s, T) - d_skew(s, T) - d_sym(s, T))) <= 1e-15


class _Counter:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def test_each_call_evaluates_its_point_once(monkeypatch):
    import algmech.algebroid as algebroid
    import algmech.prolongation as prolongation

    rng = np.random.default_rng(31)
    A = random_algebroid(rng, n=2, m=2)
    P = ProlongationData(A, random_valid_split(rng, A), random_curvature(rng, 2, 2))
    H = random_phase_function(rng, 2, 2)
    x = PhasePoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
    lifted = _Counter(prolongation.prolong_eval)
    base = _Counter(algebroid.structure_eval)
    monkeypatch.setattr(prolongation, "prolong_eval", lifted)
    monkeypatch.setattr(algebroid, "structure_eval", base)
    for call in (
        lambda: lr_ham_field(P, H, x),
        lambda: omega(P, x, "generic_dlr"),
        lambda: closedness_residual(P, x),
    ):
        lifted.calls = 0
        call()
        assert lifted.calls == 1
    for B in (A, so3_algebra()):
        base.calls = 0
        structure_checks(B, rng.uniform(-1, 1, B.n))
        assert base.calls <= 1

import gc
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from algmech.algebroid import (
    _structure_values,
    algebroid_from_constants,
    canonical_tangent,
    structure_checks,
    structure_eval,
)
from algmech.config import build_scenario, initial_point
from algmech.errors import InputError, IntegrationDivergedError
from algmech.fields import TensorField, tensor_from_config
from algmech.hamiltonian import (
    PhasePoint,
    Trajectory,
    energy_rate,
    ham_field,
    integrate,
    momentum_pairing_hamiltonian,
    rk4_step,
)
from algmech.randoms import random_algebroid, random_phase_function, random_polynomial_tensor
from algmech.scenarios import build_contorsion, build_gradient_extension

from conftest import (
    euler_hamiltonian,
    field_from_polynomial,
    harmonic_hamiltonian,
    monitor_values,
    poisson_bracket,
    poisson_tensor,
    symmetric_product_line,
)


def test_poisson_tensor_canonical(canonical1):
    Pi = poisson_tensor(canonical1, PhasePoint([0.0], [0.0]))
    assert np.array_equal(Pi, [[0.0, 1.0], [-1.0, 0.0]])


def test_poisson_tensor_so3(so3):
    Pi = poisson_tensor(so3, PhasePoint([], [1.0, 2.0, 3.0]))
    assert Pi[0, 1] == -3.0  # {p1, p2} = -p3
    assert Pi[1, 0] == 3.0
    assert Pi[0, 2] == 2.0
    assert np.max(np.abs(Pi + Pi.T)) == 0.0


def test_poisson_tensor_symmetric_product():
    A = symmetric_product_line()
    Pi = poisson_tensor(A, PhasePoint([0.3], [0.1]))
    assert np.array_equal(Pi, [[0.0, -1.0], [-1.0, 0.0]])


def test_poisson_bracket_canonical(canonical1):
    q = field_from_polynomial([(1.0, [1, 0])], 2)
    p = field_from_polynomial([(1.0, [0, 1])], 2)
    x = PhasePoint([0.5], [0.2])
    assert poisson_bracket(canonical1, q, p, x) == 1.0
    assert poisson_bracket(canonical1, p, q, x) == -1.0


def test_poisson_bracket_so3_momenta(so3):
    p1 = field_from_polynomial([(1.0, [1, 0, 0])], 3)
    p2 = field_from_polynomial([(1.0, [0, 1, 0])], 3)
    x = PhasePoint([], [1.0, 2.0, 3.0])
    assert poisson_bracket(so3, p1, p2, x) == -3.0


def test_poisson_bracket_pullbacks_vanish():
    rng = np.random.default_rng(0)
    A = random_algebroid(rng, n=2, m=2)
    f = field_from_polynomial([(1.0, [2, 0, 0, 0]), (1.0, [0, 1, 0, 0])], 4)
    x = PhasePoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
    assert poisson_bracket(A, f, f, x) == 0.0


def test_bracket_reproduces_inducing_relations():
    """On fibre-linear and pullback functions the function bracket returns
    minus the bracket pairing, the anchor derivatives, and zero."""
    rng = np.random.default_rng(17)
    A = random_algebroid(rng, n=2, m=3)
    f = field_from_polynomial([(1.0, [2, 1, 0, 0, 0]), (0.5, [0, 1, 0, 0, 0])], 5)
    for _ in range(10):
        x = PhasePoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 3))
        from algmech.algebroid import structure_eval

        s = structure_eval(A, x.q)
        gf = np.concatenate([f.gradient(x.z)[:2], np.zeros(3)])
        for a in range(3):
            pa = field_from_polynomial([(1.0, [0, 0] + [1 if i == a else 0 for i in range(3)])], 5)
            for b in range(3):
                pb = field_from_polynomial(
                    [(1.0, [0, 0] + [1 if i == b else 0 for i in range(3)])], 5
                )
                lhs = poisson_bracket(A, pa, pb, x)
                assert abs(lhs - (-(s.B[:, a, b] @ x.p))) <= 1e-13
            lhs = poisson_bracket(A, pa, f, x)
            assert abs(lhs - (-(s.rho_l[:, a] @ gf[:2]))) <= 1e-13
            lhs = poisson_bracket(A, f, pa, x)
            assert abs(lhs - (s.rho_r[:, a] @ gf[:2])) <= 1e-13
        assert poisson_bracket(A, f, f, x) == 0.0


def test_ham_field_canonical_harmonic(canonical1):
    out = ham_field(canonical1, harmonic_hamiltonian(), PhasePoint([1.0], [2.0]))
    assert np.allclose(out, [2.0, -1.0], atol=0)


def test_ham_field_euler_top(so3):
    out = ham_field(so3, euler_hamiltonian(), PhasePoint([], [1.0, 1.0, 1.0]))
    assert np.max(np.abs(out - [-1 / 6, 2 / 3, -1 / 2])) <= 1e-15


def test_ham_field_gradient_extension_flat():
    from algmech.scenarios import build_gradient_extension

    G = TensorField.from_constants(np.eye(2), 2)
    X = tensor_from_config(
        [field_from_polynomial([(1.0, [0, 1])], 2), field_from_polynomial([(1.0, [1, 0])], 2)],
        (2,),
        2,
    )
    b = build_gradient_extension(G, X)
    out = ham_field(b.algebroid, b.hamiltonian, PhasePoint([1.0, 2.0], [3.0, 4.0]))
    assert np.allclose(out, [2.0, 1.0, 4.0, 3.0], atol=1e-14)


def test_ham_field_linearity():
    rng = np.random.default_rng(2)
    A = random_algebroid(rng, n=2, m=2)
    H1 = random_phase_function(rng, 2, 2)
    H2 = random_phase_function(rng, 2, 2)
    combo = H1.scaled(1.7) - H2.scaled(0.3)
    for _ in range(10):
        x = PhasePoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        lhs = ham_field(A, combo, x)
        rhs = 1.7 * ham_field(A, H1, x) - 0.3 * ham_field(A, H2, x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1 + np.max(np.abs(rhs)))


def _tilde_field(A, H, x):
    """The right-sided companion of ``ham_field`` at one point.

    The anchors swap roles and the bracket term appears transposed with
    opposite sign; the two fields coincide exactly when the bracket is skew
    and the anchors agree.
    """
    s = structure_eval(A, x.q)
    g = H.gradient(x.z)
    gq, gp = g[: A.n], g[A.n :]
    pB = np.einsum("c,cab->ab", x.p, s.B)
    return np.concatenate([s.rho_r @ gp, -pB @ gp - gq @ s.rho_l])


def test_tilde_field_coincides_for_skew(canonical1, so3):
    x = PhasePoint([0.7], [-0.3])
    H = harmonic_hamiltonian()
    assert np.max(np.abs(ham_field(canonical1, H, x) - _tilde_field(canonical1, H, x))) <= 1e-12
    xe = PhasePoint([], [0.4, 1.0, -2.0])
    He = euler_hamiltonian()
    assert np.max(np.abs(ham_field(so3, He, xe) - _tilde_field(so3, He, xe))) <= 1e-12


def test_tilde_field_differs_for_nonskew():
    B = np.zeros((2, 2, 2))
    B[0, 0, 1] = 1.0  # not skew
    A = algebroid_from_constants(B, n=0)
    H = field_from_polynomial([(0.5, [2, 0]), (0.5, [0, 2]), (1.0, [1, 1])], 2)
    x = PhasePoint([], [1.0, 2.0])
    assert np.max(np.abs(ham_field(A, H, x) - _tilde_field(A, H, x))) > 1e-3


def test_bracket_antisymmetry_iff_skew_and_equal_anchors():
    rng = np.random.default_rng(3)
    # skew instance with equal anchors: antisymmetry holds everywhere
    from conftest import so3_algebra

    A = so3_algebra()
    worst = 0.0
    for _ in range(100):
        phi = random_phase_function(rng, 0, 3, degree=2)
        psi = random_phase_function(rng, 0, 3, degree=2)
        x = PhasePoint([], rng.uniform(-1, 1, 3))
        worst = max(
            worst,
            abs(poisson_bracket(A, phi, psi, x) + poisson_bracket(A, psi, phi, x)),
        )
    assert worst <= 1e-12

    # generic instance: nonzero defects and a visible antisymmetry violation
    A2 = random_algebroid(rng, n=1, m=2)
    rep = structure_checks(A2, [0.3])
    assert rep.skew_defect > 0 or rep.anchor_lr_defect > 0
    violated = 0.0
    for _ in range(100):
        phi = random_phase_function(rng, 1, 2, degree=2)
        psi = random_phase_function(rng, 1, 2, degree=2)
        x = PhasePoint(rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 2))
        violated = max(
            violated,
            abs(poisson_bracket(A2, phi, psi, x) + poisson_bracket(A2, psi, phi, x)),
        )
    assert violated > 1e-6


def test_energy_rate_skew_is_zero(canonical1, so3):
    # zero up to contraction roundoff for any skew bracket
    assert abs(energy_rate(canonical1, harmonic_hamiltonian(), PhasePoint([1.2], [0.3]))) <= 1e-15
    assert abs(energy_rate(so3, euler_hamiltonian(), PhasePoint([], [1.0, 1.0, 1.0]))) <= 1e-15


def test_energy_rate_direct_torsion():
    # direct non-skew torsion entry: the self-bracket of H is -2 at p=(1,2,3),
    # so the energy production rate is +2
    T = np.zeros((3, 3, 3))
    T[0, 0, 1] = 1.0
    A = algebroid_from_constants(T, np.eye(3), np.eye(3), n=3)
    H = field_from_polynomial(
        [(0.5, [0, 0, 0, 2, 0, 0]), (0.5, [0, 0, 0, 0, 2, 0]), (0.5, [0, 0, 0, 0, 0, 2])], 6
    )
    x = PhasePoint([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    assert abs(energy_rate(A, H, x) - 2.0) <= 1e-14
    assert abs(poisson_bracket(A, H, H, x) + 2.0) <= 1e-14


@pytest.mark.parametrize("seed", range(5))
def test_energy_rate_is_minus_the_bivector_on_dh(seed):
    """dH(X_H), the rate that integrate records, equals -grad H^T Pi grad H of the oracle."""
    rng = np.random.default_rng(300 + seed)
    A = random_algebroid(rng)
    H = random_phase_function(rng, A.n, A.m, degree=3)
    for _ in range(5):
        x = PhasePoint(rng.uniform(-1, 1, A.n), rng.uniform(-1, 1, A.m))
        expected = -poisson_bracket(A, H, H, x)
        assert abs(energy_rate(A, H, x) - expected) <= 1e-14 * (1 + abs(expected))


def test_integrate_harmonic_energy_drift(canonical1):
    H = harmonic_hamiltonian()
    traj = integrate(canonical1, H, PhasePoint([1.0], [0.0]), 1e-3, 10000)
    Hs = traj.h_values()
    assert np.max(np.abs(Hs - Hs[0])) <= 1e-10
    assert len(traj.samples) == 10001
    ts = traj.times()
    assert np.allclose(np.diff(ts), 1e-3)


def test_integrate_euler_casimir_drift(so3):
    cas = field_from_polynomial([(1.0, [2, 0, 0]), (1.0, [0, 2, 0]), (1.0, [0, 0, 2])], 3)
    traj = integrate(
        so3, euler_hamiltonian(), PhasePoint([], [1.0, 1.0, 1.0]), 1e-3, 10000,
        monitors={"casimir": cas},
    )
    c = monitor_values(traj, "casimir")
    assert np.max(np.abs(c - c[0])) <= 1e-8


def test_gradient_extension_q_marginal_bitwise():
    from algmech.scenarios import build_gradient_extension

    G = TensorField.from_constants(np.eye(2), 2)
    X = tensor_from_config(
        [field_from_polynomial([(1.0, [0, 1])], 2), field_from_polynomial([(-1.0, [1, 0])], 2)],
        (2,),
        2,
    )
    b = build_gradient_extension(G, X)
    traj = integrate(b.algebroid, b.hamiltonian, PhasePoint([0.3, 0.4], [1.0, -1.0]), 1e-2, 200)

    def xdot(q):
        return np.array([q[1], -q[0]])

    q = np.array([0.3, 0.4])
    for z in traj.states():
        assert np.array_equal(z[:2], q)
        q = rk4_step(xdot, q, 1e-2)


def test_monitor_rate_is_minus_bracket_along_flow():
    rng = np.random.default_rng(7)
    A = random_algebroid(rng, n=1, m=2)
    H = random_phase_function(rng, 1, 2, degree=2)
    F = random_phase_function(rng, 1, 2, degree=2)
    h = 1e-3
    traj = integrate(A, H, PhasePoint([0.1], [0.2, -0.1]), h, 400, monitors={"F": F})
    Fs = monitor_values(traj, "F")
    for i in range(1, 399, 40):
        x = PhasePoint.from_z(traj.states()[i], 1)
        expected = -poisson_bracket(A, H, F, x)
        fd = (Fs[i + 1] - Fs[i - 1]) / (2 * h)
        assert abs(fd - expected) <= 1e-6 * (1 + abs(expected))


def test_integrate_divergence_reports_last_good_step():
    B = np.zeros((1, 1, 1))
    B[0, 0, 0] = -1.0
    A = algebroid_from_constants(B, n=0)
    cases = [
        ((0.5, [2]), 0.5, 10.0, 2),  # dp/dt = p^2 blows up in finite time
        # dp/dt = 4 p^4: the state after step 123 is finite, but H = p^4 and
        # its gradient at it overflow, so that sample cannot be recorded
        ((1.0, [4]), 0.1, 2.0, 122),
    ]
    for term, h, p0, last_good in cases:
        H = field_from_polynomial([term], 1)
        with pytest.raises(IntegrationDivergedError) as info:
            integrate(A, H, PhasePoint([], [p0]), h, 1000)
        assert info.value.last_good_step == last_good
        traj = info.value.trajectory
        assert len(traj.samples) == last_good + 1
        assert np.isfinite(traj.h_values()).all() and np.isfinite(traj.rate_values()).all()


def test_a_monitor_that_overflows_first_ends_the_trajectory():
    # dp/dt = -p^2 from p = -10 blows up near t = 0.1; the monitor p^100
    # overflows at the sample of step 100, before H, dH/dt and the state do
    # (without the monitor the trajectory ends two steps later)
    B = np.zeros((1, 1, 1))
    B[0, 0, 0] = -1.0
    A = algebroid_from_constants(B, n=0)
    H = field_from_polynomial([(0.5, [2])], 1)
    F = field_from_polynomial([(1.0, [100])], 1)
    x0 = PhasePoint([], [-10.0])
    with pytest.raises(IntegrationDivergedError) as info:
        integrate(A, H, x0, 1e-3, 1000, monitors={"F": F})
    with pytest.raises(IntegrationDivergedError) as plain:
        integrate(A, H, x0, 1e-3, 1000)
    assert info.value.last_good_step == 99
    assert plain.value.last_good_step == 101
    samples, ref = info.value.trajectory.samples, plain.value.trajectory.samples
    assert len(samples) == 100
    assert info.value.trajectory.csv_header() == "t,p1,H,dHdt,F"
    for row, ref_row in zip(samples, ref):
        assert np.array_equal(row[:4], ref_row)  # t, p1, H and dHdt
        assert row[4:].tolist() == [F.eval(row[1:2])]


def test_integrate_calls_ham_field_once_and_reads_a_constant_structure_once(monkeypatch):
    import algmech.algebroid as algebroid
    import algmech.hamiltonian as hamiltonian

    calls = {"ham_field": 0, "_structure_values": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    counted(hamiltonian, "ham_field")
    # the one structure read: structure_eval's (in ham_field) and the stage kernel's
    counted(algebroid, "_structure_values")
    counted(hamiltonian, "_structure_values")
    constant = canonical_tangent(2)  # n = 2: no snapshot built with the structure
    varying = random_algebroid(np.random.default_rng(3), n=1, m=2)
    for A, per_step in ((constant, 0), (varying, 4)):
        H = random_phase_function(np.random.default_rng(4), A.n, A.m, degree=2)
        x0 = PhasePoint(np.full(A.n, 0.1), np.full(A.m, 0.2))
        counts = []
        for steps in (5, 20):
            calls.update(ham_field=0, _structure_values=0)
            integrate(A, H, x0, 1e-3, steps)
            assert calls["ham_field"] == 1
            counts.append(calls["_structure_values"] - per_step * steps)
        assert counts[0] == counts[1] <= 2, counts


def _varying_case(name):
    """``(A, H, z0)``: a shipped config with a varying structure, or a random one (n = 1, m = 2)."""
    if name == "random":
        A = random_algebroid(np.random.default_rng(3), n=1, m=2)
        return A, random_phase_function(np.random.default_rng(4), A.n, A.m, degree=2), np.full(3, 0.1)
    path = pathlib.Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
    cfg = json.loads(path.read_text())
    bundle, _ = build_scenario(cfg["scenario"])
    return bundle.algebroid, bundle.hamiltonian, initial_point(cfg["integration"], bundle).z


@pytest.mark.parametrize("name", ["gradient_extension", "nonholonomic_classical", "random"])
def test_the_stage_kernel_is_ham_field_bit_for_bit(name):
    """A varying structure's stage is one structure read and one ``_field``, as ``ham_field``'s."""
    from algmech.hamiltonian import _stage_kernel

    A, H, z0 = _varying_case(name)
    assert A._varying
    kernel = _stage_kernel(A, H, z0[: A.n])
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = z0 + 0.05 * rng.standard_normal(z0.shape)
        # a fresh base point, then the same one with other momenta: the read is reused
        for w in (z, np.concatenate([z[: A.n], -z[A.n :]])):
            X, g = kernel(w)
            ref_X, ref_g = ham_field(A, H, PhasePoint.from_z(w, A.n), with_gradient=True)
            assert np.array_equal(X, ref_X) and np.array_equal(g, ref_g)


def test_a_metric_that_stops_being_positive_definite_ends_the_trajectory():
    # G = diag(1, 1 - q1^2) and X = (1, 0): q1 = t + 0.99 reaches 1 and G stops being SPD
    one = {"arity": 2, "terms": [{"coef": 1.0, "exp": [0, 0]}]}
    g22 = {"arity": 2, "terms": [{"coef": 1.0, "exp": [0, 0]}, {"coef": -1.0, "exp": [2, 0]}]}
    G = tensor_from_config([[one, 0], [0, g22]], (2, 2), 2)
    bundle = build_gradient_extension(G, tensor_from_config([one, 0], (2,), 2))
    x0 = PhasePoint([0.99, 0.0], [0.3, -0.4])
    with pytest.raises(IntegrationDivergedError) as info:
        integrate(bundle.algebroid, bundle.hamiltonian, x0, 1e-3, 100)
    # the stages of step 10 reach q1 = 1.0: the Christoffel solve's metric check refuses it
    assert info.value.last_good_step == 9 and len(info.value.trajectory.samples) == 10
    assert isinstance(info.value.__cause__, InputError)
    assert str(info.value.__cause__) == "metric not positive-definite at [1.0, 0.0]"


# -- the packed stage table: constant structure, polynomial H -------------------


def _constant_instances(count=24):
    """Seeded random constant algebroids (n = 0..3 in turn) with a random polynomial H."""
    for seed in range(count):
        rng = np.random.default_rng(seed)
        A = random_algebroid(rng, n=seed % 4, degree=0)
        yield rng, A, random_phase_function(rng, A.n, A.m)


def test_the_stage_table_is_the_field_and_the_gradient():
    from algmech.fields import _monomials
    from algmech.hamiltonian import _stage_table

    checked = set()
    for rng, A, H in _constant_instances():
        assert A._varying == []
        N = A.n + A.m
        E, C = _stage_table(_structure_values(A, np.zeros(A.n)), H, A.n)
        for _ in range(5):
            x = PhasePoint(*(rng.uniform(-1.5, 1.5, size=k) for k in (A.n, A.m)))
            X, g = ham_field(A, H, x, with_gradient=True)  # _field of H.gradient
            out = C @ _monomials(x.z, E)
            for got, ref in ((out[:N], X), (out[N:], g)):
                assert np.all(np.abs(got - ref) <= 1e-14 * (1.0 + np.abs(ref))), (got, ref)
        checked.add(A.n)
    assert checked == {0, 1, 2, 3}


def _as_closure(H):
    """H with the same value and gradient arithmetic, but not polynomial."""
    return TensorField.from_callable(H._values, H.arity, grad=H._gradient)


def test_the_packed_kernel_follows_the_general_kernel(monkeypatch):
    import algmech.hamiltonian as hamiltonian

    tables = []
    build = hamiltonian._stage_table
    monkeypatch.setattr(hamiltonian, "_stage_table", lambda *a: tables.append(1) or build(*a))
    cases = [(A, H, 1e-3) for _, A, H in _constant_instances(8)]
    for name in ("euler_top", "contorsion_dissipative", "canonical_harmonic"):
        path = pathlib.Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
        cfg = json.loads(path.read_text())
        bundle, _ = build_scenario(cfg["scenario"])
        cases.append((bundle.algebroid, bundle.hamiltonian, cfg["integration"]["h"]))
    for A, H, h in cases:
        x0 = PhasePoint(np.full(A.n, 0.3), np.linspace(-0.5, 0.5, A.m))
        del tables[:]
        packed = integrate(A, H, x0, h, 200).samples
        assert len(tables) == 1
        general = integrate(A, _as_closure(H), x0, h, 200).samples
        assert len(tables) == 1
        assert packed.shape == general.shape == (201, 3 + A.n + A.m)
        assert np.all(np.abs(packed - general) <= 1e-12 * (1.0 + np.abs(general)))


def test_a_diverging_packed_trajectory_ends_at_its_last_good_step():
    # dq/dt = 4 p^3, dp/dt = -4 q^3 from (3, 3): step 2 overflows
    H = field_from_polynomial([(1.0, [4, 0]), (1.0, [0, 4])], 2)
    for F in (H, _as_closure(H)):
        with pytest.raises(IntegrationDivergedError) as info:
            integrate(canonical_tangent(1), F, PhasePoint([3.0], [3.0]), 0.05, 100)
        assert info.value.last_good_step == 1
        assert len(info.value.trajectory.samples) == 2


def test_contorsion_data_is_packed_and_keeps_its_values():
    rng = np.random.default_rng(5)
    n = 3
    G = np.eye(n) + 0.2 * np.ones((n, n))
    T = rng.uniform(-1, 1, size=(n, n, n))
    V = field_from_polynomial([(0.5, [2, 0, 0]), (-1.0, [1, 1, 1])], n)
    bundle = build_contorsion(
        TensorField.from_constants(G, n), T=TensorField.from_constants(T, n), V=V
    )
    H, rate = bundle.hamiltonian, bundle.monitors["dissipation"]
    assert H._terms is not None and rate._terms is not None  # packed
    Ginv = np.linalg.inv(G)
    for _ in range(5):
        q, p = rng.uniform(-1, 1, size=n), rng.uniform(-1, 1, size=n)
        z, w = np.concatenate([q, p]), Ginv @ p
        assert abs(H.eval(z) - (0.5 * p @ w + V.eval(q))) <= 1e-14
        assert np.allclose(H.gradient(z), np.concatenate([V.gradient(q), w]), rtol=0, atol=1e-14)
        assert abs(rate.eval(z) + np.einsum("kij,k,i,j->", T, p, w, w)) <= 1e-13


# the shipped gradient_extension field X = (1, 0) conserves H = p.X exactly;
# X = (q2, q1^2) makes dH/dt non-zero
_SWIRL = {"vector_field": [
    {"arity": 2, "terms": [{"coef": 1.0, "exp": [0, 1]}]},
    {"arity": 2, "terms": [{"coef": 1.0, "exp": [2, 0]}]},
]}


@pytest.mark.parametrize(
    "name,override", [("contorsion_dissipative", {}), ("gradient_extension", _SWIRL)]
)
def test_samples_match_standalone_h_and_energy_rate(name, override):
    import json
    import pathlib

    from algmech.config import build_scenario, initial_point

    path = pathlib.Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
    cfg = json.loads(path.read_text())
    bundle, _ = build_scenario({**cfg["scenario"], **override})
    A, H = bundle.algebroid, bundle.hamiltonian
    x0 = initial_point(cfg["integration"], bundle)
    traj = integrate(A, H, x0, float(cfg["integration"]["h"]), 60, bundle.monitors)
    rates = traj.rate_values()
    assert max(abs(r) for r in rates) > 1e-3  # dH/dt is not identically zero here
    for z, hval, rate, mon in zip(traj.states(), traj.h_values(), rates, traj.monitor_table()):
        x = PhasePoint.from_z(z, A.n)
        ref_rate = -poisson_bracket(A, H, H, x)
        assert abs(rate - ref_rate) <= 1e-12 * (1 + abs(ref_rate))
        ref_h = H.eval(x.z)
        assert abs(hval - ref_h) <= 1e-12 * (1 + abs(ref_h))
        for k, name in enumerate(traj.monitor_names):
            assert mon[k] == bundle.monitors[name].eval(x.z)
    assert traj.monitor_names == list(bundle.monitors)


def _pairing_reference(X, z, n):
    """p.X(q) and its gradient [Xg^T p, X], from X's own jet, at a point or per row of a batch."""
    q, p = z[..., :n], z[..., n:]
    Xv, Xg = X.eval_grad(q)
    return np.sum(p * Xv, axis=-1), np.concatenate([np.einsum("...ij,...i->...j", Xg, p), Xv], -1)


def _packed_pairing_cases():
    rng = np.random.default_rng(22)
    for _ in range(24):
        n = int(rng.integers(1, 4))
        yield random_polynomial_tensor(rng, (n,), n, int(rng.integers(0, 3))), n
    yield tensor_from_config(_SWIRL["vector_field"], (2,), 2), 2


@pytest.mark.parametrize("case", range(25))
def test_a_packed_vector_field_gives_a_polynomial_pairing(case):
    X, n = list(_packed_pairing_cases())[case]
    H = momentum_pairing_hamiltonian(X, n)
    assert H._terms is not None  # packed
    Z = np.random.default_rng(case).uniform(-1.5, 1.5, (6, 2 * n))
    for z in [*Z, Z]:  # single points, then the batch
        v, g = _pairing_reference(X, z, n)
        assert np.all(np.abs(H.eval(z) - v) <= 1e-15 * (1 + np.abs(v)))
        assert np.all(np.abs(H.gradient(z) - g) <= 1e-15 * (1 + np.abs(g)))


def test_a_vector_field_with_a_closure_entry_keeps_the_closure_pairing():
    X = tensor_from_config([{"arity": 1, "builtin": "sin"}], (1,), 1)
    H = momentum_pairing_hamiltonian(X, 1)
    assert H._terms is None and H._grad is not None  # a closure with an exact gradient
    for z in ([0.3, -0.7], [-1.2, 2.0]):
        Xv, Xg = X.eval_grad(z[:1])
        assert H.eval(z) == z[1] * Xv[0]
        assert np.array_equal(H.gradient(z), [Xg[0, 0] * z[1], Xv[0]])


def test_a_pairing_refuses_a_vector_field_of_another_arity():
    with pytest.raises(InputError, match="arity 3"):
        momentum_pairing_hamiltonian(TensorField.from_constants([1.0, 0.0], 3), 2)


def test_integrate_validation(canonical1):
    H = harmonic_hamiltonian()
    for h in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(InputError, match="h must be a finite number > 0"):
            integrate(canonical1, H, PhasePoint([1.0], [0.0]), h, 10)
    for steps in (0, float("nan"), float("inf"), 2.7, True, "3"):
        with pytest.raises(InputError, match="steps must be an integer >= 1"):
            integrate(canonical1, H, PhasePoint([1.0], [0.0]), 1e-3, steps)
    assert len(integrate(canonical1, H, PhasePoint([1.0], [0.0]), 1e-3, np.int64(3)).samples) == 4
    with pytest.raises(InputError, match="steps is too large"):
        integrate(canonical1, H, PhasePoint([1.0], [0.0]), 1e-3, 2**63 - 1)
    with pytest.raises(InputError):
        ham_field(canonical1, H, PhasePoint([1.0, 2.0], [0.0]))


def test_csv_bytes_pinned():
    # t, q1, q2, p1, H, dHdt, a, b
    table = np.array([
        [0.0, -0.0, 5e-324, -1e308, 0.1, 1 / 3, 1e16, -0.0],
        [0.5, 1 / 3, -0.1, 0.0, -0.0, 5e-324, -1e308, 0.1],
    ])
    traj = Trajectory(n=2, m=1, samples=table, monitor_names=["a", "b"])
    assert traj.to_csv().split("\n") == [
        "t,q1,q2,p1,H,dHdt,a,b",
        "0,0,4.9406564584124654e-324,-1e+308,0.10000000000000001,0.33333333333333331,"
        "10000000000000000,0",
        "0.5,0.33333333333333331,-0.10000000000000001,0,0,4.9406564584124654e-324,"
        "-1e+308,0.10000000000000001",
        "",
    ]
    over_point = Trajectory(n=0, m=1, samples=np.array([[1.0, -0.0, 2.5, -0.0]]))
    assert over_point.to_csv() == "t,p1,H,dHdt\n1,0,2.5,0\n"


def test_csv_format(canonical1):
    H = harmonic_hamiltonian()
    mon = field_from_polynomial([(1.0, [0, 1])], 2)
    traj = integrate(canonical1, H, PhasePoint([1.0], [0.0]), 0.25, 2, monitors={"mom": mon})
    text = traj.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t,q1,p1,H,dHdt,mom"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1" and first[3] == "0.5"
    assert "-0," not in text and not text.endswith("-0")


def _bytes_kept_per_sample(steps, name="canonical_harmonic"):
    """Memory that an integration of a shipped config retains, per sample."""
    path = pathlib.Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
    cfg = json.loads(path.read_text())
    bundle, _ = build_scenario(cfg["scenario"])
    x0, h = initial_point(cfg["integration"], bundle), cfg["integration"]["h"]
    integrate(bundle.algebroid, bundle.hamiltonian, x0, h, 5)  # lazy tables built here
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj = integrate(bundle.algebroid, bundle.hamiltonian, x0, h, steps)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept / len(traj.samples)


def test_integrate_keeps_no_memory_per_stage():
    # a snapshot kept per RK4 stage would add about 3 KB per sample
    assert _bytes_kept_per_sample(1000) < 1500


def test_a_sample_is_one_table_row():
    # a row of canonical_harmonic's table is t, q1, p1, H and dHdt: 40 B of
    # floats; a Python object per sample would take several hundred bytes
    assert _bytes_kept_per_sample(10000) <= 100


def test_a_constrained_integration_keeps_no_memory_per_sample():
    # a row of nonholonomic_classical's table is 8 floats, 64 B; an adapted
    # frame kept per RK4 stage would add several KB per sample
    assert _bytes_kept_per_sample(200, "nonholonomic_classical") <= 100

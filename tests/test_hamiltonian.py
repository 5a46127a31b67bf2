import numpy as np
import pytest

from algmech.algebroid import algebroid_from_constants, canonical_tangent, structure_checks
from algmech.errors import InputError, IntegrationDivergedError
from algmech.fields import SmoothField, TensorField, field_from_polynomial
from algmech.hamiltonian import (
    PhasePoint,
    Trajectory,
    energy_rate,
    ham_field,
    integrate,
    poisson_bracket,
    poisson_tensor,
    rk4_step,
)
from algmech.randoms import random_algebroid, random_phase_function

from conftest import euler_hamiltonian, harmonic_hamiltonian, symmetric_product_line


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
    X = TensorField(
        np.array(
            [
                field_from_polynomial([(1.0, [0, 1])], 2),
                field_from_polynomial([(1.0, [1, 0])], 2),
            ],
            dtype=object,
        )
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


def test_tilde_field_coincides_for_skew(canonical1, so3):
    x = PhasePoint([0.7], [-0.3])
    H = harmonic_hamiltonian()
    assert np.max(np.abs(ham_field(canonical1, H, x) - ham_field(canonical1, H, x, "tilde"))) <= 1e-12
    xe = PhasePoint([], [0.4, 1.0, -2.0])
    He = euler_hamiltonian()
    assert np.max(np.abs(ham_field(so3, He, xe) - ham_field(so3, He, xe, "tilde"))) <= 1e-12


def test_tilde_field_differs_for_nonskew():
    B = np.zeros((2, 2, 2))
    B[0, 0, 1] = 1.0  # not skew
    A = algebroid_from_constants(B, n=0)
    H = field_from_polynomial([(0.5, [2, 0]), (0.5, [0, 2]), (1.0, [1, 1])], 2)
    x = PhasePoint([], [1.0, 2.0])
    assert np.max(np.abs(ham_field(A, H, x) - ham_field(A, H, x, "tilde"))) > 1e-3


def test_bracket_antisymmetry_iff_skew_and_equal_anchors():
    rng = np.random.default_rng(3)
    # skew instance with equal anchors: antisymmetry holds everywhere
    from algmech.algebroid import so3_algebra

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
    c = traj.monitor_values("casimir")
    assert np.max(np.abs(c - c[0])) <= 1e-8


def test_gradient_extension_q_marginal_bitwise():
    from algmech.scenarios import build_gradient_extension

    G = TensorField.from_constants(np.eye(2), 2)
    X = TensorField(
        np.array(
            [
                field_from_polynomial([(1.0, [0, 1])], 2),
                field_from_polynomial([(-1.0, [1, 0])], 2),
            ],
            dtype=object,
        )
    )
    b = build_gradient_extension(G, X)
    traj = integrate(b.algebroid, b.hamiltonian, PhasePoint([0.3, 0.4], [1.0, -1.0]), 1e-2, 200)

    def xdot(q):
        return np.array([q[1], -q[0]])

    q = np.array([0.3, 0.4])
    for k, smp in enumerate(traj.samples):
        assert np.array_equal(smp[1].q, q)
        q = rk4_step(xdot, q, 1e-2)


def test_monitor_rate_is_minus_bracket_along_flow():
    rng = np.random.default_rng(7)
    A = random_algebroid(rng, n=1, m=2)
    H = random_phase_function(rng, 1, 2, degree=2)
    F = random_phase_function(rng, 1, 2, degree=2)
    h = 1e-3
    traj = integrate(A, H, PhasePoint([0.1], [0.2, -0.1]), h, 400, monitors={"F": F})
    Fs = traj.monitor_values("F")
    for i in range(1, 399, 40):
        x = traj.samples[i][1]
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
        samples = info.value.trajectory.samples
        assert len(samples) == last_good + 1
        assert all(np.isfinite(s[2]) and np.isfinite(s[3]) for s in samples)


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
    rates = [s[3] for s in traj.samples]
    assert max(abs(r) for r in rates) > 1e-3  # dH/dt is not identically zero here
    for t, x, hval, rate, mon in traj.samples:
        ref_rate = energy_rate(A, H, x)
        assert abs(rate - ref_rate) <= 1e-12 * (1 + abs(ref_rate))
        ref_h = H.value(x.z)
        assert abs(hval - ref_h) <= 1e-12 * (1 + abs(ref_h))
        for k, name in enumerate(traj.monitor_names):
            assert mon[k] == bundle.monitors[name].value(x.z)
    assert traj.monitor_names == list(bundle.monitors)


def test_integrate_validation(canonical1):
    H = harmonic_hamiltonian()
    with pytest.raises(InputError):
        integrate(canonical1, H, PhasePoint([1.0], [0.0]), -1.0, 10)
    with pytest.raises(InputError):
        integrate(canonical1, H, PhasePoint([1.0], [0.0]), 1e-3, 0)
    with pytest.raises(InputError):
        ham_field(canonical1, H, PhasePoint([1.0, 2.0], [0.0]))


def test_csv_bytes_pinned():
    traj = Trajectory(h=0.5, n=2, m=1, monitor_names=["a", "b"])
    traj.samples.append(
        (0.0, PhasePoint([-0.0, 5e-324], [-1e308]), 0.1, 1 / 3, np.array([1e16, -0.0]))
    )
    traj.samples.append(
        (0.5, PhasePoint([1 / 3, -0.1], [0.0]), -0.0, 5e-324, np.array([-1e308, 0.1]))
    )
    assert traj.to_csv().split("\n") == [
        "t,q1,q2,p1,H,dHdt,a,b",
        "0,0,4.9406564584124654e-324,-1e+308,0.10000000000000001,0.33333333333333331,"
        "10000000000000000,0",
        "0.5,0.33333333333333331,-0.10000000000000001,0,0,4.9406564584124654e-324,"
        "-1e+308,0.10000000000000001",
        "",
    ]
    over_point = Trajectory(h=1.0, n=0, m=1)
    over_point.samples.append((1.0, PhasePoint([], [-0.0]), 2.5, -0.0, np.zeros(0)))
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

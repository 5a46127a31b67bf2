import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algmech.algebroid import (
    AlgebroidStructure,
    algebroid_from_constants,
    base_probes,
    canonical_tangent,
    diff_lr_section,
    levi_civita_symbol,
    structure_checks,
    structure_eval,
    sym_skew_parts,
)
from algmech.errors import InputError
from algmech.fields import (
    TensorField, tensor_from_config, vecmat,
)
from algmech.randoms import random_algebroid, random_polynomial_tensor
from algmech.scenarios import build_constrained

from conftest import field_from_polynomial, nonjacobi_spec, symmetric_product_line


def left_right_diff(A: AlgebroidStructure, F: TensorField, q):
    """Left and right differentials of a base function along the frame.

    ``dl[alpha] = sum_i rho_l[i, alpha] dF/dq_i`` and likewise with the right
    anchor.  Over a point (n = 0) both are zero vectors of length m.
    """
    if F.arity != A.n:
        raise InputError("function arity must equal the base dimension")
    s = structure_eval(A, q)
    gF = F.gradient(s.q)
    return vecmat(gF, s.rho_l), vecmat(gF, s.rho_r)


def test_structure_eval_canonical(canonical2):
    s = structure_eval(canonical2, [0.3, -0.4])
    assert np.all(s.B == 0.0)
    assert np.all(s.rho_l == np.eye(2))
    assert np.all(s.rho_r == np.eye(2))


def test_structure_eval_so3(so3):
    s = structure_eval(so3, [])
    eps = levi_civita_symbol()
    # value index first: coefficient of e_c in the bracket of (e_a, e_b)
    assert s.B[2, 0, 1] == 1.0 and s.B[2, 1, 0] == -1.0
    assert np.all(s.B == np.transpose(eps, (2, 0, 1)))
    assert s.rho_l.shape == (0, 3)


def test_structure_eval_symmetric_product_line():
    A = symmetric_product_line()
    s = structure_eval(A, [0.7])
    assert s.B[0, 0, 0] == 0.0
    assert s.rho_l[0, 0] == 1.0 and s.rho_r[0, 0] == -1.0


def test_decompose_so3(so3):
    B_A, rho_A, B_S, rho_S = sym_skew_parts(structure_eval(so3, []))
    assert np.all(B_A == structure_eval(so3, []).B)
    assert np.all(B_S == 0.0)


def test_decompose_symmetric_product():
    A = symmetric_product_line()
    B_A, rho_A, B_S, rho_S = sym_skew_parts(structure_eval(A, [0.2]))
    assert np.all(B_A == 0.0)
    assert np.all(rho_A == 0.0)
    assert rho_S[0, 0] == 1.0


def test_decompose_single_entry():
    B = np.zeros((2, 2, 2))
    B[0, 0, 1] = 1.0
    A = algebroid_from_constants(B, np.zeros((1, 2)), n=1)
    B_A, _, B_S, _ = sym_skew_parts(structure_eval(A, [0.0]))
    assert B_A[0, 0, 1] == 0.5 and B_A[0, 1, 0] == -0.5
    assert B_S[0, 0, 1] == 0.5 and B_S[0, 1, 0] == 0.5


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 1234))
def test_decompose_recombines_exactly(seed):
    rng = np.random.default_rng(seed)
    A = random_algebroid(rng)
    for _ in range(5):
        q = rng.uniform(-1, 1, size=A.n)
        s = structure_eval(A, q)
        B_A, rho_A, B_S, rho_S = sym_skew_parts(structure_eval(A, q))
        assert np.max(np.abs(B_A + B_S - s.B)) <= 1e-14
        if A.n:
            assert np.max(np.abs(rho_A + rho_S - s.rho_l)) <= 1e-14
            assert np.max(np.abs(rho_A - rho_S - s.rho_r)) <= 1e-14


def test_left_right_diff_canonical(canonical1):
    F = field_from_polynomial([(1.0, [2])], 1)  # q^2
    dl, dr = left_right_diff(canonical1, F, [0.8])
    assert np.allclose(dl, [1.6]) and np.allclose(dr, [1.6])


def test_left_right_diff_symmetric_product():
    A = symmetric_product_line()
    F = field_from_polynomial([(1.0, [1])], 1)
    dl, dr = left_right_diff(A, F, [0.0])
    assert np.allclose(dl, [1.0]) and np.allclose(dr, [-1.0])


def test_left_right_diff_over_point(so3):
    F = field_from_polynomial([(2.0, [])], 0)
    dl, dr = left_right_diff(so3, F, [])
    assert np.all(dl == 0.0) and np.all(dr == 0.0) and dl.shape == (3,)


def test_diff_lr_canonical_line(canonical1):
    kappa = tensor_from_config([field_from_polynomial([(1.0, [1])], 1)], (1,), 1)
    out = diff_lr_section(structure_eval(canonical1, [0.4]), kappa)
    assert abs(out[0, 0]) <= 1e-15


def test_diff_lr_constant_section_bracket_term():
    # anchors zero, single bracket entry B[0, 0, 1] = 1, constant section (1, 0):
    # only the bracket term survives and it enters with a minus sign
    B = np.zeros((2, 2, 2))
    B[0, 0, 1] = 1.0
    A = algebroid_from_constants(B, np.zeros((1, 2)), n=1)
    kappa = TensorField.from_constants(np.array([1.0, 0.0]), 1)
    out = diff_lr_section(structure_eval(A, [0.0]), kappa)
    expect = np.zeros((2, 2))
    expect[0, 1] = -1.0
    assert np.array_equal(out, expect)


def test_diff_lr_zero_section_is_zero():
    rng = np.random.default_rng(5)
    A = random_algebroid(rng, n=2, m=2)
    kappa = TensorField.zeros((2,), 2)
    out = diff_lr_section(structure_eval(A, rng.uniform(-1, 1, 2)), kappa)
    assert np.all(out == 0.0)


def test_diff_lr_leibniz_identity():
    rng = np.random.default_rng(11)
    A = random_algebroid(rng, n=2, m=2)
    F = random_polynomial_tensor(rng, (), 2, 2)
    kap = [random_polynomial_tensor(rng, (), 2, 2) for _ in range(2)]
    kappa = tensor_from_config(kap, (2,), 2)

    # products of fields are not provided; build F*k as an exact-jet closure
    def prod_field(k):
        return TensorField.from_callable(
            lambda q, k=k: F._values(q) * k._values(q),
            2,
            grad=lambda q, k=k: F._values(q) * k._gradient(q) + k._values(q) * F._gradient(q),
        )

    fkappa = tensor_from_config([prod_field(k) for k in kap], (2,), 2)
    for _ in range(5):
        q = rng.uniform(-1, 1, 2)
        lhs = diff_lr_section(structure_eval(A, q), fkappa)
        dlF, drF = left_right_diff(A, F, q)
        kv = kappa.eval(q)
        rhs = F.eval(q) * diff_lr_section(structure_eval(A, q), kappa)
        rhs += np.outer(dlF, kv) - np.outer(kv, drF)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_left_diff_linear_and_product_rule():
    rng = np.random.default_rng(21)
    A = random_algebroid(rng, n=2, m=3)
    F = random_polynomial_tensor(rng, (), 2, 2)
    G = random_polynomial_tensor(rng, (), 2, 2)

    FG = TensorField.from_callable(
        lambda q: F._values(q) * G._values(q),
        2,
        grad=lambda q: F._values(q) * G._gradient(q) + G._values(q) * F._gradient(q),
    )
    combo = F.scaled(2.0) - G.scaled(0.5)
    for _ in range(10):
        q = rng.uniform(-1, 1, 2)
        dlF, drF = left_right_diff(A, F, q)
        dlG, drG = left_right_diff(A, G, q)
        dl_combo, dr_combo = left_right_diff(A, combo, q)
        assert np.max(np.abs(dl_combo - (2.0 * dlF - 0.5 * dlG))) <= 1e-12
        assert np.max(np.abs(dr_combo - (2.0 * drF - 0.5 * drG))) <= 1e-12
        dl_prod, _ = left_right_diff(A, FG, q)
        expect = F.eval(q) * dlG + G.eval(q) * dlF
        assert np.max(np.abs(dl_prod - expect)) <= 1e-12 * (1 + np.max(np.abs(expect)))


def test_diff_lr_skew_case_is_standard_differential(so3):
    # skew bracket with equal anchors: the two-anchor differential of a
    # one-section is skew and coincides with the usual frame formula
    kappa = TensorField.from_constants(np.array([1.0, -2.0, 0.5]), 0)
    out = diff_lr_section(structure_eval(so3, []), kappa)
    assert np.max(np.abs(out + out.T)) <= 1e-15
    s = structure_eval(so3, [])
    expect = -np.einsum("mbc,m->bc", s.B, np.array([1.0, -2.0, 0.5]))
    assert np.allclose(out, expect)


def test_structure_checks_canonical(canonical2):
    rep = structure_checks(canonical2, [0.1, 0.2])
    assert rep.skew_defect == 0.0
    assert rep.anchor_lr_defect == 0.0
    assert rep.jacobiator_norm == 0.0
    assert rep.anchor_morphism_defect == 0.0


def test_structure_checks_so3(so3):
    rep = structure_checks(so3, [])
    assert rep.skew_defect == 0.0
    assert rep.jacobiator_norm <= 1e-15
    assert rep.anchor_lr_defect == 0.0


def test_structure_checks_nonjacobi_projection():
    bundle = build_constrained(nonjacobi_spec())
    rep = structure_checks(bundle.algebroid, [])
    assert rep.skew_defect <= 1e-12  # classical projection stays skew
    assert rep.jacobiator_norm > 0.1  # but the Jacobi identity fails


def test_dimension_errors(canonical2):
    with pytest.raises(InputError):
        structure_eval(canonical2, [0.0])
    with pytest.raises(InputError):
        left_right_diff(canonical2, field_from_polynomial([(1.0, [1])], 1), [0, 0])
    with pytest.raises(InputError):
        AlgebroidStructure(
            n=1,
            m=2,
            bracket=TensorField.zeros((2, 2, 2), 1),
            anchor_left=TensorField.zeros((2, 2), 1),
            anchor_right=TensorField.zeros((1, 2), 1),
        )


@pytest.mark.parametrize("seed", [2024, 12345, 7])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_base_probes_are_the_origin_then_successive_draws(n, seed):
    probes = base_probes(n, seed)
    assert isinstance(probes, np.ndarray) and probes.shape == (5, n)
    assert np.array_equal(probes[0], np.zeros(n))
    rng = np.random.default_rng(seed)
    for row in probes[1:]:
        assert np.array_equal(row, rng.uniform(-1.0, 1.0, size=n))


def test_base_probes_over_a_point_are_one_empty_row():
    probes = base_probes(0, seed=2024)
    assert isinstance(probes, np.ndarray) and probes.shape == (1, 0)

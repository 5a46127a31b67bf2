"""The array calculus against its entrywise loop formulas, and on base algebroids.

Each ``_*_loop`` below is the formula written one frame index at a time; it
shares no array arithmetic with the code it checks.
"""

import itertools

import numpy as np
import pytest

from algmech.algebroid import (
    StructureSnapshot,
    algebroid_from_constants,
    canonical_tangent,
    d_skew,
    d_skew_oneform,
    d_skew_scalar,
    diff_lr_section,
    jacobiator,
    structure_checks,
    structure_eval,
)
from algmech.connections import curvature_at
from algmech.fields import TensorField
from algmech.hamiltonian import PhasePoint
from algmech.prolongation import ProlongationData, omega, prolong_eval
from algmech.randoms import (
    random_algebroid,
    random_curvature,
    random_polynomial_tensor,
    random_valid_split,
)
from conftest import d_sym, so3_algebra

RANKS = (1, 2, 3)


def _close(out, ref, tol=1e-15):
    return np.max(np.abs(out - ref)) <= tol * (1 + np.max(np.abs(ref)))


def _random_snapshot(rng, n, m):
    return StructureSnapshot(
        B=rng.uniform(-1, 1, (m, m, m)),
        rho_l=rng.uniform(-1, 1, (n, m)),
        rho_r=rng.uniform(-1, 1, (n, m)),
        q=rng.uniform(-1, 1, n),
    )


def _diff_lr_loop(s, kv, kg):
    m = s.B.shape[0]
    out = np.empty((m, m))
    for b, g in itertools.product(range(m), repeat=2):
        d_left = sum(s.rho_l[i, b] * kg[g, i] for i in range(kg.shape[1]))
        d_right = sum(s.rho_r[i, g] * kg[b, i] for i in range(kg.shape[1]))
        out[b, g] = d_left - d_right - sum(s.B[mu, b, g] * kv[mu] for mu in range(m))
    return out


def _d_two_loop(s, vals, grads, sign):
    """rho(a)T(b,c) + sign rho(b)T(a,c) + rho(c)T(a,b)
    - T(C(a,b),c) - sign T(C(a,c),b) - T(C(b,c),a), on the matching parts."""
    m, n = s.B.shape[0], s.q.shape[0]
    T = 0.5 * (vals + sign * vals.T)
    dT = 0.5 * (grads + sign * np.swapaxes(grads, 0, 1))
    C = 0.5 * (s.B + sign * np.swapaxes(s.B, 1, 2))
    rho = 0.5 * (s.rho_l - sign * s.rho_r)

    def along(a, b, c):  # rho(f_a)(T[b, c])
        return sum(rho[i, a] * dT[b, c, i] for i in range(n))

    def at_bracket(a, b, c):  # T(C(f_a, f_b), f_c)
        return sum(C[d, a, b] * T[d, c] for d in range(m))

    out = np.empty((m, m, m))
    for a, b, c in itertools.product(range(m), repeat=3):
        out[a, b, c] = (
            along(a, b, c) + sign * along(b, a, c) + along(c, a, b)
            - at_bracket(a, b, c) - sign * at_bracket(a, c, b) - at_bracket(b, c, a)
        )
    return out


@pytest.mark.parametrize("m", RANKS)
def test_lifted_mixed_blocks_match_entrywise_loop(m):
    rng = np.random.default_rng(100 + m)
    A = random_algebroid(rng, n=2, m=m)
    P = ProlongationData(A, random_valid_split(rng, A), random_curvature(rng, m, 2))
    x = PhasePoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, m))
    B = prolong_eval(P, x).B
    Dl, Dr = P.split.Dl.eval(x.q), P.split.Dr.eval(x.q)
    for a, b in itertools.product(range(m), repeat=2):
        assert np.array_equal(B[m:, a, m + b], -Dl[b, a, :])
        assert np.array_equal(B[m:, m + a, b], Dr[a, b, :])
    assert np.all(B[m:, m:, m:] == 0.0) and np.all(B[:m, m:, :] == 0.0)
    assert np.all(B[:m, :, m:] == 0.0)


@pytest.mark.parametrize("m", RANKS)
def test_generic_dlr_matches_entrywise_loop(m):
    rng = np.random.default_rng(110 + m)
    A = random_algebroid(rng, n=2, m=m)
    P = ProlongationData(A, random_valid_split(rng, A), random_curvature(rng, m, 2))
    x = PhasePoint(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, m))
    s = prolong_eval(P, x)
    # the canonical dual section (p, 0) and its chart gradient
    lam_v = np.concatenate([x.p, np.zeros(m)])
    lam_g = np.zeros((2 * m, 2 + m))
    for a in range(m):
        lam_g[a, 2 + a] = 1.0
    ref = -_diff_lr_loop(s, lam_v, lam_g)
    assert _close(omega(P, x, "generic_dlr"), ref)


@pytest.mark.parametrize("m", RANKS)
def test_jacobiator_matches_entrywise_loop(m):
    rng = np.random.default_rng(120 + m)
    A = random_algebroid(rng, n=2, m=m)
    q = rng.uniform(-1, 1, 2)
    Bv, Bg = A.bracket.eval_grad(q)
    rho = structure_eval(A, q).rho_l

    def half(a, b, c):  # B(s_a, B(s_b, s_c))
        return np.array([
            sum(Bv[mu, b, c] * Bv[nu, a, mu] for mu in range(m))
            + sum(Bg[nu, b, c, i] * rho[i, a] for i in range(2))
            for nu in range(m)
        ])

    ref = np.empty((m, m, m, m))
    for a, b, c in itertools.product(range(m), repeat=3):
        ref[:, a, b, c] = half(a, b, c) + half(b, c, a) + half(c, a, b)
    assert _close(jacobiator(structure_eval(A, q), Bv, Bg), ref)


@pytest.mark.parametrize("m", RANKS)
def test_anchor_morphism_defect_matches_entrywise_loop(m):
    rng = np.random.default_rng(125 + m)
    A = random_algebroid(rng, n=2, m=m)
    q = rng.uniform(-1, 1, 2)
    rv, rg = A.anchor_left.eval_grad(q)
    B = structure_eval(A, q).B
    ref = 0.0
    for a, b in itertools.product(range(m), repeat=2):
        for i in range(2):
            image = sum(rv[i, c] * B[c, a, b] for c in range(m))
            commutator = sum(rg[i, b, j] * rv[j, a] - rg[i, a, j] * rv[j, b] for j in range(2))
            ref = max(ref, abs(image - commutator))
    assert abs(structure_checks(A, q).anchor_morphism_defect - ref) <= 1e-15 * (1 + ref)


def _curvature_loop(s, Gv, Gg):
    """R(s_a, s_b) s_nu = D_a D_b s_nu - D_b D_a s_nu - D_{B(s_a,s_b)} s_nu, entry by entry."""
    m, n = s.B.shape[0], s.q.shape[0]
    R = np.empty((m, m, m, m))
    for mu, a, b, nu in itertools.product(range(m), repeat=4):
        derivative = sum(Gg[mu, b, nu, j] * s.rho_l[j, a] for j in range(n)) - sum(
            Gg[mu, a, nu, j] * s.rho_l[j, b] for j in range(n)
        )
        quadratic = sum(Gv[l, b, nu] * Gv[mu, a, l] for l in range(m)) - sum(
            Gv[l, a, nu] * Gv[mu, b, l] for l in range(m)
        )
        bracket = -sum(s.B[l, a, b] * Gv[mu, l, nu] for l in range(m))
        R[mu, a, b, nu] = derivative + quadratic + bracket
    return R


def test_curvature_matches_entrywise_loop_exactly():
    # the same products summed in the same order: equal bit for bit
    rng = np.random.default_rng(127)
    for _ in range(60):
        n, m = int(rng.integers(0, 4)), int(rng.integers(1, 4))
        A = random_algebroid(rng, n=n, m=m)
        Gamma = random_polynomial_tensor(rng, (m, m, m), n, 2)
        q = rng.uniform(-1, 1, n)
        Gv, Gg = Gamma.eval_grad(q)
        ref = _curvature_loop(structure_eval(A, q), Gv, Gg)
        assert np.array_equal(curvature_at(A, Gamma, q), ref)


@pytest.mark.parametrize("n", (0, 2))
@pytest.mark.parametrize("m", RANKS)
def test_diff_lr_section_matches_entrywise_loop(m, n):
    rng = np.random.default_rng(130 + 10 * n + m)
    s = _random_snapshot(rng, n, m)
    kappa = random_polynomial_tensor(rng, (m,), n, 2)
    kv, kg = kappa.eval_grad(s.q)
    assert _close(diff_lr_section(s, kappa), _diff_lr_loop(s, kv, kg))


@pytest.mark.parametrize("m", RANKS)
def test_d_skew_and_d_sym_match_entrywise_loop(m):
    rng = np.random.default_rng(140 + m)
    s = _random_snapshot(rng, 2, m)
    T = random_polynomial_tensor(rng, (m, m), 2, 2)
    vals, grads = T.eval_grad(s.q)
    assert _close(d_skew(s, T), _d_two_loop(s, vals, grads, -1.0))
    assert _close(d_sym(s, T), _d_two_loop(s, vals, grads, 1.0))


def _d_squared_on_base(A, phi, q):
    """The skew differential applied twice to a function, on the base algebroid."""
    theta = TensorField.from_array_fn(
        lambda z: d_skew_scalar(structure_eval(A, z), phi), (A.m,), A.n
    )
    return float(np.max(np.abs(d_skew_oneform(structure_eval(A, q), theta))))


def test_base_d_squared_vanishes_on_lie_algebroids():
    # over the plane the inner differential's jet is a central difference
    # with the default step: its rounding noise reads about 3e-12
    rng = np.random.default_rng(150)
    for A, tol in ((so3_algebra(), 1e-12), (canonical_tangent(2), 1e-10)):
        phi = random_polynomial_tensor(rng, (), A.n, 2)
        for _ in range(3):
            assert _d_squared_on_base(A, phi, rng.uniform(-1, 1, A.n)) <= tol


def test_base_d_squared_detects_non_jacobi_bracket():
    # a random constant skew bracket over the 3-space with unit anchors: the
    # Jacobi identity fails and the anchor is not a morphism
    rng = np.random.default_rng(151)
    B = rng.uniform(-1, 1, (3, 3, 3))
    A = algebroid_from_constants(B - np.swapaxes(B, 1, 2), np.eye(3), n=3)
    q = rng.uniform(-1, 1, 3)
    assert structure_checks(A, q).jacobiator_norm >= 0.1
    assert _d_squared_on_base(A, random_polynomial_tensor(rng, (), 3, 2), q) >= 0.1

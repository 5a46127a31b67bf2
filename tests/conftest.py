"""Shared instances for the test suite."""

import os
import pathlib

import numpy as np
import pytest

from algmech.algebroid import (
    AlgebroidStructure,
    _d_two,
    algebroid_from_constants,
    canonical_tangent,
    d_skew,
    so3_constants,
    structure_eval,
)
from algmech.fields import TensorField, tensor_from_config
from algmech.scenarios import (
    ConstraintSpec, _AdaptedFrame, build_lie_poisson, euler_top_hamiltonian, so3_casimir,
)

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"


# -- helpers that only the tests use ------------------------------------------


def d_sym(s, T):
    """Symmetric differential of the symmetric part of a (0,2) section (``_d_two``, sign +1)."""
    return _d_two(s, T, 1.0)


def d_full(s, T):
    """Differential of a general (0,2) section: skew part + symmetric part."""
    return d_skew(s, T) + d_sym(s, T)


def so3_algebra():
    """The rotation algebra over a point."""
    return algebroid_from_constants(so3_constants(), n=0)


def build_euler_top(inertia=(1.0, 2.0, 3.0)):
    """Free rigid body as a Lie-Poisson system on the rotation algebra."""
    return build_lie_poisson(
        so3_constants(), euler_top_hamiltonian(inertia), monitors={"casimir": so3_casimir()}
    )


def field_from_polynomial(terms, arity):
    """Polynomial field from ``[(coefficient, exponent_vector), ...]``."""
    return TensorField.polynomial(terms, arity)


def monitor_values(traj, name):
    """The column of the monitor ``name`` in a trajectory's table."""
    return traj.monitor_table()[:, traj.monitor_names.index(name)]


def checkout_env():
    """Environment for a child interpreter that imports this checkout's ``algmech``.

    PYTHONPATH starts with the absolute ``src/`` of this checkout, so the
    child imports the same ``algmech`` as the tests whatever its working
    directory is and whatever is installed. Inherited entries follow, made
    absolute because they were relative to the parent's working directory.
    """
    inherited = [
        str(pathlib.Path(p).resolve())
        for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if p
    ]
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC_DIR), *inherited])}


@pytest.fixture
def frame_calls(monkeypatch):
    """The batch size of every adapted-frame evaluation from here on, in call order.

    An evaluation is one call of ``_AdaptedFrame._frame_jet``: the frame at
    a point or a batch of points, which every core evaluation makes once.
    """
    calls = []
    frame_jet = _AdaptedFrame._frame_jet

    def counted(self, Q, complete=True):
        calls.append(Q.shape[0])
        return frame_jet(self, Q, complete)

    monkeypatch.setattr(_AdaptedFrame, "_frame_jet", counted)
    return calls


@pytest.fixture
def so3():
    return so3_algebra()


@pytest.fixture
def canonical1():
    return canonical_tangent(1)


@pytest.fixture
def canonical2():
    return canonical_tangent(2)


def nested(entries, shape):
    """The flat, row-major ``entries`` as nested lists of ``shape``, for ``tensor_from_config``."""
    entries = list(entries)
    for size in reversed(shape[1:]):
        entries = [entries[i : i + size] for i in range(0, len(entries), size)]
    return entries


def poisson_tensor(A, x):
    """The linear bivector Pi induced on the dual chart at the phase point ``x``.

    An (n+m)x(n+m) matrix in the order (q_1..q_n, p_1..p_m), assembled entry
    by entry from the structure snapshot, as an oracle that shares no
    arithmetic with ``ham_field``:
    [q, q] = 0, [q_i, p_a] = rho_r[i, a], [p_b, q_j] = -rho_l[j, b],
    [p_a, p_b] = -sum_c B[c, a, b] p_c.
    """
    s = structure_eval(A, x.q)
    n, m = A.n, A.m
    Pi = np.zeros((n + m, n + m))
    for a in range(m):
        for i in range(n):
            Pi[i, n + a] = s.rho_r[i, a]
            Pi[n + a, i] = -s.rho_l[i, a]
        for b in range(m):
            Pi[n + a, n + b] = -sum(x.p[c] * s.B[c, a, b] for c in range(m))
    return Pi


def poisson_bracket(A, phi, psi, x):
    """The function bracket (grad phi)^T Pi (grad psi) at ``x``, from :func:`poisson_tensor`."""
    return float(phi.gradient(x.z) @ poisson_tensor(A, x) @ psi.gradient(x.z))


def ctilde_display(frame, q):
    """The closed-form projected coefficients from the ambient display, at ``q``.

    Output layout [a, b, c] matches the bracket convention: value a,
    arguments (b, c).  Uses the cross Gram block, the full inverse metric
    restricted to kinematic indices, the adapted-frame bracket coefficients
    and the anchor-directional derivative of the cross block.
    """
    core = frame._compute_core(q)
    k = frame.k
    C, Ginv, g, dg = core["C_new"], core["Ginv"], core["g"], core["dg"]
    Cb = C[:, :, :k]  # second argument kinematic
    val = Cb[:k, :k] + np.einsum("aj,jdb->adb", g, Cb[k:, :k])
    val -= np.einsum("dj,ajb->adb", g, Cb[:k, k:] + np.einsum("al,ljb->ajb", g, Cb[k:, k:]))
    val -= np.einsum("dj,ajb->adb", g, dg @ core["rho_new"][:, :k])
    return -np.einsum("cd,adb->abc", Ginv[:k, :k], val)


def harmonic_hamiltonian():
    """H = p^2/2 + q^2/2 on the 1d chart."""
    return field_from_polynomial([(0.5, [0, 2]), (0.5, [2, 0])], 2)


def euler_hamiltonian(inertia=(1.0, 2.0, 3.0)):
    terms = []
    for a, I in enumerate(inertia):
        e = [0, 0, 0]
        e[a] = 2
        terms.append((0.5 / I, e))
    return field_from_polynomial(terms, 3)


def symmetric_product_line():
    """Rank-1 symmetric-bracket structure on a 1d chart with unit metric."""
    return AlgebroidStructure(
        n=1,
        m=1,
        bracket=TensorField.zeros((1, 1, 1), 1),
        anchor_left=TensorField.from_constants(np.eye(1), 1),
        anchor_right=TensorField.from_constants(-np.eye(1), 1),
    )


def curved_plane_metric():
    """diag(1, 1 + q1^2) over the 2d chart."""
    one = field_from_polynomial([(1.0, [0, 0])], 2)
    zero = TensorField.zeros((), 2)
    g22 = field_from_polynomial([(1.0, [0, 0]), (1.0, [2, 0])], 2)
    return tensor_from_config([[one, zero], [zero, g22]], (2, 2), 2)


def tr3_classical_spec():
    """Genuinely nonholonomic kinematic plane field in a curved 3d chart."""
    amb = canonical_tangent(3)
    q2 = field_from_polynomial([(1.0, [0, 1, 0])], 3)
    one = field_from_polynomial([(1.0, [0, 0, 0])], 3)
    zero = TensorField.zeros((), 3)
    g22 = field_from_polynomial([(1.0, [0, 0, 0]), (1.0, [2, 0, 0])], 3)
    G = tensor_from_config([[one, zero, zero], [zero, g22, zero], [zero, zero, one]], (3, 3), 3)
    V = field_from_polynomial([(0.5, [0, 2, 0]), (1.0, [2, 0, 0])], 3)
    return ConstraintSpec(
        ambient=amb,
        metric=G,
        kinematic_basis=tensor_from_config([[1, 0, q2], [0, 1, 0]], (2, 3), 3),
        potential=V,
    )


def generalized_so3_spec():
    """Kinematic and variational subbundles differ inside the rotation algebra."""
    return ConstraintSpec(
        ambient=so3_algebra(),
        metric=TensorField.from_constants(np.eye(3), 0),
        kinematic_basis=tensor_from_config([[1, 0, 0], [0, 1, 0]], (2, 3), 0),
        variational_basis=tensor_from_config([[1, 0, 0], [0, 1, 1]], (2, 3), 0),
    )


def generalized_so3_inertia_spec():
    """The servo bases of :func:`generalized_so3_spec` under the metric diag(1, 2, 3).

    Under the unit metric the constrained field is zero and p(t) stays put;
    under this one it moves, so a Legendre comparison on it measures something.
    """
    return ConstraintSpec(
        ambient=so3_algebra(),
        metric=TensorField.from_constants(np.diag([1.0, 2.0, 3.0]), 0),
        kinematic_basis=tensor_from_config([[1, 0, 0], [0, 1, 0]], (2, 3), 0),
        variational_basis=tensor_from_config([[1, 0, 0], [0, 1, 1]], (2, 3), 0),
    )


def se2r_algebra():
    """Planar-motion algebra plus a central direction, as constants."""
    C = np.zeros((4, 4, 4))
    C[1, 2, 0] = 1.0
    C[1, 0, 2] = -1.0
    C[0, 2, 1] = -1.0
    C[0, 1, 2] = 1.0
    return algebroid_from_constants(C, n=0)


def nonjacobi_spec():
    """A subspace whose projected bracket fails the Jacobi identity."""
    return ConstraintSpec(
        ambient=se2r_algebra(),
        metric=TensorField.from_constants(np.eye(4), 0),
        kinematic_basis=tensor_from_config([[0, 1, 0, 1], [0, 0, 1, 1], [1, -1, 1, 0]], (3, 4), 0),
    )


def generalized_curved_spec():
    """Distinct kinematic and variational subbundles over a curved 2d chart.

    The ambient bundle is the tangent bundle of the plane plus a trivial
    line; the metric, the kinematic basis and the variational basis all
    depend on the base point.
    """
    def poly(*terms):
        return field_from_polynomial([(c, e) for c, e in terms], 2)

    anchor = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    G = tensor_from_config(
        [
            [poly((1.0, [0, 0]), (0.5, [2, 0])), poly((0.2, [0, 1])), TensorField.zeros((), 2)],
            [poly((0.2, [0, 1])), poly((1.0, [0, 0]), (0.3, [1, 1])), poly((0.1, [1, 0]))],
            [TensorField.zeros((), 2), poly((0.1, [1, 0])), poly((2.0, [0, 0]), (0.4, [0, 2]))],
        ],
        (3, 3),
        2,
    )
    return ConstraintSpec(
        ambient=algebroid_from_constants(np.zeros((3, 3, 3)), anchor, anchor, n=2),
        metric=G,
        kinematic_basis=tensor_from_config(
            [[1, 0, poly((1.0, [0, 1]))], [0, 1, poly((0.5, [1, 0]))]], (2, 3), 2
        ),
        variational_basis=tensor_from_config(
            [[1, poly((0.2, [1, 0])), 0.3], [0, 1, poly((0.2, [0, 1]))]], (2, 3), 2
        ),
    )

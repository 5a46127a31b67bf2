"""Anchored connections: bracket splittings, Levi-Civita data, curvature.

A connection pair (Dl, Dr) splits an algebroid bracket when
``B[c,a,b] = Dl[c,a,b] - Dr[c,b,a]`` pointwise; `default_split` realizes the
closed-form choice Dl = 0.  `levi_civita` builds metric Christoffel symbols
on a Lie algebroid from the Koszul relation, and `curvature_at` assembles the
(1,3) curvature array of such Christoffels.  The horizontal and vertical
lifts of a pair are the anchor columns of the lifted structure
(``prolongation.prolong_eval``).

``verify_split`` and ``curvature_at`` take one base point or a batch
``q[K, n]``, as the structure snapshot does; ``christoffels_at`` and
``curvature_arrays`` take the arrays at the point instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebroid import AlgebroidStructure, max_abs, structure_eval
from .errors import InputError, NumericError
from .fields import TensorField, _monomials, matvec

CHRISTOFFEL_FD_STEP = 1e-4  # larger than the field default: the metric solve
# inside each Christoffel amplifies cancellation noise


@dataclass(frozen=True)
class ConnectionPair:
    """Christoffel fields Dl[c,a,b](q), Dr[c,a,b](q); index order (value, direction, argument)."""

    Dl: TensorField
    Dr: TensorField

    def __post_init__(self):
        if self.Dl.shape != self.Dr.shape or len(self.Dl.shape) != 3:
            raise InputError("connection Christoffels must be two [m,m,m] tensors")
        if self.Dl.shape[0] != self.Dl.shape[1] or self.Dl.shape[0] != self.Dl.shape[2]:
            raise InputError("connection Christoffels must be cubic [m,m,m]")
        if self.Dl.arity != self.Dr.arity:
            raise InputError("connection Christoffels must share one base arity")

    @property
    def m(self) -> int:
        return self.Dl.shape[0]


def default_split(A: AlgebroidStructure) -> ConnectionPair:
    """The zero-reference splitting: Dl = 0, Dr[c,a,b] = -B[c,b,a].

    Exactly consistent by construction: verify_split vanishes identically.
    """
    m = A.m
    return ConnectionPair(
        Dl=TensorField.zeros((m, m, m), A.n), Dr=A.bracket.scaled(-1.0, (0, 2, 1))
    )


def verify_split(A: AlgebroidStructure, CP: ConnectionPair, q) -> float:
    """Max-abs residual of B[c,a,b] - Dl[c,a,b] + Dr[c,b,a] at ``q`` (per point of a batch)."""
    if CP.m != A.m or CP.Dl.arity != A.n:
        raise InputError("connection pair does not match the algebroid dimensions")
    q = A.check_point(q)
    return split_residual(A.bracket.eval(q), CP.Dl.eval(q), CP.Dr.eval(q))


def split_residual(B, Dl, Dr) -> float:
    """Max-abs of B[c,a,b] - Dl[c,a,b] + Dr[c,b,a] from their arrays (per point of a batch)."""
    return max_abs(B - Dl + Dr.swapaxes(-1, -2), 3)


def metric_compatible_pair(Gamma: TensorField) -> ConnectionPair:
    """The pair Dl = Dr = Gamma (valid split of a torsion-free Lie bracket)."""
    return ConnectionPair(Dl=Gamma, Dr=Gamma)


def _koszul_rhs(Gv, Gg, Bv, rho):
    """2 G(D_a s_b, s_g) for all (a, b, g): metric derivative and bracket terms.

    With d[x, y, a] = rho(s_a) G[x, y] and c[x, y, z] = G(B(s_x, s_y), s_z):
    K[a, b, g] = d[b, g, a] + d[a, g, b] - d[a, b, g]
               + c[g, b, a] + c[g, a, b] - c[b, a, g],
    that is e[b, g, a] + e[a, g, b] - e[a, b, g] with e[x, y, z] = d[x, y, z] + c[y, x, z].
    """
    d = Gg @ rho[..., None, :, :]  # [m, m, m]; zero over a point (n = 0)
    e = d + np.einsum("...kyx,...kz->...xyz", Bv, Gv)
    batch = range(e.ndim - 3)  # the last three axes are (a, b, g)
    return e.transpose(*batch, -1, -3, -2) + e.transpose(*batch, -3, -1, -2) - e


def check_metric(Gv, q):
    """Raise :class:`InputError`, naming the first failing point, unless ``Gv`` is SPD.

    ``Gv`` holds the metric's values at the point ``q[n]`` or the points ``q[K, n]``.
    A non-finite entry fails the first pass (inf - inf is NaN) and raises :class:`NumericError`.
    """
    try:  # abs() and .max(): np.max's dispatch costs more than this check on [m, m]
        if abs(Gv - Gv.swapaxes(-1, -2)).max() <= 1e-10:
            np.linalg.cholesky(Gv)  # one stacked factorization
            return
    except np.linalg.LinAlgError:
        pass
    for point, G in zip(np.atleast_2d(q), Gv.reshape((-1,) + Gv.shape[-2:])):
        if not np.isfinite(G).all():
            raise NumericError(f"metric not finite at {point.tolist()}")
        if np.max(np.abs(G - G.T)) > 1e-10:
            raise InputError(f"metric not symmetric at {point.tolist()}")
        try:
            np.linalg.cholesky(G)
        except np.linalg.LinAlgError as exc:
            raise InputError(f"metric not positive-definite at {point.tolist()}") from exc


def christoffels_at(Gv, K) -> np.ndarray:
    """Levi-Civita Christoffels Gamma[c,a,b] from the metric values and the Koszul right-hand side.

    Solves 2 G_{cg} Gamma[c,a,b] = K[a,b,g] (:func:`_koszul_rhs`, or flat) for all (a, b)
    at once, batch axes first.  Needs a Lie-type frame (skew bracket, equal
    anchors) and an SPD metric, which the caller checks (:func:`check_metric`).
    """
    m = Gv.shape[-1]
    rhs = 0.5 * K.reshape(Gv.shape[:-2] + (m * m, m)).swapaxes(-1, -2)
    return np.linalg.solve(Gv, rhs).reshape(Gv.shape[:-2] + (m,) * 3)


def levi_civita(A: AlgebroidStructure, G: TensorField) -> TensorField:
    """Levi-Civita Christoffel fields Gamma[c,a,b](q) for metric ``G`` on a constant frame.

    There K is linear in the metric's jet, so one packed table, built here,
    gives G(q) and K(q) in one product: its K rows are :func:`_koszul_rhs`
    of the columns of G's jet table.  An array-valued metric (one with a
    non-polynomial entry, say) sends its jet at each point through that map
    instead.
    An evaluation then checks the metric and makes one :func:`christoffels_at`
    (over a point, once, here); gradients are central differences with step
    ``CHRISTOFFEL_FD_STEP``.
    """
    m, n = A.m, A.n
    if G.shape != (m, m):
        raise InputError("metric must be an [m,m] tensor over the base")
    if A._varying:
        raise InputError("levi_civita needs a constant frame; this frame's bracket or anchors vary")
    s = structure_eval(A, np.zeros(n))
    per_point = G if G._terms is None else None
    E, C = (G if per_point is None else TensorField.zeros(G.shape, n)).jet_table()
    size, U = m * m, C.shape[1]  # column u of C is the metric jet of monomial u
    K = _koszul_rhs(C[:size].T.reshape(U, m, m), C[size:].T.reshape(U, m, m, n), s.B, s.rho_l)
    table = np.concatenate([C[:size], K.reshape(U, size * m).T])

    def at(q):
        out = matvec(table, _monomials(q, E))  # check_metric refuses a non-finite metric
        Gv, K = out[..., :size].reshape(q.shape[:-1] + (m, m)), out[..., size:]
        if per_point is not None:  # the table is empty
            Gv, Gg = per_point.eval_grad(q)
            K = _koszul_rhs(Gv, Gg, s.B, s.rho_l)
        check_metric(Gv, q)
        return christoffels_at(Gv, K)

    return TensorField.from_array_fn(at, (m, m, m), n, h=CHRISTOFFEL_FD_STEP)


@dataclass(frozen=True)
class CurvatureReport:
    skew_residual: float
    bianchi_residual: float


def curvature_at(A: AlgebroidStructure, Gamma: TensorField, q) -> np.ndarray:
    """Curvature array R[mu,a,b,nu] of connection Christoffels at ``q[n]`` or ``q[K, n]``.

    R(s_a, s_b) s_nu = D_a D_b s_nu - D_b D_a s_nu - D_{B(s_a,s_b)} s_nu,
    assembled from Gamma values, their anchor-directional derivatives, and a
    bracket contraction.  Uses the left anchor (Lie frames have one anchor).
    """
    q = A.check_point(q)
    Gv, Gg = Gamma.eval_grad(q)  # [m,m,m], [m,m,m,n]
    s = structure_eval(A, q)
    return curvature_arrays(Gv, Gg, s.B, s.rho_l)


def curvature_arrays(Gv, Gg, B, rho) -> np.ndarray:
    """The curvature of :func:`curvature_at` from the Christoffel jet, bracket and anchor."""
    # derivative terms: rho(s_a)(Gamma[mu,b,nu]) - rho(s_b)(Gamma[mu,a,nu])
    D = np.einsum("...mbvj,...ja->...mabv", Gg, rho)
    # quadratic terms: sum_l Gamma[mu,a,l] Gamma[l,b,nu] - (a <-> b)
    Q = np.einsum("...lbv,...mal->...mabv", Gv, Gv)
    # bracket term: -sum_l B[l,a,b] Gamma[mu,l,nu]
    brk = -np.einsum("...lab,...mlv->...mabv", B, Gv)
    return (D - D.swapaxes(-3, -2)) + (Q - Q.swapaxes(-3, -2)) + brk


def curvature_identity_residuals(R) -> CurvatureReport:
    """Residuals of the two classical identities of a curvature array (per point of a batch).

    skew_residual: max |R[., a, b, .] + R[., b, a, .]|;
    bianchi_residual: max over the cyclic sum in the three lower slots.
    """
    cyc = R + np.einsum("...mabc->...mbca", R) + np.einsum("...mabc->...mcab", R)
    return CurvatureReport(
        skew_residual=max_abs(R + R.swapaxes(-3, -2), 4), bianchi_residual=max_abs(cyc, 4)
    )


def curvature_field(A: AlgebroidStructure, Gamma: TensorField) -> TensorField:
    """Curvature of ``Gamma`` (:func:`curvature_at`) as an array-valued [m,m,m,m] tensor field."""
    return TensorField.from_array_fn(
        lambda q: curvature_at(A, Gamma, q), (A.m,) * 4, A.n, h=CHRISTOFFEL_FD_STEP
    )


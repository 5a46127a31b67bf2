"""Anchored connections: bracket splittings, Levi-Civita data, curvature, lifts.

A connection pair (Dl, Dr) splits an algebroid bracket when
``B[c,a,b] = Dl[c,a,b] - Dr[c,b,a]`` pointwise; `default_split` realizes the
closed-form choice Dl = 0.  `levi_civita` builds metric Christoffel symbols
on a Lie algebroid from the Koszul relation, `curvature` assembles the
(1,3) curvature array of such Christoffels, and `lift` maps frame coefficient
vectors to tangent vectors of the dual-bundle chart (horizontal via either
connection, or vertical).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebroid import AlgebroidStructure, structure_eval
from .errors import InputError
from .fields import SmoothField, TensorField, memoized_on_point
from .hamiltonian import PhasePoint

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
    m, n = A.m, A.n
    Dr = np.empty((m, m, m), dtype=object)
    for c in range(m):
        for a in range(m):
            for b in range(m):
                Dr[c, a, b] = A.bracket[c, b, a].scaled(-1.0)
    return ConnectionPair(Dl=TensorField.zeros((m, m, m), n), Dr=TensorField(Dr, arity=n))


def verify_split(A: AlgebroidStructure, CP: ConnectionPair, q) -> float:
    """Max-abs residual of B[c,a,b] - Dl[c,a,b] + Dr[c,b,a] at ``q``."""
    if CP.m != A.m or CP.Dl.arity != A.n:
        raise InputError("connection pair does not match the algebroid dimensions")
    q = A.check_point(q)
    B = A.bracket.eval(q)
    Dl = CP.Dl.eval(q)
    Dr = CP.Dr.eval(q)
    return float(np.max(np.abs(B - Dl + np.swapaxes(Dr, 1, 2)))) if A.m else 0.0


def metric_compatible_pair(Gamma: TensorField) -> ConnectionPair:
    """The pair Dl = Dr = Gamma (valid split of a torsion-free Lie bracket)."""
    return ConnectionPair(Dl=Gamma, Dr=Gamma)


def _koszul_rhs(Gv, Gg, Bv, rho):
    """2 G(D_a s_b, s_g) for all (a, b, g): metric derivative and bracket terms.

    With d[x, y, a] = rho(s_a) G[x, y] and c[x, y, z] = G(B(s_x, s_y), s_z):
    K[a, b, g] = d[b, g, a] + d[a, g, b] - d[a, b, g]
               + c[g, b, a] + c[g, a, b] - c[b, a, g].
    """
    d = Gg @ rho  # [m, m, m]; zero over a point (n = 0)
    c = np.einsum("kxy,kz->xyz", Bv, Gv)
    return (
        d.transpose(2, 0, 1) + d.transpose(0, 2, 1) - d
        + c.transpose(2, 1, 0) + c.transpose(1, 2, 0) - c.transpose(1, 0, 2)
    )


def christoffels_at(A: AlgebroidStructure, G: TensorField, q) -> np.ndarray:
    """Pointwise Levi-Civita Christoffels Gamma[c,a,b] of a fibre metric.

    Solves the Koszul relation 2 G(D_a s_b, .) = (anchor derivatives of G)
    + (bracket contractions with G) at ``q``.  Requires a skew bracket with
    equal anchors (a Lie-type frame); G must be symmetric positive-definite.
    """
    q = A.check_point(q)
    if G.shape != (A.m, A.m):
        raise InputError("metric must be an [m,m] tensor over the base")
    Gv, Gg = G.eval_grad(q)
    if np.max(np.abs(Gv - Gv.T)) > 1e-10:
        raise InputError(f"metric not symmetric at {q.tolist()}")
    try:
        np.linalg.cholesky(Gv)
    except np.linalg.LinAlgError as exc:
        raise InputError(f"metric not positive-definite at {q.tolist()}") from exc
    s = structure_eval(A, q)
    K = _koszul_rhs(Gv, Gg, s.B, s.rho_l)
    # Gamma[c,a,b]: solve 2 G_{cg} Gamma[c,a,b] = K[a,b,g] for all (a,b) at once
    m = A.m
    return np.linalg.solve(Gv, 0.5 * K.reshape(m * m, m).T).reshape(m, m, m)


def levi_civita(A: AlgebroidStructure, G: TensorField) -> TensorField:
    """Levi-Civita Christoffel fields Gamma[c,a,b](q) for metric ``G``.

    Components are closures over the pointwise Koszul solve; their gradients
    are central differences with step ``CHRISTOFFEL_FD_STEP``.
    """
    m, n = A.m, A.n
    at = memoized_on_point(lambda q: christoffels_at(A, G, q))

    def maker(c, a, b):
        return lambda q: at(q)[c, a, b]

    out = np.empty((m, m, m), dtype=object)
    for c in range(m):
        for a in range(m):
            for b in range(m):
                out[c, a, b] = SmoothField.from_callable(
                    maker(c, a, b), n, h=CHRISTOFFEL_FD_STEP
                )
    return TensorField(out, arity=n)


@dataclass(frozen=True)
class CurvatureTensor:
    """A (1,3) tensor field R[mu, alpha, beta, nu](q): value, skew pair, argument slot."""

    R: TensorField

    def __post_init__(self):
        if len(self.R.shape) != 4 or len(set(self.R.shape)) != 1:
            raise InputError("curvature tensor must be [m,m,m,m]")

    @property
    def m(self) -> int:
        return self.R.shape[0]

    def eval(self, q) -> np.ndarray:
        return self.R.eval(q)

    @classmethod
    def zero(cls, m, arity) -> "CurvatureTensor":
        return cls(TensorField.zeros((m, m, m, m), arity))

    @classmethod
    def from_constants(cls, array, arity=0) -> "CurvatureTensor":
        return cls(TensorField.from_constants(np.asarray(array, dtype=float), arity))


@dataclass(frozen=True)
class CurvatureReport:
    skew_residual: float
    bianchi_residual: float


def curvature_at(A: AlgebroidStructure, Gamma: TensorField, q) -> np.ndarray:
    """Curvature array R[mu,a,b,nu] of connection Christoffels at ``q``.

    R(s_a, s_b) s_nu = D_a D_b s_nu - D_b D_a s_nu - D_{B(s_a,s_b)} s_nu,
    assembled from Gamma values, their anchor-directional derivatives, and a
    bracket contraction.  Uses the left anchor (Lie frames have one anchor).
    """
    q = A.check_point(q)
    Gv, Gg = Gamma.eval_grad(q)  # [m,m,m], [m,m,m,n]
    s = structure_eval(A, q)
    m, n = A.m, A.n
    R = np.zeros((m, m, m, m))
    for a in range(m):
        for b in range(m):
            # derivative terms: rho(s_a)(Gamma[mu,b,nu]) - rho(s_b)(Gamma[mu,a,nu])
            if n:
                dterm = np.einsum("mvj,j->mv", Gg[:, b, :, :], s.rho_l[:, a]) - np.einsum(
                    "mvj,j->mv", Gg[:, a, :, :], s.rho_l[:, b]
                )
            else:
                dterm = np.zeros((m, m))
            quad = np.einsum("lv,ml->mv", Gv[:, b, :], Gv[:, a, :]) - np.einsum(
                "lv,ml->mv", Gv[:, a, :], Gv[:, b, :]
            )
            brk = -np.einsum("l,mlv->mv", s.B[:, a, b], Gv)
            R[:, a, b, :] = dterm + quad + brk
    return R


def curvature(A: AlgebroidStructure, Gamma: TensorField, q):
    """Curvature array at ``q`` plus residuals of its two classical identities.

    skew_residual: max |R[., a, b, .] + R[., b, a, .]|;
    bianchi_residual: max over the cyclic sum in the three lower slots.
    """
    R = curvature_at(A, Gamma, q)
    skew = float(np.max(np.abs(R + np.swapaxes(R, 1, 2))))
    cyc = R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2))
    bianchi = float(np.max(np.abs(cyc)))
    return R, CurvatureReport(skew_residual=skew, bianchi_residual=bianchi)


def curvature_field(A: AlgebroidStructure, Gamma: TensorField) -> CurvatureTensor:
    """Curvature of ``Gamma`` as a (1,3) tensor field of closures over the base."""
    m, n = A.m, A.n
    at = memoized_on_point(lambda q: curvature_at(A, Gamma, q))

    def maker(idx):
        return lambda q: at(q)[idx]

    out = np.empty((m, m, m, m), dtype=object)
    for idx in np.ndindex(m, m, m, m):
        out[idx] = SmoothField.from_callable(maker(idx), n, h=CHRISTOFFEL_FD_STEP)
    return CurvatureTensor(TensorField(out, arity=n))


def lift(A: AlgebroidStructure, CP: ConnectionPair, mode, coeffs, x: PhasePoint) -> np.ndarray:
    """Lift a frame coefficient vector to a tangent vector of the (q, p) chart.

    horizontal_left:  (sum_a c_a rho_l[i,a] ; sum_{a,g} c_a Dl[g,a,b] p_g)
    horizontal_right: same with rho_r, Dr
    vertical:         (0 ; coeffs)
    All modes are linear in ``coeffs``.
    """
    if x.q.shape[0] != A.n or x.p.shape[0] != A.m:
        raise InputError("phase point does not match the algebroid dimensions")
    coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
    if coeffs.shape[0] != A.m:
        raise InputError(f"coefficient vector must have length m={A.m}")
    n, m = A.n, A.m
    if mode == "vertical":
        return np.concatenate([np.zeros(n), coeffs])
    if mode not in ("horizontal_left", "horizontal_right"):
        raise InputError(f"unknown lift mode {mode!r}")
    if CP.m != m or CP.Dl.arity != A.n:
        raise InputError("connection pair does not match the algebroid dimensions")
    s = structure_eval(A, x.q)
    if mode == "horizontal_left":
        rho, D = s.rho_l, CP.Dl.eval(x.q)
    else:
        rho, D = s.rho_r, CP.Dr.eval(x.q)
    qpart = rho @ coeffs if n else np.zeros(0)
    ppart = np.einsum("a,gab,g->b", coeffs, D, x.p)
    return np.concatenate([qpart, ppart])

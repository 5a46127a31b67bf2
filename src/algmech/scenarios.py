"""Scenario builders: worked mechanical systems as ready-to-run bundles.

Each builder assembles an :class:`AlgebroidStructure`, a Hamiltonian, a
bracket-splitting connection pair, a curvature-like tensor and named monitor
functions into one :class:`ScenarioBundle`.  Covered families:

* canonical cotangent dynamics,
* gradient extensions of first-order flows on a Riemannian chart,
* Lie-Poisson systems on a structure-constant algebra (Euler top),
* constrained mechanical systems (kinematic subbundle, optionally a distinct
  variational subbundle) built by metric Gram-Schmidt from ambient data,
* bracket modifications of cotangent dynamics by a torsion/contorsion tensor.

A Lagrangian-side reference integrator for the constrained family provides an
independent oracle for the momentum-side trajectories.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .algebroid import (
    AlgebroidStructure, StructureSnapshot, algebroid_from_constants, base_probes,
    canonical_tangent, so3_constants, structure_eval,
)
from .connections import (
    CHRISTOFFEL_FD_STEP,
    ConnectionPair,
    CurvatureTensor,
    check_metric,
    christoffels_at,
    curvature_arrays,
    curvature_field,
    default_split,
    levi_civita,
    metric_compatible_pair,
)
from .errors import InputError, NumericError
from .fields import SmoothField, TensorField, stencil, stencil_jet
from .hamiltonian import (
    fibre_form, momentum_pairing_hamiltonian, quadratic_hamiltonian, rk4_step,
)
from .prolongation import ProlongationData

GRAM_SCHMIDT_TOL = 1e-12
_PROBE_SEED = 2024  # construction-time checks of metrics and frames


@dataclass(frozen=True)
class ScenarioBundle:
    """One ready-to-run system: structure, energy, splitting, curvature, monitors."""

    algebroid: AlgebroidStructure
    hamiltonian: SmoothField
    split: ConnectionPair
    curvature: CurvatureTensor
    monitors: dict = dc_field(default_factory=dict)
    _base_at: object = dc_field(default=None, repr=False, compare=False)

    def prolongation(self) -> ProlongationData:
        """The lifted structure, built and its split checked on the first call only."""
        P = self.__dict__.get("_prolongation")
        if P is None:  # an invalid split raises here, on every call
            P = ProlongationData(self.algebroid, self.split, self.curvature, self._base_at)
            object.__setattr__(self, "_prolongation", P)
        return P


def _check_probed_metric(G: TensorField, n):
    """:func:`check_metric` of ``G`` at the construction probes of an n-dimensional base."""
    probes = np.array(base_probes(n, seed=_PROBE_SEED))
    check_metric(G.eval(probes), probes)


# -- gradient extension -------------------------------------------------------


def build_gradient_extension(G: TensorField, X: TensorField) -> ScenarioBundle:
    """Symmetric-bracket extension of the first-order flow dq/dt = X(q).

    The tangent algebroid carries the symmetric product (bracket coefficients
    twice the metric Christoffels) with anchors +id / -id; the Hamiltonian is
    the momentum pairing with X.  The q-block of the induced dynamics is the
    flow of X itself; the p-block transports momenta by the Jacobian of X
    plus a Christoffel correction.
    """
    n = G.shape[0]
    if G.shape != (n, n) or X.shape != (n,):
        raise InputError("need an [n,n] metric and an [n] vector field")
    _check_probed_metric(G, n)
    A0 = canonical_tangent(n)
    Gamma = levi_civita(A0, G)
    alg = AlgebroidStructure(
        n=n,
        m=n,
        bracket=Gamma.scaled(2.0),
        anchor_left=TensorField.from_constants(np.eye(n), n),
        anchor_right=TensorField.from_constants(-np.eye(n), n),
    )
    curvature = CurvatureTensor.zero(n, n)

    def base_at(q):  # one Koszul solve: Dl and Dr are the bracket 2 Gamma halved, exactly
        s = structure_eval(alg, q)
        Dl = 0.5 * s.B
        return s, Dl, -1.0 * Dl, curvature.eval(q)

    return ScenarioBundle(
        algebroid=alg,
        hamiltonian=momentum_pairing_hamiltonian(X, n),
        split=ConnectionPair(Dl=Gamma, Dr=Gamma.scaled(-1.0)),
        curvature=curvature,
        _base_at=base_at,
    )


# -- canonical and Lie-Poisson ------------------------------------------------


def build_canonical(n: int, H: SmoothField, monitors=None) -> ScenarioBundle:
    """Canonical cotangent dynamics on an n-dimensional chart."""
    alg = canonical_tangent(n)
    if H.arity != 2 * n:
        raise InputError("Hamiltonian arity must be 2n")
    return ScenarioBundle(
        algebroid=alg,
        hamiltonian=H,
        split=default_split(alg),
        curvature=CurvatureTensor.zero(n, n),
        monitors=dict(monitors or {}),
    )


def build_lie_poisson(constants, H: SmoothField, metric=None, monitors=None) -> ScenarioBundle:
    """Structure-constant algebra over a point, with a metric-compatible splitting.

    ``constants[c, a, b]`` are the bracket coefficients.  The splitting uses
    the Levi-Civita Christoffels of ``metric`` (identity by default) and the
    curvature tensor is that connection's curvature, so the lifted structure
    is the canonical one for a genuine Lie algebra.
    """
    C = np.asarray(constants, dtype=float)
    m = C.shape[0]
    if C.shape != (m, m, m):
        raise InputError("structure constants must be [m,m,m]")
    if H.arity != m:
        raise InputError("Hamiltonian arity must be m for an algebra over a point")
    alg = algebroid_from_constants(C)
    G = TensorField.from_constants(np.eye(m) if metric is None else np.asarray(metric), 0)
    Gamma = levi_civita(alg, G)
    return ScenarioBundle(
        algebroid=alg,
        hamiltonian=H,
        split=metric_compatible_pair(Gamma),
        curvature=curvature_field(alg, Gamma),
        monitors=dict(monitors or {}),
    )


def euler_top_hamiltonian(inertia) -> SmoothField:
    """H(p) = 1/2 sum_a p_a^2 / I_a for a rigid body with principal inertias I."""
    inertia = np.asarray(inertia, dtype=float)
    terms = []
    for a, I in enumerate(inertia):
        e = [0] * inertia.shape[0]
        e[a] = 2
        terms.append((0.5 / I, e))
    return SmoothField.polynomial(terms, inertia.shape[0])


def so3_casimir() -> SmoothField:
    """|p|^2 on the dual of the rotation algebra, the Casimir of its bracket."""
    return SmoothField.polynomial([(1.0, [2, 0, 0]), (1.0, [0, 2, 0]), (1.0, [0, 0, 2])], 3)


def build_euler_top(inertia=(1.0, 2.0, 3.0)) -> ScenarioBundle:
    """Free rigid body as a Lie-Poisson system on the rotation algebra."""
    return build_lie_poisson(
        so3_constants(), euler_top_hamiltonian(inertia), monitors={"casimir": so3_casimir()}
    )


# -- bracket modification by a torsion tensor ---------------------------------


def build_contorsion(G: TensorField, S=None, T=None, V=None) -> ScenarioBundle:
    """Cotangent dynamics with the coordinate bracket modified by a torsion term.

    Either ``S`` (a contorsion-style (1,2) tensor whose antisymmetrization in
    the lower slots is used: T[k,i,j] = S[k,i,j] - S[k,j,i]) or a direct
    ``T`` may be given.  Skew T preserves the energy along the flow; a
    non-skew T makes ``-sum T[k,i,j] Ginv[i,l] Ginv[j,m] p_k p_l p_m``
    (recorded as the ``dissipation`` monitor, the bracket of H with itself)
    nonzero, and dH/dt equals minus that monitor.
    """
    n = G.shape[0]
    if G.shape != (n, n):
        raise InputError("metric must be [n,n]")
    _check_probed_metric(G, n)
    if (S is None) == (T is None):
        raise InputError("give exactly one of S (contorsion) or T (direct torsion)")
    if T is None:
        T = S + S.scaled(-1.0, (0, 2, 1))
    if T.shape != (n, n, n):
        raise InputError("torsion tensor must be [n,n,n]")
    alg = AlgebroidStructure(
        n=n,
        m=n,
        bracket=T,
        anchor_left=TensorField.from_constants(np.eye(n), n),
        anchor_right=TensorField.from_constants(np.eye(n), n),
    )
    H = quadratic_hamiltonian(G, V, n, n)
    if T._const is not None and G._const is not None:  # a cubic in p
        Ginv = np.linalg.inv(G._const)
        # the coefficient of p_k p_l p_r: -sum T[k, i, j] Ginv[i, l] Ginv[j, r]
        dissipation = fibre_form(-(Ginv.T @ T._const @ Ginv), n)
    else:

        def rate(z):
            q, p = z[:n], z[n:]
            w = np.linalg.inv(G.eval(q)) @ p
            return -float(np.einsum("kij,k,i,j->", T.eval(q), p, w, w))

        dissipation = SmoothField.from_callable(rate, 2 * n)

    return ScenarioBundle(
        algebroid=alg,
        hamiltonian=H,
        split=default_split(alg),
        curvature=CurvatureTensor.zero(n, n),
        monitors={"dissipation": dissipation},
    )


# -- constrained systems ------------------------------------------------------


@dataclass(frozen=True)
class ConstraintSpec:
    """Ambient Lie algebroid + bundle metric + constraint data.

    ``kinematic_basis`` spans the admissible subbundle; ``variational_basis``
    (optional) spans where reaction forces do no work.  When the latter is
    omitted the classical case is meant and the two coincide.  Each basis is
    a packed [k, M] tensor over the base (:func:`~algmech.fields.tensor_from_config`
    packs nested rows of numbers and SmoothFields), its rows the basis vectors.
    """

    ambient: AlgebroidStructure
    metric: TensorField
    kinematic_basis: TensorField
    variational_basis: TensorField | None = None
    potential: SmoothField | None = None

    def __post_init__(self):
        M, n = self.ambient.m, self.ambient.n
        if self.metric.shape != (M, M) or self.metric.arity != n:
            raise InputError("metric must be [M,M] over the ambient base")
        k = self.kinematic_basis.shape[0]
        for basis in (self.kinematic_basis, self.variational_basis):
            if basis is not None and (basis.shape != (k, M) or basis.arity != n):
                raise InputError("bases must be [k,M] over the ambient base, of equal rank k")
        if self.potential is not None and self.potential.arity != n:
            raise InputError("potential must be a base function")
        rep = None
        for q in base_probes(n, seed=_PROBE_SEED):
            s = structure_eval(self.ambient, q)
            if n and np.max(np.abs(s.rho_l - s.rho_r)) > 1e-12:
                rep = f"ambient anchors differ at {q.tolist()}"
            if np.max(np.abs(s.B + np.swapaxes(s.B, 1, 2))) > 1e-12:
                rep = f"ambient bracket not skew at {q.tolist()}"
        if rep:
            raise InputError("ambient structure must be Lie-type: " + rep)
        _check_probed_metric(self.metric, n)

    @property
    def rank(self) -> int:
        return self.kinematic_basis.shape[0]

    @property
    def classical(self) -> bool:
        return self.variational_basis is None


def _gram_schmidt(V, Gv):
    """Metric Gram-Schmidt of the rows of ``V[K, c, M]``, at all K points in one pass.

    Loops over the c rows, not over the points.  Returns the orthonormal
    rows [K, c, M], the same rows times the metric, and a [K] mask of the
    points where a row lies in the span of the previous ones (squared norm
    <= ``GRAM_SCHMIDT_TOL``); the rows of those points are not a frame.
    """
    rows, rowsG, norms = [], [], []
    for j in range(V.shape[1]):
        w = V[:, j : j + 1]  # [K, 1, M]
        for u, uG in zip(rows, rowsG):
            w = w - u * (uG @ w.swapaxes(1, 2))
        wG = w @ Gv
        norms.append(wG @ w.swapaxes(1, 2))
        # a deficient row is scaled by the tolerance instead; its point fails
        scale = np.sqrt(np.maximum(norms[-1], GRAM_SCHMIDT_TOL))
        rows.append(w / scale)
        rowsG.append(wG / scale)
    deficient = (np.concatenate(norms, axis=1) <= GRAM_SCHMIDT_TOL).any(axis=(1, 2))
    return np.concatenate(rows, axis=1), np.concatenate(rowsG, axis=1), deficient


def _complete(F, FG, Gv):
    """Complete the metric-orthonormal rows ``F[K, k, M]`` (``FG = F G``) to a basis.

    At each point the unit vectors e_mu, projected off the rows of F, are
    taken in the order of mu, each projected off the ones kept before it,
    and the first M - k whose remainder has squared norm > 1e-8 are kept,
    normalized.  All M unit vectors are projected at once, so the loop runs
    over the completing rows, not over mu or the points.  Returns the
    completing rows [K, M - k, M], the kept mu [K, M - k] and a [K] mask of
    the points with too few of them.
    """
    K, k, M = F.shape
    W = np.eye(M) - FG.swapaxes(1, 2) @ F  # row mu: e_mu off the span of F
    perp, kept = np.empty((K, M - k, M)), np.empty((K, M - k), dtype=int)
    points, order = np.arange(K), np.arange(M)
    short = np.zeros(K, dtype=bool)
    for j in range(M - k):
        if j:  # project the rows off the last kept one; only later rows stay candidates
            u = perp[:, j - 1 : j]
            W = W - (W @ (u @ Gv).swapaxes(1, 2)) * u
        nrm = (W @ Gv @ W.swapaxes(1, 2)).diagonal(axis1=1, axis2=2)
        ok = (nrm > 1e-8) & (order > kept[:, j - 1 : j]) if j else nrm > 1e-8
        mu = ok.argmax(axis=1)
        short |= ~ok[points, mu]
        perp[:, j] = W[points, mu] / np.sqrt(np.maximum(nrm[points, mu], 1e-8))[:, None]
        kept[:, j] = mu
    return perp, kept, short


@functools.lru_cache(maxsize=None)
def _triangles(c):
    """Upper, strictly lower, and upper minus half the diagonal: :func:`_qr_jet`'s masks.

    Built once per column count; read-only, since every call shares them.
    """
    upper = np.tri(c).T
    masks = upper, 1.0 - upper, upper - 0.5 * np.eye(c)
    for mask in masks:
        mask.flags.writeable = False
    return masks


def _qr_jet(Q, A, dA, Gv, dG):
    """Exact gradient of the metric-orthonormal QR factor ``Q = A R^-1``, at K points.

    ``A`` is [K, M, c], of full column rank at each point, and ``Q`` its
    metric Gram-Schmidt frame (Q^T G Q = I, so R = Q^T G A is upper
    triangular); ``dA`` [K, n, M, c] and ``dG`` [K, n, M, M] are the
    derivatives of A and G along the n chart directions.  Per point and
    direction, with L the strict lower triangle of Q^T G dA R^-1 and
    H = Q^T dG Q,

        dQ = Q Omega + (1 - Q Q^T G) dA R^-1,
        Omega = L - L^T - triu(H, 1) - diag(H) / 2,

    the second term vanishing for square Q (Walter, Lehmann & Lamour, Optim.
    Methods Softw. 27, 2012; Murray, arXiv:1602.07527).  Omega reads only
    the columns of R^-1 that L needs, so an ill-conditioned completion
    column does not amplify rounding in the others.  Every product is a
    stacked matmul, one per point, so row k equals the result at point k
    alone.  Returns [K, n, M, c].
    """
    upper, lower, half = _triangles(A.shape[-1])
    Qt = Q.swapaxes(1, 2)
    QG = Qt @ Gv
    dAR = dA @ np.linalg.inv(QG @ A * upper)[:, None]
    L = QG[:, None] @ dAR * lower
    dQ = Q[:, None] @ (L - L.swapaxes(2, 3) - Qt[:, None] @ dG @ Q[:, None] * half)
    if A.shape[-1] < Q.shape[1]:
        dQ += dAR - Q[:, None] @ (QG[:, None] @ dAR)
    return dQ


class _AdaptedFrame:
    """Orthonormal frame adapted to the constraint decomposition, over a batch of points.

    Columns 0..k-1 are a metric-orthonormal basis of the kinematic subbundle,
    the remaining columns an orthonormal basis of the orthogonal complement of
    the variational subbundle.  The frame U is a metric Gram-Schmidt of the
    basis data and its jet is exact: U is read as the QR factor of the basis
    columns and the completing unit vectors, differentiated by
    :func:`_qr_jet` from the polynomial jets of the metric and the bases.

    The core (frame and jet, adapted structure, adapted metric and its jet,
    projectors and the variational projector's jet) is evaluated at K points
    ``Q[K, n]`` in one pass, every array with a leading K axis; Gram-Schmidt
    and the completion loop over columns, not points, and every product is
    one stacked matmul per point, so row k equals the core at point k alone.
    One point ``q[n]`` is the K = 1 case.  Each :meth:`core_at` call is one
    frame evaluation; over a point (n = 0) the one core and its
    Christoffels are built with the frame.  Nothing is cached: what the
    frame derives is a function of a core that its caller passes in, and
    :meth:`lifted_base` gets the projected structure, the split and the
    curvature at q from one core evaluation over the central-difference
    stencil of q, which gives the Christoffels' jet there.
    """

    def __init__(self, spec: ConstraintSpec):
        self.spec = spec
        self.M = spec.ambient.m
        self.n = spec.ambient.n
        self.k = spec.rank
        self.h = CHRISTOFFEL_FD_STEP
        self._eye = np.eye(self.M)
        # a constant ambient structure is read once
        self._ambient = (
            None if spec.ambient._varying else structure_eval(spec.ambient, np.zeros(self.n))
        )
        self._point_core = self._point_gamma = None
        if not self.n:  # over a point: one core and one Christoffel solve, here
            self._point_core = self._compute_core(np.zeros(0))
            self._point_gamma = self.christoffels(np.zeros(0), self._point_core)

    def core_at(self, q):
        """The core at ``q[n]`` or at each point of ``q[K, n]``: one frame evaluation."""
        if self._point_core is not None and q.ndim == 1:
            return self._point_core
        return self._compute_core(q)

    # frame assembly ---------------------------------------------------------

    def _frame_jet(self, Q):
        """The adapted frame U at ``Q[K, n]``, its gradient [K, n, M, M] and the metric jet.

        Raises :class:`InputError` for the first point, in row order, where
        the frame fails, naming that point and its first failure.
        """
        spec = self.spec
        k = self.k
        Gv, dG = spec.metric.eval_grad(Q)
        D, dD = spec.kinematic_basis.eval_grad(Q)
        d_frame, d_frameG, d_deficient = _gram_schmidt(D, Gv)
        failures = [("kinematic basis rank deficient", d_deficient)]
        if spec.classical:
            seed, dseed, span, spanG = D, dD, d_frame, d_frameG
        else:
            seed, dseed = spec.variational_basis.eval_grad(Q)
            span, spanG, v_deficient = _gram_schmidt(seed, Gv)
            failures.append(("variational basis rank deficient", v_deficient))
        # complete with an orthonormal basis of the orthogonal complement of the
        # seed, keeping the first unit vectors e_mu that are not in the span so far
        perp, kept, short = _complete(span, spanG, Gv)
        U = np.concatenate([d_frame, perp], axis=1).swapaxes(1, 2)
        failures += [
            ("could not complete the adapted frame", short),
            (
                "compatibility failed: kinematic subbundle and variational complement "
                "do not span the ambient fibre",
                np.abs(np.linalg.det(U)) < 1e-10,
            ),
        ]
        failed = np.logical_or.reduce([mask for _, mask in failures])
        if failed.any():
            i = int(failed.argmax())
            message = next(message for message, mask in failures if mask[i])
            raise InputError(f"{message} at {Q[i].tolist()}")
        # exact jet: the seed columns and the kept unit vectors, QR-factored
        dG = dG.transpose(0, 3, 1, 2)
        A = np.concatenate([seed, self._eye[kept]], axis=1).swapaxes(1, 2)
        dA = np.zeros(dG.shape)
        dA[..., :k] = dseed.transpose(0, 3, 2, 1)
        if spec.classical:
            dU = _qr_jet(U, A, dA, Gv, dG)
        else:
            Qv = np.concatenate([span, perp], axis=1).swapaxes(1, 2)
            dU = np.concatenate(
                [
                    _qr_jet(U[..., :k], D.swapaxes(1, 2), dD.transpose(0, 3, 2, 1), Gv, dG),
                    _qr_jet(Qv, A, dA, Gv, dG)[..., k:],
                ],
                axis=-1,
            )
        return U, dU, Gv, dG

    def _compute_core(self, q):
        """The core at ``q[n]``, or at every point of ``q[K, n]`` with a leading K axis."""
        spec = self.spec
        M, n, k = self.M, self.n, self.k
        Q = q if q.ndim == 2 else q[None]
        K = Q.shape[0]
        U, dU, Gv, dG = self._frame_jet(Q)
        # metric in the adapted frame: orthonormal blocks by construction; the
        # jet of the cross block g [k, M - k, n] by the product rule
        Ut = U.swapaxes(1, 2)
        if spec.classical:
            g = np.zeros((K, k, M - k))
            dg = np.zeros((K, k, M - k, n))
        else:
            GU = Gv @ U
            g = Ut[:, :k] @ Gv @ U[..., k:]
            dg = dU[..., :k].swapaxes(2, 3) @ GU[:, None, :, k:]
            dg += (
                Ut[:, None, :k] @ dG @ U[:, None, :, k:]
                + GU[..., :k].swapaxes(1, 2)[:, None] @ dU[..., k:]
            )
            dg = np.moveaxis(dg, 1, 3)
        G_new = np.repeat(self._eye[None], K, axis=0)
        G_new[:, :k, k:] = g
        G_new[:, k:, :k] = g.swapaxes(1, 2)
        dG_new = np.zeros((K, M, M, n))
        dG_new[:, :k, k:] = dg
        dG_new[:, k:, :k] = dg.swapaxes(1, 2)
        Ginv = G_new if spec.classical else np.linalg.inv(G_new)  # classical: the identity
        # U^T G U = G_new, so U^-1 = G_new^-1 U^T G
        Uinv = Ut @ Gv
        if not spec.classical:
            Uinv = Ginv @ Uinv
        # the ambient snapshot of one point has no K axis: it broadcasts
        s = self._ambient or structure_eval(spec.ambient, q)
        rho_new = s.rho_l @ U
        # bracket coefficients in the adapted frame:
        # U^-1 (B(U_a, U_b) + rho(U_a) U_b - rho(U_b) U_a)
        W = Ut[:, None] @ (s.B @ U[:, None])
        if n:
            # dU_along[l, b, m]: the derivative of U[l, b] along rho(eps_m)
            dU_along = (dU.reshape(K, n, M * M).swapaxes(1, 2) @ s.rho_l).reshape(K, M, M, M)
            W += Ut[:, None] @ dU_along.swapaxes(2, 3)
            W -= dU_along @ U[:, None]
        C_new = (Uinv @ W.reshape(K, M, M * M)).reshape(K, M, M, M)
        # projector onto the kinematic subbundle along its orthogonal complement
        P = G_new[:, :k, :]
        # projector onto the variational subbundle along the kinematic complement,
        # restricted to kinematic arguments
        Pi = np.empty((K, M, k))
        Pi[:, :k] = Ginv[:, :k, :k].swapaxes(1, 2)
        Pi[:, k:] = -(Ginv[:, :k, :k] @ g).swapaxes(1, 2)
        core = {
            "U": U,
            "dU": dU,
            "rho_new": rho_new,
            "C_new": C_new,
            "G_new": G_new,
            "dG_new": dG_new,
            "Ginv": Ginv,
            "g": g,
            "dg": dg,
            "P": P,
            "Pi": Pi,
        }
        if n and not spec.classical:  # the classical projector is constant
            # Pi is the first k columns of G_new^-1: d(G^-1) = -G^-1 dG G^-1 per direction
            dPi = Ginv[:, None] @ np.moveaxis(dG_new, 3, 1) @ Ginv[:, None, :, :k]
            core["dPi"] = -np.moveaxis(dPi, 1, 3)  # [K, M, k, n]
        return core if q.ndim == 2 else {key: value[0] for key, value in core.items()}

    # quantities derived from a core, at a point or a batch --------------------

    def christoffels(self, q, core):
        """Levi-Civita Christoffels of the adapted metric at ``q``, from the core at ``q``.

        One solve from the core's metric jet and adapted structure; over a
        point, the one solved with the frame.  A generalized frame's metric
        is checked where it is solved (the classical one is the identity).
        """
        if self._point_gamma is not None:
            return np.broadcast_to(self._point_gamma, q.shape[:-1] + self._point_gamma.shape)
        if not self.spec.classical:
            check_metric(core["G_new"], q)
        return christoffels_at(core["G_new"], core["dG_new"], core["C_new"], core["rho_new"])

    def _projected(self, core, T):
        """Kinematic projection of a frame tensor ``T[..., M, M, M]`` (value, direction, argument).

        P (T[:, a, :] Pi + rho(s_a) Pi) for kinematic directions a: the
        result [..., k, k, k] takes its argument through the variational
        projector Pi, whose anchor derivative enters when it varies.
        """
        k = self.k
        P, Pi, rho = core["P"], core["Pi"], core["rho_new"]
        inner = T[..., :k, :] @ Pi[..., None, :, :]
        if "dPi" in core:  # only a generalized frame's projector varies
            inner += rho[..., None, :, :k].swapaxes(-1, -2) @ core["dPi"].swapaxes(-1, -2)
        return _project_first(P, inner)

    def projected_structure_at(self, core):
        """Projected bracket coefficients B[c,a,b] and anchors from the core at a point or batch."""
        rho, Pi = core["rho_new"], core["Pi"]
        B = self._projected(core, core["C_new"])
        return B, np.ascontiguousarray(rho[..., : self.k]), rho @ Pi

    def split_at(self, q, core, Gam=None):
        """Left/right Christoffels of the constrained splitting at ``q``, from the core at ``q``.

        ``Gam``, the ambient Christoffels at ``q``, is solved from the core if not given.
        """
        k, Pi = self.k, core["Pi"]
        if Gam is None:
            Gam = self.christoffels(q, core)  # [..., M, M, M] value, direction, argument
        Dl = self._projected(core, Gam)
        Dr = _project_first(core["P"], Pi.swapaxes(-1, -2)[..., None, :, :] @ Gam[..., :k])
        return Dl, Dr

    def lifted_base(self, q):
        """Projected snapshot, split Christoffels and curvature R at ``q[n]`` or ``q[K, n]``.

        One core evaluation over the central-difference stencil of ``q``
        (step ``h``): its centre rows are the core at ``q``, bit for bit, and
        the Christoffels over it give their jet there.  R is the kinematic
        projection of the ambient Levi-Civita curvature.
        """
        if not self.n:  # over a point: the constants built with the frame, and no jet
            core, Gam = self._point_core, self.christoffels(q, self._point_core)
            dGam = np.zeros(Gam.shape + (0,))
        else:
            points = stencil(q, self.h)
            lead = points.shape[:-1]
            flat = points.reshape(math.prod(lead), self.n)
            cores = self.core_at(flat)
            Gam = self.christoffels(flat, cores).reshape(lead + (self.M,) * 3)
            Gam, dGam = stencil_jet(Gam, self.h)
            core = {key: value.reshape(lead + value.shape[1:])[0] for key, value in cores.items()}
        B, rho_l, rho_r = self.projected_structure_at(core)
        Dl, Dr = self.split_at(q, core, Gam)
        R = curvature_arrays(Gam, dGam, core["C_new"], core["rho_new"])
        R = _project_first(core["P"], R[..., : self.k, : self.k, : self.k])
        if not all(np.isfinite(a).all() for a in (B, rho_l, rho_r, Dl, Dr, R)):
            raise NumericError("constrained structure evaluated to non-finite entries")
        return StructureSnapshot(B, rho_l, rho_r, q), Dl, Dr, R


def _project_first(P, T):
    """``P[..., k, M]`` applied to the first index of ``T[..., M, *rest]``.

    One matrix product per point, so row k equals the product at point k alone.
    """
    lead = T.shape[: P.ndim - 2]
    rest = T.shape[P.ndim - 1 :]
    return (P @ T.reshape(lead + (T.shape[P.ndim - 2], -1))).reshape(lead + P.shape[-2:-1] + rest)


def build_constrained(spec: ConstraintSpec) -> ScenarioBundle:
    """Constrained mechanical system in a metric-orthonormal adapted frame.

    The kinematic basis is orthonormalized against the bundle metric and
    completed by an orthonormal basis of the orthogonal complement of the
    variational subbundle (of the kinematic one in the classical case).  The
    projected bracket, the left/right projected covariant derivatives, the
    projected ambient curvature and the constrained energy
    H = 1/2 sum p_a^2 + V(q) are assembled over that frame.
    """
    frame = _AdaptedFrame(spec)
    k, n = frame.k, frame.n
    # exercise the frame at the probe points, in one batch, so ill-posed data
    # fails loudly here (over a point the frame's one core was built with it)
    if n:
        frame.core_at(np.array(base_probes(n, seed=_PROBE_SEED)))

    def structure_at(q):  # one core feeds the bracket and both anchors
        return frame.projected_structure_at(frame.core_at(q))

    def piece(src, pos, shape):
        return TensorField.from_array_fn(lambda q: src(q)[pos], shape, n, h=frame.h)

    # over a point every tensor is a constant, read without a call
    alg = AlgebroidStructure(
        n=n,
        m=k,
        bracket=piece(structure_at, 0, (k, k, k)),
        anchor_left=piece(structure_at, 1, (n, k)),
        anchor_right=piece(structure_at, 2, (n, k)),
        _structure_at=structure_at if n else None,
    )

    def split_at(q):
        return frame.split_at(q, frame.core_at(q))

    H = quadratic_hamiltonian(TensorField.from_constants(np.eye(k), n), spec.potential, n, k)

    return ScenarioBundle(
        algebroid=alg,
        hamiltonian=H,
        split=ConnectionPair(Dl=piece(split_at, 0, (k, k, k)), Dr=piece(split_at, 1, (k, k, k))),
        curvature=CurvatureTensor(piece(frame.lifted_base, 3, (k, k, k, k))),
        _base_at=frame.lifted_base if n else None,
    )


def lagrangian_reference(spec: ConstraintSpec, v0, q0, h, steps):
    """Velocity-side reference trajectory for a constrained system.

    Integrates, in the same adapted orthonormal frame as
    :func:`build_constrained` but through the ambient Christoffel route,

        dq/dt = rho_l v,
        dv_c/dt = - sum_ab Gamma[c,a,b] v_a v_b - sum_i rho_r[i,c] dV/dq_i,

    with Gamma the ambient Levi-Civita Christoffels in the adapted frame.
    Returns the states ``(q, v)`` at t = 0, h, .., steps h as one array
    ``[steps + 1, n + k]``.  Under the identity pairing of velocities with
    momenta in this frame, they must track the momentum-side trajectory of the
    built scenario (its ``states()``).
    """
    frame = _AdaptedFrame(spec)
    k, n = frame.k, frame.n
    v0 = np.asarray(v0, dtype=float).reshape(-1)
    q0 = np.asarray(q0, dtype=float).reshape(-1)
    if v0.shape[0] != k or q0.shape[0] != n:
        raise InputError("initial data does not match the constrained dimensions")
    V = spec.potential

    def rhs(y):
        q, v = y[:n], y[n:]
        core = frame.core_at(q)
        Gam = frame.christoffels(q, core)
        rho_l = core["rho_new"][:, :k]
        dq = rho_l @ v if n else np.zeros(0)
        dv = -np.einsum("cab,a,b->c", Gam[:k, :k, :k], v, v)
        if V is not None and n:
            rho_r = core["rho_new"] @ core["Pi"]
            dv -= rho_r.T @ V._gradient(q)
        return np.concatenate([dq, dv])

    Y = np.empty((int(steps) + 1, n + k))
    Y[0] = np.concatenate([q0, v0])
    for step in range(int(steps)):
        Y[step + 1] = rk4_step(rhs, Y[step], h)
    return Y

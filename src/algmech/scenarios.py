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

For the constrained family, :func:`lagrangian_reference` integrates the
Lagrange-d'Alembert equations in ambient coordinates from the spec's own data.
It shares no arithmetic with the adapted frame of the momentum side, so it is
an independent oracle for the momentum-side trajectories.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .algebroid import (
    AlgebroidStructure, StructureSnapshot, algebroid_from_constants, base_probes,
    canonical_tangent, max_abs, structure_eval,
)
from .connections import (
    CHRISTOFFEL_FD_STEP,
    ConnectionPair,
    _koszul_rhs,
    check_metric,
    christoffels_at,
    curvature_arrays,
    curvature_field,
    default_split,
    levi_civita,
)
from .errors import InputError, NumericError
from .fields import TensorField, stencil, stencil_jet
from .hamiltonian import (
    _check_step, fibre_form, momentum_pairing_hamiltonian, quadratic_hamiltonian, rk4_step,
)
from .prolongation import ProlongationData

GRAM_SCHMIDT_TOL = 1e-12
_PROBE_SEED = 2024  # construction-time checks of metrics and frames


@dataclass(frozen=True)
class ScenarioBundle:
    """One ready-to-run system: structure, energy, splitting, curvature, monitors."""

    algebroid: AlgebroidStructure
    hamiltonian: TensorField
    split: ConnectionPair
    curvature: TensorField
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
    probes = base_probes(n, seed=_PROBE_SEED)
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
    if G.arity != n or X.arity != n:
        raise InputError(f"metric arity {G.arity} and vector field arity {X.arity} must be n={n}")
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
    zero = TensorField.zeros((n,) * 4, n)

    def base_at(q, curvature=True):  # one Koszul solve: Dl, Dr are 2 Gamma halved, exactly
        s = structure_eval(alg, q)  # R is a zero constant: returned either way
        Dl = 0.5 * s.B
        return s, Dl, -1.0 * Dl, zero.eval(q)

    return ScenarioBundle(
        algebroid=alg,
        hamiltonian=momentum_pairing_hamiltonian(X, n),
        split=ConnectionPair(Dl=Gamma, Dr=Gamma.scaled(-1.0)),
        curvature=zero,
        _base_at=base_at,
    )


# -- canonical and Lie-Poisson ------------------------------------------------


def build_canonical(n: int, H: TensorField, monitors=None) -> ScenarioBundle:
    """Canonical cotangent dynamics on an n-dimensional chart."""
    alg = canonical_tangent(n)
    if H.arity != 2 * n:
        raise InputError("Hamiltonian arity must be 2n")
    return ScenarioBundle(
        algebroid=alg,
        hamiltonian=H,
        split=default_split(alg),
        curvature=TensorField.zeros((n,) * 4, n),
        monitors=dict(monitors or {}),
    )


def build_lie_poisson(constants, H: TensorField, metric=None, monitors=None) -> ScenarioBundle:
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
        split=ConnectionPair(Dl=Gamma, Dr=Gamma),
        curvature=curvature_field(alg, Gamma),
        monitors=dict(monitors or {}),
    )


def euler_top_hamiltonian(inertia) -> TensorField:
    """H(p) = 1/2 sum_a p_a^2 / I_a for principal inertias I_a > 0 with a finite 1/(2 I_a)."""
    inertia = np.asarray(inertia, dtype=float).tolist()  # Python floats divide without a warning
    if not all(I > 0 and 0.5 / I < math.inf for I in inertia):
        raise InputError("inertia entries must be > 0 with a finite 1/(2 I)")
    terms = []
    for a, I in enumerate(inertia):
        e = [0] * len(inertia)
        e[a] = 2
        terms.append((0.5 / I, e))
    return TensorField.polynomial(terms, len(inertia))


def so3_casimir() -> TensorField:
    """|p|^2 on the dual of the rotation algebra, the Casimir of its bracket."""
    return TensorField.polynomial([(1.0, [2, 0, 0]), (1.0, [0, 2, 0]), (1.0, [0, 0, 2])], 3)


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

        dissipation = TensorField.from_callable(rate, 2 * n)

    return ScenarioBundle(
        algebroid=alg,
        hamiltonian=H,
        split=default_split(alg),
        curvature=TensorField.zeros((n,) * 4, n),
        monitors={"dissipation": dissipation},
    )


# -- constrained systems ------------------------------------------------------


@dataclass(frozen=True)
class ConstraintSpec:
    """Ambient Lie algebroid + bundle metric + constraint data.

    ``kinematic_basis`` spans the admissible subbundle; ``variational_basis``
    (optional) spans where reaction forces do no work.  When the latter is
    omitted the classical case is meant and the two coincide.  Each basis is
    a [k, M] tensor over the base, its rows the basis vectors
    (:func:`~algmech.fields.tensor_from_config` builds it from nested rows of
    numbers and scalar fields).
    """

    ambient: AlgebroidStructure
    metric: TensorField
    kinematic_basis: TensorField
    variational_basis: TensorField | None = None
    potential: TensorField | None = None

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
        probes = base_probes(n, seed=_PROBE_SEED)
        s = structure_eval(self.ambient, probes)
        lie = "ambient structure must be Lie-type: ambient"
        _raise_first(probes, [
            (f"{lie} anchors differ", max_abs(s.rho_l - s.rho_r, 2) > 1e-12),
            (f"{lie} bracket not skew", max_abs(s.B + s.B.swapaxes(-1, -2), 3) > 1e-12),
        ])
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


def _completion_failures(U, short):
    """The failure masks of a completed frame ``U[K, M, M]``, ``short`` from :func:`_complete`."""
    return [
        ("could not complete the adapted frame", short),
        (
            "compatibility failed: kinematic subbundle and variational complement "
            "do not span the ambient fibre",
            np.abs(np.linalg.det(U)) < 1e-10,
        ),
    ]


def _raise_first(Q, failures):
    """Raise :class:`InputError` at the first point of ``Q``, in row order, that a mask marks.

    ``failures`` are (message, [K] mask) pairs; the point's first failure is named.
    """
    if any(mask.any() for _, mask in failures):
        i = int(np.logical_or.reduce([mask for _, mask in failures]).argmax())
        message = next(message for message, mask in failures if mask[i])
        raise InputError(f"{message} at {Q[i].tolist()}")


def _completion_jet(span, spanG, perp, kept, seed, dseed, Gv, dG):
    """Gradient [K, n, M, M - k] of the rows ``perp`` that :func:`_complete` adds to ``span``.

    ``span`` [K, k, M] (``spanG`` = span G) orthonormalizes the rows ``seed``,
    whose gradient is ``dseed`` [K, n, M, k]; [span, perp] is read as the QR
    factor of the seed and the kept unit vectors.
    """
    k, M = span.shape[1:]
    A = np.concatenate([seed, np.eye(M)[kept]], axis=1).swapaxes(1, 2)
    dA = np.zeros(dG.shape)
    dA[..., :k] = dseed
    QG = np.concatenate([spanG, perp @ Gv], axis=1)
    return _qr_jet(np.concatenate([span, perp], axis=1).swapaxes(1, 2), QG, A, dA, dG)[..., k:]


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


def _qr_jet(Q, QG, A, dA, dG):
    """Exact gradient of the metric-orthonormal QR factor ``Q = A R^-1``, at K points.

    ``A`` is [K, M, c], of full column rank at each point, and ``Q`` its
    metric Gram-Schmidt frame (Q^T G Q = I, so R = Q^T G A is upper
    triangular), ``QG`` = Q^T G; ``dA`` [K, n, M, c] and ``dG`` [K, n, M, M]
    are the derivatives of A and G along the n chart directions.  Per point and
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
    dAR = dA @ np.linalg.inv(QG @ A * upper)[:, None]
    X = QG[:, None] @ dAR
    L = X * lower
    Omega = L - L.swapaxes(2, 3) - Qt[:, None] @ dG @ Q[:, None] * half
    if A.shape[-1] < Q.shape[1]:  # thin: dA R^-1 off the span of Q, Q Q^T G dA R^-1 = Q X
        return dAR + Q[:, None] @ (Omega - X)
    return Q[:, None] @ Omega


class _AdaptedFrame:
    """Orthonormal frame adapted to the constraint decomposition, over a batch of points.

    Columns 0..k-1 are a metric-orthonormal basis of the kinematic subbundle,
    the remaining columns an orthonormal basis of the orthogonal complement of
    the variational subbundle (of the kinematic one if classical), both
    assembled by :meth:`_frame_jet` with an exact jet: U is read as the QR
    factor of the basis columns and the completing unit vectors,
    differentiated by :func:`_qr_jet`.

    A classical frame's projected structure reads only the kinematic columns
    E and their jet (:meth:`structure_at`, :meth:`_kinematic_snapshot`): an
    RK4 stage builds no completion and no M^3 bracket.  The core's adapted
    structure is the same function on all M columns, whose kinematic block
    is the stage's, so the split, the curvature and the lifted structure
    share that block's arithmetic with the stage.

    The core (frame and jet, adapted structure, adapted metric and its jet,
    projectors and the variational projector's jet) is evaluated at K points
    ``Q[K, n]`` in one pass, every array with a leading K axis; Gram-Schmidt
    and the completion loop over columns, not points, and every product is
    one stacked matmul per point, so row k equals the core at point k alone.
    One point ``q[n]`` is the K = 1 case.  Each :meth:`_compute_core` call
    is one frame evaluation, over a point (n = 0) too.  Nothing is cached:
    what the frame derives is a function of a core that its caller passes
    in, and :meth:`lifted_base` gets the projected structure, the split and
    the curvature at q from one core evaluation over the central-difference
    stencil of q, which gives the Christoffels' jet there.

    Only the momentum side is built on the frame: the velocity-side oracle,
    :func:`lagrangian_reference`, never evaluates it, so a defect here moves
    one side of ``legendre_equivalence`` and not the other.
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

    # frame assembly ---------------------------------------------------------

    def _frame_jet(self, Q, complete=True):
        """The frame at ``Q[K, n]``, its gradient, the metric and its gradient.

        Every frame is assembled here: the kinematic columns E are the metric
        Gram-Schmidt of the kinematic rows, with the thin :func:`_qr_jet`.
        ``complete`` adds an orthonormal basis of the orthogonal complement
        of the variational rows (of E if classical), seeded by those rows (by
        E's rows and their jet), with its :func:`_completion_jet`; a classical
        RK4 stage reads E alone.  Raises :class:`InputError` for the first
        point, in row order, where the frame fails, naming that point and its
        first failure.
        """
        spec = self.spec
        Gv, dG = spec.metric.eval_grad(Q)
        D, dD = spec.kinematic_basis.eval_grad(Q)
        rows, rowsG, deficient = _gram_schmidt(D, Gv)
        E = rows.swapaxes(1, 2)
        failures = [("kinematic basis rank deficient", deficient)]
        if complete:
            if spec.classical:
                span, spanG = rows, rows @ Gv
            else:
                V, dV = spec.variational_basis.eval_grad(Q)
                span, spanG, v_deficient = _gram_schmidt(V, Gv)
                failures.append(("variational basis rank deficient", v_deficient))
            perp, kept, short = _complete(span, spanG, Gv)
            U = np.concatenate([E, perp.swapaxes(1, 2)], axis=-1)
            failures += _completion_failures(U, short)
        _raise_first(Q, failures)
        dG = dG.transpose(0, 3, 1, 2)
        dE = _qr_jet(E, rowsG, D.swapaxes(1, 2), dD.transpose(0, 3, 2, 1), dG)
        if not complete:
            return E, dE, Gv, dG
        seed, dseed = (rows, dE) if spec.classical else (V, dV.transpose(0, 3, 2, 1))
        dperp = _completion_jet(span, spanG, perp, kept, seed, dseed, Gv, dG)
        return U, np.concatenate([dE, dperp], axis=-1), Gv, dG

    def _kinematic_snapshot(self, E, dE, EG, s):
        """Bracket coefficients and anchors of the frame columns ``E[K, M, c]``, at K points.

        With the ambient snapshot ``s``, the jet ``dE[K, n, M, c]`` and the
        rows ``EG[K, c, M]`` that read a vector's components in the columns:

            rho = rho_amb E,
            B[c, a, b] = EG_c . (B_amb(E_a, E_b) + d_{rho E_a} E_b - d_{rho E_b} E_a).

        With all M columns of U and EG = U^-1 it is the core's adapted
        structure.  With the k kinematic columns of a classical frame and
        EG = E^T G it is the projected structure (the constrained bracket
        is the projection of the bracket of sections of the constraint
        subbundle): an RK4 stage needs no completion, no ``det``, no
        inverse and no M^3 bracket, and so no longer checks the completion
        or the determinant at its points.  The build checks both at its
        probes, and along a trajectory a classical frame with full-rank
        kinematic rows cannot fail them: the completion always exists, and
        |det U| = det(G)^(-1/2) trips 1e-10 only where det G > 1e20.
        Rank-deficient kinematic rows still fail in :meth:`_frame_jet`, at
        the first such point in row order.
        """
        K, M, c = E.shape
        rho = s.rho_l @ E
        # EG_c . B_amb(E_a, E_b): B_amb read in EG, then applied to the columns
        out = (EG @ s.B.reshape(s.B.shape[:-3] + (M, M * M))).reshape(K, c * M, M) @ E
        out = E.swapaxes(1, 2)[:, None] @ out.reshape(K, c, M, c)
        if self.n:
            # along[c, a, b] = EG_c . d_{rho E_a} E_b, from EG dE along each chart direction
            along = EG @ dE.transpose(0, 2, 1, 3).reshape(K, M, self.n * c)
            along = rho.swapaxes(1, 2)[:, None] @ along.reshape(K, c, self.n, c)
            out += along - along.swapaxes(2, 3)
        return out, rho

    def structure_at(self, q):
        """Projected bracket coefficients B[c,a,b] and anchors at ``q[n]`` or ``q[K, n]``.

        One frame evaluation: a classical frame reads only its kinematic
        columns (:meth:`_kinematic_snapshot`), a generalized one its core,
        whose variational projector needs the complement.
        """
        if not self.spec.classical:
            return self.projected_structure_at(self._compute_core(q))
        Q = q if q.ndim == 2 else q[None]
        E, dE, Gv, _ = self._frame_jet(Q, complete=False)
        s = self._ambient or structure_eval(self.spec.ambient, q)
        B, rho = self._kinematic_snapshot(E, dE, E.swapaxes(1, 2) @ Gv, s)
        return (B, rho, rho) if q.ndim == 2 else (B[0], rho[0], rho[0])

    def _compute_core(self, q):
        """The core at ``q[n]``, or at every point of ``q[K, n]`` with a leading K axis."""
        spec = self.spec
        M, n, k = self.M, self.n, self.k
        Q = q if q.ndim == 2 else q[None]
        K = Q.shape[0]
        U, dU, Gv, dG = self._frame_jet(Q)
        # the ambient snapshot of one point has no K axis: it broadcasts
        s = self._ambient or structure_eval(spec.ambient, q)
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
        # bracket coefficients in the adapted frame: the stage's formula on all M columns
        C_new, rho_new = self._kinematic_snapshot(U, dU, Uinv, s)
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

        One solve from the core's metric jet and adapted structure.  A
        generalized frame's metric is checked where it is solved (the
        classical one is the identity).
        """
        if not self.spec.classical:
            check_metric(core["G_new"], q)
        G = core["G_new"]
        return christoffels_at(G, _koszul_rhs(G, core["dG_new"], core["C_new"], core["rho_new"]))

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

    def split_at(self, core, Gam):
        """Left/right Christoffels of the constrained splitting at a point or batch.

        From the core there and the adapted Christoffels ``Gam[..., M, M, M]``
        (value, direction, argument) that its caller solved from that core.
        """
        k, Pi = self.k, core["Pi"]
        Dl = self._projected(core, Gam)
        Dr = _project_first(core["P"], Pi.swapaxes(-1, -2)[..., None, :, :] @ Gam[..., :k])
        return Dl, Dr

    def lifted_base(self, q, curvature=True):
        """Projected snapshot, split Christoffels and curvature R at ``q[n]`` or ``q[K, n]``.

        One core evaluation over the central-difference stencil of ``q``
        (step ``h``): its centre rows are the core at ``q``, bit for bit, and
        the Christoffels over it give their jet there.  R is the kinematic
        projection of the ambient Levi-Civita curvature.  Without
        ``curvature`` (R is None) the one core evaluation is at ``q`` alone
        and no jet is taken; over a point (n = 0) the stencil is ``q`` alone.
        """
        if not curvature:  # at q alone
            core = self._compute_core(q)
            Gam = self.christoffels(q, core)
        else:
            points = stencil(q, self.h)
            lead = points.shape[:-1]
            flat = points.reshape(math.prod(lead), self.n)
            cores = self._compute_core(flat)
            Gam = self.christoffels(flat, cores).reshape(lead + (self.M,) * 3)
            Gam, dGam = stencil_jet(Gam, self.h)
            core = {key: value.reshape(lead + value.shape[1:])[0] for key, value in cores.items()}
        B, rho_l, rho_r = self.projected_structure_at(core)
        Dl, Dr = self.split_at(core, Gam)
        R = None
        if curvature:
            R = curvature_arrays(Gam, dGam, core["C_new"], core["rho_new"])
            R = _project_first(core["P"], R[..., : self.k, : self.k, : self.k])
        if not all(np.isfinite(a).all() for a in (B, rho_l, rho_r, Dl, Dr, R) if a is not None):
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
    H = 1/2 sum p_a^2 + V(q) are assembled over that frame.  The whole frame
    is built at the probes here; afterwards a classical structure snapshot
    (every RK4 stage) reads only the kinematic columns, and the split and
    curvature read the whole frame through :meth:`_AdaptedFrame.lifted_base`.
    Each of the six tensors is an entry of one call of ``structure_at`` or
    ``lifted_base``, its jet a central difference of that call.
    Over a point (n = 0) every tensor is a constant, folded from the one
    ``lifted_base`` evaluation made here.
    """
    frame = _AdaptedFrame(spec)
    k, n = frame.k, frame.n
    H = quadratic_hamiltonian(TensorField.from_constants(np.eye(k), n), spec.potential, n, k)
    if not n:
        s, *tensors = frame.lifted_base(np.zeros(0))
        Dl, Dr, R = (TensorField.from_constants(T, 0) for T in tensors)
        return ScenarioBundle(
            algebroid=algebroid_from_constants(s.B, s.rho_l, s.rho_r),
            hamiltonian=H,
            split=ConnectionPair(Dl=Dl, Dr=Dr),
            curvature=R,
        )
    # exercise the frame at the probe points, in one batch, so ill-posed data fails loudly here
    frame._compute_core(base_probes(n, seed=_PROBE_SEED))

    def piece(at, pos, shape):
        return TensorField.from_array_fn(lambda q: at(q)[pos], shape, n, h=frame.h)

    at, base = frame.structure_at, functools.partial(frame.lifted_base, curvature=False)
    return ScenarioBundle(
        # one frame evaluation feeds the bracket and both anchors
        algebroid=AlgebroidStructure(
            n, k, piece(at, 0, (k, k, k)), piece(at, 1, (n, k)), piece(at, 2, (n, k)),
            _structure_at=at,
        ),
        hamiltonian=H,
        split=ConnectionPair(Dl=piece(base, 1, (k, k, k)), Dr=piece(base, 2, (k, k, k))),
        curvature=piece(frame.lifted_base, 3, (k, k, k, k)),
        _base_at=frame.lifted_base,
    )


def lagrangian_reference(spec: ConstraintSpec, v0, q0, h, steps):
    """Velocity-side reference trajectory of a constrained system, in ambient coordinates.

    Reads only the spec's data, never the adapted frame: the metric G and
    the kinematic rows D with their jets, the variational rows W (D if
    classical), the ambient structure (B, rho) and the potential V.  RK4
    integrates the Lagrange-d'Alembert equations of L = 1/2 w^T G w - V in
    the state (q, u), w = D^T u:

        dq/dt = rho w,
        (W G D^T) du/dt = -W [(d_qdot G) w + G (d_qdot D)^T u - B(G w, w)
                              - rho^T (1/2 w^T dG w - dV)],

    B(G w, w)_b = sum_{c,a} B[c,a,b] (G w)_c w_a; the reaction lies in the
    annihilator of W, so its multipliers drop out of the one k x k solve
    per stage.  Constant data, and all data over a point, is read once.
    Velocities v are components in E = D^T L^-T, the metric Gram-Schmidt of
    the rows of D (L L^T = D G D^T): w0 = E v0, and v = E^T G w = L^T u
    over all samples in one batch after the loop.  Returns the states
    ``(q, v)`` at t = 0, h, .., steps h, ``[steps + 1, n + k]``; they must
    track the momentum-side trajectory of the built scenario (its ``states()``).
    """
    A = spec.ambient
    M, n, k = A.m, A.n, spec.rank
    v0 = np.asarray(v0, dtype=float).reshape(-1)
    q0 = np.asarray(q0, dtype=float).reshape(-1)
    if v0.shape[0] != k or q0.shape[0] != n:
        raise InputError("initial data does not match the constrained dimensions")
    _check_step(h, steps)

    def constant(T):  # a tensor that is absent counts as constant
        return T is None or T._const is not None or not n

    def once(T, read):
        """``read``, a method of T; a constant T is read here, once."""
        if not constant(T):
            return read
        value = read(q0)
        return lambda q: value

    metric = once(spec.metric, spec.metric.eval_grad)
    kinematic = once(spec.kinematic_basis, spec.kinematic_basis.eval_grad)
    if not spec.classical:
        variational = once(spec.variational_basis, spec.variational_basis.eval)

    def data(q):  # G and its jet, D and its jet, and (W G D^T)^-1 W at q
        (G, dG), (D, dD) = metric(q), kinematic(q)
        W = D if spec.classical else variational(q)
        return G, dG, D, dD, np.linalg.solve(W @ G @ D.T, W)

    s = structure_eval(A, q0) if not (A._varying and n) else None
    V = spec.potential if n else None

    def rhs(y):
        q, u = y[:n], y[n:]
        G, dG, D, dD, R = fixed or data(q)
        snap = s or structure_eval(A, q)
        w = u @ D
        f = -(w @ (G @ w @ snap.B.reshape(M, M * M)).reshape(M, M))  # -B(G w, w)
        if not n:
            return -(R @ f)
        qdot = snap.rho_l @ w
        f += dG @ qdot @ w + G @ (u @ (dD @ qdot)) - 0.5 * snap.rho_l.T @ (w @ (w @ dG))
        if V is not None:
            f += snap.rho_l.T @ V._gradient(q)
        return np.concatenate([qdot, -(R @ f)])

    def gram_factor(q):  # L at q, or at each sample of q[K, n]
        G, D = metric(q)[0], kinematic(q)[0]
        return np.linalg.cholesky(D @ G @ D.swapaxes(-1, -2))

    Y = np.empty((steps + 1, n + k))
    try:
        tensors = (spec.metric, spec.kinematic_basis, spec.variational_basis)
        fixed = data(q0) if all(map(constant, tensors)) else None
        Y[0] = np.concatenate([q0, np.linalg.solve(gram_factor(q0).T, v0)])
        for step in range(steps):
            Y[step + 1] = rk4_step(rhs, Y[step], h)
        Y[:, n:] = (Y[:, None, n:] @ gram_factor(Y[:, :n]))[:, 0]
    except np.linalg.LinAlgError as exc:  # rows that are no frame along the way
        raise NumericError(f"constrained reference failed: {exc}") from exc
    return Y

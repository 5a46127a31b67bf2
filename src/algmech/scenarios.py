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

from dataclasses import dataclass, field as dc_field

import numpy as np

from .algebroid import AlgebroidStructure, canonical_tangent, structure_eval
from .connections import (
    CHRISTOFFEL_FD_STEP,
    ConnectionPair,
    CurvatureTensor,
    curvature_field,
    default_split,
    levi_civita,
    metric_compatible_pair,
)
from .errors import InputError
from .fields import SmoothField, TensorField, memoized_on_point
from .hamiltonian import (
    PhasePoint,
    metric_inverse,
    momentum_pairing_hamiltonian,
    quadratic_hamiltonian,
    rk4_step,
)
from .prolongation import ProlongationData

GRAM_SCHMIDT_TOL = 1e-12


@dataclass(frozen=True)
class ScenarioBundle:
    """One ready-to-run system: structure, energy, splitting, curvature, monitors."""

    algebroid: AlgebroidStructure
    hamiltonian: SmoothField
    split: ConnectionPair
    curvature: CurvatureTensor
    monitors: dict = dc_field(default_factory=dict)
    provenance: dict = dc_field(default_factory=dict)

    def prolongation(self) -> ProlongationData:
        return ProlongationData(self.algebroid, self.split, self.curvature)


def _tensor_map(T: TensorField, fn) -> TensorField:
    out = np.empty(T.shape, dtype=object)
    for idx in np.ndindex(*T.shape):
        out[idx] = fn(T[idx], idx)
    return TensorField(out, arity=T.arity)


def _check_metric(G: TensorField, probes):
    for q in probes:
        Gv = G.eval(q)
        if np.max(np.abs(Gv - Gv.T)) > 1e-10:
            raise InputError(f"metric not symmetric at {np.asarray(q).tolist()}")
        try:
            np.linalg.cholesky(Gv)
        except np.linalg.LinAlgError as exc:
            raise InputError(
                f"metric not positive-definite at {np.asarray(q).tolist()}"
            ) from exc


def _base_probes(n, count=5, seed=2024):
    if n == 0:
        return [np.zeros(0)]
    rng = np.random.default_rng(seed)
    return [np.zeros(n)] + [rng.uniform(-1, 1, size=n) for _ in range(count - 1)]


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
    _check_metric(G, _base_probes(n))
    A0 = canonical_tangent(n)
    Gamma = levi_civita(A0, G)
    bracket = _tensor_map(Gamma, lambda f, idx: f.scaled(2.0))
    alg = AlgebroidStructure(
        n=n,
        m=n,
        bracket=bracket,
        anchor_left=TensorField.from_constants(np.eye(n), n),
        anchor_right=TensorField.from_constants(-np.eye(n), n),
    )
    split = ConnectionPair(Dl=Gamma, Dr=_tensor_map(Gamma, lambda f, idx: f.scaled(-1.0)))
    return ScenarioBundle(
        algebroid=alg,
        hamiltonian=momentum_pairing_hamiltonian(X, n),
        split=split,
        curvature=CurvatureTensor.zero(n, n),
        provenance={"scenario": "gradient_extension", "n": n},
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
        provenance={"scenario": "canonical", "n": n},
    )


def build_lie_poisson(
    constants, H: SmoothField, metric=None, monitors=None, name="lie_poisson"
) -> ScenarioBundle:
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
    alg = AlgebroidStructure(
        n=0,
        m=m,
        bracket=TensorField.from_constants(C, 0),
        anchor_left=TensorField.from_constants(np.zeros((0, m)), 0),
        anchor_right=TensorField.from_constants(np.zeros((0, m)), 0),
    )
    G = TensorField.from_constants(np.eye(m) if metric is None else np.asarray(metric), 0)
    _check_metric(G, [np.zeros(0)])
    Gamma = levi_civita(alg, G)
    return ScenarioBundle(
        algebroid=alg,
        hamiltonian=H,
        split=metric_compatible_pair(Gamma),
        curvature=curvature_field(alg, Gamma),
        monitors=dict(monitors or {}),
        provenance={"scenario": name, "m": m},
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


def build_euler_top(inertia=(1.0, 2.0, 3.0)) -> ScenarioBundle:
    """Free rigid body as a Lie-Poisson system on the rotation algebra."""
    from .algebroid import levi_civita_symbol

    eps = levi_civita_symbol()
    casimir = SmoothField.polynomial(
        [(1.0, [2, 0, 0]), (1.0, [0, 2, 0]), (1.0, [0, 0, 2])], 3
    )
    bundle = build_lie_poisson(
        np.transpose(eps, (2, 0, 1)),
        euler_top_hamiltonian(inertia),
        monitors={"casimir": casimir},
        name="euler_top",
    )
    bundle.provenance["inertia"] = list(np.asarray(inertia, dtype=float))
    return bundle


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
    _check_metric(G, _base_probes(n))
    if (S is None) == (T is None):
        raise InputError("give exactly one of S (contorsion) or T (direct torsion)")
    if T is None:
        out = np.empty((n, n, n), dtype=object)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    out[k, i, j] = S[k, i, j] - S[k, j, i]
        T = TensorField(out, arity=n)
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
    inverse = metric_inverse(G)

    def dissipation(z):
        q, p = z[:n], z[n:]
        Tv = T.eval(q)
        w = inverse(q) @ p
        return -float(np.einsum("kij,k,i,j->", Tv, p, w, w))

    return ScenarioBundle(
        algebroid=alg,
        hamiltonian=H,
        split=default_split(alg),
        curvature=CurvatureTensor.zero(n, n),
        monitors={"dissipation": SmoothField.from_callable(dissipation, 2 * n)},
        provenance={"scenario": "contorsion", "n": n},
    )


# -- constrained systems ------------------------------------------------------


def _as_basis(rows, M, arity):
    rows = list(rows)
    out = np.empty((len(rows), M), dtype=object)
    for j, row in enumerate(rows):
        if len(row) != M:
            raise InputError(f"basis vector {j} has length {len(row)}, ambient rank is {M}")
        for mu, entry in enumerate(row):
            if isinstance(entry, SmoothField):
                if entry.arity != arity:
                    raise InputError("basis coefficient fields must have the base arity")
                out[j, mu] = entry
            else:
                out[j, mu] = SmoothField.constant(float(entry), arity)
    return out


@dataclass(frozen=True)
class ConstraintSpec:
    """Ambient Lie algebroid + bundle metric + constraint data.

    ``kinematic_basis`` spans the admissible subbundle; ``variational_basis``
    (optional) spans where reaction forces do no work.  When the latter is
    omitted the classical case is meant and the two coincide.  Basis entries
    may be numbers or SmoothFields over the base.
    """

    ambient: AlgebroidStructure
    metric: TensorField
    kinematic_basis: np.ndarray  # object array [k, M]
    variational_basis: np.ndarray | None = None
    potential: SmoothField | None = None

    def __post_init__(self):
        M, n = self.ambient.m, self.ambient.n
        if self.metric.shape != (M, M) or self.metric.arity != n:
            raise InputError("metric must be [M,M] over the ambient base")
        object.__setattr__(self, "kinematic_basis", _as_basis(self.kinematic_basis, M, n))
        if self.variational_basis is not None:
            vb = _as_basis(self.variational_basis, M, n)
            if vb.shape[0] != self.kinematic_basis.shape[0]:
                raise InputError(
                    "kinematic and variational subbundles must have equal rank"
                )
            object.__setattr__(self, "variational_basis", vb)
        if self.potential is not None and self.potential.arity != n:
            raise InputError("potential must be a base function")
        rep = None
        for q in _base_probes(n):
            s = structure_eval(self.ambient, q)
            if n and np.max(np.abs(s.rho_l - s.rho_r)) > 1e-12:
                rep = f"ambient anchors differ at {q.tolist()}"
            if np.max(np.abs(s.B + np.swapaxes(s.B, 1, 2))) > 1e-12:
                rep = f"ambient bracket not skew at {q.tolist()}"
        if rep:
            raise InputError("ambient structure must be Lie-type: " + rep)
        _check_metric(self.metric, _base_probes(n))

    @property
    def rank(self) -> int:
        return self.kinematic_basis.shape[0]

    @property
    def classical(self) -> bool:
        return self.variational_basis is None


def _gram_schmidt(cols, Gv, tol=GRAM_SCHMIDT_TOL, strict=True):
    """Metric Gram-Schmidt of the given column vectors; returns kept columns."""
    kept = []
    for v in cols:
        w = v.astype(float).copy()
        for u in kept:
            w -= u * float(u @ Gv @ w)
        nrm = float(w @ Gv @ w)
        if nrm <= tol:
            if strict:
                raise InputError("constraint basis is rank deficient")
            continue
        kept.append(w / np.sqrt(nrm))
    return kept


class _AdaptedFrame:
    """Pointwise orthonormal frame adapted to the constraint decomposition.

    Columns 0..k-1 are a metric-orthonormal basis of the kinematic subbundle,
    the remaining columns an orthonormal basis of the orthogonal complement of
    the variational subbundle.  All pointwise results are memoized; gradients
    of frame-dependent quantities are central differences on the closures.
    """

    def __init__(self, spec: ConstraintSpec):
        self.spec = spec
        self.M = spec.ambient.m
        self.n = spec.ambient.n
        self.k = spec.rank
        self.h = CHRISTOFFEL_FD_STEP
        self.kinematic = TensorField(spec.kinematic_basis, arity=self.n)
        self.variational = (
            None if spec.classical else TensorField(spec.variational_basis, arity=self.n)
        )
        self.U_at = memoized_on_point(self._compute_U)
        self.core_at = memoized_on_point(self._compute_core)
        self._build_fields()

    # frame assembly ---------------------------------------------------------

    def _compute_U(self, q):
        spec = self.spec
        Gv = spec.metric.eval(q)
        Dcols = self.kinematic.eval(q)
        d_frame = _gram_schmidt(Dcols, Gv, strict=True)
        if len(d_frame) != self.k:
            raise InputError(f"kinematic basis rank deficient at {q.tolist()}")
        if spec.classical:
            complement_seed = d_frame
        else:
            Vcols = self.variational.eval(q)
            v_frame = _gram_schmidt(Vcols, Gv, strict=True)
            if len(v_frame) != self.k:
                raise InputError(f"variational basis rank deficient at {q.tolist()}")
            complement_seed = v_frame
        # complete with an orthonormal basis of the orthogonal complement of the seed
        comp = list(complement_seed)
        perp = []
        for mu in range(self.M):
            e = np.zeros(self.M)
            e[mu] = 1.0
            w = e.copy()
            for u in comp + perp:
                w -= u * float(u @ Gv @ w)
            nrm = float(w @ Gv @ w)
            if nrm > 1e-8:
                perp.append(w / np.sqrt(nrm))
        if len(perp) != self.M - self.k:
            raise InputError(f"could not complete the adapted frame at {q.tolist()}")
        U = np.column_stack(d_frame + perp)
        if abs(np.linalg.det(U)) < 1e-10:
            raise InputError(
                f"compatibility failed: kinematic subbundle and variational complement "
                f"do not span the ambient fibre at {q.tolist()}"
            )
        return U

    def _dU(self, q):
        n = self.n
        if n == 0:
            return np.zeros((self.M, self.M, 0))
        out = np.empty((self.M, self.M, n))
        for i in range(n):
            qp, qm = q.copy(), q.copy()
            qp[i] += self.h
            qm[i] -= self.h
            out[:, :, i] = (self.U_at(qp) - self.U_at(qm)) / (2.0 * self.h)
        return out

    def _compute_core(self, q):
        spec = self.spec
        M, n, k = self.M, self.n, self.k
        U = self.U_at(q)
        Uinv = np.linalg.inv(U)
        s = structure_eval(spec.ambient, q)
        rho_new = s.rho_l @ U if n else np.zeros((0, M))
        dU = self._dU(q)
        # bracket coefficients in the adapted frame
        W = np.einsum("lmv,ma,vb->lab", s.B, U, U)
        if n:
            dU_along = np.einsum("lbi,im->lbm", dU, s.rho_l)  # d U[l,b] along rho(eps_m)
            W += np.einsum("ma,lbm->lab", U, dU_along)
            W -= np.einsum("vb,lav->lab", U, dU_along)
        C_new = np.einsum("gl,lab->gab", Uinv, W)
        # metric in the adapted frame: orthonormal blocks by construction
        if spec.classical:
            g = np.zeros((k, M - k))
        else:
            Gv = spec.metric.eval(q)
            g = (U[:, :k].T @ Gv @ U[:, k:])
        G_new = np.eye(M)
        G_new[:k, k:] = g
        G_new[k:, :k] = g.T
        Ginv = np.linalg.inv(G_new)
        # projector onto the kinematic subbundle along its orthogonal complement
        P = G_new[:k, :]
        # projector onto the variational subbundle along the kinematic complement,
        # restricted to kinematic arguments
        Pi = np.zeros((M, k))
        Pi[:k, :] = Ginv[:k, :k].T
        Pi[k:, :] = -(Ginv[:k, :k] @ g).T
        return {
            "U": U,
            "Uinv": Uinv,
            "rho_new": rho_new,
            "C_new": C_new,
            "G_new": G_new,
            "Ginv": Ginv,
            "g": g,
            "P": P,
            "Pi": Pi,
        }

    # fields over the base ----------------------------------------------------

    def _closure(self, key, idx):
        return SmoothField.from_callable(
            lambda q: float(self.core_at(q)[key][idx]), self.n, h=self.h
        )

    def _field_from_core(self, key, shape):
        out = np.empty(shape, dtype=object)
        for idx in np.ndindex(*shape):
            out[idx] = self._closure(key, idx)
        return TensorField(out, arity=self.n)

    def _build_fields(self):
        M, n = self.M, self.n
        self.adapted = AlgebroidStructure(
            n=n,
            m=M,
            bracket=self._field_from_core("C_new", (M, M, M)),
            anchor_left=self._field_from_core("rho_new", (n, M)),
            anchor_right=self._field_from_core("rho_new", (n, M)),
        )
        if self.spec.classical:
            # fully orthonormal frame: the adapted metric is exactly the identity
            self.G_new_field = TensorField.from_constants(np.eye(M), n)
        else:
            self.G_new_field = self._field_from_core("G_new", (M, M))
        self.Gamma = levi_civita(self.adapted, self.G_new_field)
        self.Pi_field = self._field_from_core("Pi", (M, self.k))

    # derived pointwise structures ---------------------------------------------

    def projected_structure_at(self, q):
        """Projected bracket coefficients B[c,a,b] and anchors at ``q``."""
        core = self.core_at(q)
        k, n = self.k, self.n
        C, P, Pi, rho = core["C_new"], core["P"], core["Pi"], core["rho_new"]
        inner = np.einsum("mb,lam->lab", Pi, C[:, :k, :])
        if n and not self.spec.classical:  # classical projector is constant
            _, dPi = self.Pi_field.eval_grad(q)  # [M, k, n]
            inner += np.einsum("ia,lbi->lab", rho[:, :k], dPi)
        B = np.einsum("cl,lab->cab", P, inner)
        rho_l = rho[:, :k]
        rho_r = rho @ Pi if n else np.zeros((0, k))
        return B, rho_l, rho_r

    def split_at(self, q):
        """Left/right connection Christoffels of the constrained splitting."""
        core = self.core_at(q)
        k, n = self.k, self.n
        P, Pi, rho = core["P"], core["Pi"], core["rho_new"]
        Gam = self.Gamma.eval(q)  # [M, M, M] value, direction, argument
        Dl_inner = np.einsum("mb,gam->gab", Pi, Gam[:, :k, :])
        if n and not self.spec.classical:
            _, dPi = self.Pi_field.eval_grad(q)
            Dl_inner += np.einsum("ia,gbi->gab", rho[:, :k], dPi)
        Dl = np.einsum("cg,gab->cab", P, Dl_inner)
        Dr = np.einsum("cg,ma,gmb->cab", P, Pi, Gam[:, :, :k])
        return Dl, Dr

    def ctilde_display_at(self, q):
        """The closed-form projected coefficients from the ambient display.

        Output layout [a, b, c] matches the bracket convention: value a,
        arguments (b, c).  Uses the cross Gram block, the full inverse metric
        restricted to kinematic indices, the adapted-frame bracket
        coefficients and the anchor-directional derivative of the cross block.
        """
        core = self.core_at(q)
        k, M, n = self.k, self.M, self.n
        C, Ginv, g, rho = core["C_new"], core["Ginv"], core["g"], core["rho_new"]
        GD = Ginv[:k, :k]
        if n:
            dg = np.empty((k, M - k, n))
            for i in range(n):
                qp, qm = q.copy(), q.copy()
                qp[i] += self.h
                qm[i] -= self.h
                dg[:, :, i] = (self.core_at(qp)["g"] - self.core_at(qm)["g"]) / (2 * self.h)
        else:
            dg = np.zeros((k, M - k, 0))
        out = np.zeros((k, k, k))
        for a in range(k):
            for b in range(k):
                for c in range(k):
                    acc = 0.0
                    for d in range(k):
                        val = C[a, d, b]
                        val += float(g[a, :] @ C[k:, d, b])
                        val -= float(g[d, :] @ C[a, k:, b])
                        val -= float(g[d, :] @ (g[a, :] @ C[k:, k:, b]))
                        if n:
                            val -= float(g[d, :] @ (dg[a, :, :] @ rho[:, b]))
                        acc += GD[c, d] * val
                    out[a, b, c] = -acc
        return out

    def curvature_projected(self) -> CurvatureTensor:
        """Kinematic projection of the ambient Levi-Civita curvature."""
        amb_curv = curvature_field(self.adapted, self.Gamma)
        k, n = self.k, self.n

        def at(q):
            Rv = amb_curv.eval(q)[:, :k, :k, :k]
            P = self.core_at(q)["P"]
            return np.einsum("dg,gabc->dabc", P, Rv)

        at = memoized_on_point(at)
        out = np.empty((k, k, k, k), dtype=object)
        for idx in np.ndindex(k, k, k, k):
            out[idx] = SmoothField.from_callable(
                (lambda i: lambda q: float(at(q)[i]))(idx), n, h=self.h
            )
        return CurvatureTensor(TensorField(out, arity=n))


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
    # exercise the frame at probe points so ill-posed data fails loudly here
    for q in _base_probes(n):
        frame.core_at(q)

    proj_at = memoized_on_point(lambda q: frame.projected_structure_at(q))
    split_at = memoized_on_point(lambda q: frame.split_at(q))

    def piece(src, pos, idx):
        return SmoothField.from_callable(
            lambda q: float(src(q)[pos][idx]), n, h=frame.h
        )

    Bf = np.empty((k, k, k), dtype=object)
    for idx in np.ndindex(k, k, k):
        Bf[idx] = piece(proj_at, 0, idx)
    rlf = np.empty((n, k), dtype=object)
    rrf = np.empty((n, k), dtype=object)
    for idx in np.ndindex(n, k):
        rlf[idx] = piece(proj_at, 1, idx)
        rrf[idx] = piece(proj_at, 2, idx)
    alg = AlgebroidStructure(
        n=n,
        m=k,
        bracket=TensorField(Bf, arity=n),
        anchor_left=TensorField(rlf, arity=n),
        anchor_right=TensorField(rrf, arity=n),
    )
    Dlf = np.empty((k, k, k), dtype=object)
    Drf = np.empty((k, k, k), dtype=object)
    for idx in np.ndindex(k, k, k):
        Dlf[idx] = piece(split_at, 0, idx)
        Drf[idx] = piece(split_at, 1, idx)
    split = ConnectionPair(Dl=TensorField(Dlf, arity=n), Dr=TensorField(Drf, arity=n))

    terms = [(0.5, [0] * (n + a) + [2] + [0] * (k - a - 1)) for a in range(k)]
    H = SmoothField.polynomial(terms, n + k)
    if spec.potential is not None:
        V = spec.potential

        def with_potential(z):
            return V._value(z[:n])

        Hpot = SmoothField.from_callable(
            with_potential,
            n + k,
            grad=lambda z: np.concatenate([V._gradient(z[:n]), np.zeros(k)]),
        )
        H = H + Hpot

    return ScenarioBundle(
        algebroid=alg,
        hamiltonian=H,
        split=split,
        curvature=frame.curvature_projected(),
        provenance={
            "scenario": "constrained" if spec.classical else "generalized_constrained",
            "rank": k,
            "ambient_rank": frame.M,
        },
    )


def lagrangian_reference(spec: ConstraintSpec, v0, q0, h, steps):
    """Velocity-side reference trajectory for a constrained system.

    Integrates, in the same adapted orthonormal frame as
    :func:`build_constrained` but through the ambient Christoffel route,

        dq/dt = rho_l v,
        dv_c/dt = - sum_ab Gamma[c,a,b] v_a v_b - sum_i rho_r[i,c] dV/dq_i,

    with Gamma the ambient Levi-Civita Christoffels in the adapted frame.
    Returns a list of ``(t, q, v)`` samples of length steps + 1.  Under the
    identity pairing of velocities with momenta in this frame, the samples
    must track the momentum-side trajectory of the built scenario.
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
        Gam = frame.Gamma.eval(q)
        rho_l = core["rho_new"][:, :k]
        dq = rho_l @ v if n else np.zeros(0)
        dv = -np.einsum("cab,a,b->c", Gam[:k, :k, :k], v, v)
        if V is not None and n:
            rho_r = core["rho_new"] @ core["Pi"]
            dv -= rho_r.T @ V._gradient(q)
        return np.concatenate([dq, dv])

    y = np.concatenate([q0, v0])
    samples = [(0.0, y[:n].copy(), y[n:].copy())]
    for step in range(int(steps)):
        y = rk4_step(rhs, y, h)
        samples.append(((step + 1) * h, y[:n].copy(), y[n:].copy()))
    return samples

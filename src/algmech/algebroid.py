"""Algebroid structure data in a fixed frame, and its differential calculus.

An algebroid over an n-dimensional chart with a rank-m frame is stored as
its structure functions: bracket coefficients B[gamma, alpha, beta](q) with
B(sigma_alpha, sigma_beta) = B[gamma, alpha, beta] sigma_gamma, and left /
right anchor matrices rho_l[i, alpha](q), rho_r[i, alpha](q) mapping frame
sections to chart vector fields.  No skewness or Jacobi identity is imposed
at construction; both are *measured* by :func:`structure_checks`.

n = 0 is allowed (a Lie-algebra-like fibre over a point): anchors are then
0 x m tensors and all brackets are constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .fields import SmoothField, TensorField


@dataclass(frozen=True)
class AlgebroidStructure:
    """Structure functions of an algebroid in one frame; immutable."""

    n: int
    m: int
    bracket: TensorField  # shape [m, m, m], index order (value, first, second)
    anchor_left: TensorField  # shape [n, m]
    anchor_right: TensorField  # shape [n, m]

    def __post_init__(self):
        if self.n < 0 or self.m < 1:
            raise InputError("need base dimension n >= 0 and rank m >= 1")
        if self.bracket.shape != (self.m, self.m, self.m):
            raise InputError(f"bracket tensor must have shape [m,m,m]={self.m}")
        for name, t, shape in (
            ("anchor_left", self.anchor_left, (self.n, self.m)),
            ("anchor_right", self.anchor_right, (self.n, self.m)),
        ):
            if t.shape != shape:
                raise InputError(f"{name} must have shape {shape}, got {t.shape}")
        for t in (self.bracket, self.anchor_left, self.anchor_right):
            if t.arity != self.n:
                raise InputError("structure function fields must have arity n")
        object.__setattr__(self, "_point_snapshot", None)
        if self.n == 0:  # constant structure functions: one snapshot, built here
            object.__setattr__(self, "_point_snapshot", structure_eval(self, np.zeros(0)))

    @property
    def is_over_point(self) -> bool:
        return self.n == 0

    def check_point(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float).reshape(-1)
        if q.shape[0] != self.n:
            raise InputError(f"base point has length {q.shape[0]}, chart dimension is {self.n}")
        return q


def base_probes(n, seed, count=5):
    """Construction-time probe points of an n-dimensional chart.

    The origin, then ``count - 1`` points uniform in [-1, 1]^n drawn from
    ``seed``; over a point (n = 0) the one empty point.
    """
    if n == 0:
        return [np.zeros(0)]
    rng = np.random.default_rng(seed)
    return [np.zeros(n)] + [rng.uniform(-1.0, 1.0, size=n) for _ in range(count - 1)]


@dataclass(frozen=True)
class StructureSnapshot:
    """Pointwise values of the structure functions at one chart point ``q``.

    The base algebroid (:func:`structure_eval`) and the lifted one
    (``prolongation.prolong_eval``) are both evaluated into this type, and
    the differential calculus below works on either.
    """

    B: np.ndarray  # [m, m, m]
    rho_l: np.ndarray  # [n, m]
    rho_r: np.ndarray  # [n, m]
    q: np.ndarray


def structure_eval(A: AlgebroidStructure, q) -> StructureSnapshot:
    """Evaluate all structure functions at ``q``.

    ``q`` is validated here (length, finiteness) and the snapshot is checked
    for non-finite entries (:class:`NumericError`).  Over a point (n = 0)
    the one snapshot built with the structure is returned.
    """
    q = A.check_point(q)
    if A._point_snapshot is not None:
        return A._point_snapshot
    if not np.isfinite(q).all():
        raise InputError("point has non-finite entries")
    tensors = (A.bracket, A.anchor_left, A.anchor_right)
    B, rho_l, rho_r = values = [T._values(q) for T in tensors]
    # constant tensors are finite by construction
    if not all(np.isfinite(v).all() for T, v in zip(tensors, values) if T._const is None):
        raise NumericError("structure functions evaluated to non-finite entries")
    return StructureSnapshot(B=B, rho_l=rho_l, rho_r=rho_r, q=q)


def sym_skew_parts(s: StructureSnapshot):
    """Split a snapshot into skew and symmetric parts ``(B_A, rho_A, B_S, rho_S)``.

    B_A/B_S are the skew/symmetric parts of the bracket in its two argument
    slots, rho_A the anchor average and rho_S the anchor half-difference.
    The parts recombine exactly: B = B_A + B_S, rho_l = rho_A + rho_S,
    rho_r = rho_A - rho_S.
    """
    Bt = np.swapaxes(s.B, 1, 2)
    return 0.5 * (s.B - Bt), 0.5 * (s.rho_l + s.rho_r), 0.5 * (s.B + Bt), 0.5 * (s.rho_l - s.rho_r)


def decompose_sym_skew(A: AlgebroidStructure, q):
    """:func:`sym_skew_parts` of the structure at ``q``."""
    return sym_skew_parts(structure_eval(A, q))


def left_right_diff(A: AlgebroidStructure, F: SmoothField, q):
    """Left and right differentials of a base function along the frame.

    ``dl[alpha] = sum_i rho_l[i, alpha] dF/dq_i`` and likewise with the right
    anchor.  Over a point (n = 0) both are zero vectors of length m.
    """
    if F.arity != A.n:
        raise InputError("function arity must equal the base dimension")
    q = A.check_point(q)
    s = structure_eval(A, q)
    gF = F.gradient(q)
    dl = s.rho_l.T @ gF if A.n else np.zeros(A.m)
    dr = s.rho_r.T @ gF if A.n else np.zeros(A.m)
    return dl, dr


# -- the differential calculus of a snapshot ---------------------------------
# Each differential takes the snapshot ``s`` of any algebroid, base or lifted,
# and a section given as for _as_section; its jet is taken at ``s.q``.


def _as_section(T, shape, arity):
    """A TensorField of ``shape``, or a float array for constant components.

    ``T`` is a TensorField, an array of SmoothFields and numbers (numbers are
    constant fields) or a float array.
    """
    if not isinstance(T, TensorField):
        T = np.asarray(T)
        if T.dtype != object:
            T = T.astype(float)
        elif T.shape == shape:
            comps = [
                f if isinstance(f, SmoothField) else SmoothField.constant(f, arity)
                for f in T.reshape(-1)
            ]
            T = TensorField(np.array(comps, dtype=object).reshape(shape), arity=arity)
    if T.shape != shape:
        raise InputError(f"tensor components must form a {list(shape)} array")
    return T


def _section_jets(T, z, shape):
    """Values and chart gradients of a section given as for :func:`_as_section`."""
    T = _as_section(T, shape, z.shape[0])
    if isinstance(T, TensorField):
        return T.eval_grad(z)
    return T, np.zeros(shape + z.shape)


def diff_lr_section(s: StructureSnapshot, kappa) -> np.ndarray:
    """Two-anchor differential of a dual section, as an [m, m] array.

    entry(beta, gamma) = sum_i rho_l[i,beta] d kappa_gamma / dq_i
                       - sum_i rho_r[i,gamma] d kappa_beta / dq_i
                       - sum_mu B[mu,beta,gamma] kappa_mu

    The bracket term carries a minus sign: for a skew bracket with equal
    anchors this reduces to the usual exterior derivative of a one-section,
    and it is the convention under which the pairing built from the canonical
    dual section comes out skew.
    """
    kv, kg = _section_jets(kappa, s.q, (s.B.shape[0],))  # kv: [m], kg: [m, n]
    return (kg @ s.rho_l).T - kg @ s.rho_r - np.tensordot(kv, s.B, 1)


def d_skew_scalar(s: StructureSnapshot, phi: SmoothField) -> np.ndarray:
    """Skew differential of a chart function on frame sections: [m] vector."""
    return sym_skew_parts(s)[1].T @ phi.gradient(s.q)


def d_skew_oneform(s: StructureSnapshot, theta) -> np.ndarray:
    """Skew differential of a one-section: :func:`diff_lr_section` of the skew parts."""
    B_A, rho_A, _, _ = sym_skew_parts(s)
    return diff_lr_section(StructureSnapshot(B=B_A, rho_l=rho_A, rho_r=rho_A, q=s.q), theta)


def _d_two(s: StructureSnapshot, T, sign) -> np.ndarray:
    """Differential of the skew (sign -1) or symmetric (sign +1) part of a (0,2) section.

    Six-term formula on frame sections (a, b, c), with the anchor rho and
    bracket C of the same part of the structure:
    rho(a)T(b,c) + sign rho(b)T(a,c) + rho(c)T(a,b)
    - T(C(a,b),c) - sign T(C(a,c),b) - T(C(b,c),a).
    """
    m = s.B.shape[0]
    vals, grads = _section_jets(T, s.q, (m, m))
    vals = 0.5 * (vals + sign * vals.T)
    grads = 0.5 * (grads + sign * np.swapaxes(grads, 0, 1))
    B_A, rho_A, B_S, rho_S = sym_skew_parts(s)
    C, rho = (B_A, rho_A) if sign < 0 else (B_S, rho_S)
    dirT = np.einsum("ua,bcu->abc", rho, grads)  # dirT[a,b,c] = rho(a)(T[b,c])
    CT = np.einsum("dab,dc->abc", C, vals)  # CT[a,b,c] = T(C(a,b),c)
    out = dirT + sign * dirT.transpose(1, 0, 2) + dirT.transpose(1, 2, 0)
    return out - CT - sign * CT.transpose(0, 2, 1) - CT.transpose(2, 0, 1)


def d_skew(s: StructureSnapshot, T) -> np.ndarray:
    """Skew differential of the skew part of a (0,2) section, as [m, m, m]."""
    return _d_two(s, T, -1.0)


def d_sym(s: StructureSnapshot, T) -> np.ndarray:
    """Symmetric differential of the symmetric part of a (0,2) section."""
    return _d_two(s, T, 1.0)


def d_full(s: StructureSnapshot, T) -> np.ndarray:
    """Differential of a general (0,2) section: skew part + symmetric part."""
    return d_skew(s, T) + d_sym(s, T)


def worst_residual(values) -> float:
    """Largest of the residuals ``values``; NaN if one of them is NaN or if there are none.

    ``max`` keeps its first argument when comparing it with a NaN, so a NaN
    residual would vanish from a running maximum and its check would pass.
    """
    values = np.asarray(list(values), dtype=float)
    return float(np.max(values)) if values.size else float("nan")


@dataclass(frozen=True)
class StructureReport:
    """Diagnostics of optional algebraic properties at one point."""

    skew_defect: float
    anchor_lr_defect: float
    jacobiator_norm: float
    anchor_morphism_defect: float


def jacobiator(A: AlgebroidStructure, q) -> np.ndarray:
    """Jacobiator components J[nu, alpha, beta, gamma] of the frame sections.

    J(s_a, s_b, s_c) = sum over cyclic permutations of (a, b, c) of
    B(s_a, B(s_b, s_c)), expanded through the structure functions; the
    derivative of the inner bracket coefficients is taken along the left
    anchor (the left Leibniz direction).  Identically zero for Lie algebroids.
    """
    return _jacobiator(A, structure_eval(A, q))


def _jacobiator(A: AlgebroidStructure, s: StructureSnapshot) -> np.ndarray:
    Bv, Bg = A.bracket.eval_grad(s.q)  # [m,m,m], [m,m,m,n]
    # half[nu,a,b,c] = B(s_a, B(s_b, s_c)) = B[mu,b,c] B[nu,a,mu] + rho_l(s_a)(B[nu,b,c])
    half = np.einsum("mbc,nam->nabc", Bv, Bv) + np.einsum("nbci,ia->nabc", Bg, s.rho_l)
    return half + half.transpose(0, 3, 1, 2) + half.transpose(0, 2, 3, 1)


def structure_checks(A: AlgebroidStructure, q) -> StructureReport:
    """Measure skewness, anchor agreement, Jacobi and anchor morphism defects."""
    s = structure_eval(A, q)
    skew = float(np.max(np.abs(s.B + np.swapaxes(s.B, 1, 2)))) if A.m else 0.0
    anchor_lr = float(np.max(np.abs(s.rho_l - s.rho_r))) if A.n else 0.0
    jac = float(np.max(np.abs(_jacobiator(A, s))))

    # anchor morphism: rho_l(B(s_a, s_b)) vs [rho_l s_a, rho_l s_b] pointwise
    if A.n:
        rv, rg = A.anchor_left.eval_grad(s.q)  # [n,m], [n,m,n]
        D = np.einsum("ibj,ja->iab", rg, rv)  # D[i,a,b] = rho_l(s_a)(rho_l[i,b])
        defect = float(np.max(np.abs(np.tensordot(rv, s.B, 1) - (D - np.swapaxes(D, 1, 2)))))
    else:
        defect = 0.0
    return StructureReport(skew, anchor_lr, jac, defect)


def algebroid_from_constants(B, rho_l=None, rho_r=None, n=0) -> AlgebroidStructure:
    """Convenience constructor for constant structure functions."""
    B = np.asarray(B, dtype=float)
    m = B.shape[0]
    if rho_l is None:
        rho_l = np.zeros((n, m))
    if rho_r is None:
        rho_r = np.asarray(rho_l, dtype=float)
    return AlgebroidStructure(
        n=n,
        m=m,
        bracket=TensorField.from_constants(B, n),
        anchor_left=TensorField.from_constants(np.asarray(rho_l, dtype=float), n),
        anchor_right=TensorField.from_constants(np.asarray(rho_r, dtype=float), n),
    )


def canonical_tangent(n: int) -> AlgebroidStructure:
    """Canonical tangent-bundle algebroid of an n-dimensional chart."""
    if n < 1:
        raise InputError("canonical tangent algebroid needs n >= 1")
    return algebroid_from_constants(np.zeros((n, n, n)), np.eye(n), np.eye(n), n=n)


def levi_civita_symbol() -> np.ndarray:
    """The rank-3 alternating symbol as a [3,3,3] array."""
    eps = np.zeros((3, 3, 3))
    for (a, b, c), sign in (
        ((0, 1, 2), 1.0), ((1, 2, 0), 1.0), ((2, 0, 1), 1.0),
        ((2, 1, 0), -1.0), ((0, 2, 1), -1.0), ((1, 0, 2), -1.0),
    ):
        eps[a, b, c] = sign
    return eps


def so3_algebra() -> AlgebroidStructure:
    """Rotation-algebra structure constants over a point: B[c,a,b] = eps_{abc}."""
    eps = levi_civita_symbol()
    B = np.transpose(eps, (2, 0, 1))  # value index first
    return algebroid_from_constants(B, n=0)

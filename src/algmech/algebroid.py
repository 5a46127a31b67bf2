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
        object.__setattr__(self, "_snapshot_cache", {})

    @property
    def is_over_point(self) -> bool:
        return self.n == 0

    def check_point(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float).reshape(-1)
        if q.shape[0] != self.n:
            raise InputError(f"base point has length {q.shape[0]}, chart dimension is {self.n}")
        return q


@dataclass(frozen=True)
class StructureSnapshot:
    """Pointwise values of the structure functions at one base point."""

    B: np.ndarray  # [m, m, m]
    rho_l: np.ndarray  # [n, m]
    rho_r: np.ndarray  # [n, m]
    q: np.ndarray


def structure_eval(A: AlgebroidStructure, q) -> StructureSnapshot:
    """Evaluate all structure functions at ``q``; pointwise results are cached.

    ``q`` is validated once here (length, finiteness) and the snapshot is
    checked once for non-finite entries (:class:`NumericError`).
    """
    q = A.check_point(q)
    cache = A._snapshot_cache
    key = q.tobytes()
    snap = cache.get(key)
    if snap is None:
        if not np.isfinite(q).all():
            raise InputError("point has non-finite entries")
        tensors = (A.bracket, A.anchor_left, A.anchor_right)
        B, rho_l, rho_r = values = [T._values(q) for T in tensors]
        # constant tensors are finite by construction
        if not all(np.isfinite(v).all() for T, v in zip(tensors, values) if T._const is None):
            raise NumericError("structure functions evaluated to non-finite entries")
        snap = StructureSnapshot(B=B, rho_l=rho_l, rho_r=rho_r, q=q)
        if len(cache) >= 16384:
            cache.clear()
        cache[key] = snap
    return snap


def decompose_sym_skew(A: AlgebroidStructure, q):
    """Split the structure at ``q`` into skew and symmetric parts.

    Returns ``(B_A, rho_A, B_S, rho_S)`` with B_A/B_S the skew/symmetric parts
    of the bracket in its two argument slots, rho_A the anchor average and
    rho_S the anchor half-difference.  The parts recombine exactly:
    B = B_A + B_S, rho_l = rho_A + rho_S, rho_r = rho_A - rho_S.
    """
    s = structure_eval(A, q)
    B_A = 0.5 * (s.B - np.swapaxes(s.B, 1, 2))
    B_S = 0.5 * (s.B + np.swapaxes(s.B, 1, 2))
    rho_A = 0.5 * (s.rho_l + s.rho_r)
    rho_S = 0.5 * (s.rho_l - s.rho_r)
    return B_A, rho_A, B_S, rho_S


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


def diff_lr_section(A: AlgebroidStructure, kappa: TensorField, q) -> np.ndarray:
    """Two-anchor differential of a dual section, as an [m, m] array.

    entry(beta, gamma) = sum_i rho_l[i,beta] d kappa_gamma / dq_i
                       - sum_i rho_r[i,gamma] d kappa_beta / dq_i
                       - sum_mu B[mu,beta,gamma] kappa_mu

    The bracket term carries a minus sign: for a skew bracket with equal
    anchors this reduces to the usual exterior derivative of a one-section,
    and it is the convention under which the pairing built from the canonical
    dual section comes out skew.
    """
    if kappa.shape != (A.m,):
        raise InputError(f"dual section must have shape [m]={A.m}")
    if kappa.arity != A.n:
        raise InputError("dual section fields must have arity n")
    q = A.check_point(q)
    s = structure_eval(A, q)
    kv, kg = kappa.eval_grad(q)  # kv: [m], kg: [m, n]
    out = np.empty((A.m, A.m))
    for beta in range(A.m):
        for gamma in range(A.m):
            d_left = float(s.rho_l[:, beta] @ kg[gamma]) if A.n else 0.0
            d_right = float(s.rho_r[:, gamma] @ kg[beta]) if A.n else 0.0
            out[beta, gamma] = d_left - d_right - float(s.B[:, beta, gamma] @ kv)
    return out


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
    q = A.check_point(q)
    Bv, Bg = A.bracket.eval_grad(q)  # [m,m,m], [m,m,m,n]
    s = structure_eval(A, q)
    m, n = A.m, A.n

    def half(a, b, c):
        # B(s_a, B(s_b, s_c)) = B[mu,b,c] B[nu,a,mu] + rho_l(s_a)(B[nu,b,c])
        term = np.einsum("m,nm->n", Bv[:, b, c], Bv[:, a, :])
        if n:
            term = term + Bg[:, b, c, :] @ s.rho_l[:, a]
        return term

    J = np.zeros((m, m, m, m))
    for a in range(m):
        for b in range(m):
            for c in range(m):
                J[:, a, b, c] = half(a, b, c) + half(b, c, a) + half(c, a, b)
    return J


def structure_checks(A: AlgebroidStructure, q) -> StructureReport:
    """Measure skewness, anchor agreement, Jacobi and anchor morphism defects."""
    q = A.check_point(q)
    s = structure_eval(A, q)
    skew = float(np.max(np.abs(s.B + np.swapaxes(s.B, 1, 2)))) if A.m else 0.0
    anchor_lr = float(np.max(np.abs(s.rho_l - s.rho_r))) if A.n else 0.0
    jac = float(np.max(np.abs(jacobiator(A, q))))

    # anchor morphism: rho_l(B(s_a, s_b)) vs [rho_l s_a, rho_l s_b] pointwise
    if A.n:
        rv, rg = A.anchor_left.eval_grad(q)  # [n,m], [n,m,n]
        Bv = s.B
        defect = worst_residual(
            np.max(np.abs(rv @ Bv[:, a, b] - (rg[:, b, :] @ rv[:, a] - rg[:, a, :] @ rv[:, b])))
            for a in range(A.m)
            for b in range(A.m)
        )
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

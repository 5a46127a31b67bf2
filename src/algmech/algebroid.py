"""Algebroid structure data in a fixed frame, and its differential calculus.

An algebroid over an n-dimensional chart with a rank-m frame is stored as
its structure functions: bracket coefficients B[gamma, alpha, beta](q) with
B(sigma_alpha, sigma_beta) = B[gamma, alpha, beta] sigma_gamma, and left /
right anchor matrices rho_l[i, alpha](q), rho_r[i, alpha](q) mapping frame
sections to chart vector fields.  No skewness or Jacobi identity is imposed
at construction; both are *measured* by :func:`structure_checks`.

n = 0 is allowed (a Lie-algebra-like fibre over a point): anchors are then
0 x m tensors and all brackets are constant.

Every evaluation takes one point ``q[n]`` or a batch ``q[K, n]``; over a
batch, each array gains a leading axis of length K and each residual is a
[K] array instead of a float.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericError
from .fields import TensorField, _check_point, vecmat


@dataclass(frozen=True)
class AlgebroidStructure:
    """Structure functions of an algebroid in one frame; immutable.

    Nothing is cached: :func:`structure_eval` evaluates every point or batch.
    """

    n: int
    m: int
    bracket: TensorField  # shape [m, m, m], index order (value, first, second)
    anchor_left: TensorField  # shape [n, m]
    anchor_right: TensorField  # shape [n, m]
    # q -> (B, rho_l, rho_r) in one call, for a structure derived from one computation
    _structure_at: object = field(default=None, repr=False, compare=False)

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
        tensors = (self.bracket, self.anchor_left, self.anchor_right)
        for t in tensors:
            if t.arity != self.n:
                raise InputError("structure function fields must have arity n")
        # constant tensors are finite by construction: structure_eval checks the others
        object.__setattr__(self, "_varying", [k for k, T in enumerate(tensors) if T._const is None])


@functools.lru_cache(maxsize=None)
def base_probes(n, seed, count=5) -> np.ndarray:
    """Construction-time probe points of an n-dimensional chart, ``[count, n]``.

    The origin, then ``count - 1`` points uniform in [-1, 1]^n from one draw
    of ``default_rng(seed)`` (row k is the k-th single draw); over a point
    (n = 0) the one empty point, ``[1, 0]``.  Drawn once per arguments, read-only.
    """
    probes = np.zeros((1, 0)) if n == 0 else np.vstack(
        [np.zeros(n), np.random.default_rng(seed).uniform(-1.0, 1.0, size=(count - 1, n))]
    )
    probes.flags.writeable = False
    return probes


@dataclass(frozen=True)
class StructureSnapshot:
    """Values of the structure functions at a chart point or a batch of them.

    The base algebroid (:func:`structure_eval`) and the lifted one
    (``prolongation.prolong_eval``) are both evaluated into this type, and
    the differential calculus below works on either.  Over a batch
    ``q[K, n]`` every array has a leading axis of length K.
    """

    B: np.ndarray  # [m, m, m]
    rho_l: np.ndarray  # [n, m]
    rho_r: np.ndarray  # [n, m]
    q: np.ndarray  # [n]


def _structure_values(A: AlgebroidStructure, q):
    """``(B, rho_l, rho_r)`` at a validated ``q``; a non-finite varying one raises NumericError.

    A constant at one point is its read-only ``_const``; a derived structure is one call.
    """
    values = A._structure_at(q) if A._structure_at else [
        T._const if T._const is not None and q.ndim == 1 else T._values(q)
        for T in (A.bracket, A.anchor_left, A.anchor_right)
    ]
    for k in A._varying:
        if not np.isfinite(values[k]).all():
            raise NumericError("structure functions evaluated to non-finite entries")
    return values


def structure_eval(A: AlgebroidStructure, q) -> StructureSnapshot:
    """Evaluate all structure functions at ``q[n]`` or at each point of ``q[K, n]``.

    ``q`` is validated by ``fields._check_point``, then read by :func:`_structure_values`.
    """
    q = _check_point(q, A.n)
    B, rho_l, rho_r = _structure_values(A, q)
    return StructureSnapshot(B=B, rho_l=rho_l, rho_r=rho_r, q=q)


def sym_skew_parts(s: StructureSnapshot):
    """Split a snapshot into skew and symmetric parts ``(B_A, rho_A, B_S, rho_S)``.

    B_A/B_S are the skew/symmetric parts of the bracket in its two argument
    slots, rho_A the anchor average and rho_S the anchor half-difference.
    The parts recombine exactly: B = B_A + B_S, rho_l = rho_A + rho_S,
    rho_r = rho_A - rho_S.
    """
    Bt = s.B.swapaxes(-1, -2)
    return 0.5 * (s.B - Bt), 0.5 * (s.rho_l + s.rho_r), 0.5 * (s.B + Bt), 0.5 * (s.rho_l - s.rho_r)


# -- the differential calculus of a snapshot ---------------------------------
# Each differential takes the snapshot ``s`` of any algebroid, base or lifted,
# at one point or a batch, and a section given as for _as_section; its jet
# is taken at ``s.q``.


def contract_first(v, T) -> np.ndarray:
    """``sum_c v[c] T[c, a, b]``: an [m] vector against the first slot of an [m, m, m] array.

    One vector-matrix product per point; a batch axis, if any, is on ``T``.
    """
    return vecmat(v, T.reshape(T.shape[:-2] + (-1,))).reshape(T.shape[:-3] + T.shape[-2:])


def max_abs(a, core) -> float | np.ndarray:
    """Max-abs over the last ``core`` axes (0 when they are empty); NaN propagates.

    A float at one point, a [K] array over a batch.
    """
    r = np.max(np.abs(a), axis=tuple(range(-core, 0)), initial=0.0)
    return float(r) if r.ndim == 0 else r


def _as_section(T, shape):
    """A TensorField of ``shape``, or a float array of constant components.

    ``T`` is a TensorField or a float array, which may carry a leading batch
    axis.
    """
    if not isinstance(T, TensorField):
        T = np.asarray(T, dtype=float)
    batched = isinstance(T, np.ndarray) and T.ndim == len(shape) + 1
    if T.shape[batched:] != shape:
        raise InputError(f"tensor components must form a {list(shape)} array")
    return T


def _section_jets(T, z, shape):
    """Values and chart gradients of a section given as for :func:`_as_section`."""
    T = _as_section(T, shape)
    if isinstance(T, TensorField):
        return T.eval_grad(z)
    batch = z.shape[:-1]
    return np.broadcast_to(T, batch + shape), np.zeros(batch + shape + z.shape[-1:])


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
    kv, kg = _section_jets(kappa, s.q, (s.B.shape[-1],))  # kv: [m], kg: [m, n]
    return (kg @ s.rho_l).swapaxes(-1, -2) - kg @ s.rho_r - contract_first(kv, s.B)


def d_skew_scalar(s: StructureSnapshot, phi: TensorField) -> np.ndarray:
    """Skew differential of a chart function on frame sections: [m] vector.

    Only the averaged anchor (rho_A of :func:`sym_skew_parts`) enters, so the
    bracket's parts are not formed.
    """
    return vecmat(phi.gradient(s.q), 0.5 * (s.rho_l + s.rho_r))


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
    m = s.B.shape[-1]
    vals, grads = _section_jets(T, s.q, (m, m))
    vals = 0.5 * (vals + sign * vals.swapaxes(-1, -2))
    grads = 0.5 * (grads + sign * grads.swapaxes(-3, -2))
    B_A, rho_A, B_S, rho_S = sym_skew_parts(s)
    C, rho = (B_A, rho_A) if sign < 0 else (B_S, rho_S)
    dirT = np.einsum("...ua,...bcu->...abc", rho, grads)  # dirT[a,b,c] = rho(a)(T[b,c])
    CT = np.einsum("...dab,...dc->...abc", C, vals)  # CT[a,b,c] = T(C(a,b),c)
    out = dirT + sign * np.einsum("...abc->...bac", dirT) + np.einsum("...abc->...bca", dirT)
    return out - CT - sign * np.einsum("...abc->...acb", CT) - np.einsum("...abc->...cab", CT)


def d_skew(s: StructureSnapshot, T) -> np.ndarray:
    """Skew differential of the skew part of a (0,2) section, as [m, m, m]."""
    return _d_two(s, T, -1.0)


def worst_residual(values) -> float:
    """Largest of the residuals ``values``; NaN if one of them is NaN or if there are none.

    Each value is a residual or an array of them (one per point of a batch).
    ``max`` keeps its first argument when comparing it with a NaN, so a NaN
    residual would vanish from a running maximum and its check would pass.
    """
    values = np.concatenate([np.zeros(0)] + [np.ravel(v) for v in values])
    return float(np.max(values)) if values.size else float("nan")


@dataclass(frozen=True)
class StructureReport:
    """Diagnostics of optional algebraic properties: floats at one point, [K] over a batch."""

    skew_defect: float
    anchor_lr_defect: float
    jacobiator_norm: float
    anchor_morphism_defect: float


def jacobiator(s: StructureSnapshot, Bv, Bg) -> np.ndarray:
    """Jacobiator J[nu, alpha, beta, gamma] of the frame sections at the point of ``s``.

    ``Bv`` [m,m,m] and ``Bg`` [m,m,m,n] are the bracket coefficients and their
    gradient there.  J(s_a, s_b, s_c) = sum over cyclic permutations of
    (a, b, c) of B(s_a, B(s_b, s_c)), expanded through the structure
    functions; the derivative of the inner bracket coefficients is taken
    along the left anchor (the left Leibniz direction).  Identically zero
    for Lie algebroids.
    """
    # half[nu,a,b,c] = B(s_a, B(s_b, s_c)) = B[mu,b,c] B[nu,a,mu] + rho_l(s_a)(B[nu,b,c])
    half = np.einsum("...mbc,...nam->...nabc", Bv, Bv)
    half += np.einsum("...nbci,...ia->...nabc", Bg, s.rho_l)
    return half + np.einsum("...nabc->...ncab", half) + np.einsum("...nabc->...nbca", half)


def structure_checks(A: AlgebroidStructure, q) -> StructureReport:
    """Measure skewness, anchor agreement, Jacobi and anchor morphism defects."""
    s = structure_eval(A, q)
    (Bv, Bg), (rv, rg) = A.bracket.eval_grad(s.q), A.anchor_left.eval_grad(s.q)
    # anchor morphism: rho_l(B(s_a, s_b)) vs [rho_l s_a, rho_l s_b] pointwise
    D = np.einsum("...ibj,...ja->...iab", rg, rv)  # D[i,a,b] = rho_l(s_a)(rho_l[i,b])
    m = A.m
    rho_B = (rv @ s.B.reshape(s.B.shape[:-3] + (m, m * m))).reshape(D.shape)
    return StructureReport(
        skew_defect=max_abs(s.B + s.B.swapaxes(-1, -2), 3),
        anchor_lr_defect=max_abs(s.rho_l - s.rho_r, 2),
        jacobiator_norm=max_abs(jacobiator(s, Bv, Bg), 4),
        anchor_morphism_defect=max_abs(rho_B - (D - D.swapaxes(-1, -2)), 3),
    )


def algebroid_from_constants(B, rho_l=None, rho_r=None, n=0) -> AlgebroidStructure:
    """Convenience constructor for constant structure functions; ``rho_r`` defaults to ``rho_l``."""
    m = np.shape(B)[0]
    rho_l = np.zeros((n, m)) if rho_l is None else rho_l
    tensors = (B, rho_l, rho_l if rho_r is None else rho_r)
    return AlgebroidStructure(n, m, *(TensorField.from_constants(T, n) for T in tensors))


def canonical_tangent(n: int) -> AlgebroidStructure:
    """Canonical tangent-bundle algebroid of an n-dimensional chart."""
    if n < 1:
        raise InputError("canonical tangent algebroid needs n >= 1")
    return algebroid_from_constants(np.zeros((n, n, n)), np.eye(n), np.eye(n), n=n)


def levi_civita_symbol() -> np.ndarray:
    """The rank-3 alternating symbol as a [3,3,3] array."""
    eps = np.zeros((3, 3, 3))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[a, b, c], eps[a, c, b] = 1.0, -1.0
    return eps


def so3_constants() -> np.ndarray:
    """Rotation-algebra structure constants B[c,a,b] = eps_{abc}, value index first."""
    return np.transpose(levi_civita_symbol(), (2, 0, 1))

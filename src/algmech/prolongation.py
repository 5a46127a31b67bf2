"""The lifted algebroid over the dual-bundle chart and its symplectic calculus.

Given an algebroid, a bracket-splitting connection pair and a free (1,3)
curvature-like tensor, this module realizes the induced algebroid on the
rank-2m bundle over the (q, p) chart whose frame is (h_1..h_m, v^1..v^m).
:func:`prolong_eval` is the one function that evaluates that structure: it
returns an ``algebroid.StructureSnapshot``, so the differential calculus of
``algebroid`` applies to it unchanged.  Its anchor columns are the only
lifts: the h_a column of ``rho_l`` (``rho_r``) is the left (right)
horizontal lift of the a-th frame section, the v^a column the vertical
lift.  On it this module evaluates the induced skew pairing, the right
Hamiltonian section, the induced Hamiltonian vector field on the chart, and
the closedness and squared-differential residuals; the inner differential
of each squared one is a tensor over the chart, one central-difference
sweep of :func:`prolong_eval` (:func:`_lifted_sweep`).  Each takes one
phase point or a batch of K (``PhasePoint`` with q[K, n], p[K, m]) and then
returns one value per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebroid import (
    AlgebroidStructure,
    StructureSnapshot,
    _as_section,
    base_probes,
    d_skew,
    d_skew_oneform,
    d_skew_scalar,
    diff_lr_section,
    max_abs,
    structure_eval,
    worst_residual,
)
from .connections import ConnectionPair, split_residual, verify_split
from .errors import InputError, InvalidStructureError
from .fields import TensorField, matvec, vecmat
from .hamiltonian import PhasePoint, _check_phase, _check_phase_fn

SPLIT_TOL = 1e-10


@dataclass(frozen=True)
class ProlongationData:
    """Base algebroid + validated splitting + free (1,3) tensor R, a [m,m,m,m] TensorField.

    The splitting is checked at construction probe points, in one batch; the
    2m frame is ordered (h_1..h_m, v^1..v^m).  ``_liouville`` is the
    canonical dual section (p_1..p_m, 0..0), a tensor over the (q, p) chart.
    ``_base_at(q)``, if a scenario gives it, returns the base snapshot, Dl,
    Dr and R at ``q`` in one call, which :func:`prolong_eval` reads, and
    ``_base_at(q, curvature=False)`` the first three without R, which the
    split check reads; else each is evaluated as a tensor.
    """

    base: AlgebroidStructure
    split: ConnectionPair
    R: TensorField
    _base_at: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.split.m != self.base.m or self.split.Dl.arity != self.base.n:
            raise InputError("connection pair does not match the base algebroid")
        if self.R.shape != (self.base.m,) * 4 or self.R.arity != self.base.n:
            raise InputError("curvature tensor does not match the base algebroid")
        probes = base_probes(self.base.n, seed=12345)  # one batch
        if self._base_at is None:
            residual = verify_split(self.base, self.split, probes)
        else:
            s, Dl, Dr, _ = self._base_at(probes, curvature=False)
            residual = split_residual(s.B, Dl, Dr)
        worst = worst_residual([residual])
        if not worst <= SPLIT_TOL:
            raise InvalidStructureError(
                f"connection pair does not split the bracket: residual {worst:.3e} > {SPLIT_TOL:g}"
            )
        # the canonical dual section (p_1..p_m, 0..0) depends only on (n, m)
        n, m = self.base.n, self.base.m
        liouville = TensorField.from_terms(
            np.arange(m), np.ones(m), np.eye(n + m, dtype=int)[n:], (2 * m,), n + m
        )
        object.__setattr__(self, "_liouville", liouville)

    @property
    def frame_size(self) -> int:
        return 2 * self.base.m


def prolong_eval(P: ProlongationData, x: PhasePoint) -> StructureSnapshot:
    """Evaluate the lifted algebroid structure at a dual-bundle chart point or batch.

    The base snapshot, Dl, Dr and R are read once at ``x.q``, and the
    anchors and the bracket filled from them; the snapshot's point is the
    chart vector ``x.z``.  Anchor columns: h_a maps to its left (resp.
    right) horizontal lift, v^a to the vertical lift, under both anchors.
    Bracket coefficients:

    * B(h_a, h_b) = sum_c B[c,a,b] h_c + sum_nu (sum_mu R[mu,a,b,nu] p_mu) v^nu
    * B(h_a, v^b) = -sum_c Dl[b,a,c] v^c
    * B(v^a, h_b) = +sum_c Dr[a,b,c] v^c
    * B(v, v) = 0
    """
    _check_phase(P.base, x)
    n, m = P.base.n, P.base.m
    q, p = x.q, x.p
    if P._base_at is not None:
        s, Dl, Dr, R = P._base_at(q)
    else:
        s, Dl, Dr = structure_eval(P.base, q), P.split.Dl.eval(q), P.split.Dr.eval(q)
        R = P.R.eval(q)
    batch = q.shape[:-1]

    def anchor(rho, D):  # the lift of the base anchor rho along the connection D
        a = np.zeros(batch + (n + m, 2 * m))
        a[..., :n, :m] = rho  # horizontal columns
        a[..., n:, :m] = np.einsum("...gab,...g->...ba", D, p)
        a[..., n:, m:] = np.eye(m)  # vertical columns
        return a

    coeffs = np.zeros(batch + (2 * m, 2 * m, 2 * m))
    coeffs[..., :m, :m, :m] = s.B
    coeffs[..., m:, :m, :m] = np.einsum("...mabn,...m->...nab", R, p)
    coeffs[..., m:, :m, m:] = -np.einsum("...cab->...bac", Dl)
    coeffs[..., m:, m:, :m] = np.einsum("...abc->...cab", Dr)
    return StructureSnapshot(B=coeffs, rho_l=anchor(s.rho_l, Dl), rho_r=anchor(s.rho_r, Dr), q=x.z)


def omega(P: ProlongationData, x: PhasePoint, method="frame_formula") -> np.ndarray:
    """The induced skew pairing in the frame, as a [2m, 2m] matrix per point.

    frame_formula returns the constant block matrix [[0, I], [-I, 0]].
    generic_dlr recomputes it as minus the two-anchor differential of the
    canonical dual section, using the lifted anchors/bracket and the jets of
    the section components over the chart; the two must agree.
    """
    _check_phase(P.base, x)
    m = P.base.m
    if method == "frame_formula":
        O = np.zeros(x.p.shape[:-1] + (2 * m, 2 * m))
        O[..., :m, m:] = np.eye(m)
        O[..., m:, :m] = -np.eye(m)
        return O
    if method != "generic_dlr":
        raise InputError(f"unknown omega method {method!r}")
    return -diff_lr_section(prolong_eval(P, x), P._liouville)


def right_ham_section(P: ProlongationData, H: TensorField, x: PhasePoint) -> np.ndarray:
    """Frame coefficients of the section xi solving Omega(xi, .) = d_r H.

    Explicitly: h-part dH/dp_a; v-part
    -(sum_i dH/dq_i rho_r[i,a] + sum_{b,g} dH/dp_b Dr[g,a,b] p_g).
    """
    return _right_ham_section(P, H, prolong_eval(P, x))


def _right_ham_section(P, H, snap) -> np.ndarray:
    """:func:`right_ham_section` on a lifted snapshot: the pairing is [[0, I], [-I, 0]]."""
    _check_phase_fn(P.base, H)
    drH = vecmat(H.gradient(snap.q), snap.rho_r)  # d_r H on each frame section
    m = P.base.m
    return np.concatenate([drH[..., m:], -drH[..., :m]], axis=-1)


def lr_ham_field(P: ProlongationData, H: TensorField, x: PhasePoint) -> np.ndarray:
    """Left anchor applied to the right Hamiltonian section: a chart vector.

    Equals the Hamiltonian vector field computed directly from the induced
    dual-bundle tensor; that equality is verified numerically, not assumed.
    """
    snap = prolong_eval(P, x)
    return matvec(snap.rho_l, _right_ham_section(P, H, snap))


# -- residuals of the degree-raising differentials on the lifted algebroid --


def closedness_residual(P: ProlongationData, x: PhasePoint) -> float:
    """Max-abs entry of the differential of the frame pairing at ``x`` (per point).

    The pairing is constant and skew, so its full differential is the skew
    one (the symmetric half is exactly zero): only the skew part of the
    lifted bracket enters, and R only through the cyclic sum over three
    horizontal slots of its part skew in the first two.  The residual
    vanishes (to rounding / FD noise) when that part satisfies the first
    Bianchi identity.
    At m <= 2 no three horizontal slots differ and the residual does not see
    R at all; at m >= 3 a violation gives an order-one residual.
    """
    O = omega(P, x, "frame_formula")
    return max_abs(d_skew(prolong_eval(P, x), O), 3)


def _lifted_sweep(P: ProlongationData, inner, shape) -> TensorField:
    """``inner`` of the lifted snapshot as a tensor over the chart.

    Its value at ``z`` is ``inner(prolong_eval(P, PhasePoint.from_z(z, n)))``,
    and its jet one central-difference sweep of that over all points.
    """
    n = P.base.n
    return TensorField.from_array_fn(
        lambda z: inner(prolong_eval(P, PhasePoint.from_z(z, n))), shape, n + P.base.m
    )


def d_squared_scalar_residual(P: ProlongationData, phi: TensorField, x: PhasePoint) -> float:
    """Max-abs of the twice-applied skew differential on a chart function (per point).

    Vanishes iff the averaged anchor is a morphism for the skew bracket at
    ``x``; a Lie lifted structure gives zero up to FD noise.  The inner
    differential's jet is one central-difference sweep over all points.
    """
    theta = _lifted_sweep(P, lambda s: d_skew_scalar(s, phi), (P.frame_size,))
    return max_abs(d_skew_oneform(prolong_eval(P, x), theta), 2)


def d_squared_oneform_residual(P: ProlongationData, theta, x: PhasePoint) -> float:
    """Max-abs of the twice-applied skew differential on a frame one-section (per point)."""
    size = P.frame_size
    theta = _as_section(theta, (size,))
    eta = _lifted_sweep(P, lambda s: d_skew_oneform(s, theta), (size, size))
    return max_abs(d_skew(prolong_eval(P, x), eta), 3)

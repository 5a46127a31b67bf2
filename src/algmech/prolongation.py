"""The lifted algebroid over the dual-bundle chart and its symplectic calculus.

Given an algebroid, a bracket-splitting connection pair and a free (1,3)
curvature-like tensor, this module realizes the induced algebroid on the
rank-2m bundle over the (q, p) chart whose frame is (h_1..h_m, v^1..v^m):
h_a is the left-connection horizontal lift of the a-th frame section and v^a
the vertical lift of the a-th dual frame section.  On that structure it
evaluates the canonical dual section, the induced skew pairing (constant
[[0, I], [-I, 0]] in the frame), the right Hamiltonian section, the induced
Hamiltonian vector field on the chart, and the skew/symmetric degree-raising
differentials with their closedness residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebroid import AlgebroidStructure, base_probes, structure_eval, worst_residual
from .connections import ConnectionPair, CurvatureTensor, verify_split
from .errors import InputError, InvalidStructureError, NumericError
from .fields import SmoothField, TensorField
from .hamiltonian import PhasePoint

SPLIT_TOL = 1e-10


@dataclass(frozen=True)
class ProlongationData:
    """Base algebroid + validated splitting + free (1,3) tensor R.

    The splitting is checked at construction probe points; the 2m frame is
    ordered (h_1..h_m, v^1..v^m).
    """

    base: AlgebroidStructure
    split: ConnectionPair
    R: CurvatureTensor

    def __post_init__(self):
        if self.split.m != self.base.m or self.split.Dl.arity != self.base.n:
            raise InputError("connection pair does not match the base algebroid")
        if self.R.m != self.base.m or self.R.R.arity != self.base.n:
            raise InputError("curvature tensor does not match the base algebroid")
        worst = worst_residual(
            verify_split(self.base, self.split, q) for q in base_probes(self.base.n, seed=12345)
        )
        if not worst <= SPLIT_TOL:
            raise InvalidStructureError(
                f"connection pair does not split the bracket: residual {worst:.3e} > {SPLIT_TOL:g}"
            )
        object.__setattr__(self, "_snapshot_cache", {})

    @property
    def frame_size(self) -> int:
        return 2 * self.base.m

    def check_phase(self, x: PhasePoint):
        if x.q.shape[0] != self.base.n or x.p.shape[0] != self.base.m:
            raise InputError("phase point does not match the base algebroid")


@dataclass(frozen=True)
class ProlongationSnapshot:
    """Anchors (chart vectors per frame section) and bracket coefficients at one point."""

    anchor_left: np.ndarray  # [n+m, 2m]
    anchor_right: np.ndarray  # [n+m, 2m]
    coeffs: np.ndarray  # [2m, 2m, 2m]; coeffs[C, A, B] = C-component of B(f_A, f_B)


def _structure_at(P: ProlongationData, q):
    s = structure_eval(P.base, q)
    Dl = P.split.Dl.eval(q)
    Dr = P.split.Dr.eval(q)
    Rv = P.R.eval(q)
    return s, Dl, Dr, Rv


def prolong_eval(P: ProlongationData, x: PhasePoint) -> ProlongationSnapshot:
    """Evaluate the lifted algebroid structure at a dual-bundle chart point.

    Anchor columns: h_a maps to its left (resp. right) horizontal lift,
    v^a to the vertical lift, under both anchors.  Bracket coefficients:

    * B(h_a, h_b) = sum_c B[c,a,b] h_c + sum_nu (sum_mu R[mu,a,b,nu] p_mu) v^nu
    * B(h_a, v^b) = -sum_c Dl[b,a,c] v^c
    * B(v^a, h_b) = +sum_c Dr[a,b,c] v^c
    * B(v, v) = 0
    """
    P.check_phase(x)
    cache = P._snapshot_cache
    key = x.z.tobytes()
    hit = cache.get(key)
    if hit is not None:
        return hit
    n, m = P.base.n, P.base.m
    s, Dl, Dr, Rv = _structure_at(P, x.q)
    p = x.p

    al = np.zeros((n + m, 2 * m))
    ar = np.zeros((n + m, 2 * m))
    # horizontal columns
    if n:
        al[:n, :m] = s.rho_l
        ar[:n, :m] = s.rho_r
    al[n:, :m] = np.einsum("gab,g->ba", Dl, p)
    ar[n:, :m] = np.einsum("gab,g->ba", Dr, p)
    # vertical columns
    al[n:, m:] = np.eye(m)
    ar[n:, m:] = np.eye(m)

    coeffs = np.zeros((2 * m, 2 * m, 2 * m))
    coeffs[:m, :m, :m] = s.B
    coeffs[m:, :m, :m] = np.einsum("mabn,m->nab", Rv, p)
    for a in range(m):
        for b in range(m):
            # value index runs over vertical frame entries
            coeffs[m:, a, m + b] = -Dl[b, a, :]
            coeffs[m:, m + a, b] = Dr[a, b, :]
    snap = ProlongationSnapshot(anchor_left=al, anchor_right=ar, coeffs=coeffs)
    if len(cache) >= 16384:
        cache.clear()
    cache[key] = snap
    return snap


def liouville(P: ProlongationData, x: PhasePoint) -> np.ndarray:
    """Canonical dual section in the dual frame: (p_1..p_m, 0..0)."""
    P.check_phase(x)
    return np.concatenate([x.p, np.zeros(P.base.m)])


def _liouville_section(P: ProlongationData) -> TensorField:
    n, m = P.base.n, P.base.m
    return TensorField(
        [SmoothField.coordinate(n + a, n + m) for a in range(m)] + [SmoothField.zero(n + m)] * m,
        arity=n + m,
    )


def omega(P: ProlongationData, x: PhasePoint, method="frame_formula") -> np.ndarray:
    """The induced skew pairing in the frame, as a [2m, 2m] matrix.

    frame_formula returns the constant block matrix [[0, I], [-I, 0]].
    generic_dlr recomputes it as minus the two-anchor differential of the
    canonical dual section, using the lifted anchors/bracket and the jets of
    the section components over the chart; the two must agree.
    """
    P.check_phase(x)
    m = P.base.m
    if method == "frame_formula":
        O = np.zeros((2 * m, 2 * m))
        O[:m, m:] = np.eye(m)
        O[m:, :m] = -np.eye(m)
        return O
    if method != "generic_dlr":
        raise InputError(f"unknown omega method {method!r}")
    snap = prolong_eval(P, x)
    lam_v, lam_g = _liouville_section(P).eval_grad(x.z)  # [2m], [2m, n+m]
    O = np.empty((2 * m, 2 * m))
    for A in range(2 * m):
        for B in range(2 * m):
            d_left = float(snap.anchor_left[:, A] @ lam_g[B])
            d_right = float(snap.anchor_right[:, B] @ lam_g[A])
            O[A, B] = -(d_left - d_right - float(snap.coeffs[:, A, B] @ lam_v))
    return O


def right_ham_section(P: ProlongationData, H: SmoothField, x: PhasePoint) -> np.ndarray:
    """Frame coefficients of the section xi solving Omega(xi, .) = d_r H.

    Explicitly: h-part dH/dp_a; v-part
    -(sum_i dH/dq_i rho_r[i,a] + sum_{b,g} dH/dp_b Dr[g,a,b] p_g).
    """
    P.check_phase(x)
    if H.arity != P.base.n + P.base.m:
        raise InputError("Hamiltonian arity must be n+m")
    snap = prolong_eval(P, x)
    gH = H.gradient(x.z)
    drH = snap.anchor_right.T @ gH  # d_r H on each frame section
    O = omega(P, x, "frame_formula")
    try:
        xi = np.linalg.solve(O.T, drH)
    except np.linalg.LinAlgError as exc:  # cannot happen for the frame pairing
        raise NumericError("degenerate pairing while solving for the section") from exc
    return xi


def lr_ham_field(P: ProlongationData, H: SmoothField, x: PhasePoint) -> np.ndarray:
    """Left anchor applied to the right Hamiltonian section: a chart vector.

    Equals the Hamiltonian vector field computed directly from the induced
    dual-bundle tensor; that equality is verified numerically, not assumed.
    """
    xi = right_ham_section(P, H, x)
    snap = prolong_eval(P, x)
    return snap.anchor_left @ xi


def lifted_algebroid(P: ProlongationData) -> AlgebroidStructure:
    """Package the lifted structure as an algebroid over the (q, p) chart.

    Useful for running the generic structure diagnostics on it: with a
    Lie-type base, a metric-compatible splitting and that metric's curvature,
    all four defects vanish (the lifted bracket is the canonical one).
    """
    n = P.base.n
    nm, size = n + P.base.m, P.frame_size

    def part(name, shape):
        # the three parts share prolong_eval's snapshot of each point
        return TensorField.from_array_fn(
            lambda z: getattr(prolong_eval(P, PhasePoint.from_z(z, n)), name), shape, nm
        )

    return AlgebroidStructure(
        n=nm,
        m=size,
        bracket=part("coeffs", (size, size, size)),
        anchor_left=part("anchor_left", (nm, size)),
        anchor_right=part("anchor_right", (nm, size)),
    )


# -- degree-raising differentials on the lifted algebroid --------------------


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


def _skew_parts(snap: ProlongationSnapshot):
    rhoA = 0.5 * (snap.anchor_left + snap.anchor_right)
    cA = 0.5 * (snap.coeffs - np.swapaxes(snap.coeffs, 1, 2))
    return rhoA, cA


def _sym_parts(snap: ProlongationSnapshot):
    rhoS = 0.5 * (snap.anchor_left - snap.anchor_right)
    cS = 0.5 * (snap.coeffs + np.swapaxes(snap.coeffs, 1, 2))
    return rhoS, cS


def d_skew(P: ProlongationData, T, x: PhasePoint) -> np.ndarray:
    """Skew differential of the skew part of a (0,2) section, as [2m,2m,2m].

    Six-term formula on frame sections, with the averaged anchors and the
    skew part of the lifted bracket:
    +rho(s)T(sb,sc) - rho(sb)T(s,sc) + rho(sc)T(s,sb)
    -T(B(s,sb),sc) + T(B(s,sc),sb) - T(B(sb,sc),s).
    """
    P.check_phase(x)
    size = P.frame_size
    vals, grads = _section_jets(T, x.z, (size, size))
    vals = 0.5 * (vals - vals.T)
    grads = 0.5 * (grads - np.swapaxes(grads, 0, 1))
    snap = prolong_eval(P, x)
    rhoA, cA = _skew_parts(snap)
    dirT = np.einsum("uA,BCu->ABC", rhoA, grads)  # dirT[A,B,C] = rho(f_A)(T[B,C])
    out = dirT - np.transpose(dirT, (1, 0, 2)) + np.transpose(dirT, (1, 2, 0))
    out -= np.einsum("DAB,DC->ABC", cA, vals)
    out += np.einsum("DAC,DB->ABC", cA, vals)
    out -= np.einsum("DBC,DA->ABC", cA, vals)
    return out


def d_sym(P: ProlongationData, T, x: PhasePoint) -> np.ndarray:
    """Symmetric differential of the symmetric part of a (0,2) section."""
    P.check_phase(x)
    size = P.frame_size
    vals, grads = _section_jets(T, x.z, (size, size))
    vals = 0.5 * (vals + vals.T)
    grads = 0.5 * (grads + np.swapaxes(grads, 0, 1))
    snap = prolong_eval(P, x)
    rhoS, cS = _sym_parts(snap)
    dirT = np.einsum("uA,BCu->ABC", rhoS, grads)
    out = dirT + np.transpose(dirT, (1, 0, 2)) + np.transpose(dirT, (1, 2, 0))
    out -= np.einsum("DAB,DC->ABC", cS, vals)
    out -= np.einsum("DAC,DB->ABC", cS, vals)
    out -= np.einsum("DBC,DA->ABC", cS, vals)
    return out


def d_full(P: ProlongationData, T, x: PhasePoint) -> np.ndarray:
    """Differential of a general (0,2) section: skew part + symmetric part."""
    return d_skew(P, T, x) + d_sym(P, T, x)


def closedness_residual(P: ProlongationData, x: PhasePoint) -> float:
    """Max-abs entry of the full differential of the frame pairing at ``x``.

    Zero (to rounding / FD noise) whenever R is skew in its first two slots
    and satisfies the first Bianchi identity; order-one otherwise.
    """
    O = omega(P, x, "frame_formula")
    return float(np.max(np.abs(d_full(P, O, x))))


# -- squared-differential diagnostics ----------------------------------------


def d_skew_scalar(P: ProlongationData, phi: SmoothField, x: PhasePoint) -> np.ndarray:
    """Skew differential of a chart function on frame sections: [2m] vector."""
    P.check_phase(x)
    snap = prolong_eval(P, x)
    rhoA, _ = _skew_parts(snap)
    return rhoA.T @ phi.gradient(x.z)


def d_skew_oneform(P: ProlongationData, theta, x: PhasePoint) -> np.ndarray:
    """Skew differential of a frame one-section: [2m, 2m] skew array.

    (d theta)(f_A, f_B) = rho(f_A)(theta_B) - rho(f_B)(theta_A)
    - sum_C cA[C,A,B] theta_C.
    """
    P.check_phase(x)
    vals, grads = _section_jets(theta, x.z, (P.frame_size,))
    snap = prolong_eval(P, x)
    rhoA, cA = _skew_parts(snap)
    d = rhoA.T @ grads.T  # d[A, B] = rho(f_A)(theta_B)
    return d - d.T - np.einsum("CAB,C->AB", cA, vals)


def d_squared_scalar_residual(P: ProlongationData, phi: SmoothField, x: PhasePoint) -> float:
    """Max-abs of the twice-applied skew differential on a chart function.

    Vanishes iff the averaged anchor is a morphism for the skew bracket at
    ``x``; a Lie lifted structure gives zero up to FD noise.
    """
    n = P.base.n
    theta = TensorField.from_array_fn(
        lambda z: d_skew_scalar(P, phi, PhasePoint.from_z(z, n)), (P.frame_size,), n + P.base.m
    )
    return float(np.max(np.abs(d_skew_oneform(P, theta, x))))


def d_squared_oneform_residual(P: ProlongationData, theta, x: PhasePoint) -> float:
    """Max-abs of the twice-applied skew differential on a frame one-section."""
    n, size = P.base.n, P.frame_size
    theta = _as_section(theta, (size,), n + P.base.m)
    eta = TensorField.from_array_fn(
        lambda z: d_skew_oneform(P, theta, PhasePoint.from_z(z, n)), (size, size), n + P.base.m
    )
    return float(np.max(np.abs(d_skew(P, eta, x))))

"""Dynamics on the dual bundle chart (q, p) induced by an algebroid.

The algebroid's structure functions induce a linear 2-contravariant tensor on
the dual chart and with it a (generally neither skew nor Jacobi) bracket.
Its contraction with dH, the Hamiltonian vector field, is written once, in
:func:`ham_field`; the energy rate and fixed-step trajectories build on it.
For a constant structure and a polynomial H the field is a polynomial in z,
and :func:`integrate` packs it, with dH, from that one formula.
``PhasePoint`` and ``ham_field`` also take a batch of points (a leading axis
of length K on q and p).  A ``Trajectory`` is one float table whose columns
are those of its CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebroid import AlgebroidStructure, _structure_values, contract_first, structure_eval
from .errors import InputError, IntegrationDivergedError, NumericError
from .fields import TensorField, _monomials, matvec, vecmat


def _coords(a) -> np.ndarray:
    """Coordinates of one point ``[d]`` or of a batch ``[K, d]`` as a float array."""
    a = np.asarray(a, dtype=float)
    return a if a.ndim == 2 else a.reshape(-1)


@dataclass(frozen=True)
class PhasePoint:
    """A point of the dual-bundle chart: base coordinates q, fibre coordinates p.

    ``q[K, n]`` and ``p[K, m]`` make it a batch of K points.
    """

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _coords(self.q))
        object.__setattr__(self, "p", _coords(self.p))
        if self.q.shape[:-1] != self.p.shape[:-1]:
            raise InputError("phase point q and p differ in batch size")
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.p))):
            raise InputError("phase point has non-finite entries")

    @property
    def z(self) -> np.ndarray:
        """Concatenated chart vector (q_1..q_n, p_1..p_m)."""
        return np.concatenate([self.q, self.p], axis=-1)

    @classmethod
    def from_z(cls, z, n) -> "PhasePoint":
        z = _coords(z)
        return cls(z[..., :n], z[..., n:])


def _check_phase(A: AlgebroidStructure, x: PhasePoint):
    if x.q.shape[-1] != A.n or x.p.shape[-1] != A.m:
        raise InputError(
            f"phase point dims ({x.q.shape[-1]},{x.p.shape[-1]}) do not match algebroid ({A.n},{A.m})"
        )


def _check_phase_fn(A: AlgebroidStructure, H: TensorField):
    if H.arity != A.n + A.m:
        raise InputError(f"phase function arity {H.arity} must be n+m={A.n + A.m}")


def _field(B, rho_l, rho_r, p, g, n) -> np.ndarray:
    """The Hamiltonian field of :func:`ham_field` from the structure arrays and the gradient g."""
    gq, gp = g[..., :n], g[..., n:]
    pB = contract_first(p, B)  # pB[a, b] = sum_c p_c B[c, a, b]
    return np.concatenate((matvec(rho_l, gp), vecmat(gp, pB) - vecmat(gq, rho_r)), axis=-1)


def ham_field(A, H: TensorField, x: PhasePoint, *, with_gradient=False):
    """Hamiltonian vector field at ``x`` as a chart vector (dq, dp), per point of a batch.

    dq_i = sum_a rho_l[i,a] dH/dp_a,
    dp_b = -(sum_j rho_r[j,b] dH/dq_j - sum_{a,c} B[c,a,b] p_c dH/dp_a).

    With ``with_gradient`` the result is ``(field, dH)``, the gradient of H
    at ``x`` that the field was built from.
    """
    _check_phase(A, x)
    _check_phase_fn(A, H)
    s = structure_eval(A, x.q)
    g = H.gradient(x.z)
    out = _field(s.B, s.rho_l, s.rho_r, x.p, g, A.n)
    return (out, g) if with_gradient else out


def energy_rate(A, H: TensorField, x: PhasePoint) -> float:
    """dH/dt = dH(X_H) along the standard Hamiltonian field, as :func:`integrate` records it.

    It equals -{H, H}: zero for skew brackets, the signed
    dissipation/production rate otherwise.
    """
    X, g = ham_field(A, H, x, with_gradient=True)
    return float(g @ X)


@dataclass
class Trajectory:
    """Fixed-step integration record: one float table whose columns are the CSV's.

    ``samples`` is ``[N, 3 + n + m + k]``, one row per recorded step, with the
    columns of :meth:`csv_header`: ``t``, the state ``q_1..q_n, p_1..p_m``,
    ``H``, ``dHdt`` and the k monitors in the order of ``monitor_names``.
    The accessors return column views of it.
    """

    n: int
    m: int
    samples: np.ndarray
    monitor_names: list = field(default_factory=list)

    def times(self) -> np.ndarray:
        return self.samples[:, 0]

    def states(self) -> np.ndarray:
        return self.samples[:, 1 : 1 + self.n + self.m]

    def h_values(self) -> np.ndarray:
        return self.samples[:, 1 + self.n + self.m]

    def rate_values(self) -> np.ndarray:
        """dH/dt at each sample."""
        return self.samples[:, 2 + self.n + self.m]

    def monitor_table(self) -> np.ndarray:
        """``[N, k]``: one column per name of ``monitor_names``."""
        return self.samples[:, 3 + self.n + self.m :]

    def csv_header(self) -> str:
        cols = ["t"]
        cols += [f"q{i + 1}" for i in range(self.n)]
        cols += [f"p{a + 1}" for a in range(self.m)]
        cols += ["H", "dHdt"]
        cols += list(self.monitor_names)
        return ",".join(cols)

    def to_csv(self) -> str:
        """CSV with 17 significant digits per value and no negative zero; header per contract."""
        fmt = ",".join(["%.17g"] * self.samples.shape[1])
        rows = (self.samples + 0.0).tolist()  # -0.0 + 0.0 is +0.0
        return "\n".join([self.csv_header()] + [fmt % tuple(row) for row in rows]) + "\n"


def _all_finite(v) -> bool:
    """``np.isfinite(v).all()`` for a short vector: a loop over few floats beats numpy's reduce."""
    return all(map(math.isfinite, v.tolist()))


def rk4_step(f, y, h):
    """One classical explicit fourth-order Runge-Kutta step for y' = f(y)."""
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _stage_table(s, H: TensorField, n):
    """``(E, C)`` such that ``C @ z**E`` stacks X_H(z) over dH(z), ``[2 (n + m)]``.

    For the constant structure arrays ``s = (B, rho_l, rho_r)`` and a
    polynomial H.  The field of :func:`_field` is linear in dH and, through
    the bracket, in p; each column of H's gradient table (one derivative
    monomial of dH) gives one field column at p = 0, and one more per p_c,
    the field at p = e_c less that, on the monomial times p_c.  A column of
    the gradient table has one non-zero entry, so the differences are exact.
    """
    Ed, D = H.gradient_table()  # dH(z) = D @ z**Ed: [K, N], [N, K]
    N, K = D.shape
    cols = D.T  # the derivative columns as a batch of gradients
    base = _field(*s, np.zeros(N - n), cols, n)
    # the terms of X_H at p = 0, of X_H's part linear in each p_c, then of dH
    W = np.concatenate([base] + [_field(*s, e, cols, n) - base for e in np.eye(N - n)] + [cols])
    exps = np.concatenate([Ed] + [Ed + e for e in np.eye(N, dtype=int)[n:]] + [Ed])
    t, r = np.nonzero(W)
    rows = r + N * (t >= W.shape[0] - K)  # dH's entries follow X_H's
    table = TensorField.from_terms(rows, W[t, r], exps[t], (2 * N,), N)
    table._value_table()
    return table._Ev, table._Cv


def _check_step(h, steps):
    """Refuse a step size that is no finite number > 0 and a step count that is no integer >= 1."""
    if not 0 < h < math.inf:  # NaN compares false
        raise InputError("step size h must be a finite number > 0")
    if isinstance(steps, bool) or not (isinstance(steps, (int, np.integer)) and steps >= 1):
        raise InputError("steps must be an integer >= 1")


def _stage_kernel(A, H, q0):
    """The map ``z -> (X_H(z), dH(z))`` that every RK4 stage of :func:`integrate` runs.

    z's finiteness check, the structure read (once here if it is constant,
    else at each base point that differs, bit for bit, from the last), dH and
    its finiteness check, and :func:`_field`; with a constant structure and a
    polynomial H, one product of the packed :func:`_stage_table` instead.
    """
    n, N = A.n, A.n + A.m
    last = [None, None if A._varying else _structure_values(A, q0)]  # base point bytes, arrays
    packed = not A._varying and H._terms is not None
    if packed:
        E, C = _stage_table(last[1], H, n)

    def kernel(z):
        if not _all_finite(z):
            raise InputError("state has non-finite entries")
        if packed:
            out = C.dot(_monomials(z, E))  # the BLAS product of ``@``, at less call cost
            X, g = out[:N], out[N:]
        else:
            if A._varying and z[:n].tobytes() != last[0]:
                last[:] = z[:n].tobytes(), _structure_values(A, z[:n])
            g = H._gradient(z)
            X = _field(*last[1], z[n:], g, n)
        if not _all_finite(g):
            raise NumericError("Hamiltonian gradient non-finite")
        return X, g

    return kernel


def integrate(A, H, x0: PhasePoint, h, steps, monitors=None) -> Trajectory:
    """Integrate the standard Hamiltonian field with fixed-step RK4.

    Every RK4 stage runs the kernel of :func:`_stage_kernel`, built for this call only.
    The initial state goes through :func:`ham_field`, so it is validated as there.

    Each sample reuses the first stage of the step that starts from it, whose
    field X_H and gradient dH give dH/dt = dH(X_H) = -{H, H}.  States and
    rates are written into the rows of one preallocated table, the
    trajectory's ``samples``; the times, H and every monitor are filled in
    once over all recorded states after the loop, and the table ends at the
    last recordable row.  Raises
    :class:`IntegrationDivergedError` (carrying the last good step index and
    the partial trajectory) if the state leaves float range or if H, dH/dt
    or a monitor is not finite at a sample; a non-finite value at the
    initial state raises its own error.  A step count whose table cannot be
    allocated raises :class:`InputError`.
    """
    _check_phase(A, x0)
    _check_phase_fn(A, H)
    _check_step(h, steps)
    steps = int(steps)
    monitors = monitors or {}
    names = list(monitors.keys())
    for name in names:
        _check_phase_fn(A, monitors[name])
    N = A.n + A.m
    kernel = _stage_kernel(A, H, x0.q)

    def stage(y):  # the first stage, at the step's state z itself, is its sample's jet
        return dz if y is z else kernel(y)[0]

    try:
        S = np.empty((steps + 1, 3 + N + len(names)))  # the columns of Trajectory.csv_header
    except (MemoryError, ValueError) as exc:  # ValueError: more rows than an array axis holds
        raise InputError(f"steps is too large: {steps} steps cannot be allocated") from exc
    z = x0.z
    error = None
    with np.errstate(over="ignore", invalid="ignore"):
        dz, g = ham_field(A, H, x0, with_gradient=True)
        for k in range(steps + 1):
            S[k, 1 : 1 + N] = z
            S[k, 2 + N] = g @ dz
            if k == steps:
                break
            try:
                z = rk4_step(stage, z, h)
                dz, g = kernel(z)  # the next step's first stage: the jet of its sample
            except (InputError, NumericError) as exc:
                error = exc
                break
        count = k + 1
        S = S[:count]
        Z = S[:, 1 : 1 + N]
        S[:, 0] = np.arange(count) * h
        S[:, 1 + N] = H._values(Z)
        for j, name in enumerate(names):
            S[:, 3 + N + j] = monitors[name]._values(Z)
    ok = np.isfinite(S[:, 1 + N :]).all(axis=1)  # H, dH/dt and the monitors
    bad = count if ok.all() else int(np.argmin(ok))  # the first sample that cannot be recorded
    if bad == 0:
        raise NumericError("H, dH/dt or a monitor is non-finite at the initial state")
    traj = Trajectory(A.n, A.m, S[:bad], names)
    if bad < count or error is not None:
        err = IntegrationDivergedError(f"non-finite after step {bad - 1}", last_good_step=bad - 1)
        err.trajectory = traj
        raise err from (error if bad == count else None)
    return traj


def fibre_form(c, n) -> TensorField:
    """The form ``sum c[a, b, ...] p_a p_b ...`` on the chart (q[n], p[m]), as a polynomial."""
    index = np.nonzero(c)
    unit = np.eye(n + c.shape[0], dtype=int)[n:]  # the exponents of p_1..p_m
    rows, exps = np.zeros(index[0].shape[0], dtype=int), sum(unit[i] for i in index)
    return TensorField.from_terms(rows, c[index], exps, (), n + c.shape[0])


def quadratic_hamiltonian(G: TensorField, V, n, m) -> TensorField:
    """H(q, p) = 1/2 p^T G(q)^{-1} p + V(q) with an exact analytic jet.

    ``G`` is the m x m fibre metric over the base.  A constant metric with a
    polynomial or absent V gives a polynomial: the terms
    1/2 G^{-1}[a, b] p_a p_b and V's.  Otherwise the gradient uses the
    closed-form derivative of the inverse, so the jet is exact whenever G and
    V have exact jets.
    """
    if G.shape != (m, m):
        raise InputError("metric must be m x m over the base")
    if G._const is not None and (V is None or V._terms is not None):
        H = fibre_form(0.5 * np.linalg.inv(G._const), n)
        if V is None:
            return H
        rows, coefs, exps = V._terms
        exps = np.hstack([exps, np.zeros((coefs.shape[0], m), dtype=int)])  # V(q) on the chart
        return H + TensorField.from_terms(rows, coefs, exps, (), n + m)

    def value(z):
        q, p = z[:n], z[n:]
        v = 0.5 * float(p @ np.linalg.inv(G.eval(q)) @ p)
        if V is not None:
            v += float(V.eval(q))
        return v

    def grad(z):
        q, p = z[:n], z[n:]
        Gv, Gg = G.eval_grad(q)  # [m,m], [m,m,n]
        w = np.linalg.inv(Gv) @ p
        gq = -0.5 * np.einsum("i,ijk,j->k", w, Gg, w) if n else np.zeros(0)
        if V is not None:
            gq = gq + V.gradient(q)
        return np.concatenate([gq, w])

    return TensorField.from_callable(value, n + m, grad=grad)


def momentum_pairing_hamiltonian(X: TensorField, n) -> TensorField:
    """H(q, p) = sum_i p_i X^i(q), the linear-in-momentum pairing with a base field.

    A packed X gives a polynomial: each term of X^i, times p_i.  Otherwise H
    is a closure over X's values and jet.
    """
    if X.shape != (n,):
        raise InputError("vector field must have shape [n]")
    if X.arity != n:
        raise InputError(f"vector field arity {X.arity} does not match n={n}")
    if X._terms is not None:
        rows, coefs, exps = X._terms  # term t of X^i, times p_i: exponent e_i on p
        exps = np.hstack([exps, np.eye(n, dtype=int)[rows]])
        return TensorField.from_terms(np.zeros_like(rows), coefs, exps, (), 2 * n)

    def value(z):
        q, p = z[:n], z[n:]
        return float(p @ X.eval(q))

    def grad(z):
        q, p = z[:n], z[n:]
        Xv, Xg = X.eval_grad(q)  # [n], [n,n]
        return np.concatenate([Xg.T @ p, Xv])

    return TensorField.from_callable(value, 2 * n, grad=grad)

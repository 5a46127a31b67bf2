"""Dynamics on the dual bundle chart (q, p) induced by an algebroid.

The algebroid's structure functions induce a linear 2-contravariant tensor on
the dual chart; contracting it with differentials gives a (generally neither
skew nor Jacobi) bracket of functions, a Hamiltonian vector field, and fixed
step trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebroid import AlgebroidStructure, structure_eval
from .errors import InputError, IntegrationDivergedError, NumericError
from .fields import SmoothField, TensorField

__all__ = [
    "PhasePoint",
    "Trajectory",
    "poisson_tensor",
    "poisson_bracket",
    "ham_field",
    "energy_rate",
    "integrate",
    "metric_inverse",
    "quadratic_hamiltonian",
    "momentum_pairing_hamiltonian",
]


@dataclass(frozen=True)
class PhasePoint:
    """A point of the dual-bundle chart: base coordinates q, fibre coordinates p."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float).reshape(-1))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float).reshape(-1))
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.p))):
            raise InputError("phase point has non-finite entries")

    @property
    def z(self) -> np.ndarray:
        """Concatenated chart vector (q_1..q_n, p_1..p_m)."""
        return np.concatenate([self.q, self.p])

    @classmethod
    def from_z(cls, z, n) -> "PhasePoint":
        z = np.asarray(z, dtype=float).reshape(-1)
        return cls(z[:n], z[n:])

    @classmethod
    def _of(cls, z, n) -> "PhasePoint":
        """View a float chart vector ``z`` as a point, without validation.

        For the integrator's stages: the step checks its state for finiteness
        and the jets evaluated at the point check their own input.
        """
        x = object.__new__(cls)
        object.__setattr__(x, "q", z[:n])
        object.__setattr__(x, "p", z[n:])
        return x


def _check_phase(A: AlgebroidStructure, x: PhasePoint):
    if x.q.shape[0] != A.n or x.p.shape[0] != A.m:
        raise InputError(
            f"phase point dims ({x.q.shape[0]},{x.p.shape[0]}) do not match algebroid ({A.n},{A.m})"
        )


def _check_phase_fn(A: AlgebroidStructure, H: SmoothField):
    if H.arity != A.n + A.m:
        raise InputError(f"phase function arity {H.arity} must be n+m={A.n + A.m}")


def _p_dot_B(B, p) -> np.ndarray:
    """pB[a, b] = sum_c p_c B[c, a, b], as one matrix product."""
    m = p.shape[0]
    return (p @ B.reshape(m, m * m)).reshape(m, m)


def poisson_tensor(A: AlgebroidStructure, x: PhasePoint) -> np.ndarray:
    """The induced linear 2-contravariant tensor at ``x`` as an (n+m)x(n+m) matrix.

    Row/column order is (q_1..q_n, p_1..p_m).  Blocks:
    [q, q] = 0, [q_i, p_a] = rho_r[i, a], [p_b, q_j] = -rho_l[j, b],
    [p_a, p_b] = -sum_c B[c, a, b] p_c.
    """
    _check_phase(A, x)
    s = structure_eval(A, x.q)
    n, m = A.n, A.m
    Pi = np.zeros((n + m, n + m))
    Pi[:n, n:] = s.rho_r
    Pi[n:, :n] = -s.rho_l.T
    Pi[n:, n:] = -_p_dot_B(s.B, x.p)
    return Pi


def poisson_bracket(A, phi: SmoothField, psi: SmoothField, x: PhasePoint) -> float:
    """Bracket of two phase functions: (grad phi)^T Pi (grad psi)."""
    _check_phase_fn(A, phi)
    _check_phase_fn(A, psi)
    Pi = poisson_tensor(A, x)
    z = x.z
    return float(phi.gradient(z) @ Pi @ psi.gradient(z))


def ham_field(A, H: SmoothField, x: PhasePoint, variant="standard", with_gradient=False):
    """Hamiltonian vector field at ``x`` as a chart vector (dq, dp).

    standard: dq_i = sum_a rho_l[i,a] dH/dp_a,
              dp_b = -(sum_j rho_r[j,b] dH/dq_j - sum_{a,c} B[c,a,b] p_c dH/dp_a).
    tilde:    the right-sided companion field; anchors swap roles and the
              bracket term appears transposed with opposite sign.  The two
              coincide exactly when the bracket is skew and the anchors agree.

    With ``with_gradient`` the result is ``(field, dH)``, the gradient of H
    at ``x`` that the field was built from.
    """
    _check_phase(A, x)
    _check_phase_fn(A, H)
    if variant not in ("standard", "tilde"):
        raise InputError(f"unknown variant {variant!r}")
    s = structure_eval(A, x.q)
    n = A.n
    g = H.gradient(x.z)
    gq, gp = g[:n], g[n:]
    pB = _p_dot_B(s.B, x.p)
    out = np.empty(g.shape[0])
    if variant == "standard":
        out[:n] = s.rho_l @ gp
        out[n:] = gp @ pB - gq @ s.rho_r
    else:
        out[:n] = s.rho_r @ gp
        out[n:] = -(pB @ gp) - gq @ s.rho_l
    return (out, g) if with_gradient else out


def energy_rate(A, H: SmoothField, x: PhasePoint) -> float:
    """dH/dt along the standard Hamiltonian field: -{H, H}.

    Zero for skew brackets; the signed dissipation/production rate otherwise.
    """
    return -poisson_bracket(A, H, H, x)


@dataclass
class Trajectory:
    """Fixed-step integration record.

    ``samples`` holds ``steps + 1`` rows ``(t, PhasePoint, H, dHdt, monitors)``
    where ``monitors`` is a float array aligned with ``monitor_names``.
    """

    h: float
    n: int
    m: int
    monitor_names: list = field(default_factory=list)
    samples: list = field(default_factory=list)

    def states(self) -> np.ndarray:
        return np.array([s[1].z for s in self.samples])

    def times(self) -> np.ndarray:
        return np.array([s[0] for s in self.samples])

    def h_values(self) -> np.ndarray:
        return np.array([s[2] for s in self.samples])

    def monitor_values(self, name) -> np.ndarray:
        k = self.monitor_names.index(name)
        return np.array([s[4][k] for s in self.samples])

    def csv_header(self) -> str:
        cols = ["t"]
        cols += [f"q{i + 1}" for i in range(self.n)]
        cols += [f"p{a + 1}" for a in range(self.m)]
        cols += ["H", "dHdt"]
        cols += list(self.monitor_names)
        return ",".join(cols)

    def to_csv(self) -> str:
        """CSV with 17 significant digits per value and no negative zero; header per contract."""
        S = self.samples
        N = len(S)
        data = np.hstack([
            np.array([s[0] for s in S]).reshape(N, 1),
            np.array([s[1].q for s in S]).reshape(N, self.n),
            np.array([s[1].p for s in S]).reshape(N, self.m),
            np.array([(s[2], s[3]) for s in S]).reshape(N, 2),
            np.array([s[4] for s in S]).reshape(N, len(self.monitor_names)),
        ]) + 0.0  # -0.0 + 0.0 is +0.0
        fmt = ",".join(["%.17g"] * data.shape[1])
        lines = [self.csv_header()] + [fmt % tuple(row) for row in data.tolist()]
        return "\n".join(lines) + "\n"


def rk4_step(f, y, h):
    """One classical explicit fourth-order Runge-Kutta step for y' = f(y)."""
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(A, H, x0: PhasePoint, h, steps, monitors=None) -> Trajectory:
    """Integrate the standard Hamiltonian field with fixed-step RK4.

    Records H, dH/dt and every monitor at each of the steps+1 samples.  Each
    sample reuses the first stage of the step that starts from it, whose
    field X_H and gradient dH give dH/dt = dH(X_H) = -{H, H}.  Raises
    :class:`IntegrationDivergedError` (carrying the last good step index and
    the partial trajectory) if the state leaves float range or if H, dH/dt
    or a monitor is not finite at a sample; a non-finite value at the
    initial state raises its own error.
    """
    _check_phase(A, x0)
    _check_phase_fn(A, H)
    if h <= 0:
        raise InputError("step size h must be positive")
    steps = int(steps)
    if steps < 1:
        raise InputError("steps must be >= 1")
    monitors = monitors or {}
    names = list(monitors.keys())
    for name in names:
        _check_phase_fn(A, monitors[name])
    n = A.n
    traj = Trajectory(h=h, n=A.n, m=A.m, monitor_names=names)
    stages = []

    def stage(z):
        dz, g = ham_field(A, H, PhasePoint._of(z, n), with_gradient=True)
        stages.append((dz, g))
        return dz

    def sample(k, z, dz, g):
        rate = float(g @ dz)
        if not math.isfinite(rate):
            raise NumericError(f"dH/dt non-finite at step {k}")
        mon = np.array([monitors[name].value(z) for name in names])
        return k * h, PhasePoint._of(z, n), H.value(z), rate, mon

    def diverged(message, last_good):
        err = IntegrationDivergedError(message, last_good_step=last_good)
        err.trajectory = traj
        return err

    z = x0.z
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            stages.clear()
            error = z_next = None
            try:
                if k < steps:
                    z_next = rk4_step(stage, z, h)
                else:
                    stage(z)  # the last sample has no step of its own
            except (InputError, NumericError) as exc:
                error = exc  # a stage already left float range
            try:
                if not stages:
                    raise error  # the first stage failed: no jet at z
                traj.samples.append(sample(k, z, *stages[0]))
            except (InputError, NumericError) as exc:
                if k == 0:
                    raise
                raise diverged(f"non-finite value at the sample of step {k}", k - 1) from exc
            if error is not None or (z_next is not None and not np.isfinite(z_next).all()):
                raise diverged(f"state non-finite after step {k + 1}", k) from error
            z = z_next
    return traj


def metric_inverse(G: TensorField):
    """``q -> G(q)^{-1}``; a constant metric is inverted once, here."""
    if G._const is None:
        return lambda q: np.linalg.inv(G.eval(q))
    Ginv = np.linalg.inv(G._const)
    return lambda q: Ginv


def quadratic_hamiltonian(G: TensorField, V, n, m) -> SmoothField:
    """H(q, p) = 1/2 p^T G(q)^{-1} p + V(q) with an exact analytic jet.

    ``G`` is the m x m fibre metric over the base; the gradient uses the
    closed-form derivative of the inverse, so the jet is exact whenever G and
    V have exact jets.
    """
    if G.shape != (m, m):
        raise InputError("metric must be m x m over the base")
    inverse = metric_inverse(G)

    def split(z):
        return z[:n], z[n:]

    def value(z):
        q, p = split(z)
        v = 0.5 * float(p @ inverse(q) @ p)
        if V is not None:
            v += V.value(q)
        return v

    def grad(z):
        q, p = split(z)
        if G._const is not None:  # zero metric derivative
            w = inverse(q) @ p
            gq = np.zeros(n)
        else:
            Gv, Gg = G.eval_grad(q)  # [m,m], [m,m,n]
            w = np.linalg.inv(Gv) @ p
            gq = -0.5 * np.einsum("i,ijk,j->k", w, Gg, w) if n else np.zeros(0)
        if V is not None:
            gq = gq + V.gradient(q)
        return np.concatenate([gq, w])

    return SmoothField.from_callable(value, n + m, grad=grad, name="quadratic_energy")


def momentum_pairing_hamiltonian(X: TensorField, n) -> SmoothField:
    """H(q, p) = sum_i p_i X^i(q), the linear-in-momentum pairing with a base field."""
    if X.shape != (n,):
        raise InputError("vector field must have shape [n]")

    def value(z):
        q, p = z[:n], z[n:]
        return float(p @ X.eval(q))

    def grad(z):
        q, p = z[:n], z[n:]
        Xv, Xg = X.eval_grad(q)  # [n], [n,n]
        return np.concatenate([Xg.T @ p, Xv])

    return SmoothField.from_callable(value, 2 * n, grad=grad, name="momentum_pairing")

#!/usr/bin/env python3
"""Constrained-plane-field experiment: momentum side vs velocity side.

Builds a rank-2 kinematic subbundle of a curved 3d chart, integrates the
induced momentum equations in the adapted frame, and replays the same motion
through the Lagrange-d'Alembert equations in ambient coordinates, which read
only the metric, the kinematic rows and the potential.  The reference's
velocities, taken in its own metric Gram-Schmidt basis of the kinematic
rows, must track the momenta; the printed gap is the largest difference over
all samples of q and of v against p.
"""

import argparse

import numpy as np

from algmech import PhasePoint, integrate
from algmech.fields import TensorField, tensor_from_config
from algmech.algebroid import canonical_tangent, worst_residual
from algmech.scenarios import ConstraintSpec, build_constrained, lagrangian_reference


def build_spec():
    amb = canonical_tangent(3)
    q2 = TensorField.polynomial([(1.0, [0, 1, 0])], 3)
    one = TensorField.polynomial([(1.0, [0, 0, 0])], 3)
    zero = TensorField.zeros((), 3)
    g22 = TensorField.polynomial([(1.0, [0, 0, 0]), (1.0, [2, 0, 0])], 3)
    metric = tensor_from_config(
        [[one, zero, zero], [zero, g22, zero], [zero, zero, one]], (3, 3), 3
    )
    potential = TensorField.polynomial([(0.5, [0, 2, 0]), (1.0, [2, 0, 0])], 3)
    return ConstraintSpec(
        ambient=amb,
        metric=metric,
        kinematic_basis=tensor_from_config([[1, 0, q2], [0, 1, 0]], (2, 3), 3),
        potential=potential,
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=1000)
    ap.add_argument("--h", type=float, default=1e-3)
    args = ap.parse_args()

    spec = build_spec()
    bundle = build_constrained(spec)
    q0 = np.array([0.4, -0.2, 0.1])
    v0 = np.array([0.5, -0.3])

    traj = integrate(bundle.algebroid, bundle.hamiltonian, PhasePoint(q0, v0), args.h, args.steps)
    ref = lagrangian_reference(spec, v0, q0, args.h, args.steps)

    worst = worst_residual([np.abs(traj.states() - ref)])
    H = traj.h_values()
    print(f"steps: {args.steps}, h: {args.h}")
    print(f"momentum/velocity trajectory gap: {worst:.3e}")
    print(f"energy drift: {np.max(np.abs(H - H[0])):.3e}")
    print(f"final base point: {traj.states()[-1, : traj.n]}")


if __name__ == "__main__":
    main()

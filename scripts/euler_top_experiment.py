#!/usr/bin/env python3
"""Free rigid body on the rotation algebra: drift study and route comparison.

Integrates the momentum equations for a triaxial body, reports energy and
invariant drift over a long run, and compares the direct dual-bundle field
with the one reconstructed through the lifted symplectic structure.
"""

import argparse

import numpy as np

from algmech import PhasePoint, ham_field, integrate, lr_ham_field
from algmech.algebroid import so3_constants, worst_residual
from algmech.scenarios import build_lie_poisson, euler_top_hamiltonian, so3_casimir


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--inertia", type=float, nargs=3, default=[1.0, 2.0, 3.0])
    ap.add_argument("--steps", type=int, default=20000)
    ap.add_argument("--h", type=float, default=1e-3)
    ap.add_argument("--p0", type=float, nargs=3, default=[1.0, 1.0, 1.0])
    args = ap.parse_args()

    bundle = build_lie_poisson(
        so3_constants(), euler_top_hamiltonian(args.inertia), monitors={"casimir": so3_casimir()}
    )
    x0 = PhasePoint([], args.p0)

    P = bundle.prolongation()
    gap = worst_residual(
        np.max(
            np.abs(
                lr_ham_field(P, bundle.hamiltonian, PhasePoint([], p))
                - ham_field(bundle.algebroid, bundle.hamiltonian, PhasePoint([], p))
            )
        )
        for p in np.random.default_rng(0).uniform(-2, 2, size=(200, 3))
    )
    print(f"two-route field gap over 200 random momenta: {gap:.3e}")

    traj = integrate(bundle.algebroid, bundle.hamiltonian, x0, args.h, args.steps, bundle.monitors)
    H = traj.h_values()
    cas = traj.monitor_table()[:, traj.monitor_names.index("casimir")]
    print(f"steps: {args.steps}, h: {args.h}")
    print(f"energy drift:    {np.max(np.abs(H - H[0])):.3e}")
    print(f"invariant drift: {np.max(np.abs(cas - cas[0])):.3e}")
    print(f"final momentum:  {traj.states()[-1]}")  # n = 0: the state is p


if __name__ == "__main__":
    main()

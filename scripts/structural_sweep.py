#!/usr/bin/env python3
"""Random-instance sweep of the structural claims.

For seeded random polynomial structures, measures (a) the gap between the
dual-bundle Hamiltonian field and its reconstruction through the lifted
symplectic pairing, (b) the closedness residual with the zero curvature
choice, and (c) invariance of the reconstruction under re-splitting.
"""

import argparse

import numpy as np

from algmech import PhasePoint, ham_field
from algmech.algebroid import worst_residual
from algmech.connections import default_split
from algmech.fields import TensorField
from algmech.prolongation import ProlongationData, closedness_residual, lr_ham_field
from algmech.randoms import (
    random_algebroid,
    random_curvature,
    random_phase_function,
    random_valid_split,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=20)
    ap.add_argument("--points", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'n':>2} {'m':>2} {'route gap':>12} {'resplit drift':>14} {'closedness':>12}")
    worst = np.zeros(3)
    for _ in range(args.instances):
        A = random_algebroid(rng)
        H = random_phase_function(rng, A.n, A.m)
        P0 = ProlongationData(A, default_split(A), TensorField.zeros((A.m,) * 4, A.n))
        P1 = ProlongationData(A, random_valid_split(rng, A), random_curvature(rng, A.m, A.n))
        gaps, drifts, closeds = [], [], []
        for _ in range(args.points):
            x = PhasePoint(rng.uniform(-1, 1, A.n), rng.uniform(-1, 1, A.m))
            f_direct = ham_field(A, H, x)
            f0 = lr_ham_field(P0, H, x)
            f1 = lr_ham_field(P1, H, x)
            scale = 1.0 + np.max(np.abs(f_direct))
            gaps.append(np.max(np.abs(f0 - f_direct)) / scale)
            drifts.append(np.max(np.abs(f1 - f0)) / scale)
            closeds.append(closedness_residual(P0, x))
        gap, drift, closed = map(worst_residual, (gaps, drifts, closeds))
        print(f"{A.n:>2} {A.m:>2} {gap:>12.3e} {drift:>14.3e} {closed:>12.3e}")
        worst = np.maximum(worst, [gap, drift, closed])
    print(f"\nworst: route gap {worst[0]:.3e}, resplit drift {worst[1]:.3e}, "
          f"closedness {worst[2]:.3e}")


if __name__ == "__main__":
    main()

"""Condition numbers of the least-squares Grams met by simplified AltMin.

Solves every instance of the `altmin-desk` and `altmin-tall-k` benchmark
workloads (perfbench/workloads.py) at one seed and records, for every
half-step, the 2-norm condition number of each slice's Gram matrix
C^T diag(mask_j) C, where C is the known factor's circulant rows.  The
solver forms normal equations, so its relative error is about machine
epsilon times this number, where an orthogonal factorization would lose
only its square root.

    python3 scripts/gram_conditioning.py --seed 1
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tubalkit import altmin, tls  # noqa: E402


def gram_conditions(observed, omega, factor, y_update):
    """Condition number of every slice's Gram in one half-step."""
    rows = tls.circulant_rows(factor, 1 if y_update else -1)
    # lateral slices, rows (i, kappa), for Y; horizontal, rows (j, kappa), for X
    by_slice = np.swapaxes(omega.mask, 0, 1) if y_update else omega.mask
    masks = by_slice.reshape(by_slice.shape[0], -1)
    grams = np.stack([rows[mask].T @ rows[mask] for mask in masks])
    return np.linalg.cond(grams)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    conds = {"y": [], "x": []}
    solve_y, solve_x = altmin.ls_solve_y, altmin.ls_solve_x

    def traced_y(observed, omega, x):
        conds["y"].append(gram_conditions(observed, omega, x, True))
        return solve_y(observed, omega, x)

    def traced_x(observed, omega, y):
        conds["x"].append(gram_conditions(observed, omega, y, False))
        return solve_x(observed, omega, y)

    altmin.ls_solve_y, altmin.ls_solve_x = traced_y, traced_x
    try:
        for name in ("altmin-desk", "altmin-tall-k"):
            workload = workloads.WORKLOADS[name]
            conds["y"].clear()
            conds["x"].clear()
            for inst in workloads.make_instances(workload, args.seed):
                workloads.solve(workload, inst)
            for half, steps in conds.items():
                values = np.concatenate(steps)
                print(
                    f"{name} ({workload.instances} instances, seed {args.seed}) "
                    f"{half}-update: {len(steps)} half-steps, {values.size} slices, "
                    f"largest Gram condition {values.max():.3g}, "
                    f"median {np.median(values):.3g}"
                )
    finally:
        altmin.ls_solve_y, altmin.ls_solve_x = solve_y, solve_x


if __name__ == "__main__":
    main()

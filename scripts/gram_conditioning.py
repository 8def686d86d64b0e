"""Condition numbers of the least-squares Grams met by simplified AltMin.

Solves every instance of the `altmin-desk` and `altmin-tall-k` benchmark
workloads (perfbench/workloads.py) at one seed and records, for every
half-step, the 2-norm condition number of each slice's Gram matrix
C^T diag(mask_j) C, where C is the known factor's circulant rows.  An X
half-step is the Y half-step of the t-transposed problem, so its masks
are the lateral slices of the t-transposed sample set.  The
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
from tubalkit.algebra import ttranspose  # noqa: E402


def gram_conditions(mask, factor):
    """Condition number of every lateral slice's Gram in the solve of
    T ~ factor * Z^dag for Z, observed on the boolean grid `mask`."""
    rows = tls.circulant_rows(factor)
    slices = np.swapaxes(mask, 0, 1).reshape(mask.shape[1], -1)  # rows (i, kappa)
    grams = np.stack([rows[keep].T @ rows[keep] for keep in slices])
    return np.linalg.cond(grams)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    conds = {"y": [], "x": []}
    solve_y, solve_x = altmin.ls_solve_y, altmin.ls_solve_x

    def traced_y(observed, omega, x, **kwargs):
        conds["y"].append(gram_conditions(omega.mask, x))
        return solve_y(observed, omega, x, **kwargs)

    def traced_x(observed, omega, y, **kwargs):
        conds["x"].append(gram_conditions(ttranspose(omega.mask), y))
        return solve_x(observed, omega, y, **kwargs)

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

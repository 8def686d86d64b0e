"""Condition numbers of the least-squares Grams met by simplified AltMin.

Solves every instance of the `altmin-desk` and `altmin-tall-k` benchmark
workloads (perfbench/workloads.py) at one seed and records, for every
half-step, the 2-norm condition number of each slice's Gram as the solver
forms it: the tall slices' normal equations (at least r*k observed rows),
which on these workloads is every slice.  The solver's relative error is
about machine epsilon times this number, where an orthogonal
factorization would lose only its square root.

    python3 scripts/gram_conditioning.py --seed 1
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tubalkit import altmin  # noqa: E402


def gram_conditions(plan, factor):
    """Condition number of each tall slice's Gram that a half-step through
    `plan` forms from the known `factor`; empty if no slice is tall."""
    blocks = plan.spectral.grams(factor) if plan.spectral else ()
    return np.concatenate([np.linalg.cond(gram) for _, gram, _ in blocks] or [np.empty(0)])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    conds = {"y": [], "x": []}
    solve_y, solve_x = altmin.ls_solve_y, altmin.ls_solve_x

    def traced_y(observed, omega, x, *, plan):
        conds["y"].append(gram_conditions(plan, x))
        return solve_y(observed, omega, x, plan=plan)

    def traced_x(observed, omega, y, *, plan):
        conds["x"].append(gram_conditions(plan, y))
        return solve_x(observed, omega, y, plan=plan)

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

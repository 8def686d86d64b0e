"""Golden estimates: every solver on three small instances, in summary.

Runs altmin-simple, altmin-full and tnn-admm through
`harness.run_algorithm` on each instance of CASES and records, per run, the
iteration count, the RSE trace, and the estimate's Frobenius norm and inner
products with four seeded Gaussian tensors.  Floats are stored as
`float.hex`.  A fresh run matches the stored one when the iteration counts
and trace lengths are equal, every trace entry is within REL_TOL relative
(ABS_FLOOR absolute), and the norm and every inner product are within
REL_TOL * the stored norm (ABS_FLOOR for a zero estimate).
The rule is not bitwise: the same code gives different last bits at
different BLAS thread counts.

    python3 scripts/golden.py           # compare with tests/golden.json
    python3 scripts/golden.py --write   # regenerate tests/golden.json

Without --write it prints each run's largest deviations and exits 1 when
any run breaks the rule.  --write keeps each stored run that still matches,
so a regeneration shows only the runs that moved, and prints a line for
each stored run it replaces (with its deviation / tolerance), drops or adds.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

from tubalkit import harness, sampling  # noqa: E402

GOLDEN = os.path.join(ROOT, "tests", "golden.json")
REL_TOL = 1e-12
ABS_FLOOR = 1e-14
PROBES = 4

# name: (m, n, k), rank, rate, instance seed, iteration caps of the
# simplified and the full AltMin variant.  The full variant splits its
# samples into one part per iteration, so it gets few iterations.
CASES = {
    # simplified AltMin recovers to rounding error, and stalls there
    "exact": ((12, 12, 4), 2, 0.6, sampling.RngSeed(0, "golden/exact"), 60, 4),
    # wide slices; AltMin does not recover here and a rounding change grows
    # about 10x per iteration, so its runs are capped
    "low-p": ((20, 40, 5), 3, 0.1, sampling.RngSeed(0, "golden/low-p"), 4, 4),
    # the altmin-desk instance (perfbench seed 1) whose slice Grams reached
    # the largest condition number, 37, that scripts/gram_conditioning.py
    # reported from a random orthonormal start; from the spectral start they
    # reach 6.0, and no instance of that seed passes 9.3
    "ill-conditioned": (
        (50, 50, 10), 3, 0.5, sampling.RngSeed(1, "perfbench/altmin-desk/5"), 15, 4
    ),
}


def summarize(report, probes):
    estimate = report.estimate.ravel()
    return {
        "iterations": len(report.rse),
        "rse": [float(v).hex() for v in report.rse],
        "norm": float(np.linalg.norm(estimate)).hex(),
        "projections": [float(v).hex() for v in probes @ estimate],
    }


def run_cases():
    """{"case/algorithm": summary} for every case and algorithm."""
    out = {}
    for name, (dims, rank, rate, base, *caps) in CASES.items():
        truth, _ = sampling.synth_low_tubal_rank(*dims, rank, base.derive("truth"))
        omega = sampling.sample_bernoulli(*dims, rate, base.derive("omega"))
        observed = sampling.project(truth, omega)
        probes = sampling.RngSeed(0, "golden/probes").rng().standard_normal((PROBES, truth.size))
        for algo in harness.ALGORITHMS:
            cap = caps[algo == "altmin-full"]  # tnn-admm reads no cap
            spec = harness.ExperimentSpec(*dims, rank=rank, iterations=cap)
            report = harness.run_algorithm(
                spec, algo, observed, omega, truth, base.derive("solver")
            )
            out[f"{name}/{algo}"] = summarize(report, probes)
    return out


def deviations(golden, fresh):
    """(trace deviation / tolerance, projection deviation / tolerance) of one
    run, or a string saying why the two cannot be compared."""
    if golden["iterations"] != fresh["iterations"] or len(golden["rse"]) != len(fresh["rse"]):
        return f"{fresh['iterations']} iterations, {len(fresh['rse'])} trace entries; " \
            f"golden {golden['iterations']}, {len(golden['rse'])}"
    gold, new = (np.array([float.fromhex(v) for v in s["rse"]]) for s in (golden, fresh))
    trace = np.abs(new - gold) / np.maximum(REL_TOL * np.abs(gold), ABS_FLOOR)
    gold, new = (np.array([float.fromhex(v) for v in [s["norm"], *s["projections"]]])
                 for s in (golden, fresh))
    projection = np.abs(new - gold) / max(REL_TOL * gold[0], ABS_FLOOR)
    return float(trace.max(initial=0)), float(projection.max())


def compare(golden, fresh):
    """Lines naming every run that breaks the rule; empty when all match."""
    failures = [f"{key}: missing" for key in golden.keys() - fresh.keys()]
    failures += [f"{key}: not in the goldens" for key in fresh.keys() - golden.keys()]
    for key in sorted(golden.keys() & fresh.keys()):
        dev = deviations(golden[key], fresh[key])
        if isinstance(dev, str) or max(dev) > 1:
            failures.append(f"{key}: {dev}")
    return failures


def merged(golden, fresh):
    """The goldens to write: the stored run for each key of `fresh` whose run
    still matches it, the fresh run for the others; keys not in `fresh` go."""
    return {key: golden[key] if key in golden and not compare({key: golden[key]}, {key: run})
            else run for key, run in fresh.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="regenerate tests/golden.json")
    args = parser.parse_args(argv)
    fresh = run_cases()
    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as fh:
            golden = json.load(fh)
    failures = compare(golden, fresh)
    if args.write:
        with open(GOLDEN, "w") as fh:
            json.dump(merged(golden, fresh), fh, indent=1, sort_keys=True)
            fh.write("\n")
        for line in failures:
            print(f"rewrote {line}")
        return 0
    for key in sorted(golden.keys() & fresh.keys()):
        print(f"{key}: deviation / tolerance (trace, projections) = "
              f"{deviations(golden[key], fresh[key])}")
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

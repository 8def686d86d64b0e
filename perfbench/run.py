"""tubalkit benchmark: time-to-accuracy solves, one workload per process.

    python3 perfbench/run.py --workload altmin-desk --seed 1 --seconds 20 --trace 0

Runs a closed loop from this one process, one solve in flight at a time,
until --seconds have passed (always at least one solve).  With --trace 0 it
prints the end-to-end metrics; with --trace 1 it alternates untraced and
traced solves of the same instances and prints the per-layer metrics.
End-to-end times are normalised to a reference host by a calibration kernel
timed before, during and after every solve, and around every set-up probe
(see calibration.py); the wall times are printed and recorded beside them.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `--workload all` runs every workload, each in
a fresh process, and prints one table.

The full record of a run (machine facts, every solve with its final RSE and
failure reason, the RSE digest, and for traced runs the spans) is written
under --out.  The benchmark starts no threads; BLAS keeps its default thread
count, which is recorded.
"""

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

# Nothing imported at module level may import numpy or tubalkit: a set-up
# probe runs this file and times those imports.
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "solve_s_p50": "s",
    "solves_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# Set-up is timed in this many fresh processes; setup_s is their median.
SETUP_PROBES = 7


def load_tubalkit():
    """Import tubalkit from the checkout's src/, and from nowhere else."""
    init = SRC / "tubalkit" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init} not found; run from a tubalkit checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tubalkit

    if Path(tubalkit.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: tubalkit came from {tubalkit.__file__}, not {SRC}")
    return tubalkit


def setup_probe(name, seed):
    """Seconds to import tubalkit and generate the run's instances."""
    start = time.perf_counter()
    load_tubalkit()
    import workloads

    workloads.make_instances(workloads.WORKLOADS[name], seed)
    return time.perf_counter() - start


def measure_setup(name, seed, probes):
    """Wall and normalised set-up seconds of `probes` fresh processes, run one
    at a time with a calibration before and after each."""
    import calibration

    wall, normalised = [], []
    before = calibration.calibrate()
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        seconds = float(proc.stdout.split()[-1])
        after = calibration.calibrate()
        wall.append(seconds)
        normalised.append(calibration.normalise(seconds, before + after))
        before = after
    return wall, normalised


def timed_solve(tubalkit, workload, inst, tracer, solve_id):
    """One solve.  Untraced solves run the calibration kernel while in flight;
    its runs are returned and their time is left out of the solve's."""
    import calibration
    import workloads

    def attempt():
        try:
            return workloads.solve(workload, inst), None
        except tubalkit.errors.TubalError as exc:
            return None, type(exc).__name__

    if tracer:
        with tracer.solve(solve_id):
            start = time.perf_counter()
            estimate, error = attempt()
            seconds = time.perf_counter() - start
        kernel_runs = []
    else:
        with calibration.sampling() as sampled:
            estimate, error = attempt()
        seconds, kernel_runs = sampled.seconds, sampled.kernel_runs
    if error:
        rse, failure, well_formed = float("nan"), error, True
    else:
        rse, failure, well_formed = workloads.check(workload, inst, estimate)
    return {"seconds": seconds, "rse": rse, "rse_hex": rse.hex(), "failure": failure,
            "well_formed": well_formed, "raised": error is not None,
            "traced": tracer is not None, "kernel_runs_s": kernel_runs}


def rse_digest(records):
    """Digest of each instance's final RSE, plus how many runs disagreed.

    Every solve of one instance must give the same bits, traced or not.
    """
    first = {}
    mismatches = 0
    for r in records:
        if r["instance"] in first:
            mismatches += first[r["instance"]] != r["rse_hex"]
        else:
            first[r["instance"]] = r["rse_hex"]
    payload = " ".join(first[i] for i in sorted(first)).encode()
    return hashlib.sha256(payload).hexdigest()[:16], len(first), mismatches


def run_workload(name, seed, seconds, trace, out_dir):
    tubalkit = load_tubalkit()
    import calibration
    import machine
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {name!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)} or all")
    workload = workloads.WORKLOADS[name]
    setup_wall_s, setup_s = ([], []) if trace else measure_setup(name, seed, SETUP_PROBES)
    instances = workloads.make_instances(workload, seed)
    tracer = tracing.Tracer(tubalkit) if trace else None

    records = []
    start = time.perf_counter()
    # Untraced runs calibrate before the first solve and after every solve.
    before = None if trace else calibration.calibrate()
    while True:
        i = len(records)
        # Traced runs alternate untraced and traced solves of one instance.
        traced = trace and i % 2 == 1
        index = (i // 2 if trace else i) % len(instances)
        record = timed_solve(tubalkit, workload, instances[index],
                             tracer if traced else None, i)
        record["instance"] = index
        if not trace:
            after = calibration.calibrate()
            record["kernel_runs_s"] = before + record["kernel_runs_s"] + after
            record["normalised_s"] = calibration.normalise(record["seconds"],
                                                           record["kernel_runs_s"])
            before = after
        records.append(record)
        if time.perf_counter() - start >= seconds and len(records) >= (2 if trace else 1):
            break
    elapsed = time.perf_counter() - start

    attempted = len(records)
    failures = Counter(r["failure"] for r in records if r["failure"])
    failed = sum(failures.values())
    # A solve that raised returned no estimate: its time counts, it does not.
    completed = sum(1 for r in records if not r["raised"])
    digest, digest_n, mismatches = rse_digest(records)
    correct = all(r["well_formed"] for r in records) and mismatches == 0

    if trace:
        values = tracing.layer_metrics(
            tracer.spans,
            [r["seconds"] for r in records if not r["traced"]],
            [r["seconds"] for r in records if r["traced"]],
        )
        units = tracing.PER_LAYER_UNITS
    else:
        values = {
            "solve_s_p50": statistics.median(r["normalised_s"] for r in records),
            "solves_per_s": completed / sum(r["normalised_s"] for r in records),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{name}-seed{seed}-trace{int(trace)}"
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "machine": machine.facts(ROOT),
        "setup_probes_s": setup_s, "setup_probes_wall_s": setup_wall_s,
        "calibration_reference_s": calibration.REFERENCE_S, "elapsed_s": elapsed,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "failure_reasons": dict(failures),
        "rse_digest": digest, "rse_digest_instances": digest_n,
        "repeat_mismatches": mismatches, "solves": records, "metrics": metrics,
    }
    if not trace:
        # The same figures unnormalised, printed and kept beside the metrics.
        record["wall"] = {
            "solve_s_p50": statistics.median(r["seconds"] for r in records),
            "solves_per_s": completed / sum(r["seconds"] for r in records),
            "setup_s": statistics.median(setup_wall_s),
            "calibration_s_p50": statistics.median(
                c for r in records for c in r["kernel_runs_s"]),
        }
    if trace:
        tracer.write(stem.with_suffix(".spans.jsonl"))
        record["spans"] = tracing.span_table(tracer.spans)
        record["trace_warnings"] = tracer.warnings
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record):
    """Human-readable lines; the JSON result line follows them."""
    m = record["machine"]
    blas = m["blas"] or {}
    print(f"perfbench {record['workload']} seed={record['seed']} trace={int(record['trace'])}: "
          f"{record['attempted']} solves in {record['elapsed_s']:.2f} s; "
          f"nproc={m['nproc']} blas={blas.get('name')} {blas.get('version')} "
          f"threads={m['blas_threads']}")
    for name, metric in record["metrics"].items():
        count = f" ({record['attempted']} solves)" if name == "solve_s_p50" else ""
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}{count}")
    if "wall" in record:
        wall = record["wall"]
        print(f"  unnormalised: solve_s_p50 {wall['solve_s_p50']:.6g} s, "
              f"solves_per_s {wall['solves_per_s']:.6g} 1/s, setup_s {wall['setup_s']:.6g} s; "
              f"calibration {wall['calibration_s_p50']:.6g} s "
              f"(reference {record['calibration_reference_s']:.6g} s)")
    print(f"  {'failed_frac':34s} {record['failed_frac']:.6g} frac "
          f"({record['failed']} of {record['attempted']}; {record['failure_reasons'] or 'no failures'})")
    print(f"  rse_digest {record['rse_digest']} over {record['rse_digest_instances']} instances; "
          f"repeat mismatches {record['repeat_mismatches']}")
    for name, span in record.get("spans", {}).items():
        print(f"  span {name:30s} calls {span['calls']:10.4g}  self_s {span['self_s']:.6g}")
    for warning in record.get("trace_warnings", []):
        print(f"  warning: {warning}")


def run_all(args):
    """Every workload, each in a fresh process; one table at the end."""
    load_tubalkit()
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(args.out)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(f"{'workload':18s} {'metric':34s} value")
    for name, result in results.items():
        rows = {**result["metrics"],
                "failed_frac": {"value": result["failed"] / result["attempted"], "unit": "frac"}}
        for metric, v in rows.items():
            print(f"{name:18s} {metric:34s} {v['value']:.6g} {v['unit']}")
    print(json.dumps(results))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds < 0:
        parser.error("--seconds must be a nonnegative number")

    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    if args.workload == "all":
        run_all(args)
        return 0
    record = run_workload(args.workload, args.seed, args.seconds, args.trace, args.out)
    report(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

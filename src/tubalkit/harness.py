"""Benchmark drivers and file I/O.

T3B tensor format: magic "T3B1", three little-endian uint32 dims (m, n, k),
then m*n*k little-endian float64 values with index i fastest, then j, then
kappa (Fortran order of an (m, n, k) array).

Trace CSV schema: "algorithm,rate,rep,iter,rse,seconds".  Failed runs keep
their row with rse written as nan.
"""

import csv
import json
import os
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .altmin import SolverConfig, trace_error, tubal_alt_min
from .errors import (
    BadMagic,
    DimOverflow,
    SolverBreakdown,
    TruncatedFile,
    TubalError,
)
from .sampling import RngSeed, project, sample_bernoulli, read_sample_set
from .tnn_admm import AdmmConfig, admm_complete, lambda_grid
from . import sampling

T3B_MAGIC = b"T3B1"
MAX_ELEMENTS = 2**33
CSV_HEADER = ["algorithm", "rate", "rep", "iter", "rse", "seconds"]
ALGORITHMS = ("altmin-full", "altmin-simple", "tnn-admm")


def write_tensor(path, t):
    t = np.asarray(t, dtype=float)
    m, n, k = t.shape
    with open(path, "wb") as fh:
        fh.write(T3B_MAGIC)
        fh.write(struct.pack("<3I", m, n, k))
        fh.write(t.flatten(order="F").astype("<f8").tobytes())


def read_tensor(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != T3B_MAGIC:
            raise BadMagic(f"expected {T3B_MAGIC!r}, got {magic!r}")
        header = fh.read(12)
        if len(header) < 12:
            raise TruncatedFile("header ends before the three dims")
        m, n, k = struct.unpack("<3I", header)
        count = m * n * k
        if min(m, n, k) == 0 or count > MAX_ELEMENTS:
            raise DimOverflow(f"dims {(m, n, k)} out of supported range")
        size = os.fstat(fh.fileno()).st_size
        if size != 16 + count * 8:
            raise TruncatedFile(f"header promises {count} values; file holds {size} bytes")
        data = fh.read(count * 8)
        if len(data) < count * 8:
            raise TruncatedFile(f"expected {count} values, file ends early")
        values = np.frombuffer(data, dtype="<f8")
    return np.ascontiguousarray(values.reshape((m, n, k), order="F"))


@dataclass
class ExperimentSpec:
    m: int = 50
    n: int = 50
    k: int = 10
    rank: int = 3
    rates: list = field(default_factory=lambda: [0.5])
    algorithms: tuple = ("altmin-simple",)
    iterations: int = 15
    admm_iterations: int = 500
    epsilon: float = 0.01
    mu0: float = 1e6
    lam: float | None = None
    alpha: float = 1.0
    seed: int = 0
    repetitions: int = 1
    out_dir: str = "."
    threshold: float = 1e-5
    sizes: list = field(default_factory=lambda: [25, 50, 75, 100])

    def __post_init__(self):
        if any(not 0 < rate <= 1 for rate in self.rates):
            raise ValueError("sampling rates must lie in (0, 1]")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}")


@dataclass
class TraceRow:
    algorithm: str
    rate: float
    rep: int
    iter: int
    rse: float
    seconds: float

    def as_list(self):
        return [
            self.algorithm,
            repr(self.rate),
            self.rep,
            self.iter,
            repr(self.rse),
            repr(self.seconds),
        ]


def _worker_count():
    raw = os.environ.get("TUBAL_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(row.as_list())


def _solver_config(spec, algo, run_seed):
    variant = "full" if algo == "altmin-full" else "simplified"
    return SolverConfig(
        target_rank=spec.rank,
        iterations=spec.iterations,
        epsilon=spec.epsilon,
        coherence_budget=spec.mu0,
        variant=variant,
        seed=run_seed,
    )


def run_algorithm(spec, algo, observed, omega, truth, run_seed):
    """Run one algorithm on one masked instance, returning its report.

    TNN-ADMM without `spec.lam` runs `lambda_grid` in decreasing order, each
    run warm-started from the previous one's (z, q), and keeps the run with
    the lowest final RSE.  The kept report's `seconds` count from the start
    of the path, so they include the runs before it, and its
    `path_iterations` counts the iterations of every run.  A LAPACK failure
    is raised as `SolverBreakdown`.
    """
    try:
        if algo != "tnn-admm":
            cfg = _solver_config(spec, algo, run_seed)
            return tubal_alt_min(observed, omega, cfg, ground_truth=truth)
        if spec.lam is not None:
            lams = [spec.lam]
        else:
            lams = lambda_grid(observed)[::-1]
        best = state = None
        total = 0
        path_start = time.perf_counter()
        for lam in lams:
            cfg = AdmmConfig(
                lam=float(lam), alpha=spec.alpha, max_iters=spec.admm_iterations
            )
            offset = time.perf_counter() - path_start
            report = admm_complete(
                observed, omega, cfg, ground_truth=truth, start=state
            )
            state = report.admm_state
            total += len(report.rse)
            report.seconds = [offset + s for s in report.seconds]
            if best is None or report.rse[-1] < best.rse[-1]:
                best = report
        best.path_iterations = total
        return best
    except np.linalg.LinAlgError as exc:
        raise SolverBreakdown(f"{algo}: {exc}") from exc


def _instance(spec, rate, rep):
    base = RngSeed(spec.seed, f"harness/rate{rate}/rep{rep}")
    truth, _ = sampling.synth_low_tubal_rank(
        spec.m, spec.n, spec.k, spec.rank, base.derive("truth")
    )
    omega = sample_bernoulli(
        spec.m, spec.n, spec.k, rate, base.derive("omega")
    )
    return truth, project(truth, omega), omega, base


def run_recovery_sweep(spec):
    """Final RSE per (algorithm, rate, repetition) plus per-rate means."""
    tasks = [(rate, rep) for rate in spec.rates for rep in range(spec.repetitions)]

    def one(task):
        rate, rep = task
        truth, observed, omega, base = _instance(spec, rate, rep)
        rows = []
        for algo in spec.algorithms:
            start = time.perf_counter()
            try:
                report = run_algorithm(
                    spec, algo, observed, omega, truth, base.derive(algo)
                )
                final = report.rse[-1]
                elapsed = report.seconds[-1]
                iters = report.path_iterations or len(report.rse)
            except TubalError:
                final = float("nan")
                elapsed = time.perf_counter() - start
                iters = 0
            rows.append(TraceRow(algo, rate, rep, iters, final, elapsed))
        return rows

    workers = _worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(one, tasks))
    else:
        chunks = [one(task) for task in tasks]
    rows = [row for chunk in chunks for row in chunk]

    os.makedirs(spec.out_dir, exist_ok=True)
    write_rows(os.path.join(spec.out_dir, "sweep.csv"), rows)
    means = {}
    for algo in spec.algorithms:
        for rate in spec.rates:
            values = [
                row.rse
                for row in rows
                if row.algorithm == algo and row.rate == rate and not np.isnan(row.rse)
            ]
            # nan, without numpy's empty-mean warning, when every run failed
            means[(algo, rate)] = float(np.mean(values)) if values else float("nan")
    with open(os.path.join(spec.out_dir, "sweep_summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "rate", "mean_rse"])
        for (algo, rate), mean in sorted(means.items()):
            writer.writerow([algo, repr(rate), repr(mean)])
    return rows, means


def run_convergence(spec):
    """Per-iteration trace at a single rate, with fitted slopes."""
    rate = spec.rates[0]
    rows = []
    slopes = {}
    for rep in range(spec.repetitions):
        truth, observed, omega, base = _instance(spec, rate, rep)
        for algo in spec.algorithms:
            report = run_algorithm(
                spec, algo, observed, omega, truth, base.derive(algo)
            )
            for it, (value, secs) in enumerate(zip(report.rse, report.seconds)):
                rows.append(TraceRow(algo, rate, rep, it, value, secs))
            if rep == 0:
                slopes[algo] = (report.slope, report.intercept)
    os.makedirs(spec.out_dir, exist_ok=True)
    write_rows(os.path.join(spec.out_dir, "converge.csv"), rows)
    with open(os.path.join(spec.out_dir, "converge_slopes.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "slope", "intercept"])
        for algo, (slope, intercept) in slopes.items():
            writer.writerow([algo, repr(slope), repr(intercept)])
    return rows, slopes


def run_runtime_scaling(spec):
    """Wall-clock seconds until the RSE threshold, per size and algorithm."""
    rate = spec.rates[0]
    results = []
    for size in spec.sizes:
        sized = replace(spec, m=size, n=size)
        truth, observed, omega, base = _instance(sized, rate, 0)
        for algo in spec.algorithms:
            try:
                report = run_algorithm(
                    sized, algo, observed, omega, truth, base.derive(algo)
                )
            except TubalError:
                results.append((algo, size, float("nan"), False))
                continue
            reached = [
                secs
                for value, secs in zip(report.rse, report.seconds)
                if value <= spec.threshold
            ]
            if reached:
                results.append((algo, size, reached[0], True))
            else:
                results.append((algo, size, report.seconds[-1], False))
    os.makedirs(spec.out_dir, exist_ok=True)
    with open(os.path.join(spec.out_dir, "scale.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "size", "seconds", "reached"])
        for algo, size, secs, reached in results:
            writer.writerow([algo, size, repr(secs), int(reached)])
    return results


def complete_file(input_path, mask_path, rate, algorithm, spec, output_path):
    """Complete a T3B tensor file and write the result plus a JSON report.

    The mask comes from `mask_path` (sample-set text file) when given,
    otherwise a fresh Bernoulli(rate) set is drawn from the spec seed.
    """
    t = read_tensor(input_path)
    m, n, k = t.shape
    if mask_path is not None:
        omega = read_sample_set(mask_path)
    else:
        omega = sample_bernoulli(m, n, k, rate, RngSeed(spec.seed, "complete/omega"))
    observed = project(t, omega)
    sized = replace(spec, m=m, n=n, k=k)
    report = run_algorithm(
        sized, algorithm, observed, omega, None, RngSeed(spec.seed, "complete/run")
    )
    estimate = report.estimate
    write_tensor(output_path, estimate)
    summary = {
        "algorithm": algorithm,
        "observed_entries": omega.size,
        "observed_residual": float(np.linalg.norm(project(estimate, omega) - observed)),
        "observed_relative_residual": trace_error(estimate, observed, omega),
        "iterations": report.path_iterations or len(report.rse),
    }
    with open(output_path + ".report.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary

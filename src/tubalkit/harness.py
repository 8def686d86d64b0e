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
from dataclasses import dataclass, field, replace

import numpy as np

from .altmin import SolverConfig, trace_error, tubal_alt_min
from .errors import (
    BadMagic,
    FileFormatError,
    InsufficientSamples,
    SolverBreakdown,
    TruncatedFile,
    TubalError,
)
from .sampling import RngSeed, check_file_dims, project, read_sample_set, sample_bernoulli
from .tnn_admm import AdmmConfig, admm_complete, lambda_grid
from . import sampling

T3B_MAGIC = b"T3B1"
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
        check_file_dims(m, n, k)
        count = m * n * k
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
    """Experiment settings; the CLI flags set these fields and default to them."""

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
    alpha: float | None = None
    seed: int = 0
    repetitions: int = 1
    out_dir: str = "."
    threshold: float = 1e-5
    sizes: list = field(default_factory=lambda: [25, 50, 75, 100])

    def __post_init__(self):
        if min(self.m, self.n, self.k) < 1:
            raise ValueError(f"size m,n,k = {self.m},{self.n},{self.k} must be >= 1")
        if not 1 <= self.rank <= min(self.m, self.n):
            raise ValueError(f"rank {self.rank} outside [1, {min(self.m, self.n)}]")
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


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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

    TNN-ADMM without `spec.lam` is a continuation along `lambda_grid`: the
    runs go from the largest lambda down, the first from its exact optimum
    and each later one warm-started from the previous one's (z, q), and the
    last run is returned, so no choice reads `truth`.  Its `seconds` count
    from the start of the path, and its `path_iterations` counts the
    iterations of every run.  A LAPACK failure is raised as `SolverBreakdown`.
    """
    try:
        if algo != "tnn-admm":
            cfg = _solver_config(spec, algo, run_seed)
            return tubal_alt_min(observed, omega, cfg, ground_truth=truth)
        if spec.lam is not None:
            lams, state = [spec.lam], None
        elif not np.any(project(observed, omega)):  # every grid lambda would be 0
            raise InsufficientSamples("no nonzero observation to scale the lambda grid")
        else:  # the top lambda's optimum: z = 0 with multiplier q = P_Omega Y
            lams = lambda_grid(observed)[::-1]
            state = (np.zeros_like(observed), observed)
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
        report.path_iterations = total
        return report
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
    rows = []
    for rate in spec.rates:
        for rep in range(spec.repetitions):
            truth, observed, omega, base = _instance(spec, rate, rep)
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

    os.makedirs(spec.out_dir, exist_ok=True)
    write_csv(
        os.path.join(spec.out_dir, "sweep.csv"), CSV_HEADER, [r.as_list() for r in rows]
    )
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
    write_csv(
        os.path.join(spec.out_dir, "sweep_summary.csv"),
        ["algorithm", "rate", "mean_rse"],
        [[algo, repr(rate), repr(mean)] for (algo, rate), mean in sorted(means.items())],
    )
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
    write_csv(
        os.path.join(spec.out_dir, "converge.csv"), CSV_HEADER, [r.as_list() for r in rows]
    )
    write_csv(
        os.path.join(spec.out_dir, "converge_slopes.csv"),
        ["algorithm", "slope", "intercept"],
        [[algo, repr(slope), repr(icpt)] for algo, (slope, icpt) in slopes.items()],
    )
    return rows, slopes


def run_runtime_scaling(spec):
    """Wall-clock seconds until the RSE threshold, per size and algorithm."""
    if any(size < spec.rank for size in spec.sizes):
        raise ValueError(f"sizes {spec.sizes} must all be >= rank {spec.rank}")
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
    write_csv(
        os.path.join(spec.out_dir, "scale.csv"),
        ["algorithm", "size", "seconds", "reached"],
        [[algo, size, repr(secs), int(hit)] for algo, size, secs, hit in results],
    )
    return results


def complete_file(input_path, output_path, mask_path=None, **fields):
    """Complete a T3B tensor file and write the result plus a JSON report.

    `fields` are `ExperimentSpec` fields; m, n and k come from the tensor,
    and the first of the spec's rates and algorithms is used.  The mask
    comes from `mask_path` (sample-set text file) when given, otherwise a
    fresh Bernoulli(rate) set is drawn from the spec seed.
    """
    t = read_tensor(input_path)
    m, n, k = t.shape
    spec = ExperimentSpec(m, n, k, **fields)
    rate, algorithm = spec.rates[0], spec.algorithms[0]
    if mask_path is not None:
        omega = read_sample_set(mask_path)
        if omega.dims != t.shape:
            raise FileFormatError(f"sample set {omega.dims} vs tensor {t.shape}")
    else:
        omega = sample_bernoulli(m, n, k, rate, RngSeed(spec.seed, "complete/omega"))
    observed = project(t, omega)
    report = run_algorithm(
        spec, algorithm, observed, omega, None, RngSeed(spec.seed, "complete/run")
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

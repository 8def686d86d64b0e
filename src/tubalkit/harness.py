"""Benchmark drivers and file I/O.

T3B tensor format: magic "T3B1", three little-endian uint32 dims (m, n, k),
then m*n*k little-endian float64 values with index i fastest, then j, then
kappa (Fortran order of an (m, n, k) array).

Trace CSV schema: "algorithm,rate,rep,iter,rse,seconds".  A failed run
(a `TubalError`) keeps its row in `sweep` and `scale`, with the error or the
seconds written as nan; `converge` and `complete` raise it (CLI exit 4).
"""

import csv
import json
import os
import struct
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .algebra import _check3, frobenius
from .altmin import SolverConfig, check_counts, fit_line, trace_error, tubal_alt_min
from .errors import (
    BadMagic,
    FileFormatError,
    InvalidEntries,
    SolverBreakdown,
    TruncatedFile,
    TubalError,
)
from .sampling import RngSeed, check_file_dims, project, read_sample_set, sample_bernoulli
from .tnn_admm import admm_complete
from . import sampling

T3B_MAGIC = b"T3B1"
CSV_HEADER = ["algorithm", "rate", "rep", "iter", "rse", "seconds"]
ALGORITHMS = ("altmin-full", "altmin-simple", "tnn-admm")


def write_tensor(path, t):
    if np.iscomplexobj(t):  # a float conversion would keep the real part alone
        raise InvalidEntries(f"expected a real tensor, got {np.asarray(t).dtype}")
    t = _check3(np.asarray(t, dtype=float))
    m, n, k = t.shape
    check_file_dims(m, n, k)  # a file that read_tensor refuses is not written
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
    seed: int = 0
    repetitions: int = 1
    out_dir: str = "."
    threshold: float = 1e-5
    sizes: tuple = (25, 50, 75, 100)

    def __post_init__(self):
        check_counts(m=self.m, n=self.n, k=self.k, rank=self.rank,
                     iterations=self.iterations, repetitions=self.repetitions)
        RngSeed(self.seed)  # refuses a seed that is not an integer
        for name in ("rates", "algorithms", "sizes"):
            values = getattr(self, name)
            if len(values) == 0:
                raise ValueError(f"{name} must not be empty")
            if len(set(values)) < len(values):  # a sweep would run and average copies
                raise ValueError(f"{name} must not repeat a value: {values}")
        if self.rank > min(self.m, self.n):
            raise ValueError(f"rank {self.rank} outside [1, {min(self.m, self.n)}]")
        if any(not 0 < rate <= 1 for rate in self.rates):
            raise ValueError("sampling rates must lie in (0, 1]")
        if not 0 < self.threshold < np.inf:
            raise ValueError(f"threshold {self.threshold} must be finite and positive")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}")


class TraceRow(NamedTuple):
    algorithm: str
    rate: float
    rep: int
    iter: int
    rse: float
    seconds: float


def write_csv(out_dir, name, header, rows):
    """Write `header` and `rows`, as they are, to `out_dir`/`name`, creating
    `out_dir`.  `csv` writes a float as its repr and None as an empty field."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_algorithm(spec, algo, observed, omega, truth, run_seed):
    """Run one algorithm on one masked instance, returning its report; a
    LAPACK failure is raised as `SolverBreakdown`."""
    try:
        if algo == "tnn-admm":
            return admm_complete(observed, omega, ground_truth=truth)
        cfg = SolverConfig(
            target_rank=spec.rank,
            iterations=spec.iterations,
            variant="full" if algo == "altmin-full" else "simplified",
            seed=run_seed,
        )
        return tubal_alt_min(observed, omega, cfg, ground_truth=truth)
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


def _runs(cases):
    """For each case (spec, rate, rep), build its instance once and run every
    algorithm of the spec on it.  Yields (spec, rate, rep, algorithm, result,
    wall seconds), where result is the report or the `TubalError` raised."""
    for spec, rate, rep in cases:
        truth, observed, omega, base = _instance(spec, rate, rep)
        for algo in spec.algorithms:
            start = time.perf_counter()
            try:
                result = run_algorithm(
                    spec, algo, observed, omega, truth, base.derive(algo)
                )
            except TubalError as exc:
                result = exc
            yield spec, rate, rep, algo, result, time.perf_counter() - start


def run_recovery_sweep(spec):
    """Final RSE per (algorithm, rate, repetition) plus per-rate means."""
    reps = range(spec.repetitions)
    cases = [(spec, rate, rep) for rate in spec.rates for rep in reps]
    rows = []
    for _, rate, rep, algo, report, wall in _runs(cases):
        if isinstance(report, TubalError):
            iters, final, secs = 0, float("nan"), wall
        else:
            iters = len(report.rse)
            final, secs = report.rse[-1], report.seconds[-1]
        rows.append(TraceRow(algo, rate, rep, iters, final, secs))
    write_csv(spec.out_dir, "sweep.csv", CSV_HEADER, rows)
    finals = {(algo, rate): [] for algo in spec.algorithms for rate in spec.rates}
    for row in rows:
        if not np.isnan(row.rse):
            finals[(row.algorithm, row.rate)].append(row.rse)
    # nan, without numpy's empty-mean warning, when every run failed
    means = {key: float(np.mean(v)) if v else float("nan") for key, v in finals.items()}
    summary = [(*key, mean) for key, mean in sorted(means.items())]
    header = ["algorithm", "rate", "mean_rse"]
    write_csv(spec.out_dir, "sweep_summary.csv", header, summary)
    return rows, means


def run_convergence(spec):
    """Per-iteration trace at a single rate, with fitted slopes."""
    rate = spec.rates[0]
    rows = []
    slopes = {}
    cases = [(spec, rate, rep) for rep in range(spec.repetitions)]
    for _, _, rep, algo, report, _ in _runs(cases):
        if isinstance(report, TubalError):
            raise report
        for it, (value, secs) in enumerate(zip(report.rse, report.seconds)):
            rows.append(TraceRow(algo, rate, rep, it, value, secs))
        if rep == 0:
            slopes[algo] = fit_line(report.rse)
    write_csv(spec.out_dir, "converge.csv", CSV_HEADER, rows)
    # str, so that a trace that cannot be fitted reads None, not csv's empty field
    fits = [(algo, str(slope), str(icpt)) for algo, (slope, icpt) in slopes.items()]
    header = ["algorithm", "slope", "intercept"]
    write_csv(spec.out_dir, "converge_slopes.csv", header, fits)
    return rows, slopes


def run_runtime_scaling(spec):
    """Wall-clock seconds until the RSE threshold, per size and algorithm.

    Each size runs an m = n = size copy of `spec`; all copies are built, and
    so checked, before the first solve.  Rows are (algorithm, size, seconds,
    reached), with reached 0 or 1."""
    rate = spec.rates[0]
    cases = [(replace(spec, m=size, n=size), rate, 0) for size in spec.sizes]
    results = []
    for sized, _, _, algo, report, _ in _runs(cases):
        if isinstance(report, TubalError):
            results.append((algo, sized.m, float("nan"), 0))
            continue
        hits = [s for v, s in zip(report.rse, report.seconds) if v <= spec.threshold]
        secs = hits[0] if hits else report.seconds[-1]
        results.append((algo, sized.m, secs, int(bool(hits))))
    header = ["algorithm", "size", "seconds", "reached"]
    write_csv(spec.out_dir, "scale.csv", header, results)
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
        "observed_residual": frobenius(project(estimate, omega) - observed),
        "observed_relative_residual": trace_error(estimate, observed, omega),
        "iterations": len(report.rse),
    }
    with open(output_path + ".report.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary

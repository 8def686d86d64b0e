"""Alternating-minimization completion solver and its supporting pieces.

`tubal_alt_min` runs one loop for both variants, which differ only in:
  * "simplified" - random orthonormal start, plain tensor least squares on
    all of Omega every round, no re-orthonormalization;
  * "full" - spectral initialization with tube truncation on a split-off
    half of Omega, median-of-splits least squares on a fresh part of the
    other half every round, and coherence-controlled re-orthonormalization
    (smooth QR) after each half-step.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    coherence,
    freq_slices,
    from_freq_slices,
    frobenius_norm,
    spectral_norm,
    tprod,
    ttranspose,
    unit_phase,
    _check3,
)
from .errors import (
    DimensionMismatch,
    EmptySampleSet,
    InsufficientSamples,
    NonPositiveRse,
    TooShort,
    ZeroTruth,
)
from .sampling import RngSeed, check_observed, project, split
from .tls import _Plan, ls_solve_x, ls_solve_y, median_ls, median_ls_x
from .tsvd import top_r_eigenslices

STALL_TOL = 1e-12  # a stall: the error moved less over `stall_window` steps


@dataclass
class SolverConfig:
    target_rank: int
    iterations: int = 10
    epsilon: float = 0.01
    coherence_budget: float = 1e6
    variant: str = "simplified"
    seed: RngSeed = field(default_factory=lambda: RngSeed(0, "altmin"))
    stop_rse: float | None = None
    stall_window: int = 3

    def __post_init__(self):
        if self.target_rank < 1:
            raise ValueError("target_rank must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.coherence_budget < 1:
            raise ValueError("coherence_budget must be >= 1")
        if self.variant not in ("simplified", "full"):
            raise ValueError(f"unknown variant {self.variant!r}")


@dataclass
class SolveReport:
    """Per-iteration error/time trace plus the fitted convergence line."""

    rse: list
    seconds: list
    slope: float | None
    intercept: float | None
    x: np.ndarray | None
    y: np.ndarray | None
    rse_is_training: bool = False
    estimate: np.ndarray | None = None
    objective: list | None = None
    feasibility_gap: float | None = None
    admm_state: tuple | None = None  # final (z, q), to warm-start the next run
    path_iterations: int | None = None  # ADMM iterations of the whole lambda path


def rse(estimate, truth):
    """Relative recovery error ||estimate - truth||_F / ||truth||_F."""
    estimate = _check3(estimate)
    truth = _check3(truth)
    if estimate.shape != truth.shape:
        raise DimensionMismatch(f"{estimate.shape} vs {truth.shape}")
    denom = np.linalg.norm(truth)
    if denom == 0:
        raise ZeroTruth("truth tensor has zero norm")
    return float(np.linalg.norm(estimate - truth) / denom)


def fit_convergence(trace):
    """Least-squares line through log10(RSE) vs iteration index."""
    trace = np.asarray(trace, dtype=float)
    if trace.size < 2:
        raise TooShort("need at least two trace points")
    if np.any(trace <= 0):
        raise NonPositiveRse("all trace values must be positive")
    slope, intercept = np.polyfit(np.arange(trace.size), np.log10(trace), 1)
    return float(slope), float(intercept)


def fit_line(trace):
    """fit_convergence of a trace, or (None, None) when the trace is shorter
    than two points or holds a value <= 0."""
    if len(trace) >= 2 and all(v > 0 for v in trace):
        return fit_convergence(trace)
    return None, None


def trace_error(estimate, observed, omega, ground_truth=None):
    """RSE against ground_truth when given; otherwise the training residual
    ||P_Omega(estimate) - observed|| / ||observed||, 0 when nothing is
    observed."""
    if ground_truth is not None:
        return rse(estimate, ground_truth)
    denom = np.linalg.norm(observed)
    resid = np.linalg.norm(project(estimate, omega) - observed)
    return float(resid / denom) if denom > 0 else 0.0


def qr_tensor(y):
    """Thin t-product QR: y = q * r with q orthonormal.

    One batched QR of the half-spectrum frequency slices; the phase of each
    R diagonal is fixed real positive so the factorization is deterministic.
    """
    y = _check3(y)
    k = y.shape[2]
    qf, rf = np.linalg.qr(freq_slices(y))
    phase = unit_phase(np.diagonal(rf, axis1=1, axis2=2))[:, None, :]
    qf = qf * phase
    rf = rf * phase.conj().swapaxes(1, 2)
    return from_freq_slices(qf, k), from_freq_slices(rf, k)


def truncate_tubes(z, cap):
    """Rescale every tube with Frobenius norm above `cap` down to `cap`."""
    z = _check3(z)
    norms = np.linalg.norm(z, axis=2)
    scale = np.ones_like(norms)
    over = norms > cap
    scale[over] = cap / norms[over]
    return z * scale[:, :, None]


def initialize(observed, omega, r, mu0, seed):
    """Spectral starting point: top-r eigenslices of the rescaled observed
    tensor, spread by a random orthonormal mixer, tube-truncated, then
    re-orthonormalized."""
    observed = _check3(observed)
    if omega.size == 0:
        raise EmptySampleSet("cannot initialize from an empty sample set")
    m, n, k = observed.shape
    p_hat = omega.size / (m * n * k)
    basis = top_r_eigenslices(observed / p_hat, r)
    rng = seed.derive("init").rng()
    mixer, _ = qr_tensor(rng.standard_normal((r, r, k)))
    z = tprod(basis, mixer)
    rows = basis.shape[0]
    cap = math.sqrt(8 * mu0 * math.log(rows) / rows) if rows > 1 else float("inf")
    z = truncate_tubes(z, cap)
    q, _ = qr_tensor(z)
    return q


def smooth_qr(y, eps, mu, seed):
    """Orthonormalize with escalating Gaussian perturbation until the
    coherence budget `mu` is met or sigma exceeds the spectral norm of y.

    Returns (z, sigma_used); sigma_used is 0 when no perturbation was needed.
    """
    y = _check3(y)
    n = y.shape[0]
    z, _ = qr_tensor(y)
    norm_y = spectral_norm(y)
    sigma_used = 0.0
    if norm_y == 0:
        return z, sigma_used
    sigma = eps * norm_y / n
    rng = seed.derive("smoothqr").rng()
    while coherence(z) > mu and sigma <= norm_y:
        noise = rng.normal(0.0, sigma / math.sqrt(n), size=y.shape)
        z, _ = qr_tensor(y + noise)
        sigma_used = sigma
        sigma *= 2
    return z, sigma_used


def tubal_alt_min(observed, omega, cfg, ground_truth=None):
    """Run the configured solver variant and return its SolveReport.

    One loop serves both variants: per part of the samples, solve for Y,
    re-orthonormalize it, solve for X, record the error of x_raw * y^T,
    re-orthonormalize X, then check `cfg.stop_rse` and the stall rule.
    The variant picks, before the loop, the start (random orthonormal X, or
    `initialize` on half of Omega), the parts (Omega every round, or
    disjoint parts of the other half), the half-steps (`ls_solve_y`/`_x`,
    or `median_ls`/`median_ls_x`) and the re-orthonormalization (none, or
    `smooth_qr`).  The report's x and y give the estimate as x * y^T; for
    the full variant x is the last X before smooth QR.
    """
    observed = check_observed(observed, omega)
    m, n, k = observed.shape
    r = cfg.target_rank
    start = time.perf_counter()

    if cfg.variant == "simplified":
        x, _ = qr_tensor(cfg.seed.derive("x0").rng().standard_normal((m, r, k)))
        parts = [omega] * cfg.iterations
        # Omega is the same in every half-step: one least-squares plan each
        y_plan, x_plan = (_Plan(observed, omega, r * k, up) for up in (True, False))

        def solve_y(part, x, seed):
            return ls_solve_y(observed, part, x, plan=y_plan)

        def solve_x(part, y, seed):
            return ls_solve_x(observed, part, y, plan=x_plan)

        def reorth(z, seed):
            return z

    else:
        omega0, omega_plus = split(omega, 2, cfg.seed.derive("split-init"))
        parts = split(omega_plus, cfg.iterations, cfg.seed.derive("split-iters"))
        if omega0.size == 0 or any(part.size == 0 for part in parts):
            raise InsufficientSamples("a split subset is empty")
        x = initialize(
            project(observed, omega0), omega0, r, cfg.coherence_budget, cfg.seed
        )

        def solve_y(part, x, seed):
            return median_ls(observed, part, x, seed)

        def solve_x(part, y, seed):
            return median_ls_x(observed, part, y, seed)

        def reorth(z, seed):
            return smooth_qr(z, cfg.epsilon, cfg.coherence_budget, seed)[0]

    rse_trace = []
    seconds = []
    for step, part in enumerate(parts):
        seed = cfg.seed.derive(f"iter{step}")
        y = reorth(solve_y(part, x, seed.derive("y")), seed.derive("qy"))
        x_raw = solve_x(part, y, seed.derive("x"))
        estimate = tprod(x_raw, ttranspose(y))
        value = trace_error(estimate, observed, omega, ground_truth)
        rse_trace.append(value)
        seconds.append(time.perf_counter() - start)
        x = reorth(x_raw, seed.derive("qx"))
        if cfg.stop_rse is not None and value <= cfg.stop_rse:
            break
        window = cfg.stall_window
        if len(rse_trace) > window and abs(rse_trace[-1 - window] - value) < STALL_TOL:
            break

    slope, intercept = fit_line(rse_trace)
    return SolveReport(
        rse=rse_trace,
        seconds=seconds,
        slope=slope,
        intercept=intercept,
        x=x_raw,
        y=y,
        rse_is_training=ground_truth is None,
        estimate=estimate,
    )


def noisy_subspace_iteration(t, x0, iterations, noise_gen=None, seed=None):
    """Power-method harness: z = t * x + noise, x = orthonormalize(z).

    `t` must be a symmetric-square tensor (symmetric frontal slices).
    Returns the largest-principal-angle sine against the top-r eigenslices
    of t after every step.
    """
    t = _check3(t)
    x0 = _check3(x0)
    n, n2, k = t.shape
    if n != n2 or x0.shape[0] != n or x0.shape[2] != k:
        raise DimensionMismatch(f"tensor {t.shape} vs iterate {x0.shape}")
    if not np.allclose(t, t.transpose(1, 0, 2), atol=1e-10 * max(1, frobenius_norm(t))):
        raise DimensionMismatch("tensor frontal slices must be symmetric")
    r = x0.shape[1]
    uf = freq_slices(top_r_eigenslices(t, r))
    rng = (seed or RngSeed(0, "nsi")).rng()

    def angle(x):
        xf = freq_slices(x)
        resid = xf - uf @ (uf.conj().swapaxes(1, 2) @ xf)
        return float(np.linalg.svd(resid, compute_uv=False).max(initial=0.0))

    x = x0
    trace = []
    for step in range(iterations):
        z = tprod(t, x)
        if noise_gen is not None:
            noise = noise_gen(step, z.shape, rng)
            if noise is not None:
                z = z + noise
        x, _ = qr_tensor(z)
        trace.append(angle(x))
    return trace

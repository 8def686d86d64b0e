"""Alternating-minimization completion solver and its supporting pieces.

Two variants:
  * "simplified" - random orthonormal start, then plain alternating tensor
    least squares on the full observation set each round;
  * "full" - sample splitting, spectral initialization with tube
    truncation, median-of-splits least squares, and coherence-controlled
    re-orthonormalization (smooth QR) after each half-step.
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
from .tls import LsOptions, ls_solve_x, ls_solve_y, median_ls, median_ls_x
from .tsvd import top_r_eigenslices


@dataclass
class SolverConfig:
    target_rank: int
    iterations: int = 10
    epsilon: float = 0.01
    coherence_budget: float = 1e6
    variant: str = "simplified"
    ls: LsOptions = field(default_factory=LsOptions)
    seed: RngSeed = field(default_factory=lambda: RngSeed(0, "altmin"))
    stop_rse: float | None = None
    stall_window: int = 3
    stall_tol: float = 1e-12

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


def _report_rse(x, y, ground_truth, observed, omega):
    estimate = tprod(x, ttranspose(y))
    if ground_truth is not None:
        return rse(estimate, ground_truth), estimate
    resid = np.linalg.norm(project(estimate, omega) - observed)
    denom = np.linalg.norm(observed)
    return float(resid / denom) if denom > 0 else 0.0, estimate


def _stalled(trace, window, tol):
    if len(trace) <= window:
        return False
    return abs(trace[-1 - window] - trace[-1]) < tol


def tubal_alt_min(observed, omega, cfg, ground_truth=None):
    """Run the configured solver variant and return its SolveReport."""
    observed = check_observed(observed, omega)
    m, n, k = observed.shape
    r = cfg.target_rank
    rse_trace = []
    seconds = []
    start = time.perf_counter()

    if cfg.variant == "simplified":
        rng = cfg.seed.derive("x0").rng()
        x, _ = qr_tensor(rng.standard_normal((m, r, k)))
        y = None
        for _ in range(cfg.iterations):
            y = ls_solve_y(observed, omega, x, cfg.ls)
            x = ls_solve_x(observed, omega, y, cfg.ls)
            value, _ = _report_rse(x, y, ground_truth, observed, omega)
            rse_trace.append(value)
            seconds.append(time.perf_counter() - start)
            if cfg.stop_rse is not None and value <= cfg.stop_rse:
                break
            if _stalled(rse_trace, cfg.stall_window, cfg.stall_tol):
                break
        final_x, final_y = x, y
    else:
        omega0, omega_plus = split(omega, 2, cfg.seed.derive("split-init"))
        parts = split(omega_plus, cfg.iterations, cfg.seed.derive("split-iters"))
        if omega0.size == 0 or any(part.size == 0 for part in parts):
            raise InsufficientSamples("a split subset is empty")
        x = initialize(
            project(observed, omega0), omega0, r, cfg.coherence_budget, cfg.seed
        )
        final_x = x
        final_y = None
        for step, part in enumerate(parts):
            sub_observed = project(observed, part)
            seed_step = cfg.seed.derive(f"iter{step}")
            y_raw = median_ls(
                sub_observed, part, x, seed_step.derive("y"), opts=cfg.ls
            )
            y, _ = smooth_qr(
                y_raw, cfg.epsilon, cfg.coherence_budget, seed_step.derive("qy")
            )
            x_raw = median_ls_x(
                sub_observed, part, y, seed_step.derive("x"), opts=cfg.ls
            )
            value, _ = _report_rse(x_raw, y, ground_truth, observed, omega)
            rse_trace.append(value)
            seconds.append(time.perf_counter() - start)
            final_x, final_y = x_raw, y
            x, _ = smooth_qr(
                x_raw, cfg.epsilon, cfg.coherence_budget, seed_step.derive("qx")
            )
            if cfg.stop_rse is not None and value <= cfg.stop_rse:
                break
            if _stalled(rse_trace, cfg.stall_window, cfg.stall_tol):
                break

    slope = intercept = None
    positive = [v for v in rse_trace if v > 0]
    if len(rse_trace) >= 2 and len(positive) == len(rse_trace):
        slope, intercept = fit_convergence(rse_trace)
    estimate = None
    if final_y is not None:
        estimate = tprod(final_x, ttranspose(final_y))
    return SolveReport(
        rse=rse_trace,
        seconds=seconds,
        slope=slope,
        intercept=intercept,
        x=final_x,
        y=final_y,
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

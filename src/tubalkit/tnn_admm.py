"""Convex completion baseline: tensor-nuclear-norm minimization by ADMM.

Minimizes 0.5 * ||P_Omega(Y - X)||_F^2 + lambda * TNN(Z) subject to X = Z,
where TNN is the nuclear norm of the block-diagonal frequency form.  The
X subproblem is separable per entry and solved in closed form; the Z
subproblem is singular value soft-thresholding per frequency slice.  The
dual Q is the unscaled multiplier of X = Z, so the fixed point does not
move with the penalty alpha.

A run stops on its primal and dual residuals (Boyd et al. 2011), scaled by
||P_Omega Y|| rather than by ||X|| or ||Z||, so the run at lambda =
spectral norm, whose optimum is Z = 0, stops too.  A run can start from an
earlier run's final (Z, Q), which warm-starts a decreasing lambda path.
"""

import time
from dataclasses import dataclass

import numpy as np

from .algebra import (
    freq_slices,
    freq_weights,
    from_freq_slices,
    spectral_norm,
    _check3,
)
from .altmin import SolveReport, fit_line, trace_error
from .errors import DimensionMismatch, InsufficientSamples
from .sampling import check_observed


@dataclass
class AdmmConfig:
    lam: float
    alpha: float = 1.0
    max_iters: int = 500
    tol: float = 1e-6

    def __post_init__(self):
        if self.lam <= 0 or self.alpha <= 0:
            raise ValueError("lam and alpha must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


def tnn(t):
    """Tensor nuclear norm: sum of all frequency-slice singular values."""
    t = _check3(t)
    sv = np.linalg.svd(freq_slices(t), compute_uv=False)
    return float(freq_weights(t.shape[2]) @ sv.sum(axis=1))


def svt(t, eps):
    """Soft-threshold the singular values of every frequency slice by eps.

    Returns (z, tnn_z): the thresholded tensor and its tensor nuclear norm,
    summed from the thresholded singular values, so callers that need both
    pay for one batched SVD.
    """
    if eps < 0:
        raise ValueError("threshold must be nonnegative")
    t = _check3(t)
    k = t.shape[2]
    u, s, vh = np.linalg.svd(freq_slices(t), full_matrices=False)
    s = np.maximum(s - eps, 0.0)
    z = from_freq_slices((u * s[:, None, :]) @ vh, k)
    return z, float(freq_weights(k) @ s.sum(axis=1))


def lambda_grid(observed, points=5):
    """Geometric grid of candidate weights, [1e-3, 1] x spectral norm."""
    return np.geomspace(1e-3, 1.0, points) * spectral_norm(observed)


def admm_complete(observed, omega, cfg, ground_truth=None, start=None):
    """Run the ADMM recursion until both residuals meet cfg.tol or max_iters.

    The primal residual ||x - z|| and the dual residual alpha*||z - z_prev||
    are compared with cfg.tol * ||P_Omega Y||.  `report.objective` records
    the augmented Lagrangian per iteration but does not end the loop.
    `start` is an optional (z, q) pair, e.g. the `admm_state` of a run at a
    larger lambda; by default both start at zero.  The report's
    `admm_state` holds this run's final (z, q).
    """
    observed = check_observed(observed, omega)
    if omega.size == 0:
        raise InsufficientSamples("empty observation set")
    mask = omega.mask
    alpha = cfg.alpha
    if start is None:
        z = np.zeros_like(observed)
        q = np.zeros_like(observed)
    else:
        z, q = (np.asarray(a, dtype=float) for a in start)
        if z.shape != observed.shape or q.shape != observed.shape:
            raise DimensionMismatch(f"start {z.shape}/{q.shape} vs {observed.shape}")
    stop = cfg.tol * np.linalg.norm(observed)
    rse_trace = []
    seconds = []
    t0 = time.perf_counter()
    objective_trace = []
    for _ in range(cfg.max_iters):
        x = np.where(
            mask,
            (observed + (alpha * z - q)) / (1.0 + alpha),
            z - q / alpha,
        )
        z_prev = z
        z, tnn_z = svt(x + q / alpha, cfg.lam / alpha)
        gap = x - z
        primal = np.linalg.norm(gap)
        q = q + alpha * gap
        obj = (
            0.5 * np.linalg.norm((observed - x) * mask) ** 2
            + cfg.lam * tnn_z
            + float(np.sum(gap * q))
            + 0.5 * alpha * primal**2
        )
        objective_trace.append(obj)
        rse_trace.append(trace_error(x, observed, omega, ground_truth))
        seconds.append(time.perf_counter() - t0)
        if primal <= stop and alpha * np.linalg.norm(z - z_prev) <= stop:
            break

    slope, intercept = fit_line(rse_trace)
    return SolveReport(
        rse=rse_trace,
        seconds=seconds,
        slope=slope,
        intercept=intercept,
        x=None,
        y=None,
        rse_is_training=ground_truth is None,
        estimate=x,
        objective=objective_trace,
        feasibility_gap=float(primal),
        admm_state=(z, q),
    )

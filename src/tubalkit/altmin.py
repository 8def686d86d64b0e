"""Alternating-minimization completion solver and its supporting pieces.

`tubal_alt_min` runs one loop; each round calls its variant's half-steps:
  * "simplified" - spectral start on all of Omega, then tensor least squares
    on all of Omega (`ls_solve_y`/`ls_solve_x` through two plans built once,
    the X plan reading the Y plan's mask spectrum), the next round starting
    from each round's X Anderson-mixed with the rounds before it;
  * "full" - spectral start on a split-off half of Omega, then `median_ls`/
    `median_ls_x` on a fresh part of the other half every round, each
    followed by coherence-controlled re-orthonormalization (`smooth_qr`).
"""

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    coherence,
    freq_slices,
    frobenius,
    from_freq_slices,
    spectral_norm,
    tprod,
    ttranspose,
    unit_phase,
    _check3,
)
from .errors import (
    DimensionMismatch,
    InsufficientSamples,
    RankOutOfRange,
    ZeroTruth,
)
from .sampling import RngSeed, check_observed, project, split
from .tls import _Plan, ls_solve_x, ls_solve_y, median_ls, median_ls_x

STALL_TOL = 1e-12  # a stall: the error moved less over `stall_window` steps
# The full variant's smooth-QR step eps and coherence budget mu0.  Coherence
# is at most rows/r, so smooth QR perturbs no factor with fewer than 1e6*r rows.
SMOOTH_QR_EPS = 0.01
COHERENCE_BUDGET = 1e6
# initialize's range finder: extra test columns beyond r, and power steps
RANGE_OVERSAMPLE = 4
RANGE_STEPS = 2
# simplified AltMin mixes each round's factor with this many rounds before it
ANDERSON_DEPTH = 3


def check_counts(**counts):
    """Refuse, with ValueError, a count that is not an integer (bool too) or below 1."""
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} {value!r} must be an integer")
        if value < 1:
            raise ValueError(f"{name} {value} must be >= 1")


@dataclass
class SolverConfig:
    target_rank: int
    iterations: int = 10
    variant: str = "simplified"
    seed: RngSeed = field(default_factory=lambda: RngSeed(0, "altmin"))
    stop_rse: float | None = None
    stall_window: int = 3

    def __post_init__(self):
        check_counts(target_rank=self.target_rank, iterations=self.iterations,
                     stall_window=self.stall_window)
        if self.stop_rse is not None and not self.stop_rse >= 0:  # NaN included
            raise ValueError(f"stop_rse {self.stop_rse} must be None or >= 0")
        if self.variant not in ("simplified", "full"):
            raise ValueError(f"unknown variant {self.variant!r}")


@dataclass
class SolveReport:
    """Per-iteration error/time trace, with the estimate."""

    rse: list
    seconds: list
    estimate: np.ndarray


def rse(estimate, truth):
    """Relative recovery error ||estimate - truth||_F / ||truth||_F."""
    estimate = _check3(estimate)
    truth = _check3(truth)
    if estimate.shape != truth.shape:
        raise DimensionMismatch(f"{estimate.shape} vs {truth.shape}")
    denom = frobenius(truth)
    if denom == 0:
        raise ZeroTruth("truth tensor has zero norm")
    return frobenius(estimate - truth) / denom


def fit_line(trace):
    """Least-squares line (slope, intercept) through log10(RSE) vs iteration
    index, or (None, None) unless the trace holds at least two values, all
    finite and positive."""
    trace = np.asarray(trace, dtype=float)
    if trace.size < 2 or not np.all(np.isfinite(trace) & (trace > 0)):
        return None, None
    slope, intercept = np.polyfit(np.arange(trace.size), np.log10(trace), 1)
    return float(slope), float(intercept)


def trace_error(estimate, observed, omega, ground_truth=None):
    """RSE against ground_truth when given; otherwise the training residual
    ||P_Omega(estimate) - observed|| / ||observed||, 0 when nothing is
    observed."""
    if ground_truth is not None:
        return rse(estimate, ground_truth)
    denom = frobenius(observed)
    resid = frobenius(project(estimate, omega) - observed)
    return resid / denom if denom > 0 else 0.0


def qr_tensor(y):
    """Orthonormal factor q of the thin t-product QR y = q * r.

    One batched QR of the half-spectrum frequency slices; the phase of each
    R diagonal is fixed real positive so the factorization is deterministic.
    """
    y = _check3(y)
    qf, rf = np.linalg.qr(freq_slices(y))
    phase = unit_phase(np.diagonal(rf, axis1=1, axis2=2))[:, None, :]
    return from_freq_slices(qf * phase, y.shape[2])


def top_r_eigenslices(t, r):
    """First r lateral slices of the left t-SVD factor (orthonormal).

    One batched SVD of the half-spectrum frequency slices; the
    largest-magnitude entry of each kept left singular vector is made real
    positive so the result is deterministic.
    """
    t = _check3(t)
    if not 1 <= r <= min(t.shape[0], t.shape[1]):
        raise RankOutOfRange(f"rank {r} outside [1, {min(t.shape[:2])}]")
    u = np.linalg.svd(freq_slices(t), full_matrices=False)[0][:, :, :r]
    idx = np.argmax(np.abs(u), axis=1)[:, None, :]
    phase = unit_phase(np.take_along_axis(u, idx, axis=1))
    return from_freq_slices(u * phase.conj(), t.shape[2])


def initialize(observed, omega, r, seed):
    """Spectral starting point: the top-r eigenslices of the observed
    tensor, by a randomized range finder (Halko, Martinsson & Tropp 2011).
    One Gaussian test matrix of r + RANGE_OVERSAMPLE columns, shared by all
    frequency slices, then RANGE_STEPS power steps; the exact top r
    eigenslices of the observed tensor projected on that range, lifted back.
    The result is orthonormal.  Entries of `observed` outside omega are
    ignored."""
    observed = check_observed(observed, omega)
    n, k = observed.shape[1:]
    f = freq_slices(observed)
    fh = f.conj().swapaxes(1, 2)
    test = seed.derive("init").rng().standard_normal((n, min(r + RANGE_OVERSAMPLE, n)))
    basis = np.linalg.qr(f @ test)[0]
    for _ in range(RANGE_STEPS):
        basis = np.linalg.qr(f @ (fh @ basis))[0]
    small = from_freq_slices(basis.conj().swapaxes(1, 2) @ f, k)
    return from_freq_slices(basis @ freq_slices(top_r_eigenslices(small, r)), k)


def smooth_qr(y, seed):
    """Orthonormalize with escalating Gaussian perturbation, from
    SMOOTH_QR_EPS * ||y|| / n up, until the coherence is at most
    COHERENCE_BUDGET or sigma exceeds the spectral norm of y.  Coherence is at
    most n / r: with n <= COHERENCE_BUDGET * r, qr_tensor(y) is returned as is."""
    y = _check3(y)
    n, r = y.shape[:2]
    z = qr_tensor(y)
    if n <= COHERENCE_BUDGET * r or coherence(z) <= COHERENCE_BUDGET:
        return z
    norm_y = spectral_norm(y)
    sigma = SMOOTH_QR_EPS * norm_y / n
    rng = seed.derive("smoothqr").rng()
    while 0 < sigma <= norm_y and coherence(z) > COHERENCE_BUDGET:  # sigma = 0 for y = 0
        noise = rng.normal(0.0, sigma / math.sqrt(n), size=y.shape)
        z = qr_tensor(y + noise)
        sigma *= 2
    return z


class _Anderson:
    """Type-II Anderson mixing (Walker & Ni 2011) of a fixed-point iteration
    x <- g(x), over the last `depth` rounds before the current one.

    Round i gives the raw g_i = g(x_i) and the step f_i = g_i - x_i.  With
    dF and dG the differences of successive steps and raws held, the next
    iterate is g_k - dG gamma, for gamma = argmin ||f_k - dF gamma||.  A
    round whose step is longer than the last one clears the history and
    continues from g_k.  The history is allocated once, and every inner
    product is an einsum, so the result does not depend on the BLAS thread
    count."""

    def __init__(self, shape, depth):
        self.raws = np.empty((depth + 1, *shape))
        self.steps = np.empty((depth + 1, *shape))
        self.held, self.last = 0, math.inf

    def __call__(self, x, raw):
        """The next iterate after the round that took x to raw."""
        step = raw - x
        norm = frobenius(step)
        if norm > self.last:
            self.held = 0
        self.last = norm
        if self.held == len(self.raws):  # drop the oldest round
            self.raws[:-1], self.steps[:-1] = self.raws[1:], self.steps[1:]
            self.held -= 1
        self.raws[self.held], self.steps[self.held] = raw, step
        self.held += 1
        if self.held == 1:
            return raw
        d_steps = np.diff(self.steps[: self.held], axis=0).reshape(self.held - 1, -1)
        gram = np.einsum("in,jn->ij", d_steps, d_steps)
        gamma = np.linalg.lstsq(gram, np.einsum("in,n->i", d_steps, step.ravel()))[0]
        d_raws = np.diff(self.raws[: self.held], axis=0)
        return raw - np.einsum("i,i...->...", gamma, d_raws)


def tubal_alt_min(observed, omega, cfg, ground_truth=None):
    """Run the configured solver variant and return its SolveReport.

    One loop serves both variants: per part of the samples, solve for Y,
    solve for X, record the error of x_raw * y^T, then check `cfg.stop_rse`
    and the stall rule.  Before the loop the variant picks its start
    (`initialize` on all of Omega, or on half of it) and its parts (Omega
    every round, or disjoint parts of the other half).  A simplified round
    calls `ls_solve_y`/`ls_solve_x` with two plans built once, and starts
    the next round from x_raw mixed with up to ANDERSON_DEPTH rounds before
    it (`_Anderson`, which reads only the factors); a full round calls
    `median_ls`/`median_ls_x` on the round's seed streams, each followed by
    `smooth_qr`, X's after the error is recorded.  A round maps x * G to
    F(x) * G for any invertible tubal r x r G, so mixing factors needs no
    normalization.
    """
    observed = check_observed(observed, omega)
    m, n, k = observed.shape
    r = cfg.target_rank
    if r > min(m, n):
        raise RankOutOfRange(f"rank {r} outside [1, {min(m, n)}]")
    start = time.perf_counter()

    full = cfg.variant == "full"
    if full:
        omega0, omega_plus = split(omega, 2, cfg.seed.derive("split-init"))
        parts = split(omega_plus, cfg.iterations, cfg.seed.derive("split-iters"))
        if omega0.size == 0 or any(part.size == 0 for part in parts):
            raise InsufficientSamples("a split subset is empty")
        x = initialize(observed, omega0, r, cfg.seed)
    else:
        # allocated once, before the plans: the lowest peak RSS measured
        mix = _Anderson((m, r, k), ANDERSON_DEPTH)
        x = initialize(observed, omega, r, cfg.seed)
        parts = [omega] * cfg.iterations
        # Omega is the same in every half-step: one least-squares plan each,
        # the X plan reading the Y plan's mask spectrum
        y_plan = _Plan(observed, omega, r * k, True)
        x_plan = _Plan(observed, omega, r * k, False, partner=y_plan)

    rse_trace = []
    seconds = []
    for step, part in enumerate(parts):
        estimate = None  # the last round's, dead through the half-steps
        if full:
            seed = cfg.seed.derive(f"iter{step}")
            y = smooth_qr(median_ls(observed, part, x, seed.derive("y")), seed.derive("qy"))
            x_raw = median_ls_x(observed, part, y, seed.derive("x"))
        else:
            y = ls_solve_y(observed, part, x, plan=y_plan)
            x_raw = ls_solve_x(observed, part, y, plan=x_plan)
        estimate = tprod(x_raw, ttranspose(y))
        value = trace_error(estimate, observed, omega, ground_truth)
        rse_trace.append(value)
        seconds.append(time.perf_counter() - start)
        x = smooth_qr(x_raw, seed.derive("qx")) if full else mix(x, x_raw)
        if cfg.stop_rse is not None and value <= cfg.stop_rse:
            break
        window = cfg.stall_window
        if len(rse_trace) > window and abs(rse_trace[-1 - window] - value) < STALL_TOL:
            break

    return SolveReport(rse=rse_trace, seconds=seconds, estimate=estimate)

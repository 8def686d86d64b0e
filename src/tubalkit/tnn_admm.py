"""Convex completion baseline: tensor-nuclear-norm minimization by ADMM.

Minimizes 0.5 * ||P_Omega(Y - X)||_F^2 + lambda * TNN(Z) subject to X = Z,
where TNN is the nuclear norm of the block-diagonal frequency form.  The
X step is X = W + weight * (P_Omega Y - W), W = Z - Q/alpha, in closed
form; weight = mask / (1 + alpha) is the only alpha-dependent array it keeps
across iterations, so a per-iteration alpha must rebuild it.  The Z step is
singular value soft-thresholding per frequency slice.  The dual Q is the
unscaled multiplier of X = Z, so the penalty alpha (default: the sampling
rate) moves only the speed, not the fixed point.

A run stops on its primal and dual residuals (Boyd et al. 2011), scaled by
||P_Omega Y|| rather than by ||X|| or ||Z||, so the run at lambda =
spectral norm, whose optimum is Z = 0, stops too.  A run can start from an
earlier run's final (Z, Q), which warm-starts a decreasing lambda path.

Within a run, each `svt` call is warm-started from the previous call's
leading right singular vectors (Yao & Kwok 2015): a few power steps and one
Rayleigh-Ritz step replace the full SVD when they provably give the same
thresholded slices, checked on every call; the full SVD is the fallback.
The check that the discarded values are at most the threshold is chained
by Weyl's inequality: per slice, a bound on the previous call's values past
its kept ones, plus how far the slice moved, plus twice the kept Ritz
triplets' residual norm (at most sqrt(r) * RITZ_TOL * s_1 each time) must
stay within the threshold, and no slice may keep fewer values than before.
Otherwise a power bound on the rest decides and restarts the chain.
"""

import time

import numpy as np

from .algebra import (
    freq_slices,
    freq_weights,
    frobenius,
    from_freq_slices,
    spectral_norm,
    _check3,
)
from .altmin import SolveReport, trace_error
from .errors import DimensionMismatch, InvalidEntries
from .sampling import check_observed

GRID_POINTS = 5  # candidate weights in lambda_grid
MAX_ITERS = 500  # most ADMM iterations of one run
TOL = 1e-6  # stop when both residuals are within TOL * ||P_Omega Y||
OVERSAMPLE = 4  # warm-basis columns beyond the kept rank
MAX_BLOCK = 8  # widest warm basis; wider warm attempts cost more than an SVD
POWER_STEPS = 6  # most power steps one warm svt call takes
RITZ_TOL = 1e-13  # kept Ritz triplets' residual, relative to their slice's top value


def tnn(t):
    """Tensor nuclear norm: sum of all frequency-slice singular values."""
    t = _check3(t)
    sv = np.linalg.svd(freq_slices(t), compute_uv=False)
    return float(freq_weights(t.shape[2]) @ sv.sum(axis=1))


def _ct(a):
    """Conjugate transpose of every matrix in a stack."""
    return a.conj().swapaxes(1, 2)


def _ritz(f, eps, q, steps, chain):
    """Ritz triplets (u, s, vh) of the slices f on the block q if they pass
    svt's checks, else None; the power steps the next call starts with; and
    the per-slice tail bounds that passed, for the next call's chain.
    Each failed residual check adds a step, up to POWER_STEPS."""
    for step in range(POWER_STEPS + 1):
        b = f @ q
        if step < steps:
            q = np.linalg.qr(_ct(_ct(b) @ f))[0]
            continue
        ub, s, wh = np.linalg.svd(b, full_matrices=False)
        vh = wh @ _ct(q)  # f @ vh^H == ub * s
        kept = s > eps
        r = int(kept.sum(axis=1).max())
        if r + OVERSAMPLE > s.shape[1]:
            break
        g = _ct(_ct(ub) @ f)  # == vh^H * s for exact triplets; spans f^H f q
        miss = np.linalg.norm(g - _ct(vh) * s[:, None], axis=1)
        err = np.divide(miss, s[:, :1], out=np.zeros_like(s), where=kept).max()
        if err <= RITZ_TOL:
            tail = _chained_tail(f, eps, kept, miss, chain)
            if tail is None:
                tail = _power_tail(f, ub, np.where(kept, s, 0), vh, r)
            return ((ub, s, vh), step, tail) if tail.max() <= eps else (None, step, None)
        q = np.linalg.qr(g * s[:, None])[0]
    return None, steps, None


def _chained_tail(f, eps, kept, miss, chain):
    """Per-slice bounds on the values past the kept ones, carried by Weyl
    from the previous call's chain (f_prev, kept counts c, bounds B with
    s_{c+1}(f_prev) <= B), or None when they cannot certify this call: a
    slice keeps fewer values than c, or B + ||f - f_prev||_F + 2||E|| > eps,
    E being the right residuals of its kept Ritz triplets."""
    f_prev, counts, bound = chain
    if np.any(kept.sum(axis=1) < counts):
        return None
    # one slice at a time: a stack-sized difference churns the heap
    bound = bound + np.array([np.linalg.norm(a - b) for a, b in zip(f, f_prev)])
    residual = np.sqrt(np.sum(np.where(kept, miss, 0) ** 2, axis=1))
    return bound if np.all(bound + 2 * residual <= eps) else None


def _power_tail(f, ub, s, vh, r):
    """Per-slice sigma_max(R) <= ||(R^H R)^4||_F^(1/8), R being f minus the
    rank-r part ub * s @ vh."""
    rest = (ub[:, :, :r] * s[:, None, :r]) @ vh[:, :r]
    np.subtract(f, rest, out=rest)
    scale = frobenius(rest) or 1.0
    rest *= 1 / scale  # keeps (R^H R)^4 finite
    gram = _ct(rest) @ rest
    square = gram @ gram
    # one norm per slice: norm(axis=(1, 2)) makes stack-sized temporaries
    tops = map(np.linalg.norm, np.matmul(square, square, out=gram))
    return np.array([scale * top**0.125 for top in tops])


def svt(t, eps, *, basis=None):
    """Soft-threshold the singular values of every frequency slice by eps.

    Returns (z, basis): the thresholded tensor and the next call's warm
    start (the leading r + OVERSAMPLE right singular vectors per slice, the
    power-step count and the chain below; None past MAX_BLOCK).  z is
    rebuilt from the leading r triplets only, r being the most values any
    slice keeps.

    `basis=None` takes a full SVD.  With a basis, the Ritz triplets of its
    block are kept only if r + OVERSAMPLE fits in it, each kept triplet's
    residual ||f^H u - s v|| is at most RITZ_TOL times its slice's top value,
    and a certificate below puts every value past the kept ones at or below
    eps; else the full SVD runs.  The kept triplets are then exact for some
    f + E with ||E|| <= sqrt(r) * RITZ_TOL * s_1 per slice, and soft
    thresholding is nonexpansive, so z is within that of the full-SVD result.

    - The chain: a call leaves its slices f, kept counts c and per-slice
      bounds B >= s_{c+1}(f), exact after a full SVD.  If no slice of the
      next call's f' keeps fewer than c values, Weyl's inequality gives
      s_{c+1}(f' + E) <= B + ||f' - f||_F + ||E||.  The rule asks
      B + ||f' - f||_F + 2||E|| <= eps, the second ||E|| being a margin of
      at most sqrt(c) * RITZ_TOL * s_1 per slice; the chain goes on with
      B + ||f' - f||_F.
    - Otherwise sigma_max(R) <= ||(R^H R)^4||_F^(1/8) <= eps for the rest R
      of every slice, f minus its kept part, which restarts the chain.
    """
    if not eps >= 0:
        raise ValueError("threshold must be nonnegative")
    t = _check3(t)
    k = t.shape[2]
    f = freq_slices(t)
    ritz, steps, tail = (None, 0, None) if basis is None else _ritz(f, eps, *basis)
    if ritz is None:
        ritz = np.linalg.svd(f, full_matrices=False)
        tail = np.where(ritz[1] > eps, 0.0, ritz[1]).max(axis=1)  # s_{c+1}, exactly
    u, s, vh = ritz
    s = np.maximum(s - eps, 0.0)
    counts = np.count_nonzero(s, axis=1)
    r = int(counts.max())
    z = from_freq_slices((u[:, :, :r] * s[:, None, :r]) @ vh[:, :r], k)
    width = r + OVERSAMPLE
    if width > min(MAX_BLOCK, s.shape[1]):
        return z, None
    return z, (_ct(vh[:, :width]), steps, (f, counts, tail))


def lambda_grid(observed):
    """Geometric grid of GRID_POINTS weights, [1e-3, 1] x the spectral norm
    of `observed`, which callers pass as P_Omega Y."""
    return np.geomspace(1e-3, 1.0, GRID_POINTS) * spectral_norm(observed)


def admm_complete(observed, omega, lam, alpha=None, ground_truth=None, start=None):
    """Run the ADMM recursion with weight `lam` and penalty `alpha` (None:
    the sampling rate of omega) until both residuals meet TOL or MAX_ITERS.

    The primal residual ||x - z|| and the dual residual alpha*||z - z_prev||
    are compared with TOL * ||P_Omega Y||.  `start` is an optional
    finite (z, q) pair, e.g. the `admm_state` of a run at a larger lambda;
    by default both start at zero.  The report's `admm_state` holds this
    run's final (z, q).
    """
    if not (0 < lam < np.inf and (alpha is None or 0 < alpha < np.inf)):
        raise ValueError("lam and alpha must be finite and positive")
    observed = check_observed(observed, omega)
    alpha = omega.size / observed.size if alpha is None else alpha
    if start is None:
        z = np.zeros_like(observed)
        q = np.zeros_like(observed)
    else:
        # copies: q is updated in place, and a caller may pass P_Omega Y as q
        z, q = (np.array(a, dtype=float) for a in start)
        if z.shape != observed.shape or q.shape != observed.shape:
            raise DimensionMismatch(f"start {z.shape}/{q.shape} vs {observed.shape}")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(q))):
            raise InvalidEntries("start (z, q) is not finite")
    weight = omega.mask / (1.0 + alpha)
    x = np.empty_like(observed)
    gap = np.empty_like(observed)
    scaled_q = np.empty_like(observed)
    stop = TOL * frobenius(observed)
    rse_trace = []
    seconds = []
    t0 = time.perf_counter()
    basis = None
    for _ in range(MAX_ITERS):
        np.divide(q, alpha, out=scaled_q)
        np.subtract(z, scaled_q, out=x)
        np.subtract(observed, x, out=gap)
        gap *= weight
        x += gap
        z_prev = z
        z, basis = svt(x + scaled_q, lam / alpha, basis=basis)
        np.subtract(x, z, out=gap)
        primal = frobenius(gap)
        gap *= alpha
        q += gap
        rse_trace.append(trace_error(x, observed, omega, ground_truth))
        seconds.append(time.perf_counter() - t0)
        if primal <= stop and alpha * frobenius(z - z_prev) <= stop:
            break

    return SolveReport(rse=rse_trace, seconds=seconds, estimate=x, admm_state=(z, q))

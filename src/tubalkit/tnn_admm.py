"""Convex completion baseline: tensor-nuclear-norm minimization by ADMM.

Minimizes TNN(Z) subject to P_Omega X = P_Omega Y and X = Z, where TNN is
the nuclear norm of the block-diagonal frequency form, by the inexact
augmented Lagrange multiplier method (Lin, Chen & Ma 2010) with a growing
penalty mu.  Each iteration sets X = P_Omega Y + P_Omega^c (Z - Q/mu),
thresholds the singular values of every frequency slice of X + Q/mu by 1/mu
to get Z, adds mu (X - Z) to the multiplier Q, and raises mu by RHO up to
MU_MAX.  mu starts at 1 / ||P_Omega Y||_2, whose first threshold zeroes Z.
The fixed point does not depend on the schedule; where a run stops can,
since its steps shrink as 1/mu.

A run stops when ||X - Z|| and ||Z - Z_prev|| are both at most
TOL * ||P_Omega Y||, or after MAX_ITERS iterations.

Each `svt` call is warm-started from the previous call's leading right
singular vectors (Yao & Kwok 2015): a few power steps and one Rayleigh-Ritz
step replace the full SVD when they provably give the same thresholded
slices, checked on every call; the full SVD is the fallback.  A call starts
with the power steps the previous one handed on and adds one after each
failed residual check, up to POWER_STEPS.  Two rules keep that count near
what the slices need: from the second failed check on, an attempt gives up
for the full SVD once its residual, shrinking at the last observed rate,
would still miss RITZ_TOL after the remaining checks; and a check that
passes with a 10x margin hands the next call one step fewer.  The check
that the discarded values are at most the threshold is chained by Weyl's
inequality: per slice, a bound on the previous call's values past its kept
ones, plus how far the slice moved, plus twice the kept Ritz triplets'
residual norm (at most sqrt(r) * RITZ_TOL * s_1 each time) must stay within
the threshold, and no slice may keep fewer values than before.  The rule
compares with the current threshold, so it holds as 1/mu falls.  Otherwise
a power bound on the rest decides and restarts the chain.
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
from .errors import InsufficientSamples
from .sampling import check_observed

MAX_ITERS = 500  # most ADMM iterations of one run
TOL = 1e-6  # stop when both residuals are within TOL * ||P_Omega Y||
RHO = 1.1  # growth of the penalty mu per iteration
MU_MAX = 1e10  # largest penalty
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
    The attempt starts with `steps` power steps, then checks the Ritz
    residual err after every further step, up to POWER_STEPS.  From the
    second failed check on it gives up (None) when err, shrinking by the
    observed err / prev_err (at most 1) per remaining check, would still
    end above RITZ_TOL.  A check that passes with err <= RITZ_TOL / 10
    hands the next call one step fewer, else the steps it took."""
    prev = np.inf
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
            if err <= RITZ_TOL / 10:
                step = max(step - 1, 0)
            tail = _chained_tail(f, eps, kept, miss, chain)
            if tail is None:
                tail = _power_tail(f, ub, np.where(kept, s, 0), vh, r)
            return ((ub, s, vh), step, tail) if tail.max() <= eps else (None, step, None)
        if err * min(err / prev, 1.0) ** (POWER_STEPS - step) > RITZ_TOL:
            break
        prev = err
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
      B + ||f' - f||_F.  Nothing in the rule reads the previous eps, so
      the chain carries over a threshold that changes between calls, as
      admm_complete's 1/mu falls.
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


def admm_complete(observed, omega, ground_truth=None):
    """Run the constrained ADMM recursion from z = q = 0 until both
    residuals meet TOL or MAX_ITERS; raises InsufficientSamples when every
    observation is zero, where the first penalty 1 / ||P_Omega Y||_2 is
    undefined."""
    observed = check_observed(observed, omega)
    top = spectral_norm(observed)
    if top == 0:
        raise InsufficientSamples("no nonzero observation to scale the penalty")
    mu = 1.0 / top
    z = np.zeros_like(observed)
    q = np.zeros_like(observed)
    x = np.empty_like(observed)
    gap = np.empty_like(observed)
    scaled_q = np.empty_like(observed)
    stop = TOL * frobenius(observed)
    rse_trace = []
    seconds = []
    t0 = time.perf_counter()
    basis = None
    for _ in range(MAX_ITERS):
        np.divide(q, mu, out=scaled_q)
        np.subtract(z, scaled_q, out=x)
        np.copyto(x, observed, where=omega.mask)
        z_prev = z
        z, basis = svt(x + scaled_q, 1.0 / mu, basis=basis)
        np.subtract(x, z, out=gap)
        primal = frobenius(gap)
        gap *= mu
        q += gap
        rse_trace.append(trace_error(x, observed, omega, ground_truth))
        seconds.append(time.perf_counter() - t0)
        if primal <= stop and frobenius(z - z_prev) <= stop:
            break
        mu = min(RHO * mu, MU_MAX)

    return SolveReport(rse=rse_trace, seconds=seconds, estimate=x)

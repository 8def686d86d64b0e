"""Reference code that tests compare against and that no solve runs.

The t-inverse, the circular-matrix image of a tensor, the circulant rows
of a least-squares factor, the full t-SVD, tubal-rank detection, best
rank-r truncation, the paper's tube truncation, the sample-set writer,
the noisy power-method harness of the convergence analysis and the plain
simplified AltMin alternation without mixing are oracles:
tests check the package against them, but no solver, CLI path, script or
benchmark workload calls them.  Tests import this file as
`from oracles import ...`; pytest puts `tests/` on `sys.path`.
"""

from dataclasses import dataclass

import numpy as np

from tubalkit.algebra import (
    _check3,
    freq_slices,
    from_freq_slices,
    tprod,
    ttranspose,
    unit_phase,
)
from tubalkit.altmin import initialize, qr_tensor, rse, top_r_eigenslices
from tubalkit.errors import DimensionMismatch, RankOutOfRange, TubalError
from tubalkit.sampling import RngSeed, SampleSet
from tubalkit.tls import _Plan, ls_solve_x, ls_solve_y

COND_LIMIT = 1e12  # tinv refuses a frequency slice less well conditioned
DEFAULT_RANK_TOL = 1e-8


class SingularFrequencySlice(TubalError):
    def __init__(self, slice_index, message=None):
        self.slice_index = slice_index
        super().__init__(message or f"frequency slice {slice_index} is singular")


def full_set(m, n, k):
    return SampleSet(np.ones((m, n, k), dtype=bool))


def tinv(t):
    """t-product inverse of a square tensor via frequency-slice inversion."""
    t = _check3(t)
    n, n2, k = t.shape
    if n != n2:
        raise DimensionMismatch(f"tinv needs a square tensor, got {t.shape}")
    ft = freq_slices(t)
    sv = np.linalg.svd(ft, compute_uv=False)
    # A slice and its conjugate partner share singular values, so the first
    # bad half-spectrum slice is also the first bad one of all k.
    bad = np.flatnonzero((sv[:, -1] == 0) | (sv[:, 0] > COND_LIMIT * sv[:, -1]))
    if bad.size:
        raise SingularFrequencySlice(int(bad[0]))
    return from_freq_slices(np.linalg.inv(ft), k)


def circ_expand(t):
    """Expand a tensor to its (mk x nk) circular-matrix image.

    Block (i, j) is the k x k circulant whose first column is tube (i, j, :).
    Test oracle only: the t-product becomes ordinary matrix product here.
    """
    t = _check3(t)
    m, n, k = t.shape
    idx = (np.arange(k)[:, None] - np.arange(k)[None, :]) % k
    blocks = t[:, :, idx]  # (m, n, k, k)
    return blocks.transpose(0, 2, 1, 3).reshape(m * k, n * k)


def circulant_rows(factor):
    """(p*k, r*k) matrix whose row (i, kappa) and column (s, sigma) hold
    factor[i, s, (kappa + sigma) mod k]: the rows that the observed entries
    of a least-squares slice system select."""
    p, r, k = factor.shape
    shift = np.add.outer(np.arange(k), np.arange(k)) % k  # [kappa, sigma]
    cols = (k * np.arange(r)[:, None] + shift[:, None]).reshape(k, r * k)
    return factor.reshape(p, r * k)[:, cols].reshape(p * k, r * k)


def frobenius_norm(t):
    return float(np.linalg.norm(_check3(t)))


def write_sample_set(path, omega):
    """Text format: header "m n k", then one 1-based "i j kappa" per line in
    row-major order."""
    header = "%d %d %d" % omega.dims
    np.savetxt(path, np.argwhere(omega.mask) + 1, fmt="%d", header=header, comments="")


@dataclass
class TsvdFactors:
    """Reduced t-SVD triple: u (m, q, k), theta (q, q, k), v (n, q, k)
    with q = min(m, n)."""

    u: np.ndarray
    theta: np.ndarray
    v: np.ndarray


def tsvd(t):
    """Reduced t-SVD of a real tensor, U * Theta * V^dag with U, V
    orthonormal and Theta f-diagonal: one batched SVD of the half-spectrum
    frequency slices.

    The largest-magnitude entry of each left singular vector is made real
    positive so the factorization is deterministic.
    """
    t = _check3(t)
    k = t.shape[2]
    u, s, vh = np.linalg.svd(freq_slices(t), full_matrices=False)
    idx = np.argmax(np.abs(u), axis=1)[:, None, :]
    phase = unit_phase(np.take_along_axis(u, idx, axis=1))
    u = u * phase.conj()
    vh = vh * phase.swapaxes(1, 2)
    return TsvdFactors(
        u=from_freq_slices(u, k),
        theta=from_freq_slices(s[:, :, None] * np.eye(s.shape[1]), k),
        v=from_freq_slices(vh.conj().swapaxes(1, 2), k),
    )


def eigentube_norms(factors):
    """Frobenius norm of each eigentube theta[s, s, :] of a t-SVD."""
    return np.linalg.norm(np.diagonal(factors.theta), axis=0)


def tubal_rank(t, tol=DEFAULT_RANK_TOL):
    """Number of eigentubes above `tol` relative to the leading one."""
    norms = eigentube_norms(tsvd(t))
    if norms.size == 0 or norms[0] == 0:
        return 0
    return int(np.count_nonzero(norms > tol * norms[0]))


def truncate_rank(t, r):
    """Best tubal-rank-r approximation (leading r t-SVD components)."""
    t = _check3(t)
    m, n, k = t.shape
    if not 1 <= r <= min(m, n):
        raise RankOutOfRange(f"rank {r} outside [1, {min(m, n)}]")
    f = tsvd(t)
    core = tprod(f.theta[:r, :r, :], ttranspose(f.v[:, :r, :]))
    return tprod(f.u[:, :r, :], core)


def truncate_tubes(z, cap):
    """Rescale every tube with Frobenius norm above `cap` down to `cap`: the
    paper's initialization caps tubes at sqrt(8 * mu0 * ln m / m), which
    stays above 1 below 10^6 rows at the budget mu0 = 1e6."""
    z = _check3(z)
    norms = np.linalg.norm(z, axis=2)
    scale = np.ones_like(norms)
    over = norms > cap
    scale[over] = cap / norms[over]
    return z * scale[:, :, None]


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
        x = qr_tensor(z)
        trace.append(angle(x))
    return trace


def plain_alt_min(observed, omega, r, iterations, seed, truth):
    """Simplified AltMin without mixing: from `initialize`, `iterations`
    rounds of the Y and X half-steps through two plans built once, each
    round's X taken as is.  Returns the RSE trace and the last estimate."""
    k = observed.shape[2]
    x = initialize(observed, omega, r, seed)
    y_plan = _Plan(observed, omega, r * k, True)
    x_plan = _Plan(observed, omega, r * k, False, partner=y_plan)
    trace = []
    for _ in range(iterations):
        y = ls_solve_y(observed, omega, x, plan=y_plan)
        x = ls_solve_x(observed, omega, y, plan=x_plan)
        estimate = tprod(x, ttranspose(y))
        trace.append(rse(estimate, truth))
    return trace, estimate

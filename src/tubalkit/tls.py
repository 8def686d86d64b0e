"""Tensor least-squares inner solver, assembled in the time domain.

The update min_Y ||P_Omega(T - X * Y^dag)||_F^2 decouples over lateral
slices j.  Entry (i, j, kappa) of X * Y^dag is the sum over (s, sigma) of
x[i, s, (kappa + sigma) mod k] * y[j, s, sigma], so every observed entry is
one real row of the circulant-row matrix C: row (i, kappa), column
(s, sigma) holds x[i, s, (kappa + sigma) mod k].  All slices share C; slice
j keeps the rows it observes, and the normal equations of all slices go
through batched solves, many slices per call.  The X update is the same
kernel on horizontal slices i, with rows (j, kappa) holding
y[j, s, (sigma - kappa) mod k].
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import _check3
from .errors import DimensionMismatch, RankDeficientSystem
from .sampling import project, split

# A Gram is numerically singular when a Cholesky pivot is at most this
# fraction of its own diagonal entry: Cholesky also succeeds on Grams whose
# smallest eigenvalue is rounding noise.  The minimum-norm solution of a
# singular Gram drops eigenvalues at most this fraction of its largest.
SINGULAR_TOL = 1e-10
# Systems per batched solve are capped so that their Gram stack stays this
# small; the median wrappers solve hundreds of slices per call.
BLOCK_BYTES = 512 * 1024


@dataclass
class LsOptions:
    """regularization: ridge weight added to the normal equations;
    minimum-norm solutions unless allow_rank_deficient is False."""

    regularization: float = 0.0
    allow_rank_deficient: bool = True

    def __post_init__(self):
        if self.regularization < 0:
            raise ValueError("regularization must be nonnegative")


def circulant_rows(factor, sign):
    """(p*k, r*k) matrix whose row (i, kappa) and column (s, sigma) hold
    factor[i, s, (sigma + sign * kappa) mod k]."""
    p, r, k = factor.shape
    idx = (np.arange(k)[None, :] + sign * np.arange(k)[:, None]) % k
    return factor[:, :, idx].transpose(0, 2, 1, 3).reshape(p * k, r * k)


def _pivot_singular(gram):
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        if len(gram) == 1:
            return np.ones(1, dtype=bool)
        return np.concatenate([_pivot_singular(g[None]) for g in gram])
    pivots = np.diagonal(chol, axis1=1, axis2=2) ** 2
    diag = np.diagonal(gram, axis1=1, axis2=2)
    return np.any(pivots <= SINGULAR_TOL * diag, axis=1)


def _solve_slices(rows, masks, values, opts):
    """Least-squares solutions z of rows[mask] @ z = value[mask] for every
    slice mask, i.e. every trailing row of the (..., n, P) `masks`; slice j
    of each leading index reads row j of the (n, P) `values`.  Returns
    (..., n, q)."""
    lead, (size, q) = masks.shape[:-1], rows.shape
    masks = masks.reshape(-1, size)
    sol = np.empty((len(masks), q))
    step = max(1, BLOCK_BYTES // (8 * q * q))
    for lo in range(0, len(masks), step):
        block = np.arange(lo, min(lo + step, len(masks)))
        gram = np.empty((len(block), q, q))
        rhs = np.empty((len(block), q))
        for b, slot in enumerate(block):
            kept = rows[masks[slot]]
            gram[b] = kept.T @ kept
            rhs[b] = values[slot % lead[-1], masks[slot]] @ kept
        gram += opts.regularization * np.eye(q)
        # fewer observed rows than unknowns is singular without a
        # factorization, unless a ridge term is added
        singular = (masks[block].sum(axis=1) < q) & (opts.regularization == 0)
        singular[~singular] = _pivot_singular(gram[~singular])
        ok = ~singular
        sol[block[ok]] = np.linalg.solve(gram[ok], rhs[ok, :, None])[..., 0]
        # minimum-norm solutions of the singular systems through eigh
        w, v = np.linalg.eigh(gram[singular])
        keep = w > SINGULAR_TOL * w[:, -1:]
        coef = (rhs[singular, None, :] @ v)[:, 0] / np.where(keep, w, 1.0)
        sol[block[singular]] = (v @ np.where(keep, coef, 0.0)[..., None])[..., 0]
        rank = keep.sum(axis=1)
        if not opts.allow_rank_deficient and (rank < q).any():
            first = np.argmax(rank < q)
            j = block[singular][first] % lead[-1]
            raise RankDeficientSystem(f"slice {j}: rank {rank[first]} < {q} unknowns")
    return sol.reshape(lead + (q,))


def _slices(t, y_update):
    # (..., m, n, k) -> (..., slices, rows): lateral slices j with rows
    # (i, kappa) for the Y update, horizontal slices i with rows (j, kappa)
    # for the X update
    if y_update:
        t = np.swapaxes(t, -3, -2)
    return t.reshape(*t.shape[:-2], -1)


def _half_step(observed, omega, factor, y_update, subsets, opts):
    # Solutions (len(subsets), slices, r, k), one per subset of omega.
    observed = _check3(observed)
    factor = _check3(factor)
    name, axis = ("x", 0) if y_update else ("y", 1)
    if observed.shape[axis] != factor.shape[0] or observed.shape[2] != factor.shape[2]:
        raise DimensionMismatch(f"observed {observed.shape} vs {name} {factor.shape}")
    sol = _solve_slices(
        circulant_rows(factor, 1 if y_update else -1),
        _slices(np.stack([sub.mask for sub in subsets]), y_update),
        _slices(project(observed, omega), y_update),
        opts or LsOptions(),
    )
    return sol.reshape(sol.shape[:2] + factor.shape[1:])


def ls_solve_y(observed, omega, x, opts=None):
    """Minimize ||P_Omega(T - X * Y^dag)||_F^2 over Y (n, r, k); entries of
    `observed` outside Omega are ignored."""
    return _half_step(observed, omega, x, True, [omega], opts)[0]


def ls_solve_x(observed, omega, y, opts=None):
    """Minimize ||P_Omega(T - X * Y^dag)||_F^2 over X (m, r, k): the same
    kernel over horizontal slices, with circulant rows of y at sign -1."""
    return _half_step(observed, omega, y, False, [omega], opts)[0]


def median_count(n):
    """Subset count for the median wrapper: 3*log2(n) rounded, at least 1."""
    return max(1, round(3 * math.log2(n))) if n > 1 else 1


def median_ls(observed, omega, x, seed, t=None, opts=None):
    """Element-wise median of per-subset Y solutions over a split of Omega."""
    t = t if t is not None else median_count(observed.shape[1])
    sols = _half_step(observed, omega, x, True, split(omega, t, seed), opts)
    return np.median(sols, axis=0)


def median_ls_x(observed, omega, y, seed, t=None, opts=None):
    """Median wrapper for the transposed X update."""
    t = t if t is not None else median_count(observed.shape[0])
    sols = _half_step(observed, omega, y, False, split(omega, t, seed), opts)
    return np.median(sols, axis=0)

"""Tensor least-squares inner solver, assembled in the time domain.

The update min_Y ||P_Omega(T - X * Y^dag)||_F^2 decouples over lateral
slices j.  Entry (i, j, kappa) of X * Y^dag is the sum over (s, sigma) of
x[i, s, (kappa + sigma) mod k] * y[j, s, sigma], so every observed entry is
one real row of the circulant-row matrix C: row (i, kappa), column
(s, sigma) holds x[i, s, (kappa + sigma) mod k].  All slices share C; slice
j keeps the rows it observes.  The X update is the same kernel on
horizontal slices i, with rows (j, kappa) holding
y[j, s, (sigma - kappa) mod k].

Each slice system K z = b, with h observed rows and q = r*k unknowns, is
solved by its row count.  A slice with h = 0 gets z = 0.  A slice with
0 < h < q gets the minimum-norm z = K^T (K K^T)^+ b from the h x h row
Gram; these slices go through padded, batched eigh calls, with no loop
over slices.  A slice with h >= q solves its q x q normal equations
K^T K z = K^T b, batched, and falls back to the pseudo-inverse when a
Cholesky pivot says the Gram is singular.  K K^T and K^T K have the same
nonzero eigenvalues, so both pseudo-inverses apply the same eigenvalue
cut.
"""

import math

import numpy as np

from .algebra import _check3
from .errors import DimensionMismatch
from .sampling import project, split

# A Gram is numerically singular when a Cholesky pivot is at most this
# fraction of its own diagonal entry: Cholesky also succeeds on Grams whose
# smallest eigenvalue is rounding noise.  The minimum-norm solution of a
# singular Gram drops eigenvalues at most this fraction of its largest.
SINGULAR_TOL = 1e-10
# Systems per batched solve are capped so that their Gram stack, or their
# stack of gathered rows, stays this small; the median wrappers solve
# hundreds of slices per call.
BLOCK_BYTES = 512 * 1024


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


def _pinv_apply(gram, rhs):
    # pseudo-inverse of each symmetric Gram applied to its rhs, through eigh,
    # dropping eigenvalues at most SINGULAR_TOL of the largest
    w, v = np.linalg.eigh(gram)
    keep = w > SINGULAR_TOL * w[:, -1:]
    coef = (rhs[:, None, :] @ v)[:, 0] / np.where(keep, w, 1.0)
    return (v @ np.where(keep, coef, 0.0)[..., None])[..., 0]


def _solve_tall(rows, masks, values, count, sol):
    # systems with at least q observed rows: per-slice Grams K^T K, batched
    # solves, and minimum-norm solutions where a Cholesky pivot says singular
    q = rows.shape[1]
    tall = np.flatnonzero(count >= q)
    step = max(1, BLOCK_BYTES // (8 * q * q))
    for lo in range(0, len(tall), step):
        block = tall[lo : lo + step]
        gram = np.empty((len(block), q, q))
        rhs = np.empty((len(block), q))
        for b, slot in enumerate(block):
            kept = rows[masks[slot]]
            gram[b] = kept.T @ kept
            rhs[b] = values[slot % len(values), masks[slot]] @ kept
        singular = _pivot_singular(gram)
        ok = ~singular
        sol[block[ok]] = np.linalg.solve(gram[ok], rhs[ok, :, None])[..., 0]
        sol[block[singular]] = _pinv_apply(gram[singular], rhs[singular])


def _solve_wide(rows, masks, values, count, sol):
    # systems with 0 < h < q observed rows: the minimum-norm solution
    # K^T (K K^T)^+ b from the h x h row Grams.  Sorted by h, each block pads
    # its row lists to its largest h with an appended zero row of `rows`,
    # whose zero eigenvalues the cut drops.
    q = rows.shape[1]
    wide = np.flatnonzero((count > 0) & (count < q))
    if not len(wide):
        return
    wide = wide[np.argsort(count[wide])]
    h = count[wide]
    system, pos = np.nonzero(masks[wide])
    rank = np.arange(len(system)) - np.repeat(np.cumsum(h) - h, h)
    index = np.full((len(wide), h[-1]), len(rows))
    index[system, rank] = pos
    rhs = np.zeros(index.shape)
    rhs[system, rank] = values[wide[system] % len(values), pos]
    rows = np.vstack([rows, np.zeros((1, q))])
    step = max(1, BLOCK_BYTES // (8 * h[-1] * q))
    for lo in range(0, len(wide), step):
        hi = min(lo + step, len(wide))
        kept = rows[index[lo:hi, : h[hi - 1]]]
        coef = _pinv_apply(kept @ kept.transpose(0, 2, 1), rhs[lo:hi, : h[hi - 1]])
        sol[wide[lo:hi]] = (coef[:, None, :] @ kept)[:, 0]


def _solve_slices(rows, masks, values):
    """Least-squares solutions z of rows[mask] @ z = value[mask] for every
    slice mask, i.e. every trailing row of the (..., n, P) `masks`; slice j
    of each leading index reads row j of the (n, P) `values`.  Returns
    (..., n, q).  A singular slice gets the minimum-norm solution: zero when
    it observes no row, K^T (K K^T)^+ b when it observes fewer rows than the
    q unknowns."""
    lead, (size, q) = masks.shape[:-1], rows.shape
    masks = masks.reshape(-1, size)
    count = masks.sum(axis=1)
    sol = np.zeros((len(masks), q))
    _solve_tall(rows, masks, values, count, sol)
    _solve_wide(rows, masks, values, count, sol)
    return sol.reshape(lead + (q,))


def _slices(t, y_update):
    # (..., m, n, k) -> (..., slices, rows): lateral slices j with rows
    # (i, kappa) for the Y update, horizontal slices i with rows (j, kappa)
    # for the X update
    if y_update:
        t = np.swapaxes(t, -3, -2)
    return t.reshape(*t.shape[:-2], -1)


def _half_step(observed, omega, factor, y_update, subsets):
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
    )
    return sol.reshape(sol.shape[:2] + factor.shape[1:])


def ls_solve_y(observed, omega, x):
    """Minimize ||P_Omega(T - X * Y^dag)||_F^2 over Y (n, r, k); entries of
    `observed` outside Omega are ignored."""
    return _half_step(observed, omega, x, True, [omega])[0]


def ls_solve_x(observed, omega, y):
    """Minimize ||P_Omega(T - X * Y^dag)||_F^2 over X (m, r, k): the same
    kernel over horizontal slices, with circulant rows of y at sign -1."""
    return _half_step(observed, omega, y, False, [omega])[0]


def median_count(n):
    """Subset count for the median wrapper: 3*log2(n) rounded, at least 1."""
    return max(1, round(3 * math.log2(n))) if n > 1 else 1


def median_ls(observed, omega, x, seed, t=None):
    """Element-wise median of per-subset Y solutions over a split of Omega."""
    t = t if t is not None else median_count(observed.shape[1])
    sols = _half_step(observed, omega, x, True, split(omega, t, seed))
    return np.median(sols, axis=0)


def median_ls_x(observed, omega, y, seed, t=None):
    """Median wrapper for the transposed X update."""
    t = t if t is not None else median_count(observed.shape[0])
    sols = _half_step(observed, omega, y, False, split(omega, t, seed))
    return np.median(sols, axis=0)

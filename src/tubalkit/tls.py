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
solved by its row count: z = 0 for h = 0; for 0 < h < q the minimum-norm
z = K^T (K K^T)^+ b from the h x h row Gram, in padded, batched eigh calls;
for h >= q the q x q normal equations K^T K z = K^T b, batched, with the
pseudo-inverse where a Cholesky pivot says the Gram is singular.  K K^T and
K^T K have the same nonzero eigenvalues, so both apply one eigenvalue cut.
"""

import math

import numpy as np

from .algebra import _check3
from .errors import DimensionMismatch
# project and split are not called here: perfbench hooks them by these names
from .sampling import project, split, split_labels  # noqa: F401

# A Gram is numerically singular when a Cholesky pivot is at most this
# fraction of its own diagonal entry: Cholesky also succeeds on Grams whose
# smallest eigenvalue is rounding noise.  The minimum-norm solution of a
# singular Gram drops eigenvalues at most this fraction of its largest.
SINGULAR_TOL = 1e-10
# Each batched solve's Gram stack, or stack of gathered rows, stays this
# small; the median wrappers solve hundreds of slices per call.
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


def _blocks(n, step):
    return [slice(lo, lo + step) for lo in range(0, n, step)]


class _Plan:
    """What depends on Omega only, for one direction and q = r*k unknowns:
    the np.flatnonzero list of observed entries in (slice, row) layout,
    sorted by subset `labels`, each system's segment of it, the routes and
    blocks, and the buffers the solves reuse."""

    def __init__(self, observed, omega, q, y_update, labels=None, t=1):
        # slices along axis 0, each slice's rows (i or j, kappa) flattened
        layout = (lambda a: np.swapaxes(a, 0, 1)) if y_update else (lambda a: a)
        mask = layout(omega.mask)
        slices, size = mask.shape[0], mask[0].size
        entry = np.flatnonzero(mask)
        system, pos = np.divmod(entry, size)
        values = layout(observed).take(entry)
        if labels is not None:
            # the stable sort keeps each system's rows ascending
            subset = np.zeros(omega.dims, labels.dtype)
            subset[omega.mask] = labels
            system += layout(subset).take(entry) * slices
            order = np.argsort(system, kind="stable")
            pos, values = pos[order], values[order]
        count = np.bincount(system, minlength=t * slices)
        start = np.cumsum(count) - count
        self.q, self.y_update, self.shape = q, y_update, (t, slices)
        # h >= q: blocks of systems, each with its segment of the entries
        tall = np.flatnonzero(count >= q)
        step = max(1, BLOCK_BYTES // (8 * q * q))
        segments = [(pos[a : a + h], values[a : a + h])
                    for a, h in zip(start[tall].tolist(), count[tall].tolist())]
        self.tall = [(tall[s], segments[s]) for s in _blocks(len(tall), step)]
        self.kept = np.empty((count[tall].max(initial=0), q))
        self.gram = np.empty((min(step, len(tall)), q, q))
        self.rhs = np.empty((min(step, len(tall)), q))
        # 0 < h < q: sorted by h; each block pads its row lists to its largest
        # h with row `size`, a zero row whose zero eigenvalues the cut drops
        wide = np.flatnonzero((count > 0) & (count < q))
        wide = wide[np.argsort(count[wide])]
        h = count[wide]
        fill = np.arange(h.max(initial=1)) < h[:, None]
        entry = np.where(fill, start[wide][:, None] + np.arange(fill.shape[1]), 0)
        index = np.where(fill, pos[entry], size)
        rhs = np.where(fill, values[entry], 0.0)
        step = max(1, BLOCK_BYTES // (8 * index.shape[1] * q))
        self.wide = [(wide[s], index[s, : h[s][-1]], rhs[s, : h[s][-1]])
                     for s in _blocks(len(wide), step)]


def _half_step(observed, omega, factor, y_update, labels=None, t=1, plan=None):
    """Solutions (t, slices, r, k) of every (subset, slice) system; Omega's
    entries, in row-major order, fall in subsets `labels` (None: one), and
    a given `plan` must come from the same observed, omega, labels and t."""
    observed, factor = _check3(observed), _check3(factor)
    if observed.shape != omega.dims:
        raise DimensionMismatch(f"tensor {observed.shape} vs sample set {omega.dims}")
    name, axis = ("x", 0) if y_update else ("y", 1)
    if observed.shape[axis] != factor.shape[0] or observed.shape[2] != factor.shape[2]:
        raise DimensionMismatch(f"observed {observed.shape} vs {name} {factor.shape}")
    q = factor.shape[1] * factor.shape[2]
    plan = plan or _Plan(observed, omega, q, y_update, labels, t)
    if (plan.q, plan.y_update) != (q, y_update):
        raise DimensionMismatch(f"plan for q={plan.q} vs {name} {factor.shape}")
    rows = circulant_rows(factor, 1 if y_update else -1)
    sol = np.zeros((math.prod(plan.shape), q))
    # h >= q: batched normal equations, minimum-norm where a Cholesky pivot
    # says singular; mode="clip" lets take write straight into `kept`
    for block, segments in plan.tall:
        gram, rhs = plan.gram[: len(block)], plan.rhs[: len(block)]
        for b, (pos, values) in enumerate(segments):
            kept = rows.take(pos, axis=0, out=plan.kept[: len(pos)], mode="clip")
            np.dot(kept.T, kept, out=gram[b])
            np.dot(values, kept, out=rhs[b])
        singular = _pivot_singular(gram)
        if not singular.any():
            sol[block] = np.linalg.solve(gram, rhs[..., None])[..., 0]
            continue
        ok = ~singular
        sol[block[ok]] = np.linalg.solve(gram[ok], rhs[ok, :, None])[..., 0]
        sol[block[singular]] = _pinv_apply(gram[singular], rhs[singular])
    # 0 < h < q: the minimum-norm K^T (K K^T)^+ b from the h x h row Grams
    rows = np.vstack([rows, np.zeros((1, q))]) if plan.wide else rows
    for systems, index, rhs in plan.wide:
        kept = rows[index]
        coef = _pinv_apply(kept @ kept.transpose(0, 2, 1), rhs)
        sol[systems] = (coef[:, None, :] @ kept)[:, 0]
    return sol.reshape(plan.shape + factor.shape[1:])


def ls_solve_y(observed, omega, x, *, plan=None):
    """Minimize ||P_Omega(T - X * Y^dag)||_F^2 over Y (n, r, k); entries of
    `observed` outside Omega are ignored.  `plan`: `_Plan(..., r*k, True)`."""
    return _half_step(observed, omega, x, True, plan=plan)[0]


def ls_solve_x(observed, omega, y, *, plan=None):
    """The same over X (m, r, k): horizontal slices, circulant rows of y at
    sign -1, and `plan` from `_Plan(observed, omega, r*k, False)`."""
    return _half_step(observed, omega, y, False, plan=plan)[0]


def median_count(n):
    """Subset count for the median wrapper: 3*log2(n) rounded, at least 1."""
    return max(1, round(3 * math.log2(n))) if n > 1 else 1


def median_ls(observed, omega, x, seed, t=None):
    """Element-wise median of per-subset Y solutions over a split of Omega."""
    t = t if t is not None else median_count(observed.shape[1])
    sols = _half_step(observed, omega, x, True, split_labels(omega, t, seed), t)
    return np.median(sols, axis=0)


def median_ls_x(observed, omega, y, seed, t=None):
    """Median wrapper for the transposed X update."""
    t = t if t is not None else median_count(observed.shape[0])
    sols = _half_step(observed, omega, y, False, split_labels(omega, t, seed), t)
    return np.median(sols, axis=0)

"""Tensor least-squares inner solver, assembled in the time domain.

The update min_Y ||P_Omega(T - X * Y^dag)||_F^2 decouples over lateral
slices j.  Entry (i, j, kappa) of X * Y^dag is the sum over (s, sigma) of
x[i, s, (kappa + sigma) mod k] * y[j, s, sigma], so every observed entry is
one real row of the circulant-row matrix C: row (i, kappa), column
(s, sigma) holds x[i, s, (kappa + sigma) mod k].  All slices share C; slice
j keeps the rows it observes.  The X update is the same kernel on the
t-transposed problem T^dag ~ Y * X^dag, with y as the factor.

Each slice system K z = b, with h observed rows and q = r*k unknowns, is
solved by its row count: z = 0 for h = 0; for 0 < h < q the minimum-norm
z = K^T (K K^T)^+ b from the h x h row Gram, batched by exact row count;
for h >= q the q x q normal equations K^T K z = K^T b, batched, with the
pseudo-inverse where a Cholesky pivot says the Gram is singular.  K K^T and
K^T K have the same nonzero eigenvalues, so both apply one eigenvalue cut.

The tall Grams K^T K and right-hand sides K^T b come from each system's
mask spectrum (`_Spectral`); the wide route reads its rows of C from x.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .algebra import _check3, freq_slices, freq_weights, from_freq_slices, ttranspose
from .errors import DimensionMismatch
# project and split are not called here: perfbench hooks them by these names
from .sampling import project, split, split_labels  # noqa: F401

# A Gram is numerically singular when a Cholesky pivot is at most this
# fraction of its own diagonal entry: Cholesky also succeeds on Grams whose
# smallest eigenvalue is rounding noise.  The minimum-norm solution of a
# singular Gram drops eigenvalues at most this fraction of its largest.
SINGULAR_TOL = 1e-10
# Each batched solve's Gram stack, or a wide batch's stack of rows, stays this
# small, and so do the spectral route's pair products and block GEMMs; the
# median wrappers solve hundreds of slices per call.
BLOCK_BYTES = 512 * 1024


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


def _blocks(n, item_bytes):
    step = max(1, BLOCK_BYTES // item_bytes)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


class _Spectral:
    """Tall systems' Grams and right-hand sides from their masks' half spectra.

    `mask` and `observed` are (systems, others, k): each system's own mask
    and observed values, zero off it.  For a system with mask M,
    G[(s, sigma), (s', sigma + delta)] = sum_i sum_u M[i, u - sigma]
    x[i, s, u] x[i, s', u + delta] correlates mask tubes with pair products,
    so its spectrum is sum_i conj(M^[i]) times theirs.  The plan keeps that
    spectrum in real form [[Sr, -Si], [Si, Sr]], per block of systems.  Both
    triangles of a Gram read one pair s <= s', so it is symmetric.  The
    right-hand sides are one t-product of the masked values with the
    factor, ttranspose(P_Omega T) * X."""

    def __init__(self, mask, observed, systems, q):
        k, kh = mask.shape[2], mask.shape[2] // 2 + 1
        # real DFT matrices: rows 2w, 2w + 1 of forward @ tube are the real and
        # imaginary parts at frequency w; inverse.T maps them back, with 1/k
        angle = 2 * np.pi / k * (np.outer(np.arange(kh), np.arange(k)) % k)
        self.forward = np.stack([np.cos(angle), -np.sin(angle)], 1).reshape(2 * kh, k)
        self.inverse = self.forward * np.repeat(freq_weights(k)[:kh] / k, 2)[:, None]
        self.pairs = np.triu_indices(q // k)
        width = len(self.pairs[0]) * k
        # conjugate half spectra (kh, systems, others) of the masks and of P_Omega T
        spec = freq_slices(mask * 1.0).conj()
        self.left = freq_slices(observed).conj()
        re, im = spec.real, spec.imag
        self.blocks = [(systems[s], s, np.block([[re[:, s], -im[:, s]], [im[:, s], re[:, s]]]))
                       for s in _blocks(len(systems), 8 * max(2 * kh * width, q * q))]
        # Gram entry (a, b) reads [pair(s, s'), (sigma' - sigma) mod k, sigma]
        # of (min(a, b), max(a, b)) = ((s, sigma), (s', sigma'))
        pair = np.zeros((q // k, q // k), dtype=np.intp)
        pair[self.pairs] = np.arange(len(self.pairs[0]))
        a = np.arange(q)
        s, sigma = np.divmod(np.minimum.outer(a, a), k)
        s2, sigma2 = np.divmod(np.maximum.outer(a, a), k)
        self.table = (pair[s, s2] * k + (sigma2 - sigma) % k) * k + sigma

    def grams(self, factor):
        """(systems, Grams, right-hand sides) of each block of tall systems."""
        p, r, k = factor.shape
        first, second = self.pairs
        width = len(first) * k
        tubes = factor.transpose(2, 0, 1)  # [u, i, s]
        # the tubes twice over, so that shifted[u, i, pair, delta] = x[i, s', u + delta]
        shifted = sliding_window_view(np.concatenate([tubes[:, :, second]] * 2), k, 0)[:k]
        spectrum = np.empty((len(self.forward), p * width))
        for rows in _blocks(p, 8 * k * width):
            # pair products [u, i, pair, delta] = x[i, s, u] * x[i, s', u + delta]
            pairs = shifted[:, rows] * tubes[:, rows][:, :, first, None]
            cols = slice(rows.start * width, rows.start * width + pairs[0].size)
            np.matmul(self.forward, pairs.reshape(k, -1), out=spectrum[:, cols])
        spectrum = spectrum.reshape(-1, 2 * p, width)
        rhs = from_freq_slices(self.left @ freq_slices(factor), k).reshape(-1, r * k)
        # one call's buffers, within BLOCK_BYTES: the block GEMM's product,
        # then the block's Grams; and the product's inverse DFT
        step, q = len(self.blocks[0][0]), r * k
        work = np.empty(step * max(len(self.forward) * width, q * q))
        spread = np.empty(step * width * k)
        for systems, at, mixed in self.blocks:
            size = len(systems) * width
            product = work[: len(self.forward) * size].reshape(-1, 2 * len(systems), width)
            np.matmul(mixed, spectrum, out=product)
            back = spread[: size * k].reshape(size, k)  # [system, pair, delta, sigma]
            np.matmul(product.reshape(-1, size).T, self.inverse, out=back)
            gram = work[: len(systems) * q * q].reshape(-1, q, q)
            np.take(back.reshape(len(systems), -1), self.table, 1, gram, mode="clip")
            yield systems, gram, rhs[at]


class _Plan:
    """What depends on Omega and the observed values, for q = r*k unknowns
    of Y or, without `y_update`, of X: the np.flatnonzero list of entries in
    (slice, row) layout, sorted by the `split_labels` grid `labels`; batches
    of wide systems of one row count h, each with the flat offset into the
    factor of every entry of their rows of C and their observed values; and
    the tall systems' `_Spectral`.  An X plan reads the slices of T^dag.
    System (subset, slice) observes the entries of its slice that `labels`
    puts in its subset, or all of them without labels.  It serves only the
    `observed` and `omega` objects it was built from."""

    def __init__(self, observed, omega, q, y_update, labels=None, t=1):
        if np.shape(observed) != omega.dims:
            raise DimensionMismatch(f"observed {np.shape(observed)} vs omega {omega.dims}")
        # slices along axis 0, rows (i, kappa): of T, or of T^dag as ttranspose's one copy
        layout = lambda a: np.swapaxes(a if y_update else ttranspose(a), 0, 1)  # noqa: E731
        mask, grid = layout(omega.mask), layout(observed)
        slices, size = len(mask), mask[0].size
        entry = np.flatnonzero(mask)
        system, pos = np.divmod(entry, size)
        values = grid.take(entry)
        if labels is not None:
            # the stable sort keeps each system's rows ascending
            labels = layout(labels)
            system += labels.take(entry) * slices
            order = np.argsort(system, kind="stable")
            pos, values = pos[order], values[order]
        count = np.bincount(system, minlength=t * slices)
        start = np.cumsum(count) - count
        self.observed, self.omega = observed, omega
        self.q, self.y_update, self.shape, self.size = q, y_update, (t, slices), size
        # h >= q: each system's own mask and observed values, zero off it
        tall = np.flatnonzero(count >= q)
        self.spectral = None
        if len(tall):
            subset, j = np.divmod(tall, slices)
            own = mask[j]
            if labels is not None:
                own &= labels[j] == subset[:, None, None]
            self.spectral = _Spectral(own, np.where(own, grid[j], 0.0), tall, q)
        # 0 < h < q: batches of systems with h rows; row (i, kappa), column
        # (s, sigma) of C is factor entry i*q + s*k + (kappa + sigma) mod k
        k, a = omega.dims[2], np.arange(q)
        cols = a - a % k + (a % k + np.arange(k)[:, None]) % k  # [kappa, (s, sigma)]
        wide = np.flatnonzero((count > 0) & (count < q))
        self.wide = []
        # the row counts present: np.unique would import numpy.ma, +1.4 MiB peak RSS
        for h in np.flatnonzero(np.bincount(count[wide])):
            group = wide[count[wide] == h]
            listed = start[group, None] + np.arange(h)  # into the sorted entry list
            for s in _blocks(len(group), 8 * h * q):
                i, kappa = np.divmod(pos[listed[s]], k)
                self.wide.append((group[s], i[..., None] * q + cols[kappa], values[listed[s]]))


def _solve(observed, omega, factor, y_update, plan=None):
    """Solutions (t, slices, r, k) of every system of `plan` (unlabelled by default)."""
    factor = _check3(factor)
    p, r, k = factor.shape
    if omega.dims[2] != k:
        raise DimensionMismatch(f"{omega.dims} vs factor {factor.shape}")
    plan = plan or _Plan(observed, omega, r * k, y_update)
    if plan.observed is not observed or plan.omega is not omega:
        raise DimensionMismatch("the plan was built from another observed tensor or omega")
    if (plan.y_update, plan.size, plan.q) != (y_update, p * k, r * k):
        raise DimensionMismatch(f"{omega.dims} vs factor {factor.shape}, plan q={plan.q}")
    sol = np.zeros((math.prod(plan.shape), plan.q))
    # h >= q: batched normal equations
    for block, gram, rhs in plan.spectral.grams(factor) if plan.spectral else ():
        singular = _pivot_singular(gram)
        ok = ~singular if singular.any() else slice(None)  # a slice copies nothing
        sol[block[ok]] = np.linalg.solve(gram[ok], rhs[ok, :, None])[..., 0]
        if singular.any():
            sol[block[singular]] = _pinv_apply(gram[singular], rhs[singular])
    # 0 < h < q: the minimum-norm K^T (K K^T)^+ b from the h x h row Grams
    for systems, offsets, rhs in plan.wide:
        kept = factor.take(offsets)
        coef = _pinv_apply(kept @ kept.transpose(0, 2, 1), rhs)
        sol[systems] = (coef[:, None, :] @ kept)[:, 0]
    return sol.reshape(plan.shape + factor.shape[1:])


def ls_solve_y(observed, omega, x, *, plan=None):
    """Minimize ||P_Omega(T - X * Y^dag)||_F^2 over Y (n, r, k); entries of
    `observed` outside Omega are ignored.  `plan`: `_Plan(..., r*k, True)`."""
    return _solve(observed, omega, x, True, plan)[0]


def ls_solve_x(observed, omega, y, *, plan=None):
    """The same over X (m, r, k), as the Y solve of T^dag; `plan`: `_Plan(..., r*k, False)`."""
    return _solve(observed, omega, y, False, plan)[0]


def median_count(n):
    """Subset count for the median wrapper: 3*log2(n) rounded, at least 1."""
    return max(1, round(3 * math.log2(n))) if n > 1 else 1


def _median(observed, omega, factor, seed, t, y_update):
    t = t if t is not None else median_count(omega.dims[1 if y_update else 0])
    q = _check3(factor).shape[1] * omega.dims[2]  # _solve checks the factor's k
    plan = _Plan(observed, omega, q, y_update, split_labels(omega, t, seed), t)
    return np.median(_solve(observed, omega, factor, y_update, plan), axis=0)


def median_ls(observed, omega, x, seed, t=None):
    """Element-wise median of per-subset Y solutions over a split of Omega."""
    return _median(observed, omega, x, seed, t, True)


def median_ls_x(observed, omega, y, seed, t=None):
    """The same for X."""
    return _median(observed, omega, y, seed, t, False)

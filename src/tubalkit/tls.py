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
for h >= q the q x q normal equations K^T K z = K^T b, batched, from one
Cholesky factor of the bordered Gram [[K^T K, K^T b], [b^T K, c]]: its last
row is L^-1 K^T b, and a blocked back substitution finishes.  Where a pivot
says K^T K is singular, the pseudo-inverse solves instead.  K K^T and K^T K
have the same nonzero eigenvalues, so both apply one eigenvalue cut.

The tall Grams K^T K and right-hand sides K^T b come from each system's
mask spectrum (`_Spectral`); an X plan whose systems, and its Y partner's,
are all tall reads the Y plan's spectrum transposed.  The wide route reads
its rows of C from x.
"""

import copy
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
# The back substitution steps through the triangular factor this many rows at
# a time, with each diagonal block inverted: q/6 Python steps per block of
# systems.  On whole solves at q = 30 and q = 60 widths 4 to 8 timed alike,
# and 3, 10 and 12 slower; timed alone, 5 and 6 were the fastest.
BACK_ROWS = 6


def _pivot_singular(gram, q=None):
    """Which Grams of the stack a pivot among the first q (all by default)
    finds singular, and the stack's Cholesky factors.  A Gram whose
    factorization fails is singular, with a zero factor."""
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        if len(gram) == 1:
            return np.ones(1, dtype=bool), np.zeros_like(gram)
        singular, chol = zip(*(_pivot_singular(g[None], q) for g in gram))
        return np.concatenate(singular), np.concatenate(chol)
    pivots = np.diagonal(chol, axis1=1, axis2=2)[:, :q] ** 2
    diag = np.diagonal(gram, axis1=1, axis2=2)[:, :q]
    return np.any(pivots <= SINGULAR_TOL * diag, axis=1), chol


def _back_substitute(chol):
    """z with L^T z = w, for each factor [[L, 0], [w^T, d]] of a bordered Gram."""
    q, b = chol.shape[1] - 1, BACK_ROWS
    starts = np.arange(0, q, b)
    # where b does not divide q the last block repeats row q - 1: the leading
    # corner of a triangular block's inverse reads only that corner
    rows = np.minimum(starts[:, None] + np.arange(b), q - 1)
    diag = chol[:, rows[:, :, None], rows[:, None, :]]  # [system, block, b, b]
    # invert each block's lower triangle in place, a row at a time; the
    # inverse's rows above row i are already lower triangular
    for i in range(b):
        row = -(diag[..., i, None, :i] @ diag[..., :i, :])[..., 0, :]
        row[..., i] += 1.0
        diag[..., i, :] = row / diag[..., i, i, None]
    z = chol[:, q, :q].copy()  # w, replaced by z from the last block up
    for block, lo in reversed(list(enumerate(starts))):
        hi = min(lo + b, q)
        part = z[:, None, lo:hi] @ diag[:, block, : hi - lo, : hi - lo]
        z[:, lo:hi] = part[:, 0]
        z[:, :lo] -= (part @ chol[:, lo:hi, :lo])[:, 0]
    return z


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
    so its spectrum is sum_i conj(M^[i]) times theirs.  `form` keeps that
    spectrum for all systems in real form [[Sr, -Si], [Si, Sr]], (k//2+1,
    2 systems, 2 others); a block of systems reads its real and its
    imaginary rows with one GEMM each.  Both triangles of a Gram read one
    pair s <= s', so it is symmetric.  The right-hand sides are one
    t-product of the masked values with the factor, ttranspose(P_Omega T) * X,
    from the conjugate half spectrum `left` of the masked values.  Each
    block's Grams are bordered by their right-hand sides, with corner
    c = 2 ||h||^2 + 1 from the system's observed values h.  c exceeds
    b^T G^+ b, which is at most ||h||^2, so the bordered Gram is positive
    definite wherever G is, even when h is zero or fitted exactly.

    Reversing a tube conjugates its DFT, so on the t-transposed problem of
    the same Omega, where every slice of both is a system, the block form is
    `form` transposed and `left` is conj(`left`) transposed: `transposed`
    reads both without a copy, and swaps the corners per system and per
    other."""

    def __init__(self, mask, observed, systems, q):
        k, kh = mask.shape[2], mask.shape[2] // 2 + 1
        # real DFT matrices: rows 2w, 2w + 1 of forward @ tube are the real and
        # imaginary parts at frequency w; inverse.T maps them back, with 1/k
        angle = 2 * np.pi / k * (np.outer(np.arange(kh), np.arange(k)) % k)
        self.forward = np.stack([np.cos(angle), -np.sin(angle)], 1).reshape(2 * kh, k)
        self.inverse = self.forward * np.repeat(freq_weights(k)[:kh] / k, 2)[:, None]
        self.pairs = np.triu_indices(q // k)
        # conjugate half spectra (kh, systems, others) of the masks and of P_Omega T
        spec = freq_slices(mask * 1.0).conj()
        self.left, self.flip = freq_slices(observed).conj(), False
        self.form = np.block([[spec.real, -spec.imag], [spec.imag, spec.real]])
        self.systems = systems
        # bordered Grams' corners per system, and per other for `transposed`
        tubes = np.einsum("jiu,jiu->ji", observed, observed)  # ||h||^2 per tube
        self.corner, self.other_corner = 2 * tubes.sum(1) + 1, 2 * tubes.sum(0) + 1
        # Gram entry (a, b) reads [pair(s, s'), (sigma' - sigma) mod k, sigma]
        # of (min(a, b), max(a, b)) = ((s, sigma), (s', sigma'))
        pair = np.zeros((q // k, q // k), dtype=np.intp)
        pair[self.pairs] = np.arange(len(self.pairs[0]))
        a = np.arange(q)
        s, sigma = np.divmod(np.minimum.outer(a, a), k)
        s2, sigma2 = np.divmod(np.maximum.outer(a, a), k)
        table = (pair[s, s2] * k + (sigma2 - sigma) % k) * k + sigma
        self.table = np.pad(table, (0, 1))  # its last row and column are written apart

    def transposed(self):
        """These spectra as the t-transposed problem's, whose systems are all
        of this problem's others: `form` and `left` transposed, and `flip`
        reading `left` conjugated."""
        other = copy.copy(self)
        other.form, other.left = self.form.swapaxes(1, 2), self.left.swapaxes(1, 2)
        other.flip, other.systems = not self.flip, np.arange(self.form.shape[2] // 2)
        other.corner, other.other_corner = self.other_corner, self.corner
        return other

    def grams(self, factor):
        """(systems, Grams, right-hand sides) of each block of tall systems,
        as views of its bordered Grams."""
        for systems, bordered in self.bordered(factor):
            yield systems, bordered[:, :-1, :-1], bordered[:, -1, :-1]

    def bordered(self, factor):
        """(systems, bordered Grams [[G, b], [b^T, c]]) of each block of tall systems."""
        p, r, k = factor.shape
        first, second = self.pairs
        width, q = len(first) * k, r * k
        tubes = factor.transpose(2, 0, 1)  # [u, i, s]
        # the tubes twice over, so that shifted[u, i, pair, delta] = x[i, s', u + delta]
        shifted = sliding_window_view(np.concatenate([tubes[:, :, second]] * 2), k, 0)[:k]
        spectrum = np.empty((len(self.forward), p * width))
        spans = _blocks(p, 8 * k * width)
        products = np.empty(len(factor[spans[0]]) * k * width)
        for rows in spans:
            # pair products [u, i, pair, delta] = x[i, s, u] * x[i, s', u + delta],
            # written in C order, so that the DFT GEMM reads them without a copy
            count = len(factor[rows])
            pairs = products[: count * k * width].reshape(k, count, -1, k)
            np.multiply(shifted[:, rows], tubes[:, rows][:, :, first, None], out=pairs)
            cols = slice(rows.start * width, (rows.start + count) * width)
            np.matmul(self.forward, pairs.reshape(k, -1), out=spectrum[:, cols])
        del products, pairs, shifted  # dead while the caller factors the Grams
        spectrum = spectrum.reshape(-1, 1, 2 * p, width)
        spec = freq_slices(factor)
        rhs = np.conj(self.left @ spec.conj()) if self.flip else self.left @ spec
        rhs = from_freq_slices(rhs, k).reshape(-1, q)
        form = self.form.reshape(len(spectrum), 2, -1, 2 * p)  # [w, re/im, system, col]
        # one call's buffers, within BLOCK_BYTES: the block GEMMs' product,
        # then the block's bordered Grams; and the product's inverse DFT
        item = max(len(self.forward) * width, (q + 1) ** 2)
        blocks = _blocks(len(self.systems), 8 * item)
        step = len(self.systems[blocks[0]])
        work, spread = np.empty(step * item), np.empty(step * width * k)
        for at in blocks:
            systems = self.systems[at]
            size = len(systems) * width
            product = work[: len(self.forward) * size].reshape(-1, 2, len(systems), width)
            np.matmul(form[:, :, at], spectrum, out=product)
            back = spread[: size * k].reshape(size, k)  # [system, pair, delta, sigma]
            np.matmul(product.reshape(-1, size).T, self.inverse, out=back)
            gram = work[: len(systems) * (q + 1) ** 2].reshape(-1, q + 1, q + 1)
            np.take(back.reshape(len(systems), -1), self.table, 1, gram, mode="clip")
            gram[:, q, :q] = gram[:, :q, q] = rhs[at]
            gram[:, q, q] = self.corner[at]
            yield systems, gram


class _Plan:
    """What depends on Omega and the observed values, for q = r*k unknowns
    of Y or, without `y_update`, of X: the np.flatnonzero list of entries in
    (slice, row) layout, sorted by the `split_labels` grid `labels`; batches
    of wide systems of one row count h, each with the flat offset into the
    factor of every entry of their rows of C and their observed values; and
    the tall systems' `_Spectral`.  An X plan reads the slices of T^dag.
    System (subset, slice) observes the entries of its slice that `labels`
    puts in its subset, or all of them without labels.  It serves only the
    `observed` and `omega` objects it was built from.  `partner`, the other
    half-step's unlabelled plan of the same observed, omega and q, lends its
    `_Spectral` transposed where every system of both plans is tall."""

    def __init__(self, observed, omega, q, y_update, labels=None, t=1, partner=None):
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
        lent = partner and partner.spectral
        if lent and labels is None and len(tall) == slices and len(lent.systems) == mask.shape[1]:
            self.spectral = lent.transposed()  # every system of both plans is tall
        elif len(tall):
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
    # h >= q: batched normal equations, one Cholesky of each bordered Gram
    for block, bordered in plan.spectral.bordered(factor) if plan.spectral else ():
        singular, chol = _pivot_singular(bordered, plan.q)
        ok = ~singular if singular.any() else slice(None)  # a slice copies nothing
        sol[block[ok]] = _back_substitute(chol[ok])
        del chol  # dead before the next block's factors are allocated
        if singular.any():
            bordered = bordered[singular]
            sol[block[singular]] = _pinv_apply(bordered[:, :-1, :-1], bordered[:, -1, :-1])
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

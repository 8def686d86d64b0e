"""Core t-product linear algebra for dense third-order tensors.

Tensors are plain numpy arrays of shape (m, n, k): entry (i, j, kappa) is
element i of lateral slice j in frontal slice kappa.  The third mode is the
"tube" direction; the t-product multiplies tensors like matrices whose
scalars are length-k tubes under circular convolution, which the mode-3 DFT
diagonalizes.  Forward DFT is unnormalized, the inverse carries the 1/k
factor (numpy's fft/ifft convention).

The t-product, t-inverse, t-SVD, tensor QR and singular value thresholding
share one frequency-slice kernel: `freq_slices` gives the half spectrum as a
(k//2+1, m, n) stack for batched numpy linalg calls, `from_freq_slices` maps
it back.  The other slices are conjugates of these and are never computed.
"""

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidEntries,
    NotOrthonormal,
    SingularFrequencySlice,
)


def _check3(t):
    t = np.asarray(t)
    if t.ndim != 3:
        raise DimensionMismatch(f"tensor must be 3-way, got shape {t.shape}")
    return t


def freq_slices(t):
    """Half-spectrum frequency slices of a real tensor.

    Returns the mode-3 DFT at frequencies 0..k//2 as a (k//2+1, m, n)
    stack: entry [f, i, j] is the DFT of tube (i, j, :) at frequency f.
    """
    t = _check3(t)
    if np.iscomplexobj(t):
        raise InvalidEntries(f"expected a real tensor, got {t.dtype}")
    return np.moveaxis(np.fft.rfft(t, axis=2), 2, 0)


def from_freq_slices(f, k):
    """Real (m, n, k) tensor whose half-spectrum slices are the stack `f`;
    inverse of `freq_slices`."""
    return np.ascontiguousarray(np.fft.irfft(f, n=k, axis=0).transpose(1, 2, 0))


def freq_weights(k):
    """How many of the k full-spectrum slices each half-spectrum slice
    stands for: itself and its conjugate partner."""
    kappa = np.arange(k)
    return np.bincount(np.minimum(kappa, k - kappa))


def unit_phase(pivot):
    """pivot / |pivot| entry-wise, 1 where pivot is 0: dividing a factor
    column by its pivot's phase makes the pivot real positive."""
    mag = np.abs(pivot)
    return np.where(mag > 0, pivot / np.where(mag > 0, mag, 1), 1)


def tprod(a, b):
    """t-product of an (n1, n2, k) and an (n2, n3, k) tensor.

    Computed slice-wise in the frequency domain: each frequency slice of the
    result is the matrix product of the corresponding input slices.
    """
    a = _check3(a)
    b = _check3(b)
    if a.shape[1] != b.shape[0] or a.shape[2] != b.shape[2]:
        raise DimensionMismatch(f"cannot t-multiply {a.shape} by {b.shape}")
    return from_freq_slices(freq_slices(a) @ freq_slices(b), a.shape[2])


def ttranspose(t):
    """Tensor (conjugate) transpose: transpose each frontal slice and
    reverse the order of slices 2..k."""
    t = _check3(t)
    rev = t[:, :, ::-1]
    rolled = np.roll(rev, 1, axis=2)
    return np.ascontiguousarray(rolled.transpose(1, 0, 2))


def identity_tensor(n, k):
    """Identity for the t-product: I_n in slice 1, zeros elsewhere."""
    out = np.zeros((n, n, k))
    out[:, :, 0] = np.eye(n)
    return out


def tinv(t, cond_limit=1e12):
    """t-product inverse of a square tensor via frequency-slice inversion."""
    t = _check3(t)
    n, n2, k = t.shape
    if n != n2:
        raise DimensionMismatch(f"tinv needs a square tensor, got {t.shape}")
    ft = freq_slices(t)
    sv = np.linalg.svd(ft, compute_uv=False)
    # A slice and its conjugate partner share singular values, so the first
    # bad half-spectrum slice is also the first bad one of all k.
    bad = np.flatnonzero((sv[:, -1] == 0) | (sv[:, 0] > cond_limit * sv[:, -1]))
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


def frobenius_norm(t):
    return float(np.linalg.norm(_check3(t)))


def spectral_norm(t):
    """Largest singular value over all frequency slices."""
    sv = np.linalg.svd(freq_slices(t), compute_uv=False)
    return float(sv.max(initial=0.0))


def orthonormality_error(u):
    """Frobenius distance of U^dag * U from the identity tensor."""
    u = _check3(u)
    r = u.shape[1]
    gram = tprod(ttranspose(u), u)
    return float(np.linalg.norm(gram - identity_tensor(r, u.shape[2])))


def coherence(u, orth_tol=1e-8):
    """Coherence of an orthonormal tensor-column subspace.

    Equals (n/r) * max_i ||U(i, :, :)||_F^2 and lies in [1, n/r].
    """
    u = _check3(u)
    n, r, k = u.shape
    if orthonormality_error(u) > orth_tol * np.sqrt(max(r * k, 1)):
        raise NotOrthonormal("input lateral slices are not orthonormal")
    row_sq = np.sum(u * u, axis=(1, 2))
    return float(n / r * np.max(row_sq))

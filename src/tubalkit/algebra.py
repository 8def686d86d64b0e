"""Core t-product linear algebra for dense third-order tensors.

Tensors are plain numpy arrays of shape (m, n, k): entry (i, j, kappa) is
element i of lateral slice j in frontal slice kappa.  The third mode is the
"tube" direction; the t-product multiplies tensors like matrices whose
scalars are length-k tubes under circular convolution, which the mode-3 DFT
diagonalizes.  Forward DFT is unnormalized, the inverse carries the 1/k
factor (numpy's fft/ifft convention).

The t-product, top-r eigenslices, tensor QR and singular value thresholding
share one frequency-slice kernel: `freq_slices` gives the half spectrum as a
(k//2+1, m, n) stack for batched numpy linalg calls, `from_freq_slices` maps
it back.  The other slices are conjugates of these and are never computed.
"""

import math

import numpy as np

from .errors import DimensionMismatch, InvalidEntries, NotOrthonormal

ORTH_TOL = 1e-8  # coherence's per-entry orthonormality tolerance


def _check3(t):
    t = np.asarray(t)
    if t.ndim != 3:
        raise DimensionMismatch(f"tensor must be 3-way, got shape {t.shape}")
    return t


def frobenius(a):
    """Frobenius norm of an array, complex ones included, by one einsum
    rather than BLAS: OpenBLAS threads a large dot product, and the sum
    then depends on the thread count."""
    v = np.ravel(a)
    v = v.view(v.real.dtype) if np.iscomplexobj(v) else v
    return math.sqrt(np.einsum("i,i->", v, v))


def freq_slices(t):
    """Half-spectrum frequency slices of a real tensor.

    Returns the mode-3 DFT at frequencies 0..k//2 as a C-contiguous
    (k//2+1, m, n) stack, so that matrix products on its slices need no
    copy: entry [f, i, j] is the DFT of tube (i, j, :) at frequency f.
    """
    t = _check3(t)
    if np.iscomplexobj(t):
        raise InvalidEntries(f"expected a real tensor, got {t.dtype}")
    return np.ascontiguousarray(np.moveaxis(np.fft.rfft(t, axis=2), 2, 0))


def from_freq_slices(f, k):
    """Real (m, n, k) tensor whose half-spectrum slices are the stack `f`;
    inverse of `freq_slices`."""
    return np.fft.irfft(np.ascontiguousarray(np.moveaxis(f, 0, 2)), n=k, axis=2)


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
    """Tensor (conjugate) transpose: transpose each frontal slice and reverse
    the order of slices 2..k; a view of one tube-reversed C-contiguous copy."""
    t = _check3(t)
    return np.concatenate((t[:, :, :1], t[:, :, :0:-1]), 2).transpose(1, 0, 2)


def identity_tensor(n, k):
    """Identity for the t-product: I_n in slice 1, zeros elsewhere."""
    out = np.zeros((n, n, k))
    out[:, :, 0] = np.eye(n)
    return out


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


def coherence(u):
    """Coherence of an orthonormal tensor-column subspace.

    Equals (n/r) * max_i ||U(i, :, :)||_F^2 and lies in [1, n/r].
    """
    u = _check3(u)
    n, r, k = u.shape
    if orthonormality_error(u) > ORTH_TOL * np.sqrt(max(r * k, 1)):
        raise NotOrthonormal("input lateral slices are not orthonormal")
    row_sq = np.sum(u * u, axis=(1, 2))
    return float(n / r * np.max(row_sq))

"""Tensor singular value decomposition and its top-r eigenslices.

The t-SVD factors a real (m, n, k) tensor as U * Theta * V^dag with U, V
orthonormal under the t-product and Theta f-diagonal.  It is computed by one
batched SVD of the half-spectrum frequency slices; the other slices are
their conjugates, so the inverse DFT is exactly real.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import freq_slices, from_freq_slices, unit_phase, _check3
from .errors import RankOutOfRange


@dataclass
class TsvdFactors:
    """Reduced t-SVD triple: u (m, q, k), theta (q, q, k), v (n, q, k)
    with q = min(m, n)."""

    u: np.ndarray
    theta: np.ndarray
    v: np.ndarray


def tsvd(t):
    """Reduced t-SVD of a real tensor.

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


def top_r_eigenslices(t, r):
    """First r lateral slices of the left t-SVD factor (orthonormal)."""
    t = _check3(t)
    if not 1 <= r <= min(t.shape[0], t.shape[1]):
        raise RankOutOfRange(f"rank {r} outside [1, {min(t.shape[:2])}]")
    return tsvd(t).u[:, :r, :]

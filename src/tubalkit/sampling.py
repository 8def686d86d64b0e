"""Observation sets, the sampling projection, and synthetic instances."""

import hashlib
import numbers
import re
from dataclasses import dataclass, field

import numpy as np

from .algebra import tprod, _check3
from .errors import (
    DimensionMismatch,
    DimOverflow,
    FileFormatError,
    InsufficientSamples,
    InvalidEntries,
    RankOutOfRange,
)

MAX_ELEMENTS = 2**33  # the most entries a tensor or sample-set file may hold


@dataclass(frozen=True)
class RngSeed:
    """Reproducible random stream: same (seed, label) -> same draws."""

    seed: int
    label: str = ""

    def __post_init__(self):  # numpy fails only at the first draw, and runs True as 1
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"seed {self.seed!r} must be an integer")

    def rng(self):
        digest = hashlib.sha256(self.label.encode()).digest()
        words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
        return np.random.default_rng(np.random.SeedSequence([int(self.seed) % 2**64] + words))

    def derive(self, sublabel):
        return RngSeed(self.seed, f"{self.label}/{sublabel}")


@dataclass
class SampleSet:
    """Observation set Omega stored as a boolean mask over (m, n, k)."""

    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.ndim != 3:
            raise DimensionMismatch(f"mask must be 3-D, got shape {self.mask.shape}")

    @property
    def size(self):
        return int(np.count_nonzero(self.mask))

    @property
    def dims(self):
        return self.mask.shape


def sample_bernoulli(m, n, k, p, seed):
    """Include each entry independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    mask = seed.rng().random((m, n, k)) < p
    return SampleSet(mask)


def project(t, omega):
    """Zero out every entry outside the observation set (NaN included)."""
    t = _check3(t)
    if t.shape != omega.dims:
        raise DimensionMismatch(f"tensor {t.shape} vs sample set {omega.dims}")
    return np.where(omega.mask, t, 0.0)


def check_observed(observed, omega):
    """A solver's input zeroed outside omega, checked for a nonempty omega
    and finite observations."""
    observed = project(observed, omega)
    if omega.size == 0:
        raise InsufficientSamples("empty sample set")
    if not np.isfinite(observed).all():  # zero, so finite, outside omega
        raise InvalidEntries("observed tensor is not finite inside the sample set")
    return observed


def split_labels(omega, t, seed):
    """A uniformly random partition of Omega into t parts, as a grid of
    omega.dims: each observed entry's subset in [0, t), drawn in row-major
    order, and -1 outside Omega."""
    if t < 1:
        raise ValueError("need at least one subset")
    labels = np.full(omega.dims, -1)
    labels[omega.mask] = seed.rng().integers(0, t, size=omega.size)
    return labels


def split(omega, t, seed):
    """Partition Omega into the t disjoint subsets that `split_labels` draws."""
    labels = split_labels(omega, t, seed)
    return [SampleSet(labels == part) for part in range(t)]


def synth_low_tubal_rank(m, n, k, r, seed):
    """Random tubal-rank-r tensor: t-product of two iid Gaussian factors.

    Returns (tensor, (x, y)) where tensor = x * y, x is (m, r, k) and
    y is (r, n, k).
    """
    if not 1 <= r <= min(m, n):
        raise RankOutOfRange(f"rank {r} outside [1, {min(m, n)}]")
    rng = seed.rng()
    x = rng.standard_normal((m, r, k))
    y = rng.standard_normal((r, n, k))
    return tprod(x, y), (x, y)


def check_file_dims(m, n, k):
    """Refuse a file header's dims unless each is >= 1, product <= MAX_ELEMENTS."""
    if min(m, n, k) < 1 or m * n * k > MAX_ELEMENTS:
        raise DimOverflow(f"dims {(m, n, k)} out of supported range")


def read_sample_set(path):
    """Parse a sample-set text file: header "m n k", then one 1-based
    "i j kappa" triple per line (any line order, blank lines skipped).  A
    malformed header, field or out-of-range triple raises FileFormatError,
    and so do dims that `check_file_dims` refuses."""
    with open(path) as fh:
        header, body = fh.readline(), fh.read()
    try:
        m, n, k = (int(v) for v in header.split())
        check_file_dims(m, n, k)
        if re.search(r"[^0-9+\-\s]", body):  # loadtxt parses "1.0" as 1 on some numpy
            raise ValueError("a field that is not an integer")
        triples = np.zeros((0, 3), dtype=np.int64)
        if body.strip():  # loadtxt warns on a file with no rows
            triples = np.loadtxt(body.split("\n"), np.int64, comments=None, ndmin=2)
        if triples.shape[1] != 3:
            raise ValueError(f"{triples.shape[1]} fields on a line, not 3")
        outside = np.any((triples < 1) | (triples > (m, n, k)), axis=1)
        if np.any(outside):
            raise ValueError(f"triple {triples[outside][0].tolist()} outside dims")
    except ValueError as exc:
        raise FileFormatError(f"malformed sample-set file {path}: {exc}") from exc
    mask = np.zeros((m, n, k), dtype=bool)
    mask[tuple(triples.T - 1)] = True
    return SampleSet(mask)

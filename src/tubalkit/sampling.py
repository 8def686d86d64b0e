"""Observation sets, the sampling projection, and synthetic instances."""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .algebra import tprod, _check3
from .errors import (
    DimensionMismatch,
    FileFormatError,
    InvalidEntries,
    RankOutOfRange,
)


@dataclass(frozen=True)
class RngSeed:
    """Reproducible random stream: same (seed, label) -> same draws."""

    seed: int
    label: str = ""

    def rng(self):
        digest = hashlib.sha256(self.label.encode()).digest()
        words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
        return np.random.default_rng(np.random.SeedSequence([self.seed % 2**64] + words))

    def derive(self, sublabel):
        return RngSeed(self.seed, f"{self.label}/{sublabel}")


@dataclass
class SampleSet:
    """Observation set Omega stored as a boolean mask over (m, n, k)."""

    m: int
    n: int
    k: int
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != (self.m, self.n, self.k):
            raise DimensionMismatch(
                f"mask shape {self.mask.shape} != dims {(self.m, self.n, self.k)}"
            )

    @property
    def size(self):
        return int(np.count_nonzero(self.mask))

    @property
    def dims(self):
        return (self.m, self.n, self.k)

    def triples(self):
        """Observed (i, j, kappa) triples, 0-based, in row-major order."""
        return np.argwhere(self.mask)

    @classmethod
    def from_triples(cls, m, n, k, triples):
        mask = np.zeros((m, n, k), dtype=bool)
        for i, j, kappa in triples:
            if not (0 <= i < m and 0 <= j < n and 0 <= kappa < k):
                raise DimensionMismatch(f"triple {(i, j, kappa)} outside dims")
            mask[i, j, kappa] = True
        return cls(m, n, k, mask)


def sample_bernoulli(m, n, k, p, seed):
    """Include each entry independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    mask = seed.rng().random((m, n, k)) < p
    return SampleSet(m, n, k, mask)


def project(t, omega):
    """Zero out every entry outside the observation set (NaN included)."""
    t = _check3(t)
    if t.shape != omega.dims:
        raise DimensionMismatch(f"tensor {t.shape} vs sample set {omega.dims}")
    return np.where(omega.mask, t, 0.0)


def check_observed(observed, omega):
    """A solver's input zeroed outside omega, checked for finite observations."""
    observed = project(observed, omega)
    if not np.all(np.isfinite(observed[omega.mask])):
        raise InvalidEntries("observed tensor is not finite inside the sample set")
    return observed


def split(omega, t, seed):
    """Partition Omega into t disjoint subsets, uniformly at random."""
    if t < 1:
        raise ValueError("need at least one subset")
    trips = omega.triples()
    assign = seed.rng().integers(0, t, size=len(trips))
    subsets = []
    for part in range(t):
        mask = np.zeros(omega.dims, dtype=bool)
        chosen = trips[assign == part]
        mask[chosen[:, 0], chosen[:, 1], chosen[:, 2]] = True
        subsets.append(SampleSet(*omega.dims, mask))
    return subsets


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


def write_sample_set(path, omega):
    """Text format: header "m n k", then one 1-based "i j kappa" per line."""
    with open(path, "w") as fh:
        fh.write(f"{omega.m} {omega.n} {omega.k}\n")
        for i, j, kappa in omega.triples():
            fh.write(f"{i + 1} {j + 1} {kappa + 1}\n")


def read_sample_set(path):
    """Parse the text format of `write_sample_set`; a malformed header,
    field or out-of-range triple raises FileFormatError."""
    with open(path) as fh:
        header = fh.readline()
        lines = [line for line in fh if line.strip()]
    try:
        m, n, k = (int(v) for v in header.split())
        triples = [tuple(int(v) - 1 for v in line.split()) for line in lines]
        return SampleSet.from_triples(m, n, k, triples)
    except (ValueError, DimensionMismatch) as exc:
        raise FileFormatError(f"malformed sample-set file {path}: {exc}") from exc

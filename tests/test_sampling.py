import numpy as np
import pytest

from tubalkit.errors import DimensionMismatch, RankOutOfRange
from tubalkit.sampling import (
    RngSeed,
    SampleSet,
    project,
    read_sample_set,
    sample_bernoulli,
    split,
    synth_low_tubal_rank,
    write_sample_set,
)

from oracles import tubal_rank


def test_bernoulli_extremes():
    full = sample_bernoulli(3, 4, 2, 1.0, RngSeed(0, "full"))
    assert full.size == 24
    empty = sample_bernoulli(3, 4, 2, 0.0, RngSeed(0, "empty"))
    assert empty.size == 0


def test_bernoulli_concentration():
    omega = sample_bernoulli(100, 100, 10, 0.5, RngSeed(1, "conc"))
    mean = 50000
    sd = np.sqrt(100000 * 0.25)
    assert abs(omega.size - mean) < 4 * sd


def test_bernoulli_determinism():
    a = sample_bernoulli(10, 10, 5, 0.3, RngSeed(7, "det"))
    b = sample_bernoulli(10, 10, 5, 0.3, RngSeed(7, "det"))
    assert np.array_equal(a.mask, b.mask)
    c = sample_bernoulli(10, 10, 5, 0.3, RngSeed(7, "other"))
    assert not np.array_equal(a.mask, c.mask)


def test_project_basics():
    rng = np.random.default_rng(2)
    t = rng.standard_normal((4, 5, 3))
    full = sample_bernoulli(4, 5, 3, 1.0, RngSeed(0, "p"))
    assert np.array_equal(project(t, full), t)
    empty = SampleSet(4, 5, 3, np.zeros((4, 5, 3), dtype=bool))
    assert np.all(project(t, empty) == 0)
    omega = sample_bernoulli(4, 5, 3, 0.5, RngSeed(3, "p"))
    once = project(t, omega)
    assert np.array_equal(project(once, omega), once)
    assert np.all(once[~omega.mask] == 0)
    # unobserved entries may be NaN: they are replaced, not multiplied by 0
    holes = np.where(omega.mask, t, np.nan)
    assert np.array_equal(project(holes, omega), once)
    with pytest.raises(DimensionMismatch):
        project(rng.standard_normal((4, 5, 4)), omega)


def test_split_partition():
    omega = sample_bernoulli(10, 10, 4, 0.6, RngSeed(4, "split"))
    single = split(omega, 1, RngSeed(4, "s1"))
    assert len(single) == 1 and np.array_equal(single[0].mask, omega.mask)
    parts = split(omega, 3, RngSeed(4, "s3"))
    union = np.zeros(omega.dims, dtype=bool)
    for part in parts:
        assert not np.any(union & part.mask)  # disjoint
        union |= part.mask
    assert np.array_equal(union, omega.mask)


def test_split_balance():
    omega = SampleSet(20, 20, 10, np.ones((20, 20, 10), dtype=bool))
    parts = split(omega, 4, RngSeed(5, "bal"))
    sd = np.sqrt(4000 * 0.25 * 0.75)
    for part in parts:
        assert abs(part.size - 1000) < 4 * sd


def test_split_marginal_rate():
    # a fixed triple should land in subset 0 about p/t of the time
    hits = 0
    runs = 2000
    for s in range(runs):
        omega = sample_bernoulli(4, 4, 2, 0.5, RngSeed(s, "marg"))
        parts = split(omega, 2, RngSeed(s, "marg-split"))
        if parts[0].mask[1, 2, 0]:
            hits += 1
    p = 0.25
    sd = np.sqrt(runs * p * (1 - p))
    assert abs(hits - runs * p) < 5 * sd


def test_synth_rank_one_k1():
    t, (x, y) = synth_low_tubal_rank(2, 2, 1, 1, RngSeed(6, "r1"))
    assert np.allclose(t[:, :, 0], np.outer(x[:, 0, 0], y[0, :, 0]))


def test_synth_tubal_rank():
    t, _ = synth_low_tubal_rank(50, 50, 10, 3, RngSeed(7, "r3"))
    assert tubal_rank(t, tol=1e-6) == 3
    with pytest.raises(RankOutOfRange):
        synth_low_tubal_rank(5, 5, 2, 6, RngSeed(0, "bad"))


def test_synth_determinism():
    t1, _ = synth_low_tubal_rank(8, 8, 4, 2, RngSeed(8, "det"))
    t2, _ = synth_low_tubal_rank(8, 8, 4, 2, RngSeed(8, "det"))
    assert np.array_equal(t1, t2)


def test_sample_set_from_triples_validates():
    with pytest.raises(DimensionMismatch):
        SampleSet.from_triples(2, 2, 2, [(0, 0, 0), (2, 0, 0)])


def test_sample_set_round_trip(tmp_path):
    omega = sample_bernoulli(5, 6, 3, 0.4, RngSeed(9, "io"))
    path = tmp_path / "omega.txt"
    write_sample_set(path, omega)
    back = read_sample_set(path)
    assert back.dims == omega.dims
    assert np.array_equal(back.mask, omega.mask)
    # file is 1-based with a header line
    lines = path.read_text().splitlines()
    assert lines[0] == "5 6 3"
    first = [int(v) for v in lines[1].split()]
    assert all(v >= 1 for v in first)


def test_rng_seed_derive():
    base = RngSeed(3, "root")
    child = base.derive("sub")
    assert child.label == "root/sub"
    assert child.rng().random() == RngSeed(3, "root/sub").rng().random()
    assert base.rng().random() != child.rng().random()

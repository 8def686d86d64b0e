import numpy as np
import pytest

from tubalkit.errors import DimensionMismatch, FileFormatError, RankOutOfRange
from tubalkit.sampling import (
    RngSeed,
    SampleSet,
    project,
    read_sample_set,
    sample_bernoulli,
    split,
    synth_low_tubal_rank,
)

from oracles import tubal_rank, write_sample_set


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
    empty = SampleSet(np.zeros((4, 5, 3), dtype=bool))
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
    omega = SampleSet(np.ones((20, 20, 10), dtype=bool))
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


def test_sample_set_mask_must_be_3d():
    assert SampleSet(np.ones((2, 3, 1))).dims == (2, 3, 1)
    with pytest.raises(DimensionMismatch):
        SampleSet(np.ones((2, 3), dtype=bool))


@pytest.mark.parametrize(
    "line",
    ["1", "1 1", "1 1 1 1", "1 x 1", "1 1 1.0", "1 1 1e0", "0 1 1", "1 0 1", "1 1 0",
     "3 1 1", "1 4 1", "1 1 3"],
    ids=["1-field", "2-fields", "4-fields", "not-int", "float", "exponent", "zero-i",
         "zero-j", "zero-kappa", "above-m", "above-n", "above-k"],
)
def test_read_sample_set_refuses_a_malformed_line(tmp_path, line):
    path = tmp_path / "omega.txt"
    # alone, and between well-formed lines
    for body in (f"{line}\n", f"1 1 1\n{line}\n2 3 2\n"):
        path.write_text(f"2 3 2\n{body}")
        with pytest.raises(FileFormatError):
            read_sample_set(path)


@pytest.mark.parametrize("text", ["2 3 2\n", "2 3 2", "2 3 2\n\n  \n"])
def test_read_sample_set_header_only_is_the_empty_set(tmp_path, text):
    path = tmp_path / "omega.txt"
    path.write_text(text)
    omega = read_sample_set(path)
    assert omega.dims == (2, 3, 2)
    assert omega.size == 0 and omega.mask.shape == (2, 3, 2)


def test_write_sample_set_is_header_then_one_based_row_major_triples(tmp_path):
    path = tmp_path / "omega.txt"
    # out of order, repeated, blank lines: read back as a set
    path.write_text("2 3 12\n2 3 12\n1 3 10\n\n1 1 1\n2 1 4\n1 3 10\n")
    write_sample_set(path, read_sample_set(path))
    assert path.read_text() == "2 3 12\n1 1 1\n1 3 10\n2 1 4\n2 3 12\n"
    for dims, p in (((101, 3, 10), 0.2), ((9, 1, 9), 1.0), ((4, 5, 6), 0.0)):
        omega = sample_bernoulli(*dims, p, RngSeed(10, f"io{dims}"))
        write_sample_set(path, omega)
        lines = [" ".join(map(str, dims))]
        lines += [f"{i + 1} {j + 1} {kappa + 1}" for i, j, kappa in np.argwhere(omega.mask)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        assert np.array_equal(read_sample_set(path).mask, omega.mask)


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

import numpy as np
import pytest

from tubalkit.algebra import identity_tensor, orthonormality_error, tprod, ttranspose
from tubalkit.altmin import top_r_eigenslices
from tubalkit.errors import RankOutOfRange
from tubalkit.sampling import RngSeed, synth_low_tubal_rank

from oracles import (
    circ_expand,
    eigentube_norms,
    frobenius_norm,
    truncate_rank,
    tsvd,
    tubal_rank,
)


def reconstruct(f):
    return tprod(f.u, tprod(f.theta, ttranspose(f.v)))


def test_tsvd_constant_spectrum():
    t = np.zeros((3, 3, 4))
    t[:, :, 0] = np.diag([3.0, 2.0, 1.0])
    f = tsvd(t)
    norms = eigentube_norms(f)
    # eigentubes are [3,0,0,0], [2,0,0,0], [1,0,0,0]
    assert np.allclose(norms, [3.0, 2.0, 1.0])
    assert np.allclose(f.theta[0, 0, :], [3.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_tsvd_rank_from_construction():
    t, _ = synth_low_tubal_rank(20, 20, 4, 3, RngSeed(0, "tsvd-rank"))
    norms = eigentube_norms(tsvd(t))
    assert np.all(norms[:3] > 1e-8 * norms[0])
    assert np.all(norms[3:] <= 1e-8 * norms[0])


def test_tsvd_reconstruction_and_orthonormality():
    rng = np.random.default_rng(1)
    for shape in [(8, 6, 5), (6, 8, 5), (20, 20, 8), (5, 4, 1), (4, 5, 2)]:
        t = rng.standard_normal(shape)
        f = tsvd(t)
        rel = frobenius_norm(reconstruct(f) - t) / frobenius_norm(t)
        assert rel < 1e-8
        assert orthonormality_error(f.u) < 1e-8
        assert orthonormality_error(f.v) < 1e-8


def test_tsvd_theta_f_diagonal_and_ordered():
    t = np.random.default_rng(2).standard_normal((7, 5, 4))
    f = tsvd(t)
    q = f.theta.shape[0]
    off = f.theta.copy()
    for s in range(q):
        off[s, s, :] = 0.0
    assert np.max(np.abs(off)) < 1e-12
    norms = eigentube_norms(f)
    assert np.all(np.diff(norms) <= 1e-12)


def test_projector_idempotence():
    t = np.random.default_rng(3).standard_normal((9, 4, 5))
    u = tsvd(t).u
    p = tprod(u, ttranspose(u))
    assert frobenius_norm(tprod(p, p) - p) < 1e-8


def test_frequency_singular_values_match_circ():
    rng = np.random.default_rng(4)
    # k = 1 and 2 exercise the DC and Nyquist edges of the half spectrum
    for k in (1, 2, 3):
        t = rng.standard_normal((4, 3, k))
        ft = np.fft.fft(t, axis=2)
        per_freq = np.concatenate(
            [np.linalg.svd(ft[:, :, kappa], compute_uv=False) for kappa in range(k)]
        )
        circ_sv = np.linalg.svd(circ_expand(t), compute_uv=False)
        assert np.allclose(np.sort(per_freq), np.sort(circ_sv), atol=1e-8)
        # the t-SVD's f-diagonal tubes carry the same values in frequency
        theta_f = np.fft.fft(np.diagonal(tsvd(t).theta), axis=0)
        assert np.allclose(np.sort(theta_f.real.ravel()), np.sort(circ_sv), atol=1e-8)
        assert np.max(np.abs(theta_f.imag)) < 1e-10


def test_tubal_rank_basics():
    assert tubal_rank(np.zeros((3, 3, 2))) == 0
    assert tubal_rank(identity_tensor(5, 3)) == 5
    t, _ = synth_low_tubal_rank(12, 10, 5, 3, RngSeed(1, "rank3"))
    assert tubal_rank(t, tol=1e-6) == 3


def test_truncate_rank_exact_cases():
    t = np.random.default_rng(5).standard_normal((6, 5, 4))
    full = truncate_rank(t, 5)
    assert frobenius_norm(full - t) < 1e-9 * frobenius_norm(t)
    low, _ = synth_low_tubal_rank(8, 8, 3, 2, RngSeed(2, "exact"))
    assert frobenius_norm(truncate_rank(low, 2) - low) < 1e-8 * frobenius_norm(low)
    with pytest.raises(RankOutOfRange):
        truncate_rank(t, 0)
    with pytest.raises(RankOutOfRange):
        truncate_rank(t, 6)


def test_truncate_rank_beats_random_candidates():
    rng = np.random.default_rng(6)
    t = rng.standard_normal((6, 6, 4))
    best = frobenius_norm(t - truncate_rank(t, 2))
    for _ in range(50):
        x = rng.standard_normal((6, 2, 4))
        y = rng.standard_normal((6, 2, 4))
        cand = tprod(x, ttranspose(y))
        assert frobenius_norm(t - cand) >= best - 1e-9


def test_truncate_rank_monotone_residual():
    t = np.random.default_rng(7).standard_normal((7, 7, 3))
    residuals = [frobenius_norm(t - truncate_rank(t, r)) for r in range(1, 8)]
    assert np.all(np.diff(residuals) <= 1e-10)


def test_top_r_eigenslices_spans_generating_subspace():
    t, (x, y) = synth_low_tubal_rank(10, 10, 4, 3, RngSeed(3, "span"))
    sym = tprod(t, ttranspose(t))
    basis = top_r_eigenslices(sym, 3)
    assert orthonormality_error(basis) < 1e-8
    u = tsvd(t).u[:, :3, :]
    proj = tprod(u, ttranspose(u))
    resid = basis - tprod(proj, basis)
    assert frobenius_norm(resid) < 1e-7


def test_top_r_eigenslices_identity_projector():
    eye = identity_tensor(4, 3)
    basis = top_r_eigenslices(eye, 2)
    p = tprod(basis, ttranspose(basis))
    # some rank-2 sub-projector of the identity, exactly idempotent
    assert frobenius_norm(tprod(p, p) - p) < 1e-9
    full = top_r_eigenslices(eye, 4)
    assert orthonormality_error(full) < 1e-9
    pf = tprod(full, ttranspose(full))
    assert frobenius_norm(pf - eye) < 1e-9


def test_tsvd_deterministic():
    t = np.random.default_rng(8).standard_normal((6, 5, 4))
    f1 = tsvd(t)
    f2 = tsvd(t)
    assert np.array_equal(f1.u, f2.u)
    assert np.array_equal(f1.theta, f2.theta)
    assert np.array_equal(f1.v, f2.v)


@pytest.mark.parametrize(
    "shape", [(6, 5, 1), (6, 5, 4), (6, 5, 7), (4, 9, 6), (9, 4, 3), (50, 50, 10)]
)
def test_top_r_eigenslices_are_the_leading_tsvd_slices(shape):
    # k = 1, even and odd k, m > n and m < n; r = 1 through min(m, n)
    t = np.random.default_rng(9).standard_normal(shape)
    u = tsvd(t).u
    for r in range(1, min(shape[:2]) + 1):
        assert np.array_equal(top_r_eigenslices(t, r), u[:, :r, :]), r

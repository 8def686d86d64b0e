import numpy as np
import pytest

from tubalkit.algebra import (
    circ_expand,
    coherence,
    freq_slices,
    frobenius_norm,
    from_freq_slices,
    identity_tensor,
    spectral_norm,
    tinv,
    tprod,
    ttranspose,
)
from tubalkit.altmin import qr_tensor
from tubalkit.errors import (
    DimensionMismatch,
    InvalidEntries,
    NotOrthonormal,
    SingularFrequencySlice,
)


def naive_dft_tube(tube):
    # O(k^2) DFT sum, used as an oracle for freq_slices.
    k = len(tube)
    out = np.zeros(k, dtype=complex)
    for freq in range(k):
        for t in range(k):
            out[freq] += tube[t] * np.exp(-2j * np.pi * freq * t / k)
    return out


def column_basis(i, m, k):
    # (m, 1, k) tensor with a single 1 at row i of slice 1
    out = np.zeros((m, 1, k))
    out[i, 0, 0] = 1.0
    return out


def tubal_basis(j, k):
    # (1, 1, k) tube with a single 1 at position j
    out = np.zeros((1, 1, k))
    out[0, 0, j] = 1.0
    return out


def test_fft_k1_is_identity():
    t = np.random.default_rng(0).standard_normal((3, 4, 1))
    f = freq_slices(t)
    assert f.shape == (1, 3, 4)
    assert np.allclose(f[0], t[:, :, 0])
    assert np.iscomplexobj(f)


def test_fft_impulse_tube():
    t = np.zeros((1, 1, 4))
    t[0, 0, 0] = 1.0
    assert np.allclose(freq_slices(t)[:, 0, 0], np.ones(3))


def test_fft_matches_naive_dft_oracle():
    rng = np.random.default_rng(1)
    # odd k has no Nyquist slice, even k ends on one
    for k in (5, 6):
        t = rng.standard_normal((3, 2, k))
        f = freq_slices(t)
        assert f.shape == (k // 2 + 1, 3, 2)
        for i in range(3):
            for j in range(2):
                oracle = naive_dft_tube(t[i, j, :])[: k // 2 + 1]
                assert np.max(np.abs(f[:, i, j] - oracle)) < 1e-12


def test_ifft_round_trip():
    rng = np.random.default_rng(2)
    for k in (1, 2, 7, 8):
        t = rng.standard_normal((4, 3, k))
        back = from_freq_slices(freq_slices(t), k)
        assert back.shape == t.shape
        assert np.linalg.norm(back - t) < 1e-12 * np.linalg.norm(t)


def test_ifft_all_ones_frequency_tube():
    f = np.ones((3, 1, 1), dtype=complex)  # half spectrum of k = 4
    expected = np.zeros(4)
    expected[0] = 1.0
    assert np.allclose(from_freq_slices(f, 4)[0, 0, :], expected)


def test_tprod_identity():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 3, 5))
    assert np.allclose(tprod(identity_tensor(4, 5), a), a, atol=1e-12)
    assert np.allclose(tprod(a, identity_tensor(3, 5)), a, atol=1e-12)


def test_tprod_hand_circular_convolution():
    a = np.array([[[1.0, 2.0]]])
    b = np.array([[[3.0, 5.0]]])
    out = tprod(a, b)
    # [a1*b1 + a2*b2, a1*b2 + a2*b1]
    assert np.allclose(out[0, 0, :], [1 * 3 + 2 * 5, 1 * 5 + 2 * 3])


def test_tprod_matches_circ_oracle():
    rng = np.random.default_rng(4)
    # k = 1 and 2 exercise the DC and Nyquist edges of the half spectrum
    for k in (1, 2, 5):
        a = rng.standard_normal((4, 3, k))
        b = rng.standard_normal((3, 2, k))
        c = tprod(a, b)
        prod = circ_expand(a) @ circ_expand(b)
        assert np.allclose(circ_expand(c), prod, atol=1e-10)
        # first column of each block column folds back to the tensor
        for j in range(2):
            col = np.stack(
                [prod[i * k : (i + 1) * k, j * k] for i in range(4)]
            )
            assert np.allclose(col, c[:, j, :], atol=1e-10)


def test_tprod_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        tprod(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)))
    with pytest.raises(DimensionMismatch):
        tprod(np.zeros((2, 3, 4)), np.zeros((3, 2, 5)))
    with pytest.raises(InvalidEntries):
        tprod(np.zeros((2, 3, 4), dtype=complex), np.zeros((3, 2, 4)))


def test_ttranspose_k1_is_matrix_transpose():
    t = np.random.default_rng(5).standard_normal((3, 5, 1))
    assert np.allclose(ttranspose(t)[:, :, 0], t[:, :, 0].T)


def test_ttranspose_involution():
    t = np.random.default_rng(6).standard_normal((3, 4, 6))
    assert np.allclose(ttranspose(ttranspose(t)), t)


def test_ttranspose_reverses_product():
    rng = np.random.default_rng(7)
    for _ in range(5):
        a = rng.standard_normal((3, 3, 4))
        b = rng.standard_normal((3, 3, 4))
        lhs = ttranspose(tprod(a, b))
        rhs = tprod(ttranspose(b), ttranspose(a))
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_ttranspose_slice_layout():
    t = np.random.default_rng(8).standard_normal((2, 3, 5))
    out = ttranspose(t)
    assert np.allclose(out[:, :, 0], t[:, :, 0].T)
    for kappa in range(1, 5):
        # slice kappa (0-based) is the transpose of input slice k - kappa
        assert np.allclose(out[:, :, kappa], t[:, :, 5 - kappa].T)


def test_identity_tensor_shape():
    one = identity_tensor(1, 1)
    assert one.shape == (1, 1, 1) and one[0, 0, 0] == 1.0
    eye = identity_tensor(3, 4)
    for f in freq_slices(eye):
        assert np.allclose(f, np.eye(3))


def test_tinv_identity_and_round_trip():
    eye = identity_tensor(4, 3)
    assert np.allclose(tinv(eye), eye, atol=1e-12)
    # build a well-conditioned tensor from random orthogonal frequency slices
    rng = np.random.default_rng(10)
    q0 = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    q1 = np.linalg.qr(
        rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    )[0]
    # half spectrum of k = 3; slice 2 is the conjugate of slice 1
    t = from_freq_slices(np.stack([q0, q1]), 3)
    back = tprod(tinv(t), t)
    assert np.linalg.norm(back - identity_tensor(4, 3)) < 1e-8


def test_tinv_singular_slice():
    t = np.zeros((2, 2, 3))
    t[:, :, 0] = np.eye(2)
    t[:, :, 1] = -0.5 * np.eye(2)
    t[:, :, 2] = -0.5 * np.eye(2)
    # frequency slice 0 is eye + (-0.5) + (-0.5) = 0
    with pytest.raises(SingularFrequencySlice):
        tinv(t)


def test_convolution_theorem():
    # the t-product of two tubes is their circular convolution
    rng = np.random.default_rng(13)
    for k in (3, 4):
        a = rng.standard_normal((1, 1, k))
        b = rng.standard_normal((1, 1, k))
        direct = [
            sum(a[0, 0, t] * b[0, 0, (kappa - t) % k] for t in range(k))
            for kappa in range(k)
        ]
        assert np.max(np.abs(tprod(a, b)[0, 0, :] - direct)) < 1e-12


def test_circ_expand_1x1x2_layout():
    t = np.array([[[2.0, 7.0]]])
    assert np.allclose(circ_expand(t), [[2.0, 7.0], [7.0, 2.0]])


def test_circ_expand_identity():
    assert np.allclose(circ_expand(identity_tensor(3, 4)), np.eye(12))


def test_circ_frobenius_identity():
    rng = np.random.default_rng(15)
    for _ in range(5):
        t = rng.standard_normal((4, 3, 5))
        assert np.isclose(
            frobenius_norm(t),
            np.linalg.norm(circ_expand(t)) / np.sqrt(5),
            rtol=1e-12,
        )


def test_circ_transpose_compatibility():
    t = np.random.default_rng(16).standard_normal((3, 4, 5))
    assert np.allclose(circ_expand(ttranspose(t)), circ_expand(t).T, atol=1e-12)


def test_norms_zero_and_identity():
    z = np.zeros((3, 3, 2))
    assert frobenius_norm(z) == 0
    assert spectral_norm(z) == 0
    eye = identity_tensor(5, 3)
    assert np.isclose(spectral_norm(eye), 1.0)
    assert np.isclose(frobenius_norm(eye), np.sqrt(5))


def test_spectral_norm_matches_circ_svd():
    rng = np.random.default_rng(17)
    for k in (1, 2, 3, 4, 5):
        t = rng.standard_normal((5, 4, k))
        top = np.linalg.svd(circ_expand(t), compute_uv=False)[0]
        assert abs(spectral_norm(t) - top) < 1e-9


def test_coherence_extremes():
    eye = identity_tensor(6, 3)
    u = eye[:, :2, :]
    assert np.isclose(coherence(u), 3.0)  # n/r = 6/2
    # minimum coherence: rows are cyclic shifts of a scaled impulse, which
    # is orthonormal and spreads mass evenly across rows
    n = k = 4
    spread = np.zeros((n, 1, k))
    for i in range(n):
        spread[i, 0, i] = 1.0 / np.sqrt(n)
    assert np.isclose(coherence(spread), 1.0)


def test_coherence_bounds_random():
    rng = np.random.default_rng(19)
    for _ in range(10):
        u, _ = qr_tensor(rng.standard_normal((8, 3, 4)))
        mu = coherence(u)
        assert 1 - 1e-9 <= mu <= 8 / 3 + 1e-9


def test_coherence_rejects_non_orthonormal():
    with pytest.raises(NotOrthonormal):
        coherence(np.random.default_rng(20).standard_normal((6, 2, 3)))


def test_basis_decomposition_reconstructs():
    rng = np.random.default_rng(21)
    t = rng.standard_normal((2, 2, 2))
    k = 2
    acc = np.zeros_like(t)
    for i in range(2):
        for j in range(2):
            for kappa in range(k):
                piece = tprod(
                    tprod(column_basis(i, 2, k), tubal_basis(kappa, k)),
                    ttranspose(column_basis(j, 2, k)),
                )
                acc += t[i, j, kappa] * piece
    assert np.allclose(acc, t, atol=1e-12)


def test_basis_extracts_horizontal_slice():
    rng = np.random.default_rng(22)
    t = rng.standard_normal((4, 3, 5))
    for i in range(4):
        row = tprod(ttranspose(column_basis(i, 4, 5)), t)
        assert np.isclose(
            frobenius_norm(row), np.linalg.norm(t[i, :, :]), rtol=1e-10
        )


def test_circ_homomorphism_random_dims():
    rng = np.random.default_rng(23)
    for _ in range(20):
        m, s, n = rng.integers(1, 7, size=3)
        k = int(rng.integers(1, 6))
        a = rng.standard_normal((m, s, k))
        b = rng.standard_normal((s, n, k))
        lhs = circ_expand(tprod(a, b))
        rhs = circ_expand(a) @ circ_expand(b)
        scale = max(np.linalg.norm(rhs), 1.0)
        assert np.linalg.norm(lhs - rhs) < 1e-9 * scale


def test_product_norm_circ_identity():
    rng = np.random.default_rng(24)
    for _ in range(10):
        a = rng.standard_normal((4, 3, 4))
        b = rng.standard_normal((3, 5, 4))
        lhs = frobenius_norm(tprod(a, b))
        rhs = np.linalg.norm(circ_expand(a) @ circ_expand(b)) / 2.0
        assert abs(lhs - rhs) < 1e-9 * max(rhs, 1.0)

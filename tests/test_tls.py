import math

import numpy as np
import pytest

from tubalkit.algebra import (
    circ_expand,
    fft_mode3,
    frobenius_norm,
    ifft_mode3,
    tprod,
    ttranspose,
    tube_transpose,
)
from tubalkit.altmin import qr_tensor
from tubalkit.errors import DimensionMismatch, RankDeficientSystem
from tubalkit.sampling import (
    RngSeed,
    SampleSet,
    project,
    sample_bernoulli,
    split,
    synth_low_tubal_rank,
)
from tubalkit.tls import (
    LsOptions,
    circulant_rows,
    ls_solve_x,
    ls_solve_y,
    median_count,
    median_ls,
)


def build_slice_system(observed_freq, mask_freq, x_freq, j):
    """Frequency-domain design matrix and right-hand side of lateral slice j.

    Masking a tube in the time domain is a circular convolution of spectra,
    so the design couples frequencies through the circulant of the mask
    tube's DFT.  Rows are (i, output frequency), columns (s, input
    frequency):

    design[(i, ko), (s, ki)] = (1/k) * circ(mask_freq[i, j, :])[ko, ki]
                                     * x_freq[i, s, ki]
    b[(i, ko)] = observed_freq[i, j, ko]

    Test oracle only: the solver assembles real time-domain rows instead.
    """
    m, n, k = observed_freq.shape
    r = x_freq.shape[1]
    idx = (np.arange(k)[:, None] - np.arange(k)[None, :]) % k
    circs = mask_freq[:, j, :][:, idx]  # (m, k, k): [i, ko, ki]
    design = np.einsum("iab,isb->iasb", circs, x_freq) / k
    b = observed_freq[:, j, :].reshape(m * k)
    return design.reshape(m * k, r * k), b


def freq_solve(observed_freq, mask_freq, factor_freq, regularization=0.0):
    """Complex lstsq of every slice system; (n, r, k) spectra laid out (s, kappa)."""
    m, n, k = observed_freq.shape
    cols = factor_freq.shape[1] * k
    out = np.empty((n, factor_freq.shape[1], k), dtype=complex)
    for j in range(n):
        design, b = build_slice_system(observed_freq, mask_freq, factor_freq, j)
        if regularization > 0:
            design = np.vstack([design, math.sqrt(regularization) * np.eye(cols)])
            b = np.concatenate([b, np.zeros(cols)])
        out[j] = np.linalg.lstsq(design, b, rcond=None)[0].reshape(-1, k)
    return out


def freq_oracle_y(observed, omega, x, regularization=0.0):
    # the unknown in each slice system is the spectrum of Y^dag's tube, i.e.
    # the conjugate of Y's own spectrum
    of = fft_mode3(observed)
    mf = fft_mode3(omega.mask_tensor())
    return ifft_mode3(np.conj(freq_solve(of, mf, fft_mode3(x), regularization)))


def freq_oracle_x(observed, omega, y, regularization=0.0):
    # the tube-wise transposed twin: rows of T become lateral slices and the
    # known factor enters conjugated
    of = fft_mode3(tube_transpose(observed))
    mf = fft_mode3(tube_transpose(omega.mask_tensor()))
    return ifft_mode3(freq_solve(of, mf, np.conj(fft_mode3(y)), regularization))


def unrolled_y_operator(x, omega):
    """Dense matrix of the real linear map Y -> P_Omega(X * Y^dag).

    Rows run over all mnk outputs, columns over all nrk entries of Y.
    Test oracle only; it materializes an (mnk) x (nrk) matrix.
    """
    m, r, k = x.shape
    n = omega.dims[1]
    cols = []
    for j in range(n):
        for s in range(r):
            for kappa in range(k):
                basis = np.zeros((n, r, k))
                basis[j, s, kappa] = 1.0
                image = project(tprod(x, ttranspose(basis)), omega)
                cols.append(image.reshape(-1))
    return np.stack(cols, axis=1)


def oracle_solve_y(observed, omega, x):
    a = unrolled_y_operator(x, omega)
    b = observed.reshape(-1)
    sol, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    n = omega.dims[1]
    r = x.shape[1]
    k = x.shape[2]
    return sol.reshape((n, r, k))


def unrolled_x_operator(y, omega):
    """Same idea for the map X -> P_Omega(X * Y^dag)."""
    n, r, k = y.shape
    m = omega.dims[0]
    cols = []
    for i in range(m):
        for s in range(r):
            for kappa in range(k):
                basis = np.zeros((m, r, k))
                basis[i, s, kappa] = 1.0
                image = project(tprod(basis, ttranspose(y)), omega)
                cols.append(image.reshape(-1))
    return np.stack(cols, axis=1)


def full_set(m, n, k):
    return SampleSet(m, n, k, np.ones((m, n, k), dtype=bool))


def test_full_observation_orthonormal_x():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((6, 5, 4))
    x, _ = qr_tensor(rng.standard_normal((6, 3, 4)))
    omega = full_set(6, 5, 4)
    y = ls_solve_y(t, omega, x)
    expected = tprod(ttranspose(t), x)
    assert frobenius_norm(y - expected) < 1e-9 * frobenius_norm(expected)


def test_zero_observation_slice_gives_zero():
    rng = np.random.default_rng(1)
    mask = rng.random((5, 4, 3)) < 0.7
    mask[:, 2, :] = False
    omega = SampleSet(5, 4, 3, mask)
    t = rng.standard_normal((5, 4, 3))
    x = rng.standard_normal((5, 2, 3))
    y = ls_solve_y(project(t, omega), omega, x)
    assert np.max(np.abs(y[2, :, :])) < 1e-12
    assert_close(y, freq_oracle_y(project(t, omega), omega, x))


def test_matches_unrolled_oracle():
    rng = np.random.default_rng(2)
    t, (xt, yt) = synth_low_tubal_rank(8, 8, 4, 2, RngSeed(2, "oracle"))
    omega = sample_bernoulli(8, 8, 4, 0.6, RngSeed(2, "oracle-mask"))
    observed = project(t, omega)
    x = rng.standard_normal((8, 2, 4))
    y = ls_solve_y(observed, omega, x)
    ref = oracle_solve_y(observed, omega, x)
    assert frobenius_norm(y - ref) < 1e-7 * max(frobenius_norm(ref), 1.0)


def test_oracle_sweep_small_instances():
    rng = np.random.default_rng(3)
    for trial in range(20):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 5))
        r = int(rng.integers(1, min(m, n, 3) + 1))
        p = [0.4, 0.6, 1.0][trial % 3]
        omega = sample_bernoulli(m, n, k, p, RngSeed(trial, "sweep-mask"))
        t = rng.standard_normal((m, n, k))
        observed = project(t, omega)
        x = rng.standard_normal((m, r, k))
        y = ls_solve_y(observed, omega, x)
        ref = oracle_solve_y(observed, omega, x)
        assert frobenius_norm(y - ref) < 1e-7 * max(frobenius_norm(ref), 1.0)


def assert_close(got, ref):
    assert frobenius_norm(got - ref) <= 1e-12 * frobenius_norm(ref)


def assert_matches_frequency_oracle(observed, omega, x, y, regularization=0.0):
    opts = LsOptions(regularization=regularization)
    ref_y = freq_oracle_y(observed, omega, x, regularization)
    assert_close(ls_solve_y(observed, omega, x, opts), ref_y)
    ref_x = freq_oracle_x(observed, omega, y, regularization)
    assert_close(ls_solve_x(observed, omega, y, opts), ref_x)


def test_frequency_oracle_agreement():
    rng = np.random.default_rng(4)
    for k in (1, 2, 3, 5, 8):
        for p in (0.2, 0.5, 1.0):
            omega = sample_bernoulli(30, 24, k, p, RngSeed(k, f"agree-{p}"))
            observed = project(rng.standard_normal((30, 24, k)), omega)
            x = rng.standard_normal((30, 2, k))
            y = rng.standard_normal((24, 2, k))
            assert_matches_frequency_oracle(observed, omega, x, y)


def criterion_3_trial(number):
    """Replay the random draws of acceptance criterion 3 up to one trial."""
    rng = np.random.default_rng(103)
    for trial in range(number + 1):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 5))
        r = int(rng.integers(1, min(m, n, 3) + 1))
        t = rng.standard_normal((m, n, k))
        x = rng.standard_normal((m, r, k))
    p = [0.4, 0.6, 1.0][number % 3]
    omega = sample_bernoulli(m, n, k, p, RngSeed(number, "c3-mask"))
    return project(t, omega), omega, x


def test_singular_slice_regression():
    # Criterion 3, trial 33: slice 4 observes two rows for three unknowns.
    # Its Gram has singular values 11.3, 0.843 and ~4e-16, and its Cholesky
    # factorization still succeeds, with a last pivot of ~1e-13.  The slice
    # must take the minimum-norm path all the same.
    observed, omega, x = criterion_3_trial(33)
    assert observed.shape == (2, 5, 3) and x.shape[1] == 1
    kept = circulant_rows(x, 1)[omega.mask[:, 4, :].reshape(-1)]
    gram = kept.T @ kept
    assert np.linalg.svd(gram, compute_uv=False)[2] < 1e-12
    np.linalg.cholesky(gram)
    assert_close(ls_solve_y(observed, omega, x), freq_oracle_y(observed, omega, x))
    with pytest.raises(RankDeficientSystem, match="slice 4: rank 2 < 3"):
        ls_solve_y(observed, omega, x, LsOptions(allow_rank_deficient=False))


def test_rank_deficient_tall_slices_take_minimum_norm():
    # repeated factor columns: every slice has many rows but rank k < r*k
    rng = np.random.default_rng(21)
    omega = sample_bernoulli(15, 12, 4, 0.6, RngSeed(21, "tall"))
    observed = project(rng.standard_normal((15, 12, 4)), omega)
    x = np.repeat(rng.standard_normal((15, 1, 4)), 2, axis=1)
    y = np.repeat(rng.standard_normal((12, 1, 4)), 2, axis=1)
    assert_matches_frequency_oracle(observed, omega, x, y)
    with pytest.raises(RankDeficientSystem, match="rank 4 < 8"):
        ls_solve_y(observed, omega, x, LsOptions(allow_rank_deficient=False))


def test_ridge_shrinks_solution():
    rng = np.random.default_rng(5)
    t = rng.standard_normal((6, 6, 3))
    omega = sample_bernoulli(6, 6, 3, 0.7, RngSeed(5, "ridge"))
    observed = project(t, omega)
    x = rng.standard_normal((6, 2, 3))
    plain = ls_solve_y(observed, omega, x)
    ridged = ls_solve_y(observed, omega, x, LsOptions(regularization=10.0))
    assert frobenius_norm(ridged) < frobenius_norm(plain)
    y = rng.standard_normal((6, 2, 3))
    assert_matches_frequency_oracle(observed, omega, x, y, regularization=10.0)


def test_rank_deficiency_policy():
    # far fewer observations than unknowns makes every slice system wide
    omega = SampleSet(4, 3, 4, np.zeros((4, 3, 4), dtype=bool))
    omega.mask[0, :, 0] = True
    t = np.random.default_rng(6).standard_normal((4, 3, 4))
    x = np.random.default_rng(7).standard_normal((4, 2, 4))
    ls_solve_y(project(t, omega), omega, x)  # minimum norm, fine
    with pytest.raises(RankDeficientSystem):
        ls_solve_y(
            project(t, omega),
            omega,
            x,
            LsOptions(allow_rank_deficient=False),
        )


def test_perturbation_optimality():
    rng = np.random.default_rng(8)
    t, _ = synth_low_tubal_rank(7, 6, 3, 2, RngSeed(8, "opt"))
    omega = sample_bernoulli(7, 6, 3, 0.6, RngSeed(8, "opt-mask"))
    observed = project(t, omega)
    x = rng.standard_normal((7, 2, 3))
    y = ls_solve_y(observed, omega, x)
    base = frobenius_norm(project(tprod(x, ttranspose(y)), omega) - observed) ** 2
    for _ in range(20):
        delta = rng.standard_normal(y.shape)
        delta *= 1e-4 / np.linalg.norm(delta)
        cand = frobenius_norm(
            project(tprod(x, ttranspose(y + delta)), omega) - observed
        ) ** 2
        assert cand >= base - 1e-8


def test_k1_reduces_to_matrix_least_squares():
    rng = np.random.default_rng(9)
    m, n, r = 7, 5, 2
    t = rng.standard_normal((m, n, 1))
    omega = sample_bernoulli(m, n, 1, 0.7, RngSeed(9, "k1"))
    observed = project(t, omega)
    x = rng.standard_normal((m, r, 1))
    y = ls_solve_y(observed, omega, x)
    for j in range(n):
        rows = omega.mask[:, j, 0]
        expected = np.zeros(r)
        if rows.any():
            expected, _, _, _ = np.linalg.lstsq(
                x[rows, :, 0], t[rows, j, 0], rcond=None
            )
        assert np.allclose(y[j, :, 0], expected, atol=1e-8)


def test_ls_solve_x_full_observation():
    rng = np.random.default_rng(10)
    t = rng.standard_normal((6, 5, 4))
    y, _ = qr_tensor(rng.standard_normal((5, 3, 4)))
    omega = full_set(6, 5, 4)
    x = ls_solve_x(t, omega, y)
    expected = tprod(t, y)
    assert frobenius_norm(x - expected) < 1e-9 * frobenius_norm(expected)


def test_ls_solve_x_matches_unrolled_oracle():
    rng = np.random.default_rng(11)
    t = rng.standard_normal((6, 7, 3))
    omega = sample_bernoulli(6, 7, 3, 0.6, RngSeed(11, "x-oracle"))
    observed = project(t, omega)
    y = rng.standard_normal((7, 2, 3))
    x = ls_solve_x(observed, omega, y)
    a = unrolled_x_operator(y, omega)
    ref, _, _, _ = np.linalg.lstsq(a, observed.reshape(-1), rcond=None)
    ref = ref.reshape((6, 2, 3))
    assert frobenius_norm(x - ref) < 1e-7 * max(frobenius_norm(ref), 1.0)


def tube_reverse(t):
    # tube index map kappa -> -kappa mod k; conjugates the spectrum
    return np.roll(t[:, :, ::-1], 1, axis=2)


def test_transpose_duality():
    rng = np.random.default_rng(12)
    t = rng.standard_normal((5, 6, 4))
    omega = sample_bernoulli(5, 6, 4, 0.7, RngSeed(12, "dual"))
    observed = project(t, omega)
    y = rng.standard_normal((6, 2, 4))
    direct = ls_solve_x(observed, omega, y)
    # solve the tube-transposed twin with ls_solve_y: transposing every
    # frequency slice swaps the factors and conjugates the known one
    omega_t = SampleSet(6, 5, 4, tube_transpose(observed * 0 + omega.mask) > 0)
    via = ls_solve_y(
        tube_transpose(observed), omega_t, tube_reverse(y)
    )
    assert frobenius_norm(tube_reverse(via) - direct) < 1e-8 * max(
        frobenius_norm(direct), 1.0
    )


def test_zero_observation_horizontal_slice():
    rng = np.random.default_rng(13)
    mask = rng.random((5, 4, 3)) < 0.7
    mask[3, :, :] = False
    omega = SampleSet(5, 4, 3, mask)
    t = rng.standard_normal((5, 4, 3))
    y = rng.standard_normal((4, 2, 3))
    x = ls_solve_x(project(t, omega), omega, y)
    assert np.max(np.abs(x[3, :, :])) < 1e-12
    assert_close(x, freq_oracle_x(project(t, omega), omega, y))


def test_build_slice_system_full_mask_degeneracy():
    rng = np.random.default_rng(14)
    m, n, k, r = 4, 3, 5, 2
    t = rng.standard_normal((m, n, k))
    omega = full_set(m, n, k)
    of = fft_mode3(t)
    mf = fft_mode3(omega.mask_tensor())
    xf = fft_mode3(rng.standard_normal((m, r, k)))
    design, _ = build_slice_system(of, mf, xf, 1)
    design = design.reshape(m, k, r, k)
    for i in range(m):
        for ko in range(k):
            for s in range(r):
                for ki in range(k):
                    expected = xf[i, s, ki] if ko == ki else 0.0
                    assert abs(design[i, ko, s, ki] - expected) < 1e-9


def test_build_slice_system_operator_consistency():
    rng = np.random.default_rng(15)
    m, n, k, r = 4, 4, 3, 2
    t = rng.standard_normal((m, n, k))
    omega = sample_bernoulli(m, n, k, 0.6, RngSeed(15, "consist"))
    observed = project(t, omega)
    of = fft_mode3(observed)
    mf = fft_mode3(omega.mask_tensor())
    x = rng.standard_normal((m, r, k))
    xf = fft_mode3(x)
    j = 2
    design, b = build_slice_system(of, mf, xf, j)
    for _ in range(20):
        y = rng.standard_normal((n, r, k))
        image = project(tprod(x, ttranspose(y)), omega)
        expected = fft_mode3(image)[:, j, :].reshape(m * k)
        vec = np.conj(fft_mode3(y)[j]).reshape(r * k)
        assert np.max(np.abs(design @ vec - expected)) < 1e-9 * max(
            1.0, np.max(np.abs(expected))
        )
    # right-hand side stacks the observed slice's tubes in row order
    assert np.allclose(b, of[:, j, :].reshape(m * k))


def test_median_count():
    assert median_count(1) == 1
    assert median_count(50) == round(3 * np.log2(50))


def test_median_t1_equals_single_solve():
    rng = np.random.default_rng(16)
    t = rng.standard_normal((6, 6, 3))
    omega = sample_bernoulli(6, 6, 3, 0.8, RngSeed(16, "med"))
    observed = project(t, omega)
    x = rng.standard_normal((6, 2, 3))
    med = median_ls(observed, omega, x, RngSeed(16, "med-split"), t=1)
    single = ls_solve_y(observed, omega, x)
    assert np.allclose(med, single, atol=1e-12)


def test_median_is_elementwise_median_of_subset_solves():
    rng = np.random.default_rng(17)
    t = rng.standard_normal((6, 6, 3))
    omega = sample_bernoulli(6, 6, 3, 0.9, RngSeed(17, "med3"))
    observed = project(t, omega)
    x = rng.standard_normal((6, 2, 3))
    seed = RngSeed(17, "med3-split")
    med = median_ls(observed, omega, x, seed, t=3)
    subsets = split(omega, 3, seed)
    sols = [ls_solve_y(project(observed, s), s, x) for s in subsets]
    assert np.allclose(med, np.median(np.stack(sols), axis=0), atol=1e-12)


def test_median_rejects_one_corrupted_solve():
    # with full data each subset still solves the slice systems exactly, so
    # the three per-subset solutions agree; corrupting one leaves the median
    # at the clean value everywhere
    t, (xt, yt) = synth_low_tubal_rank(10, 10, 2, 1, RngSeed(18, "corrupt"))
    omega = full_set(10, 10, 2)
    x, _ = qr_tensor(xt)
    subsets = split(omega, 3, RngSeed(18, "corrupt-split"))
    sols = [ls_solve_y(project(t, s), s, x) for s in subsets]
    clean = sols[0].copy()
    for s in sols[1:]:
        assert np.allclose(s, clean, atol=1e-8)
    sols[1] = sols[1] + 100.0  # adversarial subset
    med = np.median(np.stack(sols), axis=0)
    assert np.allclose(med, clean, atol=1e-8)


def test_noncirculant_witness():
    # 1x1x2 instance, full observation: the unconstrained circular-matrix
    # least-squares problem admits exact solutions that are not circulant,
    # so it is not equivalent to the tensor problem
    x_tube = np.array([[[2.0, 1.0]]])
    xc = circ_expand(x_tube)  # [[2, 1], [1, 2]], invertible
    t_tube = np.array([[[5.0, 3.0]]])
    tc = circ_expand(t_tube)
    g = np.array([[0.7, 0.2], [-0.2, -0.7]])  # G11 = -G22, G12 = -G21
    y = np.linalg.solve(xc, tc - g)
    # feasible for the circular constraint with this noise term
    assert np.allclose(xc @ y + g, tc, atol=1e-12)
    # but not a circulant matrix
    assert abs(y[0, 0] - y[1, 1]) > 1e-3
    # the tensor solver's output is a tensor by construction: its circular
    # image is circulant and it reaches the same zero optimum on full data
    omega = full_set(1, 1, 2)
    y_tensor = ls_solve_y(t_tube, omega, x_tube)
    yc = circ_expand(ttranspose(y_tensor))
    assert np.allclose(yc[0, 0], yc[1, 1], atol=1e-12)
    resid = frobenius_norm(tprod(x_tube, ttranspose(y_tensor)) - t_tube)
    assert resid < 1e-10


def test_dimension_mismatch_errors():
    t = np.zeros((4, 4, 3))
    omega = full_set(4, 4, 3)
    with pytest.raises(DimensionMismatch):
        ls_solve_y(t, omega, np.zeros((5, 2, 3)))
    with pytest.raises(DimensionMismatch):
        ls_solve_x(t, omega, np.zeros((4, 2, 4)))

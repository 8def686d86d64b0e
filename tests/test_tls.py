import warnings

import numpy as np
import pytest

from tubalkit import altmin
from tubalkit.algebra import circ_expand, frobenius_norm, tprod, ttranspose
from tubalkit.altmin import qr_tensor
from tubalkit.errors import DimensionMismatch
from tubalkit.sampling import (
    RngSeed,
    SampleSet,
    project,
    sample_bernoulli,
    split,
    split_labels,
    synth_low_tubal_rank,
)
from tubalkit.tls import (
    BLOCK_BYTES,
    _Plan,
    _pinv_apply,
    _pivot_singular,
    circulant_rows,
    ls_solve_x,
    ls_solve_y,
    median_count,
    median_ls,
    median_ls_x,
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


def freq_solve(observed_freq, mask_freq, factor_freq):
    """Complex lstsq of every slice system; (n, r, k) spectra laid out (s, kappa)."""
    m, n, k = observed_freq.shape
    out = np.empty((n, factor_freq.shape[1], k), dtype=complex)
    for j in range(n):
        design, b = build_slice_system(observed_freq, mask_freq, factor_freq, j)
        out[j] = np.linalg.lstsq(design, b, rcond=None)[0].reshape(-1, k)
    return out


def real_tubes(spectra):
    # inverse mode-3 DFT of spectra that must be the image of a real tensor
    tubes = np.fft.ifft(spectra, axis=2)
    assert np.linalg.norm(tubes.imag) <= 1e-12 * np.linalg.norm(tubes)
    return tubes.real


def freq_oracle_y(observed, omega, x):
    # the unknown in each slice system is the spectrum of Y^dag's tube, i.e.
    # the conjugate of Y's own spectrum
    of = np.fft.fft(observed, axis=2)
    mf = np.fft.fft(omega.mask, axis=2)
    return real_tubes(np.conj(freq_solve(of, mf, np.fft.fft(x, axis=2))))


def freq_oracle_x(observed, omega, y):
    # the tube-wise transposed twin: rows of T become lateral slices and the
    # known factor enters conjugated
    of = np.fft.fft(observed.transpose(1, 0, 2), axis=2)
    mf = np.fft.fft(omega.mask.transpose(1, 0, 2), axis=2)
    return real_tubes(freq_solve(of, mf, np.conj(np.fft.fft(y, axis=2))))


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


def assert_matches_frequency_oracle(observed, omega, x, y):
    assert_close(ls_solve_y(observed, omega, x), freq_oracle_y(observed, omega, x))
    assert_close(ls_solve_x(observed, omega, y), freq_oracle_x(observed, omega, y))


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


def test_rank_deficient_tall_slices_take_minimum_norm():
    # repeated factor columns: every slice has many rows but rank k < r*k
    rng = np.random.default_rng(21)
    omega = sample_bernoulli(15, 12, 4, 0.6, RngSeed(21, "tall"))
    observed = project(rng.standard_normal((15, 12, 4)), omega)
    x = np.repeat(rng.standard_normal((15, 1, 4)), 2, axis=1)
    y = np.repeat(rng.standard_normal((12, 1, 4)), 2, axis=1)
    assert_matches_frequency_oracle(observed, omega, x, y)


def test_rank_deficiency_policy():
    # far fewer observations than unknowns makes every slice system wide;
    # each takes the minimum-norm solution
    omega = SampleSet(4, 3, 4, np.zeros((4, 3, 4), dtype=bool))
    omega.mask[0, :, 0] = True
    t = np.random.default_rng(6).standard_normal((4, 3, 4))
    x = np.random.default_rng(7).standard_normal((4, 2, 4))
    y = np.random.default_rng(8).standard_normal((3, 2, 4))
    assert_matches_frequency_oracle(project(t, omega), omega, x, y)


def slice_systems(observed, omega, factor, y_update):
    """(K, b) of every slice system: lateral slices j for the Y half-step,
    horizontal slices i for the X half-step."""
    if y_update:
        rows = circulant_rows(factor, 1)
        masks, values = omega.mask.transpose(1, 0, 2), observed.transpose(1, 0, 2)
    else:
        rows = circulant_rows(factor, -1)
        masks, values = omega.mask, observed
    systems = []
    for mask, value in zip(masks, values):
        mask = mask.reshape(-1)
        systems.append((rows[mask], value.reshape(-1)[mask]))
    return systems


def normal_equations_min_norm(kept, b):
    # the q x q route: eigh of K^T K with the solver's eigenvalue cut
    w, v = np.linalg.eigh(kept.T @ kept)
    keep = w > 1e-10 * w[-1]
    return v[:, keep] @ ((v[:, keep].T @ (kept.T @ b)) / w[keep])


def wide_errors(observed, omega, x, y):
    """Over every slice that observes some, but fewer than r*k, entries:
    the relative distance from lstsq of the solver and of the q x q route,
    and kappa^2 of the slice's singular values above the solver's cut."""
    q = x.shape[1] * x.shape[2]
    errors = []
    for sol, factor, y_update in ((ls_solve_y, x, True), (ls_solve_x, y, False)):
        got = sol(observed, omega, factor).reshape(-1, q)
        systems = slice_systems(observed, omega, factor, y_update)
        for z, (kept, b) in zip(got, systems):
            if not 0 < len(kept) < q:
                continue
            ref = np.linalg.lstsq(kept, b, rcond=None)[0]
            old = normal_equations_min_norm(kept, b)
            scale = np.linalg.norm(ref)
            sv = np.linalg.svd(kept, compute_uv=False) ** 2
            sv = sv[sv > 1e-10 * sv[0]]
            errors.append(
                (
                    np.linalg.norm(z - ref) / scale,
                    np.linalg.norm(old - ref) / scale,
                    sv[0] / sv[-1],
                )
            )
    assert errors
    return np.array(errors)


def test_underdetermined_slices_match_lstsq():
    # at p=0.08 most slices observe fewer entries than their 3*6 unknowns
    rng = np.random.default_rng(30)
    omega = sample_bernoulli(30, 24, 6, 0.08, RngSeed(30, "wide"))
    observed = project(rng.standard_normal((30, 24, 6)), omega)
    x = rng.standard_normal((30, 3, 6))
    y = rng.standard_normal((24, 3, 6))
    errors = wide_errors(observed, omega, x, y)
    assert len(errors) > 30
    assert errors[:, 0].max() <= 1e-10


def test_rank_deficient_wide_slices_share_normal_equation_error_bound():
    # repeated factor columns: rank at most k, below h on most wide slices.
    # The h x h row Gram and the q x q Gram both square the condition
    # number of the kept spectrum; neither route is the closer one on every
    # slice, but both stay within a small multiple of kappa^2 * eps.
    rng = np.random.default_rng(31)
    omega = sample_bernoulli(30, 24, 5, 0.07, RngSeed(31, "wide-deficient"))
    observed = project(rng.standard_normal((30, 24, 5)), omega)
    x = np.repeat(rng.standard_normal((30, 1, 5)), 3, axis=1)
    y = np.repeat(rng.standard_normal((24, 1, 5)), 3, axis=1)
    errors = wide_errors(observed, omega, x, y)
    assert len(errors) > 30
    bound = 16 * np.finfo(float).eps * errors[:, 2]
    assert np.all(errors[:, 0] <= bound)
    assert np.all(errors[:, 1] <= bound)


def test_empty_slices_are_exact_zeros():
    # empty, underdetermined and overdetermined slices in one call
    rng = np.random.default_rng(32)
    omega = sample_bernoulli(12, 9, 4, 0.5, RngSeed(32, "empty"))
    omega.mask[:, 1, :] = False
    omega.mask[:, 5, :] = False
    omega.mask[:, 6, :] = False
    omega.mask[:2, 6, :] = True
    observed = project(rng.standard_normal((12, 9, 4)), omega)
    x = rng.standard_normal((12, 2, 4))
    y = ls_solve_y(observed, omega, x)
    assert np.all(y[[1, 5]] == 0.0)
    assert np.all(y[[0, 2, 3, 4, 6, 7, 8]] != 0.0)
    omega.mask[3, :, :] = False
    y = rng.standard_normal((9, 2, 4))
    assert np.all(ls_solve_x(project(observed, omega), omega, y)[3] == 0.0)


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
    omega_t = SampleSet(6, 5, 4, omega.mask.transpose(1, 0, 2))
    via = ls_solve_y(observed.transpose(1, 0, 2), omega_t, tube_reverse(y))
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
    of = np.fft.fft(t, axis=2)
    mf = np.fft.fft(omega.mask, axis=2)
    xf = np.fft.fft(rng.standard_normal((m, r, k)), axis=2)
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
    of = np.fft.fft(observed, axis=2)
    mf = np.fft.fft(omega.mask, axis=2)
    x = rng.standard_normal((m, r, k))
    xf = np.fft.fft(x, axis=2)
    j = 2
    design, b = build_slice_system(of, mf, xf, j)
    for _ in range(20):
        y = rng.standard_normal((n, r, k))
        image = project(tprod(x, ttranspose(y)), omega)
        expected = np.fft.fft(image, axis=2)[:, j, :].reshape(m * k)
        vec = np.conj(np.fft.fft(y, axis=2)[j]).reshape(r * k)
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


def test_median_of_sparse_split_is_elementwise_median():
    # 17 subsets of a sparse mask: most slice systems are empty or wide
    rng = np.random.default_rng(33)
    t = rng.standard_normal((20, 12, 4))
    omega = sample_bernoulli(20, 12, 4, 0.5, RngSeed(33, "med17"))
    observed = project(t, omega)
    x = rng.standard_normal((20, 2, 4))
    seed = RngSeed(33, "med17-split")
    med = median_ls(observed, omega, x, seed, t=17)
    subsets = split(omega, 17, seed)
    sols = np.stack([ls_solve_y(project(observed, s), s, x) for s in subsets])
    counts = [s.mask.sum(axis=(0, 2)) for s in subsets]
    assert min(c.min() for c in counts) == 0 and max(c.max() for c in counts) < 8
    assert_close(med, np.median(sols, axis=0))


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
    plan = _Plan(t, omega, 2 * 3, True)  # a Y plan for rank 2
    with pytest.raises(DimensionMismatch):
        ls_solve_x(t, omega, np.zeros((4, 2, 3)), plan=plan)
    with pytest.raises(DimensionMismatch):
        ls_solve_y(t, omega, np.zeros((4, 3, 3)), plan=plan)


def dense_solve_tall(rows, masks, values, count, sol):
    q = rows.shape[1]
    tall = np.flatnonzero(count >= q)
    step = max(1, BLOCK_BYTES // (8 * q * q))
    for lo in range(0, len(tall), step):
        block = tall[lo : lo + step]
        gram = np.empty((len(block), q, q))
        rhs = np.empty((len(block), q))
        for b, slot in enumerate(block):
            kept = rows[masks[slot]]
            gram[b] = kept.T @ kept
            rhs[b] = values[slot % len(values), masks[slot]] @ kept
        singular = _pivot_singular(gram)
        ok = ~singular
        sol[block[ok]] = np.linalg.solve(gram[ok], rhs[ok, :, None])[..., 0]
        sol[block[singular]] = _pinv_apply(gram[singular], rhs[singular])


def dense_solve_wide(rows, masks, values, count, sol):
    q = rows.shape[1]
    wide = np.flatnonzero((count > 0) & (count < q))
    if not len(wide):
        return
    wide = wide[np.argsort(count[wide])]
    h = count[wide]
    system, pos = np.nonzero(masks[wide])
    rank = np.arange(len(system)) - np.repeat(np.cumsum(h) - h, h)
    index = np.full((len(wide), h[-1]), len(rows))
    index[system, rank] = pos
    rhs = np.zeros(index.shape)
    rhs[system, rank] = values[wide[system] % len(values), pos]
    rows = np.vstack([rows, np.zeros((1, q))])
    step = max(1, BLOCK_BYTES // (8 * h[-1] * q))
    for lo in range(0, len(wide), step):
        hi = min(lo + step, len(wide))
        kept = rows[index[lo:hi, : h[hi - 1]]]
        coef = _pinv_apply(kept @ kept.transpose(0, 2, 1), rhs[lo:hi, : h[hi - 1]])
        sol[wide[lo:hi]] = (coef[:, None, :] @ kept)[:, 0]


def dense_mask_half_step(observed, omega, factor, y_update, subsets):
    """Solutions (len(subsets), slices, r, k) assembled from a stack of
    dense subset masks, one boolean row scan per system.

    Test oracle only: the solver reads the same systems, in the same order
    and with the same padded blocks, from a sorted list of observed entries,
    so the two must agree bit for bit.
    """

    def slices(t):
        # (..., m, n, k) -> (..., slices, rows)
        if y_update:
            t = np.swapaxes(t, -3, -2)
        return t.reshape(*t.shape[:-2], -1)

    rows = circulant_rows(factor, 1 if y_update else -1)
    masks = slices(np.stack([sub.mask for sub in subsets]))
    values = slices(project(observed, omega))
    lead, size = masks.shape[:-1], masks.shape[-1]
    masks = masks.reshape(-1, size)
    count = masks.sum(axis=1)
    sol = np.zeros((len(masks), rows.shape[1]))
    dense_solve_tall(rows, masks, values, count, sol)
    dense_solve_wide(rows, masks, values, count, sol)
    return sol.reshape(lead + factor.shape[1:])


def dense_median(observed, omega, factor, seed, t, y_update):
    sols = dense_mask_half_step(observed, omega, factor, y_update, split(omega, t, seed))
    return np.median(sols, axis=0)


@pytest.mark.parametrize("t", [1, 3, 17])
@pytest.mark.parametrize(
    "m, n, k, p",
    [(24, 17, 4, 0.9), (17, 24, 5, 0.5), (30, 21, 6, 0.08), (9, 40, 1, 0.3)],
)
def test_entry_lists_match_dense_mask_oracle(m, n, k, p, t):
    # dense and sparse Omega, m != n, one to many median subsets: every
    # system route (empty, wide, tall, singular) in one call
    rng = np.random.default_rng(m * n * k)
    omega = sample_bernoulli(m, n, k, p, RngSeed(t, f"dense-{m}-{n}"))
    observed = project(rng.standard_normal((m, n, k)), omega)
    x = rng.standard_normal((m, 3, k))
    y = rng.standard_normal((n, 3, k))
    x[:, 2] = x[:, 1]  # rank-deficient factors reach the singular route
    seed = RngSeed(t, "dense-split")
    got_y = ls_solve_y(observed, omega, x)
    got_x = ls_solve_x(observed, omega, y)
    assert np.array_equal(got_y, dense_mask_half_step(observed, omega, x, True, [omega])[0])
    assert np.array_equal(got_x, dense_mask_half_step(observed, omega, y, False, [omega])[0])
    # one plan per direction, reused across a rank-deficient and a full-rank
    # factor; the second call must leave the first call's result as it was
    x2, y2 = rng.standard_normal((m, 3, k)), y.copy()
    y2[:, 0] = y2[:, 2]
    for solve, up, first, second in ((ls_solve_y, True, x, x2), (ls_solve_x, False, y2, y)):
        plan = _Plan(observed, omega, 3 * k, up)
        one = solve(observed, omega, first, plan=plan)
        two = solve(observed, omega, second, plan=plan)
        assert np.array_equal(one, solve(observed, omega, first))
        assert np.array_equal(two, solve(observed, omega, second))
    med_y = median_ls(observed, omega, x, seed, t=t)
    med_x = median_ls_x(observed, omega, y, seed, t=t)
    assert np.array_equal(med_y, dense_median(observed, omega, x, seed, t, True))
    assert np.array_equal(med_x, dense_median(observed, omega, y, seed, t, False))


def test_block_mixing_singular_and_regular_tall_slices():
    # Rows i < 10 of x repeat their first column, so a lateral slice that
    # observes only those rows has a singular Gram (rank k < r*k) although
    # it is tall (30 rows, 6 unknowns).  The other slices observe every
    # entry.  All eight systems fall in one block, which must split them.
    m, n, k = 20, 8, 3
    rng = np.random.default_rng(43)
    x = rng.standard_normal((m, 2, k))
    x[:10, 1] = x[:10, 0]
    mask = np.ones((m, n, k), dtype=bool)
    mask[10:, [1, 4, 6], :] = False
    omega = SampleSet(m, n, k, mask)
    observed = project(rng.standard_normal((m, n, k)), omega)
    rows = circulant_rows(x, 1)
    q = rows.shape[1]
    assert n <= BLOCK_BYTES // (8 * q * q)
    slices = mask.transpose(1, 0, 2).reshape(n, -1)
    grams = np.stack([rows[sl].T @ rows[sl] for sl in slices])
    assert list(np.flatnonzero(_pivot_singular(grams))) == [1, 4, 6]
    got = ls_solve_y(observed, omega, x)
    assert np.array_equal(got, dense_mask_half_step(observed, omega, x, True, [omega])[0])
    assert_close(got, freq_oracle_y(observed, omega, x))


@pytest.mark.parametrize("t", [None, 3])
def test_full_variant_trace_matches_dense_mask_oracle(monkeypatch, t):
    # at the default subset count the median is the zero tensor from the
    # second step on (ROADMAP item 4); with 3 subsets the estimate is not
    truth, _ = synth_low_tubal_rank(30, 20, 6, 3, RngSeed(40, "trace"))
    omega = sample_bernoulli(30, 20, 6, 0.8, RngSeed(40, "trace-mask"))
    observed = project(truth, omega)
    cfg = altmin.SolverConfig(
        target_rank=3, variant="full", iterations=4, seed=RngSeed(40, "trace-run")
    )

    def run(y_solver, x_solver):
        monkeypatch.setattr(altmin, "median_ls", y_solver)
        monkeypatch.setattr(altmin, "median_ls_x", x_solver)
        return altmin.tubal_alt_min(observed, omega, cfg, ground_truth=truth)

    def oracle(y_update):
        def median(observed, omega, factor, seed):
            count = t or median_count(observed.shape[1 if y_update else 0])
            return dense_median(observed, omega, factor, seed, count, y_update)

        return median

    got = run(
        lambda *args: median_ls(*args, t=t), lambda *args: median_ls_x(*args, t=t)
    )
    ref = run(oracle(True), oracle(False))
    assert len(got.rse) == 4
    assert got.rse == ref.rse
    assert np.array_equal(got.estimate, ref.estimate)
    if t:
        assert np.any(got.estimate != 0.0)


@pytest.mark.parametrize("t", [1, 3, 17])
def test_split_is_the_partition_split_labels_draws(t):
    omega = sample_bernoulli(11, 7, 3, 0.6, RngSeed(t, "labels"))
    seed = RngSeed(t, "labels-split")
    labels = split_labels(omega, t, seed)
    assert labels.shape == (omega.size,) and labels.min() >= 0 and labels.max() < t
    parts = split(omega, t, seed)
    assert len(parts) == t
    for s, part in enumerate(parts):
        expected = np.zeros(omega.dims, dtype=bool)
        expected[tuple(omega.triples()[labels == s].T)] = True
        assert np.array_equal(part.mask, expected)


def test_split_labels_rejects_zero_subsets():
    with pytest.raises(ValueError):
        split_labels(full_set(2, 2, 2), 0, RngSeed(0))


def edge_omegas():
    # empty slices in both directions, fewer entries than subsets, none
    rng = np.random.default_rng(41)
    holes = rng.random((8, 6, 3)) < 0.7
    holes[:, 2, :] = False
    holes[5, :, :] = False
    few = np.zeros((8, 6, 3), dtype=bool)
    few[[0, 3, 7], [1, 1, 4], [0, 2, 1]] = True
    none = np.zeros((8, 6, 3), dtype=bool)
    return {"holes": holes, "few": few, "none": none}


@pytest.mark.parametrize("case, t", [("holes", 3), ("few", 17), ("none", 17)])
def test_edge_case_omegas_give_exact_zeros_without_warnings(case, t):
    omega = SampleSet(8, 6, 3, edge_omegas()[case])
    rng = np.random.default_rng(42)
    observed = project(rng.standard_normal((8, 6, 3)), omega)
    x = rng.standard_normal((8, 2, 3))
    y = rng.standard_normal((6, 2, 3))
    seed = RngSeed(42, "edge")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = {
            "ls_y": ls_solve_y(observed, omega, x),
            "ls_x": ls_solve_x(observed, omega, y),
            "med_y": median_ls(observed, omega, x, seed, t=t),
            "med_x": median_ls_x(observed, omega, y, seed, t=t),
        }
    if case == "holes":
        # the empty lateral slice 2 and horizontal slice 5
        for name in ("ls_y", "med_y"):
            assert np.all(results[name][2] == 0.0) and np.any(results[name] != 0.0)
        for name in ("ls_x", "med_x"):
            assert np.all(results[name][5] == 0.0) and np.any(results[name] != 0.0)
    else:
        # at most 3 of the 17 subsets observe anything, so the medians are
        # zero; with no entry at all, so are the plain solves
        assert omega.size < t
        assert np.all(results["med_y"] == 0.0) and np.all(results["med_x"] == 0.0)
        if case == "none":
            assert np.all(results["ls_y"] == 0.0) and np.all(results["ls_x"] == 0.0)

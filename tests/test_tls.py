import warnings

import numpy as np
import pytest

from tubalkit import altmin
from tubalkit.algebra import tprod, ttranspose
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
    BACK_ROWS,
    BLOCK_BYTES,
    _back_substitute,
    _blocks,
    _Plan,
    _pinv_apply,
    _pivot_singular,
    _solve,
    ls_solve_x,
    ls_solve_y,
    median_count,
    median_ls,
    median_ls_x,
)

from oracles import circ_expand, circulant_rows, frobenius_norm, full_set


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


def test_full_observation_orthonormal_x():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((6, 5, 4))
    x = qr_tensor(rng.standard_normal((6, 3, 4)))
    omega = full_set(6, 5, 4)
    y = ls_solve_y(t, omega, x)
    expected = tprod(ttranspose(t), x)
    assert frobenius_norm(y - expected) < 1e-9 * frobenius_norm(expected)


def test_zero_observation_slice_gives_zero():
    rng = np.random.default_rng(1)
    mask = rng.random((5, 4, 3)) < 0.7
    mask[:, 2, :] = False
    omega = SampleSet(mask)
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
    kept = circulant_rows(x)[omega.mask[:, 4, :].reshape(-1)]
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
    omega = SampleSet(np.zeros((4, 3, 4), dtype=bool))
    omega.mask[0, :, 0] = True
    t = np.random.default_rng(6).standard_normal((4, 3, 4))
    x = np.random.default_rng(7).standard_normal((4, 2, 4))
    y = np.random.default_rng(8).standard_normal((3, 2, 4))
    assert_matches_frequency_oracle(project(t, omega), omega, x, y)


def slice_systems(observed, omega, factor, y_update):
    """(K, b) of every slice system: lateral slices j of T for the Y
    half-step, lateral slices i of ttranspose(T) for the X half-step."""
    masks, values = omega.mask, observed
    if not y_update:
        masks, values = ttranspose(masks), ttranspose(values)
    rows = circulant_rows(factor)
    systems = []
    for mask, value in zip(masks.transpose(1, 0, 2), values.transpose(1, 0, 2)):
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
    y = qr_tensor(rng.standard_normal((5, 3, 4)))
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
    omega_t = SampleSet(omega.mask.transpose(1, 0, 2))
    via = ls_solve_y(observed.transpose(1, 0, 2), omega_t, tube_reverse(y))
    assert frobenius_norm(tube_reverse(via) - direct) < 1e-8 * max(
        frobenius_norm(direct), 1.0
    )


@pytest.mark.parametrize(
    "m, n, k, p, wide, tall",
    [(12, 9, 1, 0.3, True, True), (9, 14, 2, 0.15, True, True),
     (16, 11, 5, 0.04, True, False), (16, 11, 5, 0.6, False, True)],
)
def test_x_half_step_is_the_y_half_step_of_the_t_transpose(m, n, k, p, wide, tall):
    # T ~ X * Y^dag exactly when T^dag ~ Y * X^dag, so the X solve is the Y
    # solve on ttranspose(T) and the t-transposed sample set, bit for bit,
    # and so is its median over the t-transposed label grid.  Horizontal
    # slice 1 is empty, and a rank-deficient y makes every tall Gram singular.
    rng = np.random.default_rng(m * n * k)
    omega = sample_bernoulli(m, n, k, p, RngSeed(k, f"transpose-{m}-{n}"))
    omega.mask[1] = False
    observed = project(rng.standard_normal((m, n, k)), omega)
    omega_t, observed_t = SampleSet(ttranspose(omega.mask)), ttranspose(observed)
    y = rng.standard_normal((n, 3, k))
    deficient = y.copy()
    deficient[:, 2] = deficient[:, 0]
    plan = _Plan(observed, omega, 3 * k, False)
    assert (bool(plan.wide), plan.spectral is not None) == (wide, tall)
    for _, gram, _ in plan.spectral.grams(deficient) if tall else ():
        assert np.all(_pivot_singular(gram)[0])
    seed = RngSeed(k, "transpose-split")
    for factor in (y, deficient):
        direct = ls_solve_x(observed, omega, factor)
        assert np.array_equal(direct, ls_solve_y(observed_t, omega_t, factor))
        assert np.all(direct[1] == 0.0)
        for t, count in ((3, 3), (None, median_count(m))):
            labels_t = ttranspose(split_labels(omega, count, seed))
            plan_t = _Plan(observed_t, omega_t, 3 * k, True, labels_t, count)
            sols = _solve(observed_t, omega_t, factor, True, plan_t)
            assert np.array_equal(median_ls_x(observed, omega, factor, seed, t=t),
                                  np.median(sols, axis=0))


@pytest.mark.parametrize(
    "m, n, k, r, p, hole",
    [(30, 20, 1, 2, 0.8, None), (20, 35, 2, 3, 0.7, None), (24, 18, 5, 3, 0.6, None),
     (24, 18, 5, 3, 0.6, "y"), (24, 18, 5, 3, 0.6, "x")],
)
def test_x_plan_beside_a_y_plan_reads_its_spectra(m, n, k, r, p, hole):
    # Beside a Y plan whose slices are all tall, an X plan whose slices are
    # all tall reads the Y plan's block form and right-hand-side spectrum
    # transposed.  Lateral slice 0 empty and slice 1 wide ("y"), or
    # horizontal slice 0 wide ("x"), leaves it its own spectra.
    rng = np.random.default_rng(m * n * k)
    omega = sample_bernoulli(m, n, k, p, RngSeed(k, f"lend-{m}-{n}"))
    if hole == "y":
        omega.mask[:, :2] = False
        omega.mask[0, 1] = True
    if hole == "x":
        omega.mask[0, 1:] = False
    observed = project(rng.standard_normal((m, n, k)), omega)
    x, y = rng.standard_normal((m, r, k)), rng.standard_normal((n, r, k))
    q = r * k
    y_plan = _Plan(observed, omega, q, True)
    before = ls_solve_y(observed, omega, x, plan=y_plan)
    form = y_plan.spectral.form.copy()
    beside = _Plan(observed, omega, q, False, partner=y_plan)
    alone = _Plan(observed, omega, q, False)
    assert (y_plan.wide == []) == (hole != "y") and (alone.wide == []) == (hole != "x")
    for name in ("form", "left"):
        lent = np.shares_memory(getattr(beside.spectral, name), getattr(y_plan.spectral, name))
        assert lent == (hole is None)
    got, ref = ([(s.copy(), g.copy(), b.copy()) for s, g, b in plan.spectral.grams(y)]
                for plan in (beside, alone))
    assert [len(s) for s, _, _ in got] == [len(s) for s, _, _ in ref]
    for (s1, g1, b1), (s2, g2, b2) in zip(got, ref):
        assert np.array_equal(s1, s2)
        assert np.linalg.norm(g1 - g2) <= 1e-12 * np.linalg.norm(g2)
        assert np.linalg.norm(b1 - b2) <= 1e-12 * np.linalg.norm(b2)
    sol = ls_solve_x(observed, omega, y, plan=beside)
    ref_sol = ls_solve_x(observed, omega, y, plan=alone)
    assert np.linalg.norm(sol - ref_sol) <= 1e-12 * np.linalg.norm(ref_sol)
    if hole is not None:
        assert np.array_equal(sol, ref_sol)
    # lending leaves the Y plan and its half-steps as they were, bit for bit
    assert np.array_equal(y_plan.spectral.form, form)
    assert np.array_equal(ls_solve_y(observed, omega, x, plan=y_plan), before)
    assert np.array_equal(before, ls_solve_y(observed, omega, x))


def test_zero_observation_horizontal_slice():
    rng = np.random.default_rng(13)
    mask = rng.random((5, 4, 3)) < 0.7
    mask[3, :, :] = False
    omega = SampleSet(mask)
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
    x = qr_tensor(xt)
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
    # a plan for another sample set, though its x and rank fit, is refused
    with pytest.raises(DimensionMismatch):
        ls_solve_y(np.zeros((4, 6, 3)), full_set(4, 6, 3), np.zeros((4, 2, 3)), plan=plan)
    # so is a plan for another omega or observed tensor of the same dims
    rng = np.random.default_rng(20)
    t = rng.standard_normal((12, 10, 4))
    o1 = sample_bernoulli(12, 10, 4, 0.6, RngSeed(20, "plan-o1"))
    o2 = sample_bernoulli(12, 10, 4, 0.6, RngSeed(20, "plan-o2"))
    x = rng.standard_normal((12, 2, 4))
    observed = project(t, o1)
    plan = _Plan(observed, o1, 2 * 4, True)
    assert np.array_equal(ls_solve_y(observed, o1, x, plan=plan), ls_solve_y(observed, o1, x))
    with pytest.raises(DimensionMismatch):
        ls_solve_y(project(t, o2), o2, x, plan=plan)
    with pytest.raises(DimensionMismatch):
        ls_solve_y(2 * observed, o1, x, plan=plan)


def test_blocks_hold_block_bytes_and_at_least_one_item():
    assert _blocks(0, 8) == []
    assert _blocks(5, BLOCK_BYTES // 2) == [slice(0, 2), slice(2, 4), slice(4, 6)]
    assert _blocks(3, BLOCK_BYTES + 1) == [slice(0, 1), slice(1, 2), slice(2, 3)]


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
        singular = _pivot_singular(gram)[0]
        ok = ~singular
        sol[block[ok]] = np.linalg.solve(gram[ok], rhs[ok, :, None])[..., 0]
        sol[block[singular]] = _pinv_apply(gram[singular], rhs[singular])


def dense_solve_wide(rows, masks, values, count, sol):
    # batches of systems with one row count h, ascending, each within BLOCK_BYTES
    q = rows.shape[1]
    wide = np.flatnonzero((count > 0) & (count < q))
    for h in np.unique(count[wide]):
        group = wide[count[wide] == h]
        step = max(1, BLOCK_BYTES // (8 * h * q))
        for lo in range(0, len(group), step):
            block = group[lo : lo + step]
            kept = np.stack([rows[masks[slot]] for slot in block])
            rhs = np.stack([values[slot % len(values), masks[slot]] for slot in block])
            coef = _pinv_apply(kept @ kept.transpose(0, 2, 1), rhs)
            sol[block] = (coef[:, None, :] @ kept)[:, 0]


def dense_mask_half_step(observed, omega, factor, y_update, subsets):
    """Solutions (len(subsets), slices, r, k) assembled from a stack of
    dense subset masks, one boolean row scan per system.

    Test oracle only: the solver reads the same systems, in the same order
    and with the same batches, from a sorted list of observed entries,
    so its empty and wide systems must agree bit for bit; it forms the tall
    Grams from the mask spectrum instead of gathering rows.
    """

    def slices(t):
        # (..., m, n, k) -> (..., slices, rows): the lateral slices of T for
        # Y, of ttranspose(T) for X, whose slice i is T[i, :, -kappa mod k]
        k = t.shape[-1]
        t = np.swapaxes(t, -3, -2) if y_update else t[..., -np.arange(k) % k]
        return t.reshape(*t.shape[:-2], -1)

    rows = circulant_rows(factor)
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


def assert_matches_dense_oracle(got, observed, omega, factor, y_update, subsets):
    """`got` (slices, r, k) against the element-wise median of the dense-mask
    oracle's solutions over `subsets`.  A slice whose systems are all empty
    or wide is solved as the oracle solves it, bit for bit.  A tall system's
    Gram comes from its mask spectrum, not from gathered rows, so a slice
    with one is compared within 1e-12 relative."""
    refs = dense_mask_half_step(observed, omega, factor, y_update, subsets)
    counts = np.stack([sub.mask.sum(axis=(0 if y_update else 1, 2)) for sub in subsets])
    tall = np.any(counts >= factor.shape[1] * factor.shape[2], axis=0)
    ref = np.median(refs, axis=0).reshape(len(tall), -1)
    error = np.linalg.norm(got.reshape(len(tall), -1) - ref, axis=1)
    assert np.all(error <= np.where(tall, 1e-12 * np.linalg.norm(ref, axis=1), 0.0))


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
    assert_matches_dense_oracle(ls_solve_y(observed, omega, x), observed, omega, x, True, [omega])
    assert_matches_dense_oracle(ls_solve_x(observed, omega, y), observed, omega, y, False, [omega])
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
    parts = split(omega, t, seed)
    med_y = median_ls(observed, omega, x, seed, t=t)
    med_x = median_ls_x(observed, omega, y, seed, t=t)
    assert_matches_dense_oracle(med_y, observed, omega, x, True, parts)
    assert_matches_dense_oracle(med_x, observed, omega, y, False, parts)


def test_tall_gram_stack_stays_within_block_bytes():
    # The altmin-tall-k shape: q = r*k = 60 unknowns, 50 tall lateral slices.
    # One unblocked Gram stack (50 x 60 x 60, 1.4 MB) raised the peak RSS of
    # a three-solve altmin-tall-k process by 3.8 MiB (47.7 -> 51.5 MiB), most
    # of the 10% bound on that workload's ~51.6 MiB.  The shape takes the
    # spectral route, whose Grams share one buffer with the block GEMM's
    # product; the product's inverse DFT is smaller than the Grams.
    m, n, k, r = 50, 50, 20, 3
    omega = sample_bernoulli(m, n, k, 0.5, RngSeed(45, "tall-k"))
    plan = _Plan(project(np.ones((m, n, k)), omega), omega, r * k, True)
    assert plan.wide == []  # every slice is tall
    x = np.ones((m, r, k))
    blocks = [(systems, gram.base) for systems, gram, _ in plan.spectral.grams(x)]
    assert sum(len(systems) for systems, _ in blocks) == n
    assert all(buffer.nbytes <= BLOCK_BYTES for _, buffer in blocks)
    assert BLOCK_BYTES < n * (r * k) ** 2 * 8


def test_wide_batches_hold_one_row_count_unpadded_within_block_bytes():
    # Every fourth lateral slice observes 29 of its 40 rows, so those 100
    # systems (q = 30 unknowns, 75 to a batch) fill two batches; the other
    # slices observe 0 to 35 rows: empty, wide of many row counts, and tall.
    m, n, k, r = 4, 400, 10, 3
    q = r * k
    rng = np.random.default_rng(46)
    count = np.where(np.arange(n) % 4 == 0, 29, rng.integers(0, 36, n))
    mask = np.zeros((n, m * k), dtype=bool)  # [slice j, row (i, kappa)]
    for j, h in enumerate(count):
        mask[j, rng.choice(m * k, h, replace=False)] = True
    omega = SampleSet(np.ascontiguousarray(mask.reshape(n, m, k).swapaxes(0, 1)))
    observed = project(rng.standard_normal((m, n, k)), omega)
    x = rng.standard_normal((m, r, k))
    plan = _Plan(observed, omega, q, True)
    wide = np.flatnonzero((count > 0) & (count < q))
    assert len(np.unique(count[wide])) > 20 and plan.spectral is not None
    assert np.array_equal(np.sort(np.concatenate([s for s, _, _ in plan.wide])), wide)
    rows = circulant_rows(x)
    for systems, offsets, rhs in plan.wide:
        h = offsets.shape[1]
        assert np.all(count[systems] == h)
        assert offsets.shape == (len(systems), h, q) and rhs.shape == (len(systems), h)
        assert offsets.nbytes <= BLOCK_BYTES
        assert np.array_equal(x.take(offsets), np.stack([rows[mask[j]] for j in systems]))
    assert sum(rhs.size for _, _, rhs in plan.wide) == count[wide].sum()  # no padding
    assert [offsets.shape[1] for _, offsets, _ in plan.wide].count(29) == 2
    sol = ls_solve_y(observed, omega, x, plan=plan).reshape(n, q)
    for j in wide:
        ref = np.linalg.pinv(rows[mask[j]]) @ observed[:, j].reshape(-1)[mask[j]]
        assert np.linalg.norm(sol[j] - ref) <= 1e-10 * np.linalg.norm(ref)


def tall_systems(observed, omega, factor, y_update):
    """Slice indices, Grams K^T K and right-hand sides K^T b of every tall
    system, gathered from the circulant rows."""
    q = factor.shape[1] * factor.shape[2]
    systems = slice_systems(observed, omega, factor, y_update)
    tall = [j for j, (kept, _) in enumerate(systems) if len(kept) >= q]
    grams = np.reshape([systems[j][0].T @ systems[j][0] for j in tall], (-1, q, q))
    rhs = np.reshape([systems[j][1] @ systems[j][0] for j in tall], (-1, q))
    return np.array(tall, dtype=int), grams, rhs


@pytest.mark.parametrize(
    "m, n, k, r, p",
    [(50, 50, 10, 3, 0.5), (50, 50, 20, 3, 0.5), (30, 25, 6, 3, 0.5), (20, 15, 1, 2, 0.7),
     (24, 20, 7, 3, 0.6), (30, 35, 6, 1, 0.5)],
)
def test_spectral_grams_match_the_gather(m, n, k, r, p):
    # k = 1, odd k, r = 1 and m != n included; without labels, and with the
    # t = 3 label subsets of a median call, whose system (subset, slice)
    # observes the entries of its slice in its subset
    rng = np.random.default_rng(m * n + k)
    omega = sample_bernoulli(m, n, k, p, RngSeed(k, f"spectral-{m}-{n}"))
    observed = project(rng.standard_normal((m, n, k)), omega)
    seed = RngSeed(k, "spectral-split")
    for y_update, factor in ((True, rng.standard_normal((m, r, k))),
                             (False, rng.standard_normal((n, r, k)))):
        slices = n if y_update else m
        labelled = (split_labels(omega, 3, seed), split(omega, 3, seed))
        for labels, parts in ((None, [omega]), labelled):
            refs = [tall_systems(observed, part, factor, y_update) for part in parts]
            tall = np.concatenate([s * slices + ref[0] for s, ref in enumerate(refs)])
            plan = _Plan(observed, omega, r * k, y_update, labels, len(parts))
            blocks = [(s.copy(), g.copy(), b.copy()) for s, g, b in plan.spectral.grams(factor)]
            assert np.array_equal(np.concatenate([s for s, _, _ in blocks]), tall)
            got = np.concatenate([g for _, g, _ in blocks])
            assert np.array_equal(got, got.transpose(0, 2, 1))
            for new, ref in ((got, np.concatenate([ref[1] for ref in refs])),
                             (np.concatenate([b for _, _, b in blocks]),
                              np.concatenate([ref[2] for ref in refs]))):
                new, ref = new.reshape(len(tall), -1), ref.reshape(len(tall), -1)
                error = np.linalg.norm(new - ref, axis=1)
                assert np.all(error <= 1e-14 * np.linalg.norm(ref, axis=1))


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
    omega = SampleSet(mask)
    observed = project(rng.standard_normal((m, n, k)), omega)
    rows = circulant_rows(x)
    q = rows.shape[1]
    assert n <= BLOCK_BYTES // (8 * q * q)
    slices = mask.transpose(1, 0, 2).reshape(n, -1)
    grams = np.stack([rows[sl].T @ rows[sl] for sl in slices])
    assert list(np.flatnonzero(_pivot_singular(grams)[0])) == [1, 4, 6]
    plan = _Plan(observed, omega, 2 * k, True)
    spectral = np.concatenate([_pivot_singular(g)[0] for _, g, _ in plan.spectral.grams(x)])
    assert list(np.flatnonzero(spectral)) == [1, 4, 6]
    assert [len(systems) for systems, _, _ in plan.spectral.grams(x)] == [n]  # one block
    got = ls_solve_y(observed, omega, x)
    ref = dense_mask_half_step(observed, omega, x, True, [omega])[0]
    assert frobenius_norm(got - ref) <= 1e-12 * frobenius_norm(ref)
    assert_close(got, freq_oracle_y(observed, omega, x))


def test_spectral_block_mixing_singular_and_regular_tall_slices():
    # The construction above at a larger size: rows i < 30 of x repeat
    # their first column, so slices 1, 4 and 6, which observe only those
    # rows, have singular Grams (rank k < r*k).
    m, n, k = 60, 12, 6
    rng = np.random.default_rng(44)
    x = rng.standard_normal((m, 2, k))
    x[:30, 1] = x[:30, 0]
    mask = np.ones((m, n, k), dtype=bool)
    mask[30:, [1, 4, 6], :] = False
    omega = SampleSet(mask)
    observed = project(rng.standard_normal((m, n, k)), omega)
    plan = _Plan(observed, omega, 2 * k, True)
    _, grams, _ = tall_systems(observed, omega, x, True)
    spectral = np.concatenate([_pivot_singular(g)[0] for _, g, _ in plan.spectral.grams(x)])
    gathered = _pivot_singular(grams)[0]
    assert list(np.flatnonzero(spectral)) == list(np.flatnonzero(gathered)) == [1, 4, 6]
    assert [len(systems) for systems, _, _ in plan.spectral.grams(x)] == [n]  # one block
    got = ls_solve_y(observed, omega, x, plan=plan)
    ref = dense_mask_half_step(observed, omega, x, True, [omega])[0]
    assert frobenius_norm(got - ref) <= 1e-12 * frobenius_norm(ref)
    assert_close(got, freq_oracle_y(observed, omega, x))


@pytest.mark.parametrize("eps, singular", [(3e-11, True), (3e-10, False)])
def test_pivot_singular_cuts_at_singular_tol(eps, singular):
    # the second Cholesky pivot is eps, against SINGULAR_TOL * (1 + eps)
    gram = np.array([[[1.0, 1.0], [1.0, 1.0 + eps]]])
    assert _pivot_singular(gram)[0].tolist() == [singular]


@pytest.mark.parametrize("q", [1, 2, 5, 6, 7, 13, 30, 60])
def test_blocked_back_substitution_matches_a_triangular_solve(q):
    # q below BACK_ROWS, equal to it, and not a multiple of it; SPD Grams of
    # condition number 1 to 1e6, bordered by their right-hand sides
    assert BACK_ROWS == 6
    rng = np.random.default_rng(q)
    bordered = np.empty((8, q + 1, q + 1))
    for gram, cond in zip(bordered, np.logspace(0, 6, 8)):
        basis = np.linalg.qr(rng.standard_normal((q, q)))[0]
        gram[:q, :q] = (basis * np.logspace(0, np.log10(cond), q)) @ basis.T
        gram[:q, :q] = (gram[:q, :q] + gram[:q, :q].T) / 2
        gram[q, :q] = gram[:q, q] = rng.standard_normal(q)
        gram[q, q] = 2 * gram[q, :q] @ np.linalg.solve(gram[:q, :q], gram[q, :q]) + 1
    singular, chol = _pivot_singular(bordered, q)
    assert not singular.any()
    tri = chol[:, :q, :q].transpose(0, 2, 1)
    ref = np.linalg.solve(tri, chol[:, q, :q, None])[..., 0]
    got = _back_substitute(chol)
    assert np.all(np.linalg.norm(got - ref, axis=1) <= 1e-12 * np.linalg.norm(ref, axis=1))


def count_factorizations(monkeypatch):
    """Counts of np.linalg.cholesky calls, of those that raised, and of
    np.linalg.solve calls."""
    calls = {"cholesky": 0, "raised": 0, "solve": 0}
    cholesky, solve = np.linalg.cholesky, np.linalg.solve

    def counted_cholesky(a, *args, **kwargs):
        calls["cholesky"] += 1
        try:
            return cholesky(a, *args, **kwargs)
        except np.linalg.LinAlgError:
            calls["raised"] += 1
            raise

    def counted_solve(*args, **kwargs):
        calls["solve"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    return calls


def test_tall_solve_factors_each_block_once(monkeypatch):
    # the altmin-tall-k shape: 50 tall systems of q = 60 unknowns, in blocks
    m, n, k, r = 50, 50, 20, 3
    rng = np.random.default_rng(47)
    omega = sample_bernoulli(m, n, k, 0.5, RngSeed(47, "tall-k"))
    observed = project(rng.standard_normal((m, n, k)), omega)
    x = rng.standard_normal((m, r, k))
    plan = _Plan(observed, omega, r * k, True)
    blocks = len(list(plan.spectral.bordered(x)))
    assert plan.wide == [] and blocks > 1
    calls = count_factorizations(monkeypatch)
    got = ls_solve_y(observed, omega, x, plan=plan)
    assert calls == {"cholesky": blocks, "raised": 0, "solve": 0}
    monkeypatch.undo()
    _, grams, rhs = tall_systems(observed, omega, x, True)
    ref = np.linalg.solve(grams, rhs[..., None])[..., 0]
    assert np.linalg.norm(got.reshape(n, -1) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_zero_and_exactly_fitted_tall_slices_factor_without_error(monkeypatch):
    # Slice 0 observes only zeros (b = 0, ||h|| = 0); slice 1 observes
    # X * Y^dag exactly (residual 0), so b^T G^-1 b = ||h||^2.  A corner
    # c = ||h||^2 would make the last pivot zero or negative and send the
    # block to the per-system fallback.
    m, n, k, r = 12, 4, 3, 2
    rng = np.random.default_rng(48)
    omega = sample_bernoulli(m, n, k, 0.8, RngSeed(48, "corner"))
    x, y = rng.standard_normal((m, r, k)), rng.standard_normal((n, r, k))
    t = rng.standard_normal((m, n, k))
    t[:, 0] = 0.0
    t[:, 1] = tprod(x, ttranspose(y))[:, 1]
    observed = project(t, omega)
    plan = _Plan(observed, omega, r * k, True)
    assert plan.wide == [] and len(plan.spectral.systems) == n
    calls = count_factorizations(monkeypatch)
    got = ls_solve_y(observed, omega, x, plan=plan)
    assert calls == {"cholesky": 1, "raised": 0, "solve": 0}
    monkeypatch.undo()
    assert np.all(got[0] == 0.0)
    assert_close(got[1:2], y[1:2])
    assert_close(got, oracle_solve_y(observed, omega, x))


@pytest.mark.parametrize("delta, kept", [(3e-11, False), (3e-10, True)])
def test_pinv_apply_drops_eigenvalues_at_singular_tol(delta, kept):
    gram = np.diag([delta, 1.0])[None]
    got = _pinv_apply(gram, np.ones((1, 2)))
    np.testing.assert_allclose(got[0], [1 / delta if kept else 0.0, 1.0], rtol=1e-12)


@pytest.mark.parametrize("t", [None, 3])
def test_full_variant_trace_matches_dense_mask_oracle(monkeypatch, t):
    # at the default subset count the median is the zero tensor from the
    # second step on (ROADMAP item 3); with 3 subsets the estimate is not
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
    assert labels.shape == omega.dims
    assert np.all(labels[~omega.mask] == -1)
    drawn = labels[omega.mask]  # row-major order, as the stream draws them
    assert np.array_equal(drawn, seed.rng().integers(0, t, size=omega.size))
    assert drawn.min() >= 0 and drawn.max() < t
    parts = split(omega, t, seed)
    assert len(parts) == t
    for s, part in enumerate(parts):
        assert np.array_equal(part.mask, labels == s)


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
    omega = SampleSet(edge_omegas()[case])
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

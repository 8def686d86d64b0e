import numpy as np
import pytest

from tubalkit import harness, tnn_admm
from tubalkit.altmin import trace_error
from tubalkit.algebra import (
    freq_slices,
    from_freq_slices,
    identity_tensor,
    spectral_norm,
)
from tubalkit.errors import DimensionMismatch, InsufficientSamples, InvalidEntries
from tubalkit.sampling import (
    RngSeed,
    SampleSet,
    project,
    sample_bernoulli,
    synth_low_tubal_rank,
)
from tubalkit.tnn_admm import (
    admm_complete,
    lambda_grid,
    svt,
    tnn,
)

from oracles import circ_expand, frobenius_norm


def desk_instance(seed=3):
    t, _ = synth_low_tubal_rank(30, 30, 6, 2, RngSeed(seed, "truth"))
    omega = sample_bernoulli(30, 30, 6, 0.6, RngSeed(seed, "om"))
    return t, project(t, omega), omega


def test_tnn_zero_and_identity():
    assert tnn(np.zeros((3, 4, 2))) == 0.0
    assert np.isclose(tnn(identity_tensor(5, 3)), 15.0)


def test_tnn_matches_circ_nuclear_norm():
    rng = np.random.default_rng(0)
    # k = 1 and 2 exercise the DC and Nyquist edges of the half spectrum
    for k in (1, 2, 3):
        t = rng.standard_normal((4, 4, k))
        nuc = np.sum(np.linalg.svd(circ_expand(t), compute_uv=False))
        assert abs(tnn(t) - nuc) < 1e-8


def test_svt_zero_threshold_is_identity():
    t = np.random.default_rng(1).standard_normal((5, 4, 3))
    z, _ = svt(t, 0.0)
    assert np.allclose(z, t, atol=1e-10)
    assert np.isclose(tnn(z), tnn(t), rtol=1e-12)


def test_svt_large_threshold_zeroes():
    t = np.random.default_rng(2).standard_normal((5, 4, 3))
    out, _ = svt(t, spectral_norm(t) + 1.0)
    assert np.max(np.abs(out)) < 1e-12
    assert tnn(out) == 0.0


def test_svt_hand_threshold():
    t = np.zeros((2, 2, 3))
    t[:, :, 0] = np.diag([3.0, 1.0])  # constant spectrum {3, 1}
    out, _ = svt(t, 2.0)
    expected = np.zeros_like(t)
    expected[:, :, 0] = np.diag([1.0, 0.0])
    assert np.allclose(out, expected, atol=1e-10)
    assert np.isclose(tnn(out), 3.0)  # singular value 1 in each of 3 slices


def test_svt_truncated_rebuild_matches_full():
    # z is rebuilt from the leading triplets only; the dropped ones carry
    # zero thresholded singular values, so the full product is the reference
    rng = np.random.default_rng(6)
    for k in (1, 2, 5):
        t = rng.standard_normal((6, 4, k))
        u, s, vh = np.linalg.svd(freq_slices(t), full_matrices=False)
        top = float(s.max())
        for eps in (0.0, 0.3 * top, 0.8 * top, top, 2.0 * top):
            kept = np.maximum(s - eps, 0.0)
            full = from_freq_slices((u * kept[:, None, :]) @ vh, k)
            z, _ = svt(t, eps)
            assert frobenius_norm(z - full) <= 1e-15 * frobenius_norm(full)


def test_warm_svt_matches_full_svd_on_a_lambda_path(monkeypatch):
    # replay every svt call of a real path, basis included, against the full
    # SVD; then replay each warm call with its chain forced to resync, by a
    # bound at eps (no room for the Ritz residual) or by a count one above
    # what a slice keeps
    truth, observed, omega = desk_instance()
    calls, verdicts = [], []
    chained = tnn_admm._chained_tail

    def recorded(t, eps, *, basis=None):
        calls.append((t, eps, basis))
        return svt(t, eps, basis=basis)

    def spied(*args):
        out = chained(*args)
        verdicts.append(out is not None)
        return out

    monkeypatch.setattr(tnn_admm, "svt", recorded)
    monkeypatch.setattr(tnn_admm, "_chained_tail", spied)
    spec = harness.ExperimentSpec(m=30, n=30, k=6, rank=2)
    harness.run_algorithm(spec, "tnn-admm", observed, omega, truth, None)
    assert sum(verdicts) >= len(calls) // 2  # most calls are certified by the chain
    assert not all(verdicts)  # and some resync by the power bound
    fell = forced_checks = 0
    for t, eps, basis in calls:
        full, _ = svt(t, eps)
        if basis is None:
            continue
        q, steps, (_, counts, _) = basis
        kept = np.count_nonzero(np.linalg.svd(freq_slices(t), compute_uv=False) > eps, axis=1)
        above = kept.copy()
        above[0] += 1
        chains = (
            basis[2],
            (freq_slices(t), kept, np.full(len(kept), eps)),
            (freq_slices(t), above, np.zeros(len(kept))),
        )
        for forced, chain in enumerate(chains):
            del verdicts[:]
            z, _ = svt(t, eps, basis=(q, steps, chain))
            assert frobenius_norm(z - full) <= 1e-12 * frobenius_norm(full)
            if forced or np.any(kept < counts):
                assert not any(verdicts)
            forced_checks += bool(forced) * len(verdicts)
        fell += bool(np.any(kept < counts))
    assert fell > 0  # the path has a slice whose kept count falls
    assert forced_checks >= len(calls)  # the forced chains reach the rule


def spectrum_tensor(values, k=3, seed=8):
    """Tensor whose every frequency slice is U diag(values) V^T."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((len(values), len(values))))
    v, _ = np.linalg.qr(rng.standard_normal((len(values), len(values))))
    t = np.zeros((len(values), len(values), k))
    t[:, :, 0] = (u * values) @ v.T
    return t


def test_warm_svt_falls_back_when_kept_rank_outgrows_block():
    tail = [0.5, 0.4, 0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1]
    _, basis = svt(spectrum_tensor([10.0, 8.0, 0.6] + tail), 1.0)
    assert basis[0].shape[2] == 2 + tnn_admm.OVERSAMPLE
    t = spectrum_tensor([10.0, 8.0, 6.0] + tail)  # three kept values need 7 columns
    assert tnn_admm._ritz(freq_slices(t), 1.0, *basis)[0] is None
    z, wider = svt(t, 1.0, basis=basis)
    full, _ = svt(t, 1.0)
    assert np.array_equal(z, full)
    assert wider[0].shape[2] == 3 + tnn_admm.OVERSAMPLE


def test_warm_svt_falls_back_when_the_tail_bound_exceeds_eps():
    # ten discarded values of 0.95 under eps = 1: (sum s^16)^(1/16) = 1.10
    # cannot prove them below eps, so the call takes the full SVD; a tail of
    # 0.5 passes (0.58), though its Frobenius norm 1.58 would not.  Each
    # basis comes from the other tensor, 0.45 * sqrt(10) = 1.42 > eps away in
    # every slice, so its chain cannot certify and the power bound decides.
    tensors = {level: spectrum_tensor([10.0, 8.0] + [level] * 10) for level in (0.95, 0.5)}
    for level, other, warm in ((0.95, 0.5, False), (0.5, 0.95, True)):
        t = tensors[level]
        _, basis = svt(tensors[other], 1.0)
        assert (tnn_admm._ritz(freq_slices(t), 1.0, *basis)[0] is not None) == warm
        z, _ = svt(t, 1.0, basis=basis)
        full, _ = svt(t, 1.0)
        if warm:
            assert frobenius_norm(z - full) <= 1e-12 * frobenius_norm(full)
        else:
            assert np.array_equal(z, full)
    # its own basis carries the exact tail 0.95 from the full SVD: the chain
    # proves the tail that the power bound refuses
    t = tensors[0.95]
    _, basis = svt(t, 1.0)
    assert tnn_admm._ritz(freq_slices(t), 1.0, *basis)[0] is not None
    z, _ = svt(t, 1.0, basis=basis)
    full, _ = svt(t, 1.0)
    assert frobenius_norm(z - full) <= 1e-12 * frobenius_norm(full)


def test_svt_is_contraction():
    rng = np.random.default_rng(3)
    t = rng.standard_normal((6, 5, 4))
    for eps in (0.0, 0.1, 1.0, 5.0):
        assert frobenius_norm(svt(t, eps)[0]) <= frobenius_norm(t) + 1e-10
    for bad in (-1.0, np.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            svt(t, bad)


def test_lambda_helpers():
    obs = np.random.default_rng(4).standard_normal((6, 5, 4))
    grid = lambda_grid(obs)
    assert len(grid) == 5
    assert np.isclose(grid[0], 1e-3 * spectral_norm(obs))
    assert np.isclose(grid[-1], spectral_norm(obs))


def test_admm_config_validation():
    observed = np.ones((4, 4, 2))
    omega = SampleSet(np.ones(observed.shape, dtype=bool))
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            admm_complete(observed, omega, bad)
        with pytest.raises(ValueError, match="finite and positive"):
            admm_complete(observed, omega, 1.0, alpha=bad)


@pytest.mark.parametrize("alpha", [None, 3.0])
def test_admm_x_step_is_the_closed_form(monkeypatch, alpha):
    # one iteration from a random (z, q): x = (Y + alpha z - q) / (1 + alpha)
    # on Omega and z - q / alpha off it, and the dual step q + alpha (x - z1)
    _, observed, omega = desk_instance()
    rng = np.random.default_rng(17)
    z0, q0 = rng.standard_normal((2, *observed.shape))
    monkeypatch.setattr(tnn_admm, "MAX_ITERS", 1)
    report = admm_complete(observed, omega, 1.0, alpha, start=(z0, q0))
    a = omega.size / observed.size if alpha is None else alpha
    x = np.where(omega.mask, (observed + a * z0 - q0) / (1 + a), z0 - q0 / a)
    assert frobenius_norm(report.estimate - x) <= 1e-14 * frobenius_norm(x)
    z1, q1 = report.admm_state
    dual = q0 + a * (report.estimate - z1)
    assert frobenius_norm(q1 - dual) <= 1e-14 * frobenius_norm(dual)


def test_admm_tiny_lambda_full_observation(monkeypatch):
    t, _ = synth_low_tubal_rank(12, 12, 4, 2, RngSeed(5, "full"))
    omega = SampleSet(np.ones((12, 12, 4), dtype=bool))
    monkeypatch.setattr(tnn_admm, "MAX_ITERS", 300)
    monkeypatch.setattr(tnn_admm, "TOL", 1e-16)
    report = admm_complete(t, omega, 1e-8, ground_truth=t)
    assert report.rse[-1] <= 1e-6


def test_admm_empty_omega():
    omega = SampleSet(np.zeros((4, 4, 2), dtype=bool))
    with pytest.raises(InsufficientSamples):
        admm_complete(np.zeros((4, 4, 2)), omega, 1.0)
    with pytest.raises(DimensionMismatch):
        admm_complete(np.zeros((4, 4, 3)), omega, 1.0)
    full = SampleSet(np.ones((4, 4, 2), dtype=bool))
    observed = np.zeros((4, 4, 2))
    observed[1, 2, 0] = np.nan
    with pytest.raises(InvalidEntries):
        admm_complete(observed, full, 1.0)
    wrong = np.zeros((4, 4, 3))
    with pytest.raises(DimensionMismatch):
        admm_complete(np.zeros((4, 4, 2)), full, 1.0, start=(wrong, wrong))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", [0, 1])
def test_admm_non_finite_start_is_invalid_entries(bad, which):
    t, _ = synth_low_tubal_rank(12, 12, 3, 2, RngSeed(13, "start"))
    omega = sample_bernoulli(12, 12, 3, 0.5, RngSeed(13, "start-mask"))
    start = [np.zeros_like(t), np.zeros_like(t)]
    start[which][2, 5, 1] = bad
    with pytest.raises(InvalidEntries):
        admm_complete(project(t, omega), omega, 1.0, start=tuple(start))


def test_admm_recovers_on_desk_instance():
    truth, observed, omega = desk_instance()
    best = None
    for lam in lambda_grid(observed):
        report = admm_complete(observed, omega, float(lam), ground_truth=truth)
        if best is None or report.rse[-1] < best:
            best = report.rse[-1]
    assert best <= 1e-2


def lagrangian(observed, omega, lam, alpha, x, z, q):
    """Augmented Lagrangian of the TNN-ADMM splitting at (x, z, q)."""
    gap = x - z
    fit = 0.5 * frobenius_norm((observed - x) * omega.mask) ** 2
    return fit + lam * tnn(z) + float(np.sum(gap * q)) + 0.5 * alpha * frobenius_norm(gap) ** 2


def test_admm_objective_monotone_after_transient(monkeypatch):
    # empirical monotonicity of the augmented Lagrangian, checked at the
    # lightest grid weight; heavier weights show transient bumps right
    # after the burn-in window.  Iteration k's svt input t and output z
    # give its multiplier q = alpha (t - z) and its x = t - q_prev / alpha.
    truth, observed, omega = desk_instance()
    lam = float(lambda_grid(observed)[0])
    alpha = omega.size / observed.size
    monkeypatch.setattr(tnn_admm, "MAX_ITERS", 300)
    monkeypatch.setattr(tnn_admm, "TOL", 1e-13)
    calls = []

    def recorded(t, eps, *, basis=None):
        out = svt(t, eps, basis=basis)
        calls.append((t, out[0]))
        return out

    monkeypatch.setattr(tnn_admm, "svt", recorded)
    admm_complete(observed, omega, lam, ground_truth=truth)
    obj, q_prev = [], np.zeros_like(observed)
    for t, z in calls:
        q = alpha * (t - z)
        obj.append(lagrangian(observed, omega, lam, alpha, t - q_prev / alpha, z, q))
        q_prev = q
    assert len(obj) > 10
    for prev, cur in zip(obj[5:], obj[6:]):
        assert cur <= prev + 1e-10


def test_admm_feasibility_gap_at_convergence(monkeypatch):
    truth, observed, omega = desk_instance()
    lam = float(lambda_grid(observed)[1])
    monkeypatch.setattr(tnn_admm, "TOL", 1e-9)
    report = admm_complete(observed, omega, lam, ground_truth=truth)
    assert len(report.rse) < 500  # both residuals met tol
    z = report.admm_state[0]
    assert frobenius_norm(report.estimate - z) <= 1e-6 * frobenius_norm(observed)


def test_admm_determinism(monkeypatch):
    truth, observed, omega = desk_instance()
    monkeypatch.setattr(tnn_admm, "MAX_ITERS", 50)
    r1 = admm_complete(observed, omega, 1.0, ground_truth=truth)
    r2 = admm_complete(observed, omega, 1.0, ground_truth=truth)
    assert r1.rse == r2.rse
    assert all(map(np.array_equal, r1.admm_state, r2.admm_state))
    assert np.array_equal(r1.estimate, r2.estimate)


def test_admm_training_residual_without_truth(monkeypatch):
    _, observed, omega = desk_instance()
    monkeypatch.setattr(tnn_admm, "MAX_ITERS", 30)
    report = admm_complete(observed, omega, 1.0)
    assert report.rse[-1] == trace_error(report.estimate, observed, omega)
    assert all(v >= 0 for v in report.rse)


def test_admm_fixed_point_does_not_depend_on_alpha(monkeypatch):
    # q is the unscaled multiplier in every update, so each penalty converges
    # to the same optimum; scaling it in the x-update alone moved the optimum
    t, _ = synth_low_tubal_rank(20, 20, 5, 2, RngSeed(11, "alpha"))
    omega = sample_bernoulli(20, 20, 5, 0.5, RngSeed(11, "alpha-mask"))
    observed = project(t, omega)
    finals = []
    monkeypatch.setattr(tnn_admm, "MAX_ITERS", 3000)
    monkeypatch.setattr(tnn_admm, "TOL", 1e-12)
    for alpha in (0.5, 1.0, 2.0, 4.0):
        report = admm_complete(observed, omega, 1.0, alpha)
        assert len(report.rse) < 3000
        z, q = report.admm_state
        finals.append(lagrangian(observed, omega, 1.0, alpha, report.estimate, z, q))
    assert max(finals) - min(finals) <= 1e-9 * min(finals)


def test_admm_default_alpha_is_sampling_rate():
    truth, observed, omega = desk_instance()
    rate = omega.size / observed.size
    default = admm_complete(observed, omega, 1.0, ground_truth=truth)
    explicit = admm_complete(observed, omega, 1.0, rate, ground_truth=truth)
    assert default.rse == explicit.rse
    assert all(map(np.array_equal, default.admm_state, explicit.admm_state))
    assert np.array_equal(default.estimate, explicit.estimate)


def test_top_lambda_exact_start_stops_after_one_iteration():
    # at lambda = spectral norm the optimum is z = 0 with multiplier
    # q = P_Omega Y, whatever the penalty
    _, observed, omega = desk_instance()
    lam = float(lambda_grid(observed)[-1])
    for alpha in (None, 0.25, 1.0, 4.0):
        report = admm_complete(
            observed, omega, lam, alpha, start=(np.zeros_like(observed), observed)
        )
        assert len(report.rse) == 1
        z, _ = report.admm_state
        assert frobenius_norm(z) <= 1e-12 * frobenius_norm(observed)


def test_admm_warm_start_resumes_from_state():
    _, observed, omega = desk_instance()
    first = admm_complete(observed, omega, 1.0)
    again = admm_complete(observed, omega, 1.0, start=first.admm_state)
    assert len(again.rse) < len(first.rse)
    assert frobenius_norm(again.estimate - first.estimate) <= 1e-5 * frobenius_norm(observed)


def test_admm_leaves_observed_and_start_unchanged(monkeypatch):
    # q is updated in place; the harness passes its P_Omega Y as the top run's q
    truth, observed, omega = desk_instance()
    before = observed.copy()
    start = (np.ones_like(observed), observed)
    report = admm_complete(observed, omega, 1.0, start=start)
    assert np.array_equal(observed, before) and np.all(start[0] == 1.0)
    state = [a.copy() for a in report.admm_state]
    admm_complete(observed, omega, 0.5, start=report.admm_state)
    assert all(map(np.array_equal, report.admm_state, state))
    starts = []

    def recorded(*args, start=None, **kwargs):
        copies = [a.copy() for a in start]
        starts.append((start, copies))
        return admm_complete(*args, start=start, **kwargs)

    monkeypatch.setattr(harness, "admm_complete", recorded)
    spec = harness.ExperimentSpec(m=30, n=30, k=6, rank=2)
    harness.run_algorithm(spec, "tnn-admm", observed, omega, truth, None)
    assert np.array_equal(observed, before) and len(starts) == 5
    for start, copies in starts:
        assert all(map(np.array_equal, start, copies))


def test_warm_lambda_path_matches_cold_optimum(monkeypatch):
    truth, observed, omega = desk_instance()
    runs = []

    def recorded(*args, **kwargs):
        report = admm_complete(*args, **kwargs)
        runs.append((args[2], report))
        return report

    monkeypatch.setattr(harness, "admm_complete", recorded)
    spec = harness.ExperimentSpec(m=30, n=30, k=6, rank=2)
    kept = harness.run_algorithm(spec, "tnn-admm", observed, omega, truth, None)
    lams = [lam for lam, _ in runs]
    assert lams == sorted(lams, reverse=True) and len(lams) == 5
    assert kept is runs[-1][1]
    scale = frobenius_norm(observed)
    cold_iters = sum(len(admm_complete(observed, omega, lam).rse) for lam in lams)
    assert len(runs[-1][1].rse) < tnn_admm.MAX_ITERS  # smallest λ converged
    assert all(len(warm.rse) < tnn_admm.MAX_ITERS for _, warm in runs)
    assert sum(len(warm.rse) for _, warm in runs) < cold_iters
    monkeypatch.setattr(tnn_admm, "MAX_ITERS", 20000)
    monkeypatch.setattr(tnn_admm, "TOL", 1e-12)
    for lam, warm in runs:
        exact = admm_complete(observed, omega, lam)
        assert len(exact.rse) < 20000
        assert frobenius_norm(warm.estimate - exact.estimate) <= 1e-5 * scale

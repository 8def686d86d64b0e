import numpy as np
import pytest

from tubalkit import tnn_admm
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
from tubalkit.tnn_admm import admm_complete, svt, tnn

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


def test_warm_svt_matches_full_svd_on_a_constrained_run(monkeypatch):
    # replay every svt call of a real run, basis included, against the full
    # SVD while the threshold 1/mu falls; then replay each warm call with its
    # chain forced to resync, by a bound at eps (no room for the Ritz
    # residual) or by a count one above what a slice keeps
    truth, observed, omega = desk_instance()
    calls, verdicts, handed = [], [], []
    chained, ritz = tnn_admm._chained_tail, tnn_admm._ritz

    def recorded(t, eps, *, basis=None):
        calls.append((t, eps, basis))
        return svt(t, eps, basis=basis)

    def spied(*args):
        out = chained(*args)
        verdicts.append(out is not None)
        return out

    def spied_ritz(*args):
        out = ritz(*args)
        if out[0] is not None:
            handed.append(out[1])
        return out

    monkeypatch.setattr(tnn_admm, "svt", recorded)
    monkeypatch.setattr(tnn_admm, "_chained_tail", spied)
    monkeypatch.setattr(tnn_admm, "_ritz", spied_ritz)
    admm_complete(observed, omega, ground_truth=truth)
    assert min(handed) < tnn_admm.POWER_STEPS  # the step count falls within a run
    thresholds = [eps for _, eps, _ in calls]
    assert all(b < a for a, b in zip(thresholds, thresholds[1:]))
    assert sum(b is not None for _, _, b in calls) == len(calls) - 1  # all but the first warm
    assert any(verdicts)  # the chain certifies under a falling threshold
    assert not all(verdicts)  # and some calls resync by the power bound
    forced_checks = 0
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


def test_warm_svt_gives_up_an_attempt_that_cannot_pass(monkeypatch):
    # past the kept 10, 8 and 1.2 of a 7-column block the next value is 0.99,
    # so each power step shrinks the residual by about (0.99 / 1.2)^2 = 0.68,
    # too slowly to reach RITZ_TOL within POWER_STEPS: the attempt gives up
    # at its second Ritz check instead of running all seven
    t = spectrum_tensor([10.0, 8.0, 1.2] + [0.99] * 9)
    _, (q, _, chain) = svt(spectrum_tensor([10.0, 8.0, 6.0] + [0.5] * 9, seed=9), 1.0)
    checks = []
    svd = np.linalg.svd

    def spied(a, *args, **kwargs):
        checks.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spied)
    assert tnn_admm._ritz(freq_slices(t), 1.0, q, 0, chain)[0] is None
    assert 1 <= len(checks) <= 2
    monkeypatch.undo()
    z, _ = svt(t, 1.0, basis=(q, 0, chain))
    full, _ = svt(t, 1.0)
    assert np.array_equal(z, full)


def test_warm_svt_hands_on_fewer_steps_after_a_pass_with_margin():
    # its own basis spans the kept values at once, so POWER_STEPS steps pass
    # far inside RITZ_TOL and the next call is offered one step fewer
    t = spectrum_tensor([10.0, 8.0, 6.0] + [0.1] * 9)
    _, (q, _, chain) = svt(t, 1.0)
    ritz, steps, _ = tnn_admm._ritz(freq_slices(t), 1.0, q, tnn_admm.POWER_STEPS, chain)
    assert ritz is not None
    assert steps < tnn_admm.POWER_STEPS


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


@pytest.mark.parametrize("rho", [None, 3.0])
def test_admm_x_step_is_the_closed_form(monkeypatch, rho):
    # three iterations replayed from the recorded svt calls: mu starts at
    # 1 / ||P_Omega Y||_2 and grows by RHO (the module's, or a steeper one);
    # x is P_Omega Y on Omega and z - q / mu off it; svt gets x + q / mu;
    # q gains mu (x - z)
    _, observed, omega = desk_instance()
    if rho is not None:
        monkeypatch.setattr(tnn_admm, "RHO", rho)
    calls = []

    def recorded(t, eps, *, basis=None):
        out = svt(t, eps, basis=basis)
        calls.append((t, eps, out[0]))
        return out

    monkeypatch.setattr(tnn_admm, "svt", recorded)
    monkeypatch.setattr(tnn_admm, "MAX_ITERS", 3)
    report = admm_complete(observed, omega)
    z, q = np.zeros_like(observed), np.zeros_like(observed)
    mu = 1 / spectral_norm(observed)
    for t, eps, z_next in calls:
        assert eps == 1 / mu
        x = np.where(omega.mask, observed, z - q / mu)
        assert frobenius_norm(t - (x + q / mu)) <= 1e-14 * frobenius_norm(t)
        z, q = z_next, q + mu * (x - z_next)
        mu = min(tnn_admm.RHO * mu, tnn_admm.MU_MAX)
    assert frobenius_norm(report.estimate - x) <= 1e-14 * frobenius_norm(x)


def test_admm_penalty_stops_growing_at_mu_max(monkeypatch):
    _, observed, omega = desk_instance()
    thresholds = []

    def recorded(t, eps, *, basis=None):
        thresholds.append(eps)
        return svt(t, eps, basis=basis)

    monkeypatch.setattr(tnn_admm, "svt", recorded)
    monkeypatch.setattr(tnn_admm, "MAX_ITERS", 8)
    cap = 1.5 / spectral_norm(observed)
    monkeypatch.setattr(tnn_admm, "MU_MAX", cap)
    admm_complete(observed, omega)
    # 1.1^4 = 1.46 and 1.1^5 = 1.61: the fifth threshold on is 1 / MU_MAX
    assert thresholds[5:] == [1 / cap] * 3
    assert all(eps > 1 / cap for eps in thresholds[:5])


def test_admm_full_observation_is_exact(monkeypatch):
    # with every entry observed, x is the observation from the first
    # iteration on, and z catches up as the threshold falls
    t, _ = synth_low_tubal_rank(12, 12, 4, 2, RngSeed(5, "full"))
    omega = SampleSet(np.ones((12, 12, 4), dtype=bool))
    report = admm_complete(t, omega, ground_truth=t)
    assert report.rse == [0.0] * len(report.rse)
    assert len(report.rse) < tnn_admm.MAX_ITERS


def test_admm_empty_omega():
    omega = SampleSet(np.zeros((4, 4, 2), dtype=bool))
    with pytest.raises(InsufficientSamples):
        admm_complete(np.zeros((4, 4, 2)), omega)
    with pytest.raises(DimensionMismatch):
        admm_complete(np.zeros((4, 4, 3)), omega)
    full = SampleSet(np.ones((4, 4, 2), dtype=bool))
    observed = np.zeros((4, 4, 2))
    observed[1, 2, 0] = np.nan
    with pytest.raises(InvalidEntries):
        admm_complete(observed, full)


def test_admm_all_zero_observations_are_insufficient_samples():
    # the first penalty is 1 / ||P_Omega Y||_2, undefined when every
    # observation is zero; nonzero entries off Omega do not count
    omega = sample_bernoulli(6, 6, 3, 0.5, RngSeed(2, "zeros"))
    for observed in (np.zeros((6, 6, 3)), np.where(omega.mask, 0.0, 1.0)):
        with pytest.raises(InsufficientSamples, match="no nonzero observation"):
            admm_complete(observed, omega)


def test_admm_recovers_on_desk_instance():
    truth, observed, omega = desk_instance()
    report = admm_complete(observed, omega, ground_truth=truth)
    assert len(report.rse) < tnn_admm.MAX_ITERS
    assert report.rse[-1] <= 1e-5


def recorded_iterates(monkeypatch):
    """A list that each admm_complete iteration appends its x to."""
    iterates = []
    trace_error = tnn_admm.trace_error

    def recorded(x, *args):
        iterates.append(x.copy())
        return trace_error(x, *args)

    monkeypatch.setattr(tnn_admm, "trace_error", recorded)
    return iterates


def test_admm_objective_monotone_after_transient(monkeypatch):
    # empirical: every x meets the observations, and its TNN, the
    # objective, falls from the sixth iteration on (it rose once, at the
    # fourth, on this instance)
    truth, observed, omega = desk_instance()
    iterates = recorded_iterates(monkeypatch)
    admm_complete(observed, omega, ground_truth=truth)
    obj = [tnn(x) for x in iterates]
    assert len(obj) > 10
    for prev, cur in zip(obj[5:], obj[6:]):
        assert cur <= prev + 1e-12 * prev
    for x in iterates:
        assert np.array_equal(x[omega.mask], observed[omega.mask])


def test_admm_feasibility_gap_at_convergence(monkeypatch):
    truth, observed, omega = desk_instance()
    monkeypatch.setattr(tnn_admm, "TOL", 1e-9)
    thresholded = []

    def recorded(t, eps, *, basis=None):
        out = svt(t, eps, basis=basis)
        thresholded.append(out[0])
        return out

    monkeypatch.setattr(tnn_admm, "svt", recorded)
    report = admm_complete(observed, omega, ground_truth=truth)
    assert len(report.rse) < tnn_admm.MAX_ITERS  # both residuals met tol
    z = thresholded[-1]
    assert frobenius_norm(report.estimate - z) <= 1e-9 * frobenius_norm(observed)


def test_admm_determinism(monkeypatch):
    truth, observed, omega = desk_instance()
    monkeypatch.setattr(tnn_admm, "MAX_ITERS", 50)
    r1 = admm_complete(observed, omega, ground_truth=truth)
    r2 = admm_complete(observed, omega, ground_truth=truth)
    assert r1.rse == r2.rse
    assert np.array_equal(r1.estimate, r2.estimate)


def test_admm_training_residual_without_truth(monkeypatch):
    # x takes P_Omega Y on Omega, so the training residual is exactly zero
    _, observed, omega = desk_instance()
    monkeypatch.setattr(tnn_admm, "MAX_ITERS", 30)
    report = admm_complete(observed, omega)
    assert report.rse[-1] == trace_error(report.estimate, observed, omega)
    assert report.rse == [0.0] * 30


def test_admm_fixed_point_does_not_depend_on_rho(monkeypatch):
    # the steps shrink as 1/mu, so a schedule that reaches a large mu sooner
    # stops sooner, wherever it is; under one common cap on mu both
    # schedules converge to the same point
    t, _ = synth_low_tubal_rank(20, 20, 5, 2, RngSeed(11, "rho"))
    omega = sample_bernoulli(20, 20, 5, 0.5, RngSeed(11, "rho-mask"))
    observed = project(t, omega)
    monkeypatch.setattr(tnn_admm, "TOL", 1e-12)
    monkeypatch.setattr(tnn_admm, "MAX_ITERS", 1000)
    monkeypatch.setattr(tnn_admm, "MU_MAX", 1e3 / spectral_norm(observed))
    estimates = []
    for rho in (1.05, 1.2):
        monkeypatch.setattr(tnn_admm, "RHO", rho)
        report = admm_complete(observed, omega)
        assert len(report.rse) < 1000
        estimates.append(report.estimate)
    assert frobenius_norm(estimates[0] - estimates[1]) <= 1e-10 * frobenius_norm(observed)
    assert abs(tnn(estimates[0]) - tnn(estimates[1])) <= 1e-10 * tnn(estimates[0])


def test_admm_leaves_observed_unchanged():
    truth, observed, omega = desk_instance()
    before = observed.copy()
    admm_complete(observed, omega, ground_truth=truth)
    assert np.array_equal(observed, before)

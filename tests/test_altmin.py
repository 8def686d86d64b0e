import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tubalkit.algebra import (
    coherence,
    identity_tensor,
    orthonormality_error,
    tprod,
    ttranspose,
)
from tubalkit import altmin, harness, tls
from tubalkit.altmin import (
    SolverConfig,
    fit_line,
    initialize,
    qr_tensor,
    rse,
    smooth_qr,
    top_r_eigenslices,
    trace_error,
    tubal_alt_min,
)
from tubalkit.errors import (
    DimensionMismatch,
    InsufficientSamples,
    InvalidEntries,
    RankOutOfRange,
    ZeroTruth,
)
from tubalkit.sampling import (
    RngSeed,
    SampleSet,
    project,
    sample_bernoulli,
    synth_low_tubal_rank,
)
from tubalkit.tls import ls_solve_x, ls_solve_y
from oracles import (
    frobenius_norm,
    full_set,
    noisy_subspace_iteration,
    plain_alt_min,
    truncate_tubes,
    tsvd,
)


def subspace_angle(u, x):
    # largest sine of a principal angle between span(u) and the columns of x
    proj = tprod(u, ttranspose(u))
    resid = x - tprod(proj, x)
    top = 0.0
    rf = np.fft.fft(resid, axis=2)
    for kappa in range(resid.shape[2]):
        sv = np.linalg.svd(rf[:, :, kappa], compute_uv=False)
        if sv.size:
            top = max(top, float(sv[0]))
    return top


def test_rse_basics():
    t = np.random.default_rng(0).standard_normal((3, 3, 2))
    assert rse(t, t) == 0.0
    assert np.isclose(rse(np.zeros_like(t), t), 1.0)
    assert np.isclose(rse(2 * t, t), 1.0)
    with pytest.raises(ZeroTruth):
        rse(t, np.zeros_like(t))
    with pytest.raises(DimensionMismatch):
        rse(t, np.zeros((3, 3, 3)))


def test_fit_line():
    trace = [10 ** (-0.5 * i) for i in range(10)]
    slope, intercept = fit_line(trace)
    assert abs(slope + 0.5) < 1e-12
    assert abs(intercept) < 1e-12
    slope, _ = fit_line([0.3, 0.3, 0.3])
    assert abs(slope) < 1e-12


@pytest.mark.parametrize(
    "trace",
    [[], [0.5], [1.0, 0.0], [1.0, -0.5, 0.2], [1.0, np.nan], [1.0, np.inf], [np.inf, 1.0]],
)
def test_fit_line_is_none_for_a_trace_it_cannot_fit(trace):
    assert fit_line(trace) == (None, None)


def test_qr_tensor_reconstruction():
    rng = np.random.default_rng(1)
    y = rng.standard_normal((10, 3, 4))
    q = qr_tensor(y)
    # y lies in the span of q: q * (q^T * y) rebuilds it
    rebuilt = tprod(q, tprod(ttranspose(q), y))
    assert frobenius_norm(rebuilt - y) < 1e-9 * frobenius_norm(y)
    assert orthonormality_error(q) < 1e-8


def test_qr_tensor_k1():
    y = np.random.default_rng(2).standard_normal((6, 2, 1))
    q = qr_tensor(y)
    qm, rm = np.linalg.qr(y[:, :, 0])
    sign = np.sign(np.diag(rm))
    assert np.allclose(q[:, :, 0], qm * sign, atol=1e-10)
    assert np.allclose(q[:, :, 0].T @ y[:, :, 0], sign[:, None] * rm, atol=1e-10)


def test_qr_tensor_orthonormal_input_fixed_point():
    rng = np.random.default_rng(3)
    q0 = qr_tensor(rng.standard_normal((8, 3, 4)))
    q = qr_tensor(q0)
    p0 = tprod(q0, ttranspose(q0))
    p = tprod(q, ttranspose(q))
    assert frobenius_norm(p - p0) < 1e-9
    # with the positive-diagonal phase convention Q reproduces the input
    assert frobenius_norm(q - q0) < 1e-8


def test_qr_tensor_deterministic():
    y = np.random.default_rng(4).standard_normal((7, 3, 5))
    assert np.array_equal(qr_tensor(y), qr_tensor(y))


def test_truncate_tubes():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((5, 4, 3))
    big = truncate_tubes(z, 1e6)
    assert np.array_equal(big, z)
    capped = truncate_tubes(z, 0.5)
    norms = np.linalg.norm(capped, axis=2)
    assert np.all(norms <= 0.5 + 1e-12)
    # tubes already below the cap are untouched
    small = np.linalg.norm(z, axis=2) <= 0.5
    assert np.allclose(capped[small], z[small])


def test_initialize_full_observation():
    # exactly rank 3 and fully observed: the range finder's 7 columns hold
    # the whole range, so the start spans the truth's to rounding
    t, _ = synth_low_tubal_rank(20, 20, 4, 3, RngSeed(6, "init"))
    omega = full_set(20, 20, 4)
    x0 = initialize(t, omega, 3, RngSeed(6, "init-seed"))
    assert orthonormality_error(x0) < 1e-10
    u = tsvd(t).u[:, :3, :]
    assert subspace_angle(u, x0) < 1e-10
    # an orthonormal factor's tubes have norm at most 1, below the paper's
    # tube cap at fewer than 10^6 rows
    assert np.array_equal(truncate_tubes(x0, 1 + 1e-12), x0)


def test_initialize_empty_set():
    with pytest.raises(InsufficientSamples):
        initialize(
            np.zeros((4, 4, 2)),
            SampleSet(np.zeros((4, 4, 2), dtype=bool)),
            2,
            RngSeed(0, "empty"),
        )


def test_initialize_reads_observed_only_inside_omega():
    t, _ = synth_low_tubal_rank(20, 20, 4, 2, RngSeed(14, "init-in"))
    omega = sample_bernoulli(20, 20, 4, 0.5, RngSeed(14, "init-in-mask"))
    seed = RngSeed(14, "init-in-seed")
    reference = initialize(project(t, omega), omega, 2, seed)
    unprojected = np.where(omega.mask, t, np.nan)
    assert np.array_equal(initialize(unprojected, omega, 2, seed), reference)
    assert np.array_equal(initialize(t, omega, 2, seed), reference)
    on_omega = project(t, omega)
    on_omega[tuple(np.argwhere(omega.mask)[0])] = np.inf
    with pytest.raises(InvalidEntries):
        initialize(on_omega, omega, 2, seed)


def test_initialize_partial_observation_angle():
    # desk-scale analog of the quarter-bound: angle at most 0.5 for at
    # least 9 of 10 seeds (also exercised in the acceptance suite)
    hits = 0
    for s in range(3):
        t, _ = synth_low_tubal_rank(50, 50, 10, 3, RngSeed(s, "init-p"))
        omega = sample_bernoulli(50, 50, 10, 0.5, RngSeed(s, "init-p-mask"))
        x0 = initialize(project(t, omega), omega, 3, RngSeed(s, "init-p-s"))
        u = tsvd(t).u[:, :3, :]
        if subspace_angle(u, x0) <= 0.5:
            hits += 1
    assert hits >= 2


def test_simplified_variant_starts_from_initialize_on_all_of_omega(monkeypatch):
    t, _ = synth_low_tubal_rank(15, 12, 4, 2, RngSeed(20, "start"))
    omega = sample_bernoulli(15, 12, 4, 0.6, RngSeed(20, "start-mask"))
    cfg = SolverConfig(target_rank=2, iterations=2, seed=RngSeed(20, "start-run"))
    starts, first_x = [], []

    def spy_initialize(*args):
        starts.append((args, initialize(*args)))
        return starts[-1][1]

    def spy_ls_solve_y(observed, part, x, plan):
        first_x.append(x)
        return ls_solve_y(observed, part, x, plan=plan)

    monkeypatch.setattr(altmin, "initialize", spy_initialize)
    monkeypatch.setattr(altmin, "ls_solve_y", spy_ls_solve_y)
    tubal_alt_min(project(t, omega), omega, cfg)
    [((observed, start_set, r, seed), x0)] = starts
    assert np.array_equal(observed, project(t, omega))
    assert start_set is omega and r == 2 and seed is cfg.seed
    assert first_x[0] is x0


def test_simplified_variant_builds_two_plans_and_reuses_them(monkeypatch):
    # a plan rebuilt every round gives the same estimate, so no golden sees it
    t, _ = synth_low_tubal_rank(15, 12, 4, 2, RngSeed(21, "plans"))
    omega = sample_bernoulli(15, 12, 4, 0.7, RngSeed(21, "plans-mask"))
    observed = project(t, omega)
    plans, used = [], {"y": [], "x": []}

    def spy_plan(*args, **kwargs):
        plans.append(tls._Plan(*args, **kwargs))
        return plans[-1]

    def spy_solve(half, solve):
        def spied(observed, part, factor, plan):
            used[half].append(plan)
            return solve(observed, part, factor, plan=plan)

        return spied

    monkeypatch.setattr(altmin, "_Plan", spy_plan)
    monkeypatch.setattr(altmin, "ls_solve_y", spy_solve("y", ls_solve_y))
    monkeypatch.setattr(altmin, "ls_solve_x", spy_solve("x", ls_solve_x))
    cfg = SolverConfig(target_rank=2, iterations=4, seed=RngSeed(21, "plans-run"))
    report = tubal_alt_min(observed, omega, cfg)
    assert len(report.rse) == 4
    y_plan, x_plan = plans
    assert y_plan.y_update and not x_plan.y_update
    assert all(plan is y_plan for plan in used["y"]) and len(used["y"]) == 4
    assert all(plan is x_plan for plan in used["x"]) and len(used["x"]) == 4
    # every slice is tall, so the X plan reads the Y plan's spectra
    assert np.shares_memory(x_plan.spectral.form, y_plan.spectral.form)
    assert np.shares_memory(x_plan.spectral.left, y_plan.spectral.left)
    full = SolverConfig(
        target_rank=2, iterations=2, variant="full", seed=RngSeed(21, "plans-full")
    )
    tubal_alt_min(observed, omega, full)
    assert len(plans) == 2


def test_simplified_solve_peak_memory_at_the_tall_k_shape():
    # The altmin-tall-k shape.  Two plans with their own mask spectra, the
    # Gram generator's last pair-product block and the previous round's
    # estimate, all live while the Grams are factored, peaked at 6.3 MiB
    # above the pre-solve baseline; one shared spectrum peaks at 4.3 MiB.
    t, _ = synth_low_tubal_rank(50, 50, 20, 3, RngSeed(0, "peak"))
    omega = sample_bernoulli(50, 50, 20, 0.5, RngSeed(0, "peak-mask"))
    observed = project(t, omega)
    cfg = SolverConfig(target_rank=3, iterations=3, seed=RngSeed(0, "peak-run"))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tubal_alt_min(observed, omega, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 5.0 * 2**20


def test_simplified_variant_recovers_at_p_0_15():
    # the spectral start moves the desk instance's recovery threshold below
    # p = 0.15; from a random orthonormal start this solve ended at RSE 2.2
    spec = harness.ExperimentSpec(rates=[0.15], iterations=40)
    truth, observed, omega, base = harness._instance(spec, 0.15, 0)
    report = harness.run_algorithm(
        spec, "altmin-simple", observed, omega, truth, base.derive("altmin-simple")
    )
    assert report.rse[-1] <= 0.05


def test_simplified_variant_recovers_at_p_0_2_within_30_rounds():
    # the plain alternation x <- x_raw took 50 rounds to RSE 1e-6 here
    spec = harness.ExperimentSpec(rates=[0.2], iterations=30)
    truth, observed, omega, base = harness._instance(spec, 0.2, 0)
    report = harness.run_algorithm(
        spec, "altmin-simple", observed, omega, truth, base.derive("altmin-simple")
    )
    assert min(report.rse) <= 1e-6


def test_anderson_mixing_solves_a_linear_fixed_point():
    # x <- a x + b with ||a|| = 0.9: mixing over three rounds spans the
    # 3-dimensional space, so it lands on the fixed point, up to rounding
    rng = np.random.default_rng(0)
    q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    a = q @ np.diag([0.9, -0.6, 0.3]) @ q.T
    b = rng.standard_normal(3)
    fixed = np.linalg.solve(np.eye(3) - a, b)
    mix = altmin._Anderson(altmin.ANDERSON_DEPTH)
    x = plain = np.zeros(3)
    for _ in range(6):
        x = mix(x, a @ x + b)
        plain = a @ plain + b
    assert np.linalg.norm(x - fixed) <= 1e-12
    assert np.linalg.norm(plain - fixed) > 0.1


def test_anderson_mixing_restarts_after_a_longer_step():
    rng = np.random.default_rng(1)
    xs, steps = rng.standard_normal((2, 4, 4))
    steps *= (np.array([1.0, 0.5, 5.0, 0.3]) / np.linalg.norm(steps, axis=1))[:, None]
    raws = xs + steps  # round 2's step is longer than round 1's
    mix = altmin._Anderson(3)
    mixed = [mix(x, raw) for x, raw in zip(xs[:4], raws[:4])]
    assert not np.array_equal(mixed[1], raws[1])
    assert np.array_equal(mixed[2], raws[2])
    # the history starts again from round 2, as in a fresh mixer
    fresh = altmin._Anderson(3)
    assert np.array_equal(fresh(xs[2], raws[2]), raws[2])
    assert np.array_equal(fresh(xs[3], raws[3]), mixed[3])


@pytest.mark.parametrize("depth", [1, 3])
def test_anderson_mixing_keeps_only_the_last_depth_plus_one_rounds(depth):
    # x <- a x + b contracts, so every step is shorter than the last and no
    # round clears the history.  Round depth + 3 reads rounds 3 to depth + 3
    # only: a fresh mixer fed those rounds alone gives it bit for bit.
    rng = np.random.default_rng(depth)
    q = np.linalg.qr(rng.standard_normal((8, 8)))[0]
    a = q @ np.diag(np.linspace(0.9, -0.5, 8)) @ q.T
    b = rng.standard_normal(8)
    mix, rounds, x = altmin._Anderson(depth), [], np.zeros(8)
    for _ in range(depth + 3):
        raw = a @ x + b
        rounds.append((x, raw))
        x = mix(x, raw)
    norms = [np.linalg.norm(raw - x) for x, raw in rounds]
    assert all(later < earlier for earlier, later in zip(norms, norms[1:]))
    fresh = altmin._Anderson(depth)
    for x_old, raw in rounds[-depth - 1:]:
        last = fresh(x_old, raw)
    assert np.array_equal(last, x)
    # a mixer that kept one more round mixes differently
    longer = altmin._Anderson(depth + 1)
    for x_old, raw in rounds[-depth - 2:]:
        last = longer(x_old, raw)
    assert not np.array_equal(last, x)


def test_simplified_loop_without_mixing_is_the_plain_alternation(monkeypatch):
    spec = harness.ExperimentSpec(rates=[0.5], iterations=8)
    truth, observed, omega, base = harness._instance(spec, 0.5, 0)
    cfg = SolverConfig(target_rank=3, iterations=8, seed=base)
    trace, estimate = plain_alt_min(observed, omega, 3, 8, base, truth)
    # the first mixed iterate feeds round 3
    mixed = tubal_alt_min(observed, omega, cfg, ground_truth=truth)
    assert mixed.rse[:2] == trace[:2] and mixed.rse[2] != trace[2]
    monkeypatch.setattr(altmin, "ANDERSON_DEPTH", 0)
    report = tubal_alt_min(observed, omega, cfg, ground_truth=truth)
    assert report.rse == trace
    assert np.array_equal(report.estimate, estimate)


def test_smooth_qr_low_coherence_no_perturbation(monkeypatch):
    rng = np.random.default_rng(7)
    y = qr_tensor(rng.standard_normal((12, 3, 4)))
    # maximum possible coherence, guard can never trigger
    monkeypatch.setattr(altmin, "COHERENCE_BUDGET", 12 / 3)
    z = smooth_qr(y, RngSeed(7, "sqr"))
    assert np.array_equal(z, qr_tensor(y))  # no perturbation
    assert frobenius_norm(z - y) < 1e-8


def test_smooth_qr_takes_no_norm_below_the_budget(monkeypatch):
    # coherence is at most rows / r, so with 12 / 3 under COHERENCE_BUDGET the
    # result is qr_tensor(y): no coherence, spectral norm or perturbation
    # stream is taken
    calls = []
    for name in ("coherence", "spectral_norm"):
        monkeypatch.setattr(altmin, name, lambda t, name=name: calls.append(name) or 1.0)
    monkeypatch.setattr(RngSeed, "rng", lambda self: calls.append("rng"))
    y = np.random.default_rng(8).standard_normal((12, 3, 4))
    assert np.array_equal(smooth_qr(y, RngSeed(8, "sqr")), qr_tensor(y))
    assert calls == []


def test_smooth_qr_of_zero_stops(monkeypatch):
    # over the budget a zero y has sigma = 0, which no doubling would raise
    calls = []

    def counted(t):
        calls.append(t)
        if len(calls) > 10:
            pytest.fail("smooth_qr keeps perturbing a zero y")
        return qr_tensor(t)

    monkeypatch.setattr(altmin, "COHERENCE_BUDGET", 0.5)
    monkeypatch.setattr(altmin, "qr_tensor", counted)
    y = np.zeros((6, 2, 3))
    assert np.array_equal(smooth_qr(y, RngSeed(9, "zero")), qr_tensor(y))
    assert len(calls) == 1


def test_smooth_qr_forces_incoherence(monkeypatch):
    # single standard-basis lateral slice: coherence n, budget 8; the
    # perturbation scale is capped at the spectral norm of y, which bounds
    # how much incoherence the loop can force, so n stays moderate here
    n = 12
    y = np.zeros((n, 1, 3))
    y[0, 0, 0] = 1.0
    assert np.isclose(coherence(y), n)
    monkeypatch.setattr(altmin, "COHERENCE_BUDGET", 8.0)
    for s in range(10):
        z = smooth_qr(y, RngSeed(s, "force"))
        assert not np.array_equal(z, qr_tensor(y))  # perturbed
        assert orthonormality_error(z) < 1e-7
        assert coherence(z) <= 8.0


def test_simplified_exact_interpolation():
    t, _ = synth_low_tubal_rank(12, 12, 3, 2, RngSeed(8, "exact"))
    omega = full_set(12, 12, 3)
    cfg = SolverConfig(target_rank=2, iterations=2, seed=RngSeed(8, "cfg"))
    report = tubal_alt_min(t, omega, cfg, ground_truth=t)
    assert report.rse[-1] <= 1e-8


def smooth_qr_outputs(monkeypatch):
    """The list that every later `altmin.smooth_qr` call appends its
    orthonormal factor to."""
    factors = []

    def recorded(*args):
        factors.append(smooth_qr(*args))
        return factors[-1]

    monkeypatch.setattr(altmin, "smooth_qr", recorded)
    return factors


def test_full_variant_progress_and_orthonormality(monkeypatch):
    # the sample-splitting tax keeps the full variant away from the
    # simplified variant's exact-interpolation floor even at p = 1: every
    # iteration only sees its own split of the data, so we assert steady
    # progress and the maintained invariants rather than 1e-8 recovery
    t, _ = synth_low_tubal_rank(96, 96, 2, 1, RngSeed(9, "exact-f"))
    omega = full_set(96, 96, 2)
    cfg = SolverConfig(
        target_rank=1, iterations=2, variant="full", seed=RngSeed(9, "cfg-f")
    )
    factors = smooth_qr_outputs(monkeypatch)
    report = tubal_alt_min(t, omega, cfg, ground_truth=t)
    assert report.rse[-1] < report.rse[0]
    assert report.rse[-1] <= 0.1
    assert len(factors) == 2 * len(report.rse)
    assert all(orthonormality_error(f) < 1e-7 for f in factors)


def test_simplified_monotone_training_objective():
    t, _ = synth_low_tubal_rank(20, 20, 4, 2, RngSeed(10, "mono"))
    omega = sample_bernoulli(20, 20, 4, 0.6, RngSeed(10, "mono-mask"))
    observed = project(t, omega)
    cfg = SolverConfig(target_rank=2, iterations=8, seed=RngSeed(10, "cfg-m"))
    report = tubal_alt_min(observed, omega, cfg)  # no ground truth
    assert report.rse[-1] == trace_error(report.estimate, observed, omega)
    trace = np.array(report.rse)
    assert np.all(np.diff(trace) <= 1e-9)


def test_solver_determinism():
    t, _ = synth_low_tubal_rank(15, 15, 3, 2, RngSeed(11, "det"))
    omega = sample_bernoulli(15, 15, 3, 0.6, RngSeed(11, "det-mask"))
    observed = project(t, omega)
    for variant in ("simplified", "full"):
        cfg = SolverConfig(
            target_rank=2,
            iterations=4,
            variant=variant,
            seed=RngSeed(11, "det-cfg"),
        )
        r1 = tubal_alt_min(observed, omega, cfg, ground_truth=t)
        r2 = tubal_alt_min(observed, omega, cfg, ground_truth=t)
        assert r1.rse == r2.rse
        assert np.array_equal(r1.estimate, r2.estimate)
        assert len(r1.seconds) == len(r1.rse)
        assert all(b >= a for a, b in zip(r1.seconds, r1.seconds[1:]))


def test_full_variant_insufficient_samples():
    t = np.random.default_rng(12).standard_normal((4, 4, 2))
    mask = np.zeros((4, 4, 2), dtype=bool)
    mask[0, 0, 0] = True
    omega = SampleSet(mask)
    cfg = SolverConfig(
        target_rank=1, iterations=5, variant="full", seed=RngSeed(12, "few")
    )
    with pytest.raises(InsufficientSamples):
        tubal_alt_min(project(t, omega), omega, cfg, ground_truth=t)


@pytest.mark.parametrize("variant", ["simplified", "full"])
@pytest.mark.parametrize("rank", [6, 7])
def test_rank_above_min_dimension_is_typed_error(variant, rank):
    t = np.random.default_rng(19).standard_normal((6, 5, 3))
    cfg = SolverConfig(
        target_rank=rank, iterations=2, variant=variant, seed=RngSeed(19, "rank")
    )
    with pytest.raises(RankOutOfRange):
        tubal_alt_min(t, full_set(6, 5, 3), cfg)


@pytest.mark.parametrize("window", [0, -2])
def test_stall_window_must_be_positive(window):
    with pytest.raises(ValueError, match="stall_window"):
        SolverConfig(target_rank=1, stall_window=window)


@pytest.mark.parametrize("target", [np.nan, -1e-6, -np.inf])
def test_stop_rse_must_be_none_or_nonnegative(target):
    # no RSE is <= NaN or a negative target, so it would switch the stop rule off
    with pytest.raises(ValueError, match="stop_rse"):
        SolverConfig(target_rank=1, stop_rse=target)


def test_non_finite_observation_is_typed_error():
    t, _ = synth_low_tubal_rank(8, 8, 3, 1, RngSeed(17, "nan"))
    omega = sample_bernoulli(8, 8, 3, 0.7, RngSeed(17, "nan-mask"))
    cfg = SolverConfig(target_rank=1, iterations=3, seed=RngSeed(17, "nan-run"))
    # NaN at unobserved entries is ignored, projected or not
    holes = np.where(omega.mask, t, np.nan)
    report = tubal_alt_min(holes, omega, cfg, ground_truth=t)
    assert np.all(np.isfinite(report.estimate))
    observed = project(t, omega)
    i, j, kappa = np.argwhere(omega.mask)[0]
    observed[i, j, kappa] = np.nan
    for variant in ("simplified", "full"):
        cfg.variant = variant
        with pytest.raises(InvalidEntries):
            tubal_alt_min(observed, omega, cfg)


def test_stop_rse_early_exit():
    t, _ = synth_low_tubal_rank(12, 12, 3, 2, RngSeed(13, "stop"))
    omega = full_set(12, 12, 3)
    cfg = SolverConfig(
        target_rank=2, iterations=10, stop_rse=1e-6, seed=RngSeed(13, "cfg-s")
    )
    report = tubal_alt_min(t, omega, cfg, ground_truth=t)
    assert len(report.rse) < 10
    assert report.rse[-1] <= 1e-6


@pytest.mark.parametrize("variant", ["simplified", "full"])
def test_stop_rules_end_the_loop(variant, monkeypatch):
    # the full variant smooth-QRs Y and X in every iteration, the last included
    reorths = []

    def counted(*args):
        reorths.append(args)
        return smooth_qr(*args)

    monkeypatch.setattr(altmin, "smooth_qr", counted)
    monkeypatch.setattr(altmin, "STALL_TOL", 0.0)  # never stalls
    t, _ = synth_low_tubal_rank(15, 15, 3, 2, RngSeed(18, "rules"))
    omega = sample_bernoulli(15, 15, 3, 0.8, RngSeed(18, "rules-mask"))
    observed = project(t, omega)
    cfg = SolverConfig(
        target_rank=2,
        iterations=6,
        variant=variant,
        seed=RngSeed(18, "rules-run"),
    )
    free = tubal_alt_min(observed, omega, cfg, ground_truth=t)
    assert len(free.rse) == 6
    monkeypatch.setattr(altmin, "STALL_TOL", 2 * max(free.rse))
    stalled = tubal_alt_min(observed, omega, replace(cfg, stall_window=2), ground_truth=t)
    assert stalled.rse == free.rse[:3]
    monkeypatch.setattr(altmin, "STALL_TOL", 0.0)
    stop = replace(cfg, stop_rse=2 * free.rse[0])
    stopped = tubal_alt_min(observed, omega, stop, ground_truth=t)
    assert stopped.rse == free.rse[:1]
    per_iteration = 2 if variant == "full" else 0
    assert len(reorths) == per_iteration * (6 + 3 + 1)


def gap_instance(n, k, r, gap):
    # symmetric frontal slices with a shared spectrum: slice one carries a
    # fixed symmetric matrix, the rest are zero, so every frequency slice
    # equals that matrix and the block spectrum is exactly its eigenvalues
    rng = np.random.default_rng(99)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    vals = np.ones(n) * gap
    vals[:r] = 1.0
    a = q @ np.diag(vals) @ q.T
    t = np.zeros((n, n, k))
    t[:, :, 0] = a
    return t


def test_noisy_subspace_iteration_fixed_point():
    t = gap_instance(10, 3, 2, 0.3)
    x0 = top_r_eigenslices(t, 2)
    trace = noisy_subspace_iteration(t, x0, 5)
    assert max(trace) <= 1e-9


def test_noisy_subspace_iteration_geometric_decay():
    gap = 0.3
    t = gap_instance(12, 3, 3, gap)
    u = top_r_eigenslices(t, 3)
    # start near the target subspace so the sine of the angle is already in
    # the regime where it contracts at the spectral-gap rate every step
    x0 = qr_tensor(
        u + 0.1 * np.random.default_rng(14).standard_normal((12, 3, 3))
    )
    trace = noisy_subspace_iteration(t, x0, 25)
    assert trace[0] > 1e-2  # genuinely off the subspace at the start
    for prev, cur in zip(trace, trace[1:]):
        if prev < 1e-10:
            break
        assert cur / prev <= gap + 0.05
    assert trace[-1] < 1e-9


def test_noisy_subspace_iteration_noise_plateau():
    gap = 0.3
    t = gap_instance(12, 3, 3, gap)
    x0 = qr_tensor(np.random.default_rng(15).standard_normal((12, 3, 3)))

    def noise_gen(step, shape, rng):
        noise = rng.standard_normal(shape)
        return 1e-3 * noise / np.linalg.norm(noise)

    trace = noisy_subspace_iteration(
        t, x0, 40, noise_gen=noise_gen, seed=RngSeed(15, "plateau")
    )
    tail = trace[-10:]
    assert max(tail) <= 1e-3 / (1 - gap) * 50
    assert min(tail) >= 1e-8  # the noise floor prevents exact convergence


def test_noisy_subspace_iteration_rejects_asymmetric():
    t = np.random.default_rng(16).standard_normal((5, 5, 2))
    x0 = identity_tensor(5, 2)[:, :2, :]
    with pytest.raises(DimensionMismatch):
        noisy_subspace_iteration(t, x0, 3)

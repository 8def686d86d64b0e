"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print; each criterion also has its own runtime budget.
"""

import time

import numpy as np
import pytest

from tubalkit.algebra import orthonormality_error, spectral_norm, tprod, ttranspose
from tubalkit.altmin import (
    SolverConfig,
    fit_line,
    initialize,
    qr_tensor,
    top_r_eigenslices,
    tubal_alt_min,
)
from tubalkit.sampling import (
    RngSeed,
    project,
    sample_bernoulli,
    synth_low_tubal_rank,
)
from tubalkit.tls import ls_solve_y
from tubalkit import tnn_admm
from tubalkit.tnn_admm import admm_complete

from oracles import (
    circ_expand,
    frobenius_norm,
    noisy_subspace_iteration,
    tinv,
    truncate_rank,
    tsvd,
    tubal_rank,
)
from test_altmin import smooth_qr_outputs
from test_tls import oracle_solve_y


def announce(number, label, ok, elapsed, extra=""):
    status = "PASS" if ok else "FAIL"
    tail = f" {extra}" if extra else ""
    print(f"criterion {number} ({label}): {status} ({elapsed:.1f} s){tail}")
    assert ok, f"criterion {number} failed{tail}"


def desk_instance(seed, p=0.5):
    base = RngSeed(seed, "acceptance")
    truth, _ = synth_low_tubal_rank(50, 50, 10, 3, base.derive("truth"))
    omega = sample_bernoulli(50, 50, 10, p, base.derive("omega"))
    return truth, project(truth, omega), omega, base


def test_criterion_1_algebra_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(200):
        m, s, n = (int(v) for v in rng.integers(1, 7, size=3))
        k = int(rng.integers(1, 6))
        a = rng.standard_normal((m, s, k))
        b = rng.standard_normal((s, n, k))
        ac, bc = circ_expand(a), circ_expand(b)
        prod = ac @ bc
        scale = max(np.linalg.norm(prod), 1.0)
        if np.linalg.norm(circ_expand(tprod(a, b)) - prod) > 1e-9 * scale:
            ok = False
        if np.linalg.norm(circ_expand(ttranspose(a)) - ac.T) > 1e-9 * max(
            np.linalg.norm(ac), 1.0
        ):
            ok = False
        if (
            abs(frobenius_norm(tprod(a, b)) - np.linalg.norm(prod) / np.sqrt(k))
            > 1e-9 * scale
        ):
            ok = False
        top = np.linalg.svd(ac, compute_uv=False)[0]
        if abs(spectral_norm(a) - top) > 1e-9 * max(top, 1.0):
            ok = False
        square = a[:, :m, :] if s >= m else None
        if square is not None:
            sv = np.linalg.svd(circ_expand(square), compute_uv=False)
            if sv[-1] > 1e-3 * sv[0]:
                inv = tinv(square)
                if np.linalg.norm(
                    circ_expand(inv) - np.linalg.inv(circ_expand(square))
                ) > 1e-9 * np.linalg.norm(np.linalg.inv(circ_expand(square))):
                    ok = False
    elapsed = time.perf_counter() - start
    announce(1, "algebra oracle suite", ok and elapsed < 10, elapsed)


def test_criterion_2_tsvd_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    ok = True
    for m, n, k, r in [(8, 6, 5, 2), (12, 12, 4, 3), (20, 20, 8, 4)]:
        t, _ = synth_low_tubal_rank(m, n, k, r, RngSeed(m * n, "c2"))
        f = tsvd(t)
        recon = tprod(f.u, tprod(f.theta, ttranspose(f.v)))
        if frobenius_norm(recon - t) > 1e-8 * frobenius_norm(t):
            ok = False
        if orthonormality_error(f.u) > 1e-8 or orthonormality_error(f.v) > 1e-8:
            ok = False
        if tubal_rank(t, tol=1e-6) != r:
            ok = False
    for _ in range(5):
        t = rng.standard_normal((6, 6, 4))
        best = frobenius_norm(t - truncate_rank(t, 2))
        for _ in range(50):
            x = rng.standard_normal((6, 2, 4))
            y = rng.standard_normal((6, 2, 4))
            if frobenius_norm(t - tprod(x, ttranspose(y))) < best - 1e-9:
                ok = False
    elapsed = time.perf_counter() - start
    announce(2, "t-SVD suite", ok and elapsed < 30, elapsed)


def test_criterion_3_ls_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    ok = True
    for trial in range(100):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 5))
        r = int(rng.integers(1, min(m, n, 3) + 1))
        p = [0.4, 0.6, 1.0][trial % 3]
        omega = sample_bernoulli(m, n, k, p, RngSeed(trial, "c3-mask"))
        t = rng.standard_normal((m, n, k))
        observed = project(t, omega)
        x = rng.standard_normal((m, r, k))
        y = ls_solve_y(observed, omega, x)
        ref = oracle_solve_y(observed, omega, x)
        if frobenius_norm(y - ref) > 1e-7 * max(frobenius_norm(ref), 1.0):
            ok = False
    # non-circulant witness for the 1x1x2 circular least-squares relaxation
    xc = circ_expand(np.array([[[2.0, 1.0]]]))
    tc = circ_expand(np.array([[[5.0, 3.0]]]))
    g = np.array([[0.7, 0.2], [-0.2, -0.7]])
    y_mat = np.linalg.solve(xc, tc - g)
    if not np.allclose(xc @ y_mat + g, tc, atol=1e-12):
        ok = False
    if abs(y_mat[0, 0] - y_mat[1, 1]) < 1e-6:
        ok = False
    elapsed = time.perf_counter() - start
    announce(3, "LS oracle equivalence", ok and elapsed < 60, elapsed)


def run_simplified(seed, p=0.5, iterations=15):
    truth, observed, omega, base = desk_instance(seed, p)
    cfg = SolverConfig(
        target_rank=3,
        iterations=iterations,
        seed=base.derive("simple"),
    )
    return truth, observed, omega, base, tubal_alt_min(
        observed, omega, cfg, ground_truth=truth
    )


def test_criterion_4_exact_completion():
    start = time.perf_counter()
    hits = 0
    slopes = []
    for seed in range(10):
        _, _, _, _, report = run_simplified(seed)
        if report.rse[-1] <= 1e-6:
            hits += 1
        slope, _ = fit_line(report.rse)
        if slope is not None:
            slopes.append(slope)
    ok = hits >= 9 and all(s <= -0.1 for s in slopes)
    elapsed = time.perf_counter() - start
    announce(
        4,
        "exact completion, simplified solver",
        ok and elapsed < 180,
        elapsed,
        extra=f"[{hits}/10 seeds <= 1e-6, worst slope {max(slopes):.3f}]",
    )


def test_criterion_5_baseline_comparison():
    start = time.perf_counter()
    truth, observed, omega, base, alt_report = run_simplified(0)
    admm = admm_complete(observed, omega, ground_truth=truth)
    ratio = admm.rse[-1] / alt_report.rse[-1]
    (alt_slope, _), (admm_slope, _) = fit_line(alt_report.rse), fit_line(admm.rse)
    shallower = admm_slope is None or admm_slope > alt_slope
    ok = ratio >= 10 and shallower
    elapsed = time.perf_counter() - start
    announce(
        5,
        "TNN-ADMM baseline comparison",
        ok and elapsed < 300,
        elapsed,
        extra=f"[rse ratio {ratio:.1e}, slopes {alt_slope:.3f} vs "
        f"{admm_slope:.4f}]",
    )


def test_criterion_6_initialization():
    start = time.perf_counter()
    hits = 0
    for seed in range(10):
        truth, observed, omega, base = desk_instance(seed)
        x0 = initialize(observed, omega, 3, base.derive("init"))
        u = tsvd(truth).u[:, :3, :]
        proj = tprod(u, ttranspose(u))
        angle = spectral_norm(x0 - tprod(proj, x0))
        if angle <= 0.5:
            hits += 1
    ok = hits >= 9
    elapsed = time.perf_counter() - start
    announce(
        6,
        "spectral initialization angle",
        ok,
        elapsed,
        extra=f"[{hits}/10 seeds <= 0.5]",
    )


def test_criterion_7_noisy_subspace_iteration():
    start = time.perf_counter()
    ok = True
    rng = np.random.default_rng(107)
    for gap in (0.2, 0.3, 0.5):
        n, k, r = 12, 3, 3
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        vals = np.ones(n) * gap
        vals[:r] = 1.0
        t = np.zeros((n, n, k))
        t[:, :, 0] = q @ np.diag(vals) @ q.T
        u = top_r_eigenslices(t, r)
        x0 = qr_tensor(u + 0.1 * rng.standard_normal((n, r, k)))
        trace = noisy_subspace_iteration(t, x0, 25)
        for prev, cur in zip(trace, trace[1:]):
            if prev < 1e-10:
                break
            if cur / prev > gap + 0.05:
                ok = False
    elapsed = time.perf_counter() - start
    announce(7, "noisy subspace iteration decay", ok and elapsed < 10, elapsed)


def test_criterion_8_full_variant_sanity(monkeypatch):
    start = time.perf_counter()
    truth, observed, omega, base = desk_instance(0, p=0.7)
    cfg = SolverConfig(
        target_rank=3,
        iterations=10,
        variant="full",
        seed=base.derive("full"),
    )
    factors = smooth_qr_outputs(monkeypatch)
    report = tubal_alt_min(observed, omega, cfg, ground_truth=truth)
    # only feasibility and orthonormality maintenance are asserted; the
    # measured recovery error is reported alongside for the record
    feasible = (
        len(report.rse) <= 10
        and all(np.isfinite(v) and v >= 0 for v in report.rse)
        and report.estimate is not None
        and np.all(np.isfinite(report.estimate))
    )
    orth = len(factors) == 2 * len(report.rse) and all(
        orthonormality_error(f) < 1e-7 for f in factors
    )
    ok = feasible and orth
    elapsed = time.perf_counter() - start
    announce(
        8,
        "full-variant sanity",
        ok,
        elapsed,
        extra=f"[measured final RSE {report.rse[-1]:.2e}]",
    )


def test_criterion_9_determinism(monkeypatch):
    start = time.perf_counter()
    ok = True
    # simplified and full solvers
    for variant in ("simplified", "full"):
        truth, observed, omega, base = desk_instance(1, p=0.7)
        cfg = SolverConfig(
            target_rank=3,
            iterations=4,
            variant=variant,
            seed=base.derive(variant),
        )
        r1 = tubal_alt_min(observed, omega, cfg, ground_truth=truth)
        r2 = tubal_alt_min(observed, omega, cfg, ground_truth=truth)
        if r1.rse != r2.rse or not np.array_equal(r1.estimate, r2.estimate):
            ok = False
    # convex baseline
    truth, observed, omega, _ = desk_instance(1)
    monkeypatch.setattr(tnn_admm, "MAX_ITERS", 40)
    a1 = admm_complete(observed, omega, ground_truth=truth)
    a2 = admm_complete(observed, omega, ground_truth=truth)
    if a1.rse != a2.rse or not np.array_equal(a1.estimate, a2.estimate):
        ok = False
    # sampling and synthesis
    t1, _ = synth_low_tubal_rank(20, 20, 4, 2, RngSeed(9, "c9"))
    t2, _ = synth_low_tubal_rank(20, 20, 4, 2, RngSeed(9, "c9"))
    m1 = sample_bernoulli(20, 20, 4, 0.5, RngSeed(9, "c9m"))
    m2 = sample_bernoulli(20, 20, 4, 0.5, RngSeed(9, "c9m"))
    if not np.array_equal(t1, t2) or not np.array_equal(m1.mask, m2.mask):
        ok = False
    elapsed = time.perf_counter() - start
    announce(9, "determinism under fixed seeds", ok, elapsed)

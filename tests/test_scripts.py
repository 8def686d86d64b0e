"""scripts/gram_conditioning.py reads the slice Grams a least-squares plan
forms; on a tiny instance they are checked against Grams gathered from
tls.circulant_rows, and the script runs end to end in the fast suite.
scripts/golden.py's merge of stored and fresh goldens is checked on
hand-made runs."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np

from tubalkit import tls
from tubalkit.sampling import RngSeed, SampleSet, project, sample_bernoulli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name="gram_conditioning"):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gram_conditioning_on_a_tiny_instance(monkeypatch):
    # the script puts src/ and perfbench/ on sys.path when it is loaded
    monkeypatch.setattr(sys, "path", list(sys.path))
    script = load_script()
    rng = np.random.default_rng(44)
    m, n, k, r = 6, 5, 3, 2
    omega = sample_bernoulli(m, n, k, 0.8, RngSeed(44, "conditioning"))
    observed = project(rng.standard_normal((m, n, k)), omega)
    x = rng.standard_normal((m, r, k))
    y = rng.standard_normal((n, r, k))
    # the X half-step's slice i observes row (j, kappa) where T[i, j, -kappa mod k] is
    masks = {True: np.swapaxes(omega.mask, 0, 1).reshape(n, -1),
             False: omega.mask[:, :, -np.arange(k) % k].reshape(m, -1)}
    for y_update, factor in ((True, x), (False, y)):
        rows = tls.circulant_rows(factor)
        tall = [keep for keep in masks[y_update] if keep.sum() >= r * k]
        assert len(tall) >= 3
        expected = np.linalg.cond(np.stack([rows[keep].T @ rows[keep] for keep in tall]))
        conds = script.gram_conditions(tls._Plan(observed, omega, r * k, y_update), factor)
        assert conds.shape == expected.shape
        assert np.allclose(conds, expected, rtol=1e-10, atol=0)
    # one observed row per slice: no slice is tall
    mask = np.zeros((m, n, k), dtype=bool)
    mask[0, :, 0] = True
    sparse = SampleSet(mask)
    plan = tls._Plan(project(observed, sparse), sparse, r * k, True)
    assert script.gram_conditions(plan, x).shape == (0,)


def test_gram_conditioning_main_runs_end_to_end(monkeypatch, capsys):
    # the solver's half-steps are wrapped, so a changed call breaks this run
    monkeypatch.setattr(sys, "path", list(sys.path))
    script = load_script()
    tiny = {
        name: dataclasses.replace(w, dims=(8, 8, 2), rank=1, instances=1)
        for name, w in script.workloads.WORKLOADS.items()
    }
    monkeypatch.setattr(script.workloads, "WORKLOADS", tiny)
    solvers = (script.altmin.ls_solve_y, script.altmin.ls_solve_x)
    script.main(["--seed", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    for line in lines:
        assert "(1 instances, seed 3)" in line and "largest Gram condition" in line
    assert (script.altmin.ls_solve_y, script.altmin.ls_solve_x) == solvers


def test_golden_write_keeps_stored_runs_that_still_match(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    script = load_script("golden")
    run = {"iterations": 2, "rse": [(0.5).hex(), (0.25).hex()],
           "norm": (2.0).hex(), "projections": [(1.0).hex(), (-1.0).hex()]}
    nudged = dict(run, rse=[(0.5 * (1 + 1e-14)).hex(), (0.25).hex()])
    tampered = dict(run, norm=(2.0 * (1 + 1e-9)).hex())
    golden = {"kept": run, "moved": run, "removed": run}
    fresh = {"kept": nudged, "moved": tampered, "added": run}
    assert script.merged(golden, fresh) == {"kept": run, "moved": tampered, "added": run}

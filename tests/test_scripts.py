"""scripts/gram_conditioning.py rebuilds the solver's slice Grams from
tls.circulant_rows.  Running it on a tiny instance in the fast suite keeps
it from drifting away from the solver unnoticed.  scripts/golden.py's merge
of stored and fresh goldens is checked on hand-made runs."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np

from tubalkit.algebra import ttranspose
from tubalkit.sampling import RngSeed, sample_bernoulli

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
    omega = sample_bernoulli(6, 5, 3, 0.8, RngSeed(44, "conditioning"))
    x = rng.standard_normal((6, 2, 3))
    y = rng.standard_normal((5, 2, 3))
    # the X half-step's slices are the t-transposed sample set's lateral slices
    for mask, factor, slices in ((omega.mask, x, 5), (ttranspose(omega.mask), y, 6)):
        conds = script.gram_conditions(mask, factor)
        assert conds.shape == (slices,)
        assert np.all(np.isfinite(conds)) and np.all(conds >= 1)


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

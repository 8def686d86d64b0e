"""Golden estimates: every solver's iteration count, RSE trace and estimate
projections on three small instances must match tests/golden.json, by the
rule in scripts/golden.py (1e-12 relative, not bitwise), at both 1 and 2
BLAS threads.  `python3 scripts/golden.py --write` regenerates the file; a
change that moves a golden on purpose says which cases moved and by how
much.

The full variant's goldens hold only for changes that are bit-identical:
its element-wise median is discontinuous, so a summation-order change of
one ulp can pick another subset's value.  One such change moved a
50x50x10, p = 0.5 full-variant estimate by 2.4e-10 after 4 iterations."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden.py"
# One simplified AltMin run and one TNN-ADMM run on a 50x50x10 instance,
# whose traces print as float.hex; the tensors are above the 10,000 entries
# from which OpenBLAS threads a dot product.
TRACES = """
import sys
sys.path.insert(0, sys.argv[1])
from tubalkit import altmin, sampling, tnn_admm
truth, _ = sampling.synth_low_tubal_rank(50, 50, 10, 3, sampling.RngSeed(0, "threads"))
omega = sampling.sample_bernoulli(50, 50, 10, 0.5, sampling.RngSeed(0, "threads-mask"))
observed = sampling.project(truth, omega)
cfg = altmin.SolverConfig(target_rank=3, iterations=8, seed=sampling.RngSeed(0, "threads-run"))
runs = [altmin.tubal_alt_min(observed, omega, cfg, ground_truth=truth),
        tnn_admm.admm_complete(observed, omega, ground_truth=truth)]
print([[v.hex() for v in run.rse] for run in runs])
"""


def load_script(monkeypatch):
    # the script puts src/ on sys.path when it is loaded
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_estimates_match_the_goldens(monkeypatch):
    script = load_script(monkeypatch)
    golden = json.loads(Path(script.GOLDEN).read_text())
    assert script.compare(golden, script.run_cases()) == []


def test_estimates_match_the_goldens_at_the_other_blas_thread_count():
    # OpenBLAS defaults to one thread per CPU
    current = os.environ.get("OPENBLAS_NUM_THREADS") or str(os.cpu_count())
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2" if current == "1" else "1")
    run = subprocess.run([sys.executable, str(SCRIPT)], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr


def test_rse_traces_are_bit_identical_at_one_and_two_blas_threads():
    # both solvers' estimates are bit-identical at 1 and 2 threads here, so
    # their RSE traces must be too: a norm by threaded BLAS would break that
    src = str(SCRIPT.parents[1] / "src")
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", TRACES, src], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        out.append(run.stdout)
    assert out[0] == out[1]

"""Self-tests of the benchmark: python3 -m pytest perfbench

Every workload runs once for one short solve, traced, in a fresh process, as
the benchmark command would run it; that takes about a minute on two cores.
"""

import dataclasses
import json
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TUBALKIT = run.load_tubalkit()

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(out, workload, trace, seed=7):
    """Run the benchmark command for one solve; return (result, stdout, record)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=600, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    record = json.loads((out / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, proc.stdout, record


def assert_prints(result, stdout, units):
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}( |$)", stdout, re.M), name


def small_instance():
    workload = dataclasses.replace(workloads.WORKLOADS["altmin-desk"], dims=(12, 12, 3), instances=1)
    return workload, workloads.make_instances(workload, 0)[0]


def test_config_matches_code():
    assert [w["name"] for w in CONFIG["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONFIG["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} == tracing.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(tmp_path, workload):
    result, stdout, record = bench(tmp_path, workload, trace=1)
    assert result["correct"]
    assert result["attempted"] == 2  # one untraced and one traced solve
    assert_prints(result, stdout, tracing.PER_LAYER_UNITS)
    assert record["trace_warnings"] == []
    spans = (tmp_path / f"{workload}-seed7-trace1.spans.jsonl").read_text().splitlines()
    assert {"id", "name", "parent", "solve", "start", "end"} <= set(json.loads(spans[0]))


def test_untraced_run_prints_every_end_to_end_metric_and_repeats(tmp_path):
    first, stdout, a = bench(tmp_path / "a", "altmin-desk", trace=0)
    _, _, b = bench(tmp_path / "b", "altmin-desk", trace=0)
    assert first["correct"]
    assert_prints(first, stdout, run.END_TO_END_UNITS)
    assert re.search(r"^\s+failed_frac\s+\S+ frac", stdout, re.M)
    assert a["rse_digest"] == b["rse_digest"]
    assert [s["rse_hex"] for s in a["solves"]] == [s["rse_hex"] for s in b["solves"]]
    # Each solve is normalised by the calibrations before and after it.
    (solve,) = a["solves"]
    assert len(solve["kernel_runs_s"]) >= 2 * calibration.REPS
    assert solve["normalised_s"] == calibration.normalise(solve["seconds"], solve["kernel_runs_s"])


def test_sampling_runs_the_kernel_in_the_block_and_leaves_its_time_out():
    previous = signal.getsignal(signal.SIGALRM)
    workload, inst = small_instance()
    with calibration.sampling(interval=0.01) as sampled:
        while not sampled.kernel_runs:
            workloads.solve(workload, inst)
    assert 0 < sampled.seconds
    assert all(t > 0 for t in sampled.kernel_runs)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert calibration.normalise(2.0, [calibration.REFERENCE_S] * 3) == 2.0


def test_tracer_restores_every_hooked_function():
    originals = {(m, a): getattr(getattr(TUBALKIT, m), a) for _, m, a in tracing.HOOKS}
    workload, inst = small_instance()
    tracer = tracing.Tracer(TUBALKIT)
    with tracer.solve(0):
        assert TUBALKIT.altmin.ls_solve_y is not originals[("altmin", "ls_solve_y")]
        workloads.solve(workload, inst)
    with pytest.raises(RuntimeError):
        with tracer.solve(1):
            raise RuntimeError("solve failed")
    for (module, attr), fn in originals.items():
        assert getattr(getattr(TUBALKIT, module), attr) is fn, f"{module}.{attr}"
    assert {"solve", "altmin.tubal_alt_min", "tls.ls_solve_y"} <= {s.name for s in tracer.spans}


def test_missing_hook_records_zero_calls_and_a_warning():
    hooks = tuple(h for h in tracing.HOOKS if h[0] != "altmin.qr_tensor")
    hooks += (("altmin.qr_tensor", "altmin", "qr_tensor_renamed"),)
    workload, inst = small_instance()
    tracer = tracing.Tracer(TUBALKIT, hooks=hooks)
    with tracer.solve(0):
        workloads.solve(workload, inst)
    metrics = tracing.layer_metrics(tracer.spans, [1.0], [1.0])
    assert metrics["altmin.qr_tensor.calls"] == 0
    assert metrics["tls.ls_solve_y.calls"] > 0
    assert any("qr_tensor_renamed" in w for w in tracer.warnings)

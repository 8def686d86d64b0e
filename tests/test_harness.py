import csv
import json
import os
import struct
import time

import numpy as np
import pytest

from tubalkit import cli, harness, tnn_admm
from tubalkit.errors import BadMagic, DimOverflow, SolverBreakdown, TruncatedFile
from tubalkit.harness import (
    CSV_HEADER,
    ExperimentSpec,
    TraceRow,
    read_tensor,
    run_convergence,
    run_recovery_sweep,
    run_runtime_scaling,
    write_tensor,
)
from tubalkit.sampling import RngSeed, sample_bernoulli, write_sample_set


def test_t3b_round_trip(tmp_path):
    t = np.random.default_rng(0).standard_normal((5, 4, 3))
    path = tmp_path / "t.t3b"
    write_tensor(path, t)
    back = read_tensor(path)
    assert np.array_equal(back, t)  # bit exact


def test_t3b_file_size(tmp_path):
    path = tmp_path / "one.t3b"
    write_tensor(path, np.array([[[7.5]]]))
    # magic 4 + dims 12 + one float64 = 24 bytes
    assert os.path.getsize(path) == 24
    assert read_tensor(path)[0, 0, 0] == 7.5


def test_t3b_layout(tmp_path):
    # index i runs fastest in the payload, then j, then kappa
    t = np.arange(12, dtype=float).reshape((2, 3, 2), order="F")
    path = tmp_path / "layout.t3b"
    write_tensor(path, t)
    raw = path.read_bytes()
    values = struct.unpack("<12d", raw[16:])
    assert values == tuple(range(12))


def test_t3b_bad_magic(tmp_path):
    path = tmp_path / "bad.t3b"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(BadMagic):
        read_tensor(path)


def test_t3b_truncated(tmp_path):
    t = np.random.default_rng(1).standard_normal((3, 3, 2))
    path = tmp_path / "trunc.t3b"
    write_tensor(path, t)
    data = path.read_bytes()
    path.write_bytes(data[:-9])
    with pytest.raises(TruncatedFile):
        read_tensor(path)
    short = tmp_path / "short.t3b"
    short.write_bytes(b"T3B1\x01\x00")
    with pytest.raises(TruncatedFile):
        read_tensor(short)


def test_t3b_size_checked_before_reading(tmp_path):
    # a 16-byte file whose header claims 2**32 values fails on its size,
    # without asking for a 32 GiB read
    path = tmp_path / "claims.t3b"
    path.write_bytes(b"T3B1" + struct.pack("<3I", 2**16, 2**16, 1))
    with pytest.raises(TruncatedFile):
        read_tensor(path)
    longer = tmp_path / "longer.t3b"
    write_tensor(longer, np.ones((2, 2, 2)))
    longer.write_bytes(longer.read_bytes() + b"\x00" * 8)
    with pytest.raises(TruncatedFile):
        read_tensor(longer)


def test_t3b_dim_overflow(tmp_path):
    path = tmp_path / "huge.t3b"
    path.write_bytes(b"T3B1" + struct.pack("<3I", 2**20, 2**20, 2**10))
    with pytest.raises(DimOverflow):
        read_tensor(path)
    zero = tmp_path / "zero.t3b"
    zero.write_bytes(b"T3B1" + struct.pack("<3I", 0, 2, 2))
    with pytest.raises(DimOverflow):
        read_tensor(zero)


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(rates=[0.0])
    with pytest.raises(ValueError):
        ExperimentSpec(repetitions=0)
    with pytest.raises(ValueError):
        ExperimentSpec(algorithms=("bogus",))


def tiny_spec(out_dir, **kwargs):
    defaults = dict(
        m=10,
        n=10,
        k=2,
        rank=1,
        rates=[0.8],
        algorithms=("altmin-simple",),
        iterations=6,
        seed=0,
        repetitions=1,
        out_dir=str(out_dir),
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_recovery_sweep_outputs(tmp_path):
    spec = tiny_spec(tmp_path, rates=[1.0, 0.8], repetitions=2)
    rows, means = run_recovery_sweep(spec)
    table = read_csv(tmp_path / "sweep.csv")
    assert table[0] == CSV_HEADER
    assert len(table) == 1 + 2 * 2  # two rates x two reps, one algorithm
    # full observation of an exact low-rank instance completes exactly
    assert means[("altmin-simple", 1.0)] <= 1e-6
    summary = read_csv(tmp_path / "sweep_summary.csv")
    assert summary[0] == ["algorithm", "rate", "mean_rse"]
    assert len(summary) == 1 + 2


def drop_seconds(rows):
    # everything except the wall-clock column must be reproducible
    return [r.as_list()[:5] for r in rows]


def test_recovery_sweep_deterministic(tmp_path):
    spec1 = tiny_spec(tmp_path / "a")
    spec2 = tiny_spec(tmp_path / "b")
    rows1, means1 = run_recovery_sweep(spec1)
    rows2, means2 = run_recovery_sweep(spec2)
    assert drop_seconds(rows1) == drop_seconds(rows2)
    assert means1 == means2
    assert (
        (tmp_path / "a" / "sweep_summary.csv").read_bytes()
        == (tmp_path / "b" / "sweep_summary.csv").read_bytes()
    )


def test_recovery_sweep_iter_counts_whole_admm_path(tmp_path, monkeypatch):
    reports = []

    def recorded(*args, **kwargs):
        reports.append(tnn_admm.admm_complete(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(harness, "admm_complete", recorded)
    spec = tiny_spec(tmp_path, rates=[0.9, 0.7], algorithms=("tnn-admm",))
    rows, _ = run_recovery_sweep(spec)
    assert len(rows) == 2 and len(reports) == 10
    for row, path in zip(rows, (reports[:5], reports[5:])):
        assert row.iter == sum(len(r.rse) for r in path)
        assert row.iter > max(len(r.rse) for r in path)
    table = read_csv(tmp_path / "sweep.csv")
    assert [int(line[3]) for line in table[1:]] == [row.iter for row in rows]


def test_convergence_outputs(tmp_path):
    spec = tiny_spec(tmp_path, iterations=5)
    rows, slopes = run_convergence(spec)
    table = read_csv(tmp_path / "converge.csv")
    assert table[0] == CSV_HEADER
    iters = [row for row in rows if row.algorithm == "altmin-simple"]
    assert len(iters) == len(set(r.iter for r in iters))
    secs = [r.seconds for r in iters]
    assert all(b >= a for a, b in zip(secs, secs[1:]))
    slope_table = read_csv(tmp_path / "converge_slopes.csv")
    assert slope_table[0] == ["algorithm", "slope", "intercept"]


def test_runtime_scaling_outputs(tmp_path):
    spec = tiny_spec(
        tmp_path,
        rates=[0.9],
        sizes=[8, 12],
        threshold=1e-4,
        iterations=10,
    )
    results = run_runtime_scaling(spec)
    assert len(results) == 2
    for algo, size, secs, reached in results:
        assert secs > 0
        assert reached  # tiny exact instances hit the threshold
    table = read_csv(tmp_path / "scale.csv")
    assert table[0] == ["algorithm", "size", "seconds", "reached"]


def test_trace_row_formatting():
    row = TraceRow("altmin-simple", 0.5, 0, 3, 1.25e-7, 0.125)
    rendered = row.as_list()
    assert rendered[1] == "0.5"
    assert rendered[4] == "1.25e-07"


def test_complete_file_round_trip(tmp_path):
    from tubalkit.sampling import synth_low_tubal_rank

    t, _ = synth_low_tubal_rank(10, 10, 2, 1, RngSeed(4, "cf"))
    src = tmp_path / "in.t3b"
    dst = tmp_path / "out.t3b"
    write_tensor(src, t)
    spec = tiny_spec(tmp_path, iterations=12)
    summary = harness.complete_file(
        str(src), None, 0.9, "altmin-simple", spec, str(dst)
    )
    est = read_tensor(dst)
    assert est.shape == t.shape
    assert summary["observed_relative_residual"] <= 1e-5
    with open(str(dst) + ".report.json") as fh:
        assert json.load(fh) == summary


def test_complete_file_counts_whole_admm_path(tmp_path, monkeypatch):
    from tubalkit.sampling import synth_low_tubal_rank

    reports = []

    def recorded(*args, **kwargs):
        reports.append(tnn_admm.admm_complete(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(harness, "admm_complete", recorded)
    t, _ = synth_low_tubal_rank(10, 10, 3, 1, RngSeed(6, "cfa"))
    src = tmp_path / "in.t3b"
    dst = tmp_path / "out.t3b"
    write_tensor(src, t)
    spec = tiny_spec(tmp_path, algorithms=("tnn-admm",))
    harness.complete_file(str(src), None, 0.7, "tnn-admm", spec, str(dst))
    with open(str(dst) + ".report.json") as fh:
        summary = json.load(fh)
    assert len(reports) == 5
    assert summary["iterations"] == sum(len(r.rse) for r in reports)
    assert summary["iterations"] > max(len(r.rse) for r in reports)


def test_complete_file_with_mask(tmp_path):
    from tubalkit.sampling import synth_low_tubal_rank

    t, _ = synth_low_tubal_rank(8, 8, 2, 1, RngSeed(5, "cfm"))
    src = tmp_path / "in.t3b"
    dst = tmp_path / "out.t3b"
    mask_path = tmp_path / "omega.txt"
    write_tensor(src, t)
    omega = sample_bernoulli(8, 8, 2, 0.9, RngSeed(5, "cfm-mask"))
    write_sample_set(mask_path, omega)
    spec = tiny_spec(tmp_path)
    summary = harness.complete_file(
        str(src), str(mask_path), 0.5, "altmin-simple", spec, str(dst)
    )
    assert summary["observed_entries"] == omega.size


def test_cli_gen_and_complete(tmp_path):
    gen_path = tmp_path / "gen.t3b"
    code = cli.main(
        [
            "gen",
            "--size",
            "8,8,2",
            "--rank",
            "1",
            "--seed",
            "3",
            "--file",
            str(gen_path),
        ]
    )
    assert code == 0
    t = read_tensor(gen_path)
    assert t.shape == (8, 8, 2)
    out_path = tmp_path / "done.t3b"
    code = cli.main(
        [
            "complete",
            "--input",
            str(gen_path),
            "--output",
            str(out_path),
            "--rates",
            "0.9",
            "--rank",
            "1",
            "--size",
            "8,8,2",
            "--iters",
            "8",
        ]
    )
    assert code == 0
    assert out_path.exists()


def test_cli_sweep(tmp_path):
    code = cli.main(
        [
            "sweep",
            "--size",
            "8,8,2",
            "--rank",
            "1",
            "--rates",
            "1.0",
            "--iters",
            "5",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "sweep.csv").exists()


def test_cli_exit_codes(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--size", "oops"])
    assert exc.value.code == 2
    missing = cli.main(
        [
            "complete",
            "--input",
            str(tmp_path / "nope.t3b"),
            "--output",
            str(tmp_path / "o.t3b"),
        ]
    )
    assert missing == 3
    # bad argument values exit 2, like the ones argparse rejects
    small = ["--size", "6,6,2", "--rank", "1", "--out", str(tmp_path)]
    for bad in (["--rates", "1.5"], ["--reps", "0"], ["--iters", "0"]):
        assert cli.main(["sweep", *small, *bad]) == 2
    bad_alpha = ["--algo", "tnn-admm", "--alpha", "-1"]
    assert cli.main(["converge", *small, *bad_alpha]) == 2
    tensor_path = tmp_path / "t.t3b"
    write_tensor(tensor_path, np.zeros((2, 2, 2)))
    # non-integer field, out of range, dims other than the tensor's
    for text in ("2 2 2\n1 1 x\n", "2 2 2\n1 1 9\n", "3 3 2\n1 1 1\n"):
        mask_path = tmp_path / "bad_mask.txt"
        mask_path.write_text(text)
        malformed = cli.main(
            [
                "complete",
                "--input",
                str(tensor_path),
                "--mask",
                str(mask_path),
                "--output",
                str(tmp_path / "o.t3b"),
                "--size",
                "2,2,2",
                "--rank",
                "1",
            ]
        )
        assert malformed == 3


@pytest.mark.parametrize(
    "argv, named",
    [
        (["gen", "--size", "0,5,5"], "size m,n,k"),
        (["gen", "--rank", "0"], "rank"),
        (["sweep", "--size", "8,8,2", "--rank", "9"], "rank"),
        (["sweep", "--size", "5,5,0"], "size m,n,k"),
        (["scale", "--size", "8,8,2", "--rank", "3", "--sizes", "2,8"], "sizes"),
    ],
    ids=["gen-size", "gen-rank", "sweep-rank", "sweep-empty-tube", "scale-sizes"],
)
def test_cli_bad_size_or_rank_exits_2(tmp_path, capsys, argv, named):
    # rejected when the spec is built, before any tensor is drawn or written
    extra = ["--file", str(tmp_path / "x.t3b")] if argv[0] == "gen" else []
    assert cli.main([*argv, *extra, "--out", str(tmp_path)]) == 2
    assert f"bad argument: {named}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_admm_path_seconds_include_earlier_runs(tmp_path, monkeypatch):
    durations = []
    reports = []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        reports.append(tnn_admm.admm_complete(*args, **kwargs))
        durations.append(time.perf_counter() - start)
        return reports[-1]

    monkeypatch.setattr(harness, "admm_complete", timed)
    spec = tiny_spec(tmp_path, algorithms=("tnn-admm",))
    truth, observed, omega, base = harness._instance(spec, 0.8, 0)
    kept = harness.run_algorithm(spec, "tnn-admm", observed, omega, truth, base)
    index = next(i for i, r in enumerate(reports) if r is kept)
    assert len(reports) == 5 and index > 0
    assert kept.seconds[0] >= sum(durations[:index])
    assert kept.seconds == sorted(kept.seconds)


def test_admm_path_keeps_last_run_without_reading_truth(tmp_path, monkeypatch):
    reports = []

    def recorded(*args, **kwargs):
        reports.append(tnn_admm.admm_complete(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(harness, "admm_complete", recorded)
    spec = tiny_spec(tmp_path, algorithms=("tnn-admm",))
    truth, observed, omega, base = harness._instance(spec, 0.8, 0)
    kept = []
    # against -truth the top lambda's zero estimate has the lowest RSE, so
    # a pick that read the ground truth would keep the first run
    for known in (truth, -truth, None):
        reports.clear()
        kept.append(harness.run_algorithm(spec, "tnn-admm", observed, omega, known, base))
        assert len(reports) == 5 and kept[-1] is reports[-1]
    assert kept[-1].rse_is_training and not kept[0].rse_is_training
    for other in kept[:2]:
        assert np.array_equal(other.estimate, kept[-1].estimate)
        assert other.path_iterations == kept[-1].path_iterations


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lapack_failure_is_solver_breakdown(tmp_path, monkeypatch):
    def broken_svt(t, eps):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(tnn_admm, "svt", broken_svt)
    spec = tiny_spec(tmp_path, algorithms=("altmin-simple", "tnn-admm"))
    truth, observed, omega, base = harness._instance(spec, 0.8, 0)
    with pytest.raises(SolverBreakdown) as exc:
        harness.run_algorithm(spec, "tnn-admm", observed, omega, truth, base)
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)
    rows, _ = run_recovery_sweep(spec)
    by_algo = {row.algorithm: row for row in rows}
    assert np.isnan(by_algo["tnn-admm"].rse) and by_algo["tnn-admm"].iter == 0
    assert np.isfinite(by_algo["altmin-simple"].rse)
    table = read_csv(tmp_path / "sweep.csv")
    assert ["tnn-admm", "nan"] == [table[2][0], table[2][4]]
    args = ["--size", "10,10,2", "--rank", "1", "--algo", "tnn-admm", "--out", str(tmp_path)]
    # a sweep records the failure in its row; a trace has no row to put it in
    assert cli.main(["sweep", *args]) == 0
    assert cli.main(["converge", *args]) == 4


def test_tnn_admm_lambda_path_without_observations_is_a_solver_failure(tmp_path):
    # an empty Omega (4 entries at p = 0.05, seed 0) or all-zero observations
    # would put every grid lambda at 0: InsufficientSamples, not a bad argument
    args = ["--size", "2,2,1", "--rank", "1", "--rates", "0.05", "--algo", "tnn-admm"]
    args += ["--seed", "0", "--out", str(tmp_path)]
    assert cli.main(["sweep", *args]) == 0
    table = read_csv(tmp_path / "sweep.csv")
    assert len(table) == 2 and ["tnn-admm", "nan"] == [table[1][0], table[1][4]]
    assert cli.main(["converge", *args]) == 4
    tensor_path = tmp_path / "zeros.t3b"
    write_tensor(tensor_path, np.zeros((4, 4, 2)))
    io = ["--input", str(tensor_path), "--output", str(tmp_path / "o.t3b")]
    spec = ["--size", "4,4,2", "--rank", "1", "--algo", "tnn-admm"]
    assert cli.main(["complete", *io, *spec]) == 4

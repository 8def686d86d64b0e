import csv
import dataclasses
import json
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from tubalkit import cli, harness, tnn_admm
from tubalkit.altmin import SolverConfig, rse, trace_error, tubal_alt_min
from tubalkit.errors import (
    BadMagic,
    DimensionMismatch,
    DimOverflow,
    InsufficientSamples,
    InvalidEntries,
    SolverBreakdown,
    TruncatedFile,
)
from tubalkit.harness import (
    CSV_HEADER,
    ExperimentSpec,
    TraceRow,
    read_tensor,
    run_convergence,
    run_recovery_sweep,
    run_runtime_scaling,
    write_csv,
    write_tensor,
)
from tubalkit.sampling import RngSeed, SampleSet, sample_bernoulli
from tubalkit.tnn_admm import admm_complete

from oracles import write_sample_set


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


@pytest.mark.parametrize(
    "shape, error",
    [
        ((0, 5, 5), DimOverflow),
        ((5, 5, 0), DimOverflow),
        ((3, 4), DimensionMismatch),
        ((2, 2, 2, 2), DimensionMismatch),
    ],
)
def test_t3b_writer_refuses_what_the_reader_refuses(tmp_path, shape, error):
    path = tmp_path / "bad.t3b"
    with pytest.raises(error):
        write_tensor(path, np.zeros(shape))
    assert not path.exists()


def test_t3b_writer_refuses_a_complex_tensor(tmp_path):
    # a float conversion would write the real part alone
    path = tmp_path / "complex.t3b"
    with pytest.raises(InvalidEntries):
        write_tensor(path, np.ones((2, 2, 2)) * (1 + 2j))
    assert not path.exists()


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(rates=[0.0])
    with pytest.raises(ValueError):
        ExperimentSpec(repetitions=0)
    with pytest.raises(ValueError):
        ExperimentSpec(algorithms=("bogus",))


@pytest.mark.parametrize("value", [3.0, 2.5, True])
@pytest.mark.parametrize(
    "make, name",
    [(SolverConfig, name) for name in ("target_rank", "iterations", "stall_window")]
    + [(ExperimentSpec, name) for name in ("m", "n", "k", "rank", "iterations", "repetitions")],
)
def test_counts_that_are_not_integers_are_refused(tmp_path, make, name, value):
    # numpy refuses them later, with a TypeError from inside a solve or sweep
    kwargs = {"target_rank": 1} if make is SolverConfig else {"out_dir": str(tmp_path)}
    with pytest.raises(ValueError, match=f"^{name} {value!r} must be an integer"):
        make(**{**kwargs, name: value})
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize(
    "make, name",
    [(SolverConfig, name) for name in ("target_rank", "iterations", "stall_window")]
    + [(ExperimentSpec, name) for name in ("m", "n", "k", "rank", "iterations", "repetitions")],
)
def test_counts_below_one_are_refused(tmp_path, make, name, value):
    # check_counts is the one rule: no field keeps a `< 1` check of its own
    kwargs = {"target_rank": 1} if make is SolverConfig else {"out_dir": str(tmp_path)}
    with pytest.raises(ValueError, match=f"^{name} {value} must be >= 1$"):
        make(**{**kwargs, name: value})
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("seed", [2.5, "3", None, np.float64(4.0), True])
def test_seeds_that_are_not_integers_are_refused(tmp_path, seed):
    # numpy refuses the first four only at a sweep's first draw, with a
    # TypeError, and True would run as seed 1
    message = "^" + re.escape(f"seed {seed!r} must be an integer")
    with pytest.raises(ValueError, match=message):
        RngSeed(seed, "label")
    with pytest.raises(ValueError, match=message):
        ExperimentSpec(seed=seed, out_dir=str(tmp_path))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("seed", [np.int64(7), 0, -3], ids=["int64", "zero", "negative"])
def test_integer_seeds_are_accepted(seed):
    assert ExperimentSpec(seed=seed).seed == seed
    assert RngSeed(seed, "a").rng().random() == RngSeed(int(seed), "a").rng().random()


@pytest.mark.parametrize("name", ["rates", "algorithms", "sizes"])
def test_empty_list_fields_are_refused(tmp_path, name):
    # the drivers read the first rate and algorithm, and a CSV of no sizes
    # or algorithms holds only its header
    with pytest.raises(ValueError, match=f"{name} must not be empty"):
        ExperimentSpec(**{name: []})
    src, dst = tmp_path / "t.t3b", tmp_path / "o.t3b"
    write_tensor(src, np.ones((4, 4, 2)))
    with pytest.raises(ValueError, match=f"{name} must not be empty"):
        harness.complete_file(str(src), str(dst), rank=1, **{name: []})
    assert not dst.exists()


@pytest.mark.parametrize(
    "name, values, argv",
    [
        ("rates", [0.7, 0.7], ["sweep", "--rates", "0.7,0.7"]),
        ("algorithms", ("tnn-admm",) * 2, ["sweep", "--algo", "tnn-admm", "--algo", "tnn-admm"]),
        ("sizes", (8, 12, 8), ["scale", "--tube", "2", "--sizes", "8,12,8"]),
    ],
)
def test_repeated_list_values_are_refused(tmp_path, capsys, name, values, argv):
    # a sweep would run the same solve once per copy and average the copies
    with pytest.raises(ValueError, match=f"{name} must not repeat"):
        ExperimentSpec(**{name: values})
    assert cli.main([*argv, "--rank", "1", "--out", str(tmp_path)]) == 2
    assert f"bad argument: {name} must not repeat" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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
    return [r[:5] for r in rows]


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


def test_recovery_sweep_iter_counts_admm_iterations(tmp_path, monkeypatch):
    reports = []

    def recorded(*args, **kwargs):
        reports.append(tnn_admm.admm_complete(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(harness, "admm_complete", recorded)
    spec = tiny_spec(tmp_path, rates=[0.9, 0.7], algorithms=("tnn-admm",))
    rows, _ = run_recovery_sweep(spec)
    assert len(rows) == 2 and len(reports) == 2
    for row, report in zip(rows, reports):
        assert row.iter == len(report.rse) > 1
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


def test_trace_row_formatting(tmp_path):
    # rows are written as they are: csv writes a float as its repr
    row = TraceRow("altmin-simple", 0.5, 0, 3, 1.25e-7, 0.125)
    write_csv(str(tmp_path / "new"), "trace.csv", CSV_HEADER, [row])
    assert (tmp_path / "new" / "trace.csv").read_bytes() == (
        b"algorithm,rate,rep,iter,rse,seconds\r\n"
        b"altmin-simple,0.5,0,3,1.25e-07,0.125\r\n"
    )


def test_unfitted_slope_reads_none(tmp_path):
    # one iteration gives a one-point trace, which has no fitted line
    _, slopes = run_convergence(tiny_spec(tmp_path, iterations=1))
    assert slopes == {"altmin-simple": (None, None)}
    table = read_csv(tmp_path / "converge_slopes.csv")
    assert table[1] == ["altmin-simple", "None", "None"]


def test_runtime_scaling_records_failed_runs(tmp_path, monkeypatch):
    def broken_svt(t, eps, basis=None):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(tnn_admm, "svt", broken_svt)
    spec = tiny_spec(
        tmp_path,
        algorithms=("tnn-admm", "altmin-simple"),
        rates=[0.9],
        sizes=[8, 12],
        threshold=1e-4,
        iterations=10,
    )
    results = run_runtime_scaling(spec)
    assert [(algo, size) for algo, size, _, _ in results] == [
        ("tnn-admm", 8), ("altmin-simple", 8), ("tnn-admm", 12), ("altmin-simple", 12)
    ]
    for algo, size, secs, reached in results:
        if algo == "tnn-admm":
            assert np.isnan(secs) and reached == 0
        else:
            assert secs > 0 and reached == 1
    table = read_csv(tmp_path / "scale.csv")
    assert [line[2:] for line in table[1::2]] == [["nan", "0"], ["nan", "0"]]


def test_each_instance_is_built_once_for_all_algorithms(tmp_path, monkeypatch):
    built = []
    instance = harness._instance

    def counted(*args):
        built.append(args[1:])
        return instance(*args)

    monkeypatch.setattr(harness, "_instance", counted)
    algorithms = ("altmin-simple", "altmin-full")
    sweep = tiny_spec(tmp_path, rates=[1.0, 0.8], repetitions=2, algorithms=algorithms)
    rows, _ = run_recovery_sweep(sweep)
    assert len(rows) == 8
    assert built == [(1.0, 0), (1.0, 1), (0.8, 0), (0.8, 1)]
    built.clear()
    scale = tiny_spec(tmp_path, rates=[0.9], sizes=[8, 12], algorithms=algorithms)
    assert len(run_runtime_scaling(scale)) == 4
    assert built == [(0.9, 0), (0.9, 0)]


def test_runtime_scaling_checks_every_size_before_solving(tmp_path, monkeypatch):
    def never(*args):
        raise AssertionError("an instance was built")

    monkeypatch.setattr(harness, "_instance", never)
    with pytest.raises(ValueError, match="rank 3 outside"):
        run_runtime_scaling(tiny_spec(tmp_path / "out", rank=3, sizes=[8, 2]))
    assert not list(tmp_path.iterdir())


def test_cli_scale_rank_is_bounded_by_sizes_only(tmp_path):
    # m and n are each of --sizes; no other m, n can refuse the rank
    args = ["--iters", "1", "--out", str(tmp_path)]
    assert cli.main(["scale", "--tube", "3", "--rank", "3", "--sizes", "10,14", *args]) == 0
    sizes = [line[1] for line in read_csv(tmp_path / "scale.csv")[1:]]
    assert sizes == ["10", "14"]
    assert cli.main(["scale", "--tube", "2", "--rank", "60", "--sizes", "64,80", *args]) == 0
    sizes = [line[1] for line in read_csv(tmp_path / "scale.csv")[1:]]
    assert sizes == ["64", "80"]


def test_complete_file_round_trip(tmp_path):
    from tubalkit.sampling import synth_low_tubal_rank

    t, _ = synth_low_tubal_rank(10, 10, 2, 1, RngSeed(4, "cf"))
    src = tmp_path / "in.t3b"
    dst = tmp_path / "out.t3b"
    write_tensor(src, t)
    summary = harness.complete_file(
        str(src), str(dst), rank=1, rates=[0.9], iterations=12
    )
    est = read_tensor(dst)
    assert est.shape == t.shape
    assert summary["observed_relative_residual"] <= 1e-5
    with open(str(dst) + ".report.json") as fh:
        assert json.load(fh) == summary


def test_complete_file_counts_admm_iterations(tmp_path, monkeypatch):
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
    harness.complete_file(
        str(src), str(dst), rank=1, rates=[0.7], algorithms=("tnn-admm",)
    )
    with open(str(dst) + ".report.json") as fh:
        summary = json.load(fh)
    assert len(reports) == 1
    assert summary["iterations"] == len(reports[0].rse) > 1


def test_complete_file_with_mask(tmp_path):
    from tubalkit.sampling import synth_low_tubal_rank

    t, _ = synth_low_tubal_rank(8, 8, 2, 1, RngSeed(5, "cfm"))
    src = tmp_path / "in.t3b"
    dst = tmp_path / "out.t3b"
    mask_path = tmp_path / "omega.txt"
    write_tensor(src, t)
    omega = sample_bernoulli(8, 8, 2, 0.9, RngSeed(5, "cfm-mask"))
    write_sample_set(mask_path, omega)
    summary = harness.complete_file(
        str(src), str(dst), str(mask_path), rank=1, iterations=6
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
    # non-finite thresholds are bad arguments too
    scale = ["scale", "--tube", "2", "--rank", "1", "--sizes", "6", "--out", str(tmp_path)]
    for value in ("nan", "inf", "0", "-1"):
        assert cli.main([*scale, f"--threshold={value}"]) == 2, value
    tensor_path = tmp_path / "t.t3b"
    write_tensor(tensor_path, np.zeros((2, 2, 2)))
    # non-integer field, out of range, dims other than the tensor's, and
    # dims too large to allocate (refused before any allocation)
    texts = ("2 2 2\n1 1 x\n", "2 2 2\n1 1 9\n", "3 3 2\n1 1 1\n")
    for text in (*texts, "100000 100000 100000\n1 1 1\n"):
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
                "--rank",
                "1",
            ]
        )
        assert malformed == 3


@pytest.mark.parametrize(
    "argv, named",
    [
        (["gen", "--size", "0,5,5"], "m 0 must be >= 1"),
        (["gen", "--rank", "0"], "rank"),
        (["sweep", "--size", "8,8,2", "--rank", "9"], "rank"),
        (["sweep", "--size", "5,5,0"], "k 0 must be >= 1"),
        (["scale", "--tube", "2", "--rank", "11", "--sizes", "10,14"], "rank"),
    ],
    ids=["gen-size", "gen-rank", "sweep-rank", "sweep-empty-tube", "scale-sizes"],
)
def test_cli_bad_size_or_rank_exits_2(tmp_path, capsys, argv, named):
    # rejected when the spec is built, before any tensor is drawn or written
    gen = argv[0] == "gen"
    extra = ["--file", str(tmp_path / "x.t3b")] if gen else ["--out", str(tmp_path)]
    assert cli.main([*argv, *extra]) == 2
    assert f"bad argument: {named}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_parser_dests_are_spec_fields_without_defaults():
    # a flag that is not given must fall back to ExperimentSpec's default
    allowed = {f.name for f in dataclasses.fields(ExperimentSpec)}
    allowed |= {"command", "file", "input", "output", "mask"}
    parser = cli.build_parser()
    (subs,) = [a for a in parser._actions if a.dest == "command"]
    for name, sub in subs.choices.items():
        for action in sub._actions:
            if action.dest == "help":
                continue
            assert action.dest in allowed, (name, action.option_strings)
            assert action.default is None, (name, action.option_strings)


def test_readme_flag_table_lists_each_subcommands_flags():
    # README's "| `sweep`, `converge` | `--size --rank ...` |" rows
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| (`\w+`(?:, `\w+`)*) \| (`--.*`) \|$", text, re.MULTILINE)
    listed = {}
    for commands, flags in rows:
        for command in re.findall(r"`(\w+)`", commands):
            assert command not in listed, command
            listed[command] = re.findall(r"--(\w+)", flags)
    assert listed == {name: flags.split() for name, (_, flags) in cli.COMMANDS.items()}


def test_cli_rejects_flags_a_subcommand_does_not_read(tmp_path):
    tensor_path = tmp_path / "t.t3b"
    write_tensor(tensor_path, np.ones((4, 4, 2)))
    io = ["--input", str(tensor_path), "--output", str(tmp_path / "o.t3b")]
    gen = ["gen", "--file", str(tmp_path / "g.t3b")]
    run = ["--size", "6,6,2", "--rank", "1", "--out", str(tmp_path)]
    scale = ["scale", "--tube", "2", "--rank", "1", "--out", str(tmp_path)]
    for argv in (
        [*gen, "--iters", "3"],
        [*scale, "--reps", "3"],
        [*scale, "--size", "6,6,2"],
        ["complete", *io, "--size", "4,4,2"],
        ["sweep", *run, "--eps", "0.1"],
        ["complete", *io, "--mu0", "5"],
        ["sweep", *run, "--algo", "tnn-admm", "--lambda", "0.1"],
        ["complete", *io, "--algo", "tnn-admm", "--alpha", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    # one value is read; a second one is refused, not ignored
    for argv in (
        ["converge", *run, "--rates", "0.3,0.5"],
        [*scale, "--rates", "0.3,0.5", "--sizes", "6"],
        ["complete", *io, "--rates", "0.3,0.5"],
        ["complete", *io, "--algo", "altmin-simple", "--algo", "tnn-admm"],
    ):
        assert cli.main(argv) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.t3b"]


def test_cli_rank_is_checked_against_the_tensor_it_reads(tmp_path):
    # the sizes a scale run would use do not bound gen's or sweep's rank
    path = tmp_path / "big.t3b"
    assert cli.main(["gen", "--size", "40,40,2", "--rank", "30", "--file", str(path)]) == 0
    write_tensor(path, np.ones((60, 60, 2)))
    io = ["--input", str(path), "--output", str(tmp_path / "o.t3b")]
    assert cli.main(["complete", *io, "--rank", "55", "--iters", "1"]) == 0
    assert cli.main(["complete", *io, "--rank", "61", "--iters", "1"]) == 2


def test_admm_estimate_does_not_read_truth(tmp_path):
    spec = tiny_spec(tmp_path, algorithms=("tnn-admm",))
    truth, observed, omega, base = harness._instance(spec, 0.8, 0)
    runs = [harness.run_algorithm(spec, "tnn-admm", observed, omega, known, base)
            for known in (truth, -truth, None)]
    # without truth the trace is the training residual, with it the RSE
    assert runs[-1].rse[-1] == trace_error(runs[-1].estimate, observed, omega)
    assert runs[0].rse[-1] == rse(runs[0].estimate, truth)
    for other in runs[:2]:
        assert np.array_equal(other.estimate, runs[-1].estimate)
        assert len(other.rse) == len(runs[-1].rse)


def test_admm_path_reads_observed_only_on_omega(tmp_path):
    # the penalty scale and the x-step read P_Omega Y: NaN off omega must not
    # raise SolverBreakdown, and the full truth must not move the estimate
    spec = tiny_spec(tmp_path, m=12, n=12, k=3, rank=2, algorithms=("tnn-admm",))
    truth, observed, omega, base = harness._instance(spec, 0.6, 0)
    reference = harness.run_algorithm(spec, "tnn-admm", observed, omega, truth, base)
    for unprojected in (np.where(omega.mask, truth, np.nan), truth):
        report = harness.run_algorithm(spec, "tnn-admm", unprojected, omega, truth, base)
        assert np.array_equal(report.estimate, reference.estimate)
        assert len(report.rse) == len(reference.rse)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lapack_failure_is_solver_breakdown(tmp_path, monkeypatch):
    def broken_svt(t, eps, basis=None):
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


def test_tnn_admm_without_observations_is_a_solver_failure(tmp_path):
    # an empty Omega (4 entries at p = 0.05, seed 0) or all-zero observations
    # leave the first penalty undefined: InsufficientSamples, not a bad argument
    args = ["--size", "2,2,1", "--rank", "1", "--rates", "0.05", "--algo", "tnn-admm"]
    args += ["--seed", "0", "--out", str(tmp_path)]
    assert cli.main(["sweep", *args]) == 0
    table = read_csv(tmp_path / "sweep.csv")
    assert len(table) == 2 and ["tnn-admm", "nan"] == [table[1][0], table[1][4]]
    assert cli.main(["converge", *args]) == 4
    tensor_path = tmp_path / "zeros.t3b"
    write_tensor(tensor_path, np.zeros((4, 4, 2)))
    io = ["--input", str(tensor_path), "--output", str(tmp_path / "o.t3b")]
    assert cli.main(["complete", *io, "--rank", "1", "--algo", "tnn-admm"]) == 4


@pytest.mark.parametrize("algo", harness.ALGORITHMS)
def test_empty_sample_set_is_insufficient_samples_for_every_solver(tmp_path, algo):
    # simplified AltMin once ran 4 iterations to a training residual of 0
    t = np.ones((4, 4, 2))
    omega = SampleSet(np.zeros(t.shape, dtype=bool))
    solvers = {
        "altmin-full": lambda: tubal_alt_min(t, omega, SolverConfig(1, variant="full")),
        "altmin-simple": lambda: tubal_alt_min(t, omega, SolverConfig(1)),
        "tnn-admm": lambda: admm_complete(t, omega),
    }
    with pytest.raises(InsufficientSamples):
        solvers[algo]()
    tensor_path, mask_path = tmp_path / "t.t3b", tmp_path / "empty.txt"
    write_tensor(tensor_path, t)
    mask_path.write_text("4 4 2\n")
    io = ["--input", str(tensor_path), "--output", str(tmp_path / "o.t3b")]
    argv = ["complete", *io, "--mask", str(mask_path), "--rank", "1", "--algo", algo]
    assert cli.main(argv) == 4
    assert not (tmp_path / "o.t3b").exists()


@pytest.mark.parametrize(
    "algos, bad",
    [
        (("tnn-admm", "altmin-simple"), ["--iters", "0"]),
        (("tnn-admm", "altmin-simple"), ["--rank", "0"]),
    ],
    ids=["iters-0", "rank-0"],
)
def test_bad_solver_settings_exit_2_before_any_solve(tmp_path, monkeypatch, algos, bad):
    # an algorithm that does not read the bad value once solved first
    calls = []
    run_algorithm = harness.run_algorithm

    def counted(*args, **kwargs):
        calls.append(args[1])
        return run_algorithm(*args, **kwargs)

    monkeypatch.setattr(harness, "run_algorithm", counted)
    argv = ["sweep", "--size", "12,12,3", "--rank", "2", "--out", str(tmp_path), *bad]
    for algo in algos:
        argv += ["--algo", algo]
    assert cli.main(argv) == 2
    assert calls == []

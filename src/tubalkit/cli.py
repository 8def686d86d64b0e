"""Command-line entry point for the benchmark harness.

Each flag's dest is the `harness.ExperimentSpec` field it sets, and no flag
states a default: a flag that is not given takes the dataclass default.
Each subcommand registers only the flags it reads.

Exit codes: 0 success, 2 bad arguments, 3 I/O failure, 4 solver failure.
"""

import argparse
import sys

from . import harness
from .errors import FileFormatError, TubalError
from .sampling import RngSeed, synth_low_tubal_rank


def _csv(cast):
    def parse(text):
        return [cast(p) for p in text.split(",")]

    parse.__name__ = f"comma-separated {cast.__name__}"  # named in argparse errors
    return parse


class _Size(argparse.Action):
    """Store `--size m,n,k` in the spec fields m, n and k."""

    def __call__(self, parser, namespace, values, option_string=None):
        if len(values) != 3:
            raise argparse.ArgumentError(self, "size must be m,n,k")
        namespace.m, namespace.n, namespace.k = values


# flag name -> add_argument keywords; a dest is the ExperimentSpec field set
OPTIONS = {
    "size": dict(dest="m", metavar="M,N,K", type=_csv(int), action=_Size),
    "tube": dict(dest="k", type=int, help="tube length k; m = n = each of --sizes"),
    "rank": dict(type=int),
    "rates": dict(type=_csv(float), help="csv list in (0,1]"),
    "algo": dict(dest="algorithms", action="append", choices=harness.ALGORITHMS),
    "iters": dict(dest="iterations", type=int),
    "seed": dict(type=int),
    "reps": dict(dest="repetitions", type=int),
    "out": dict(dest="out_dir", help="output directory"),
    "threshold": dict(type=float),
    "sizes": dict(type=_csv(int), help="csv list of square sizes"),
    "file": dict(required=True, help="output T3B path"),
    "input": dict(required=True),
    "output": dict(required=True),
    "mask": dict(help="sample-set text file"),
}
PATHS = ("file", "input", "output", "mask")  # the dests that are not spec fields
SOLVE = "rank rates algo iters seed"
COMMANDS = {
    "gen": ("synthesize a low-tubal-rank instance", "size rank seed file"),
    "sweep": ("final RSE vs sampling rate", f"size {SOLVE} reps out"),
    "converge": ("per-iteration RSE trace", f"size {SOLVE} reps out"),
    "scale": ("time-to-threshold vs tensor size", f"tube {SOLVE} out threshold sizes"),
    "complete": ("complete a T3B tensor file", f"input output mask {SOLVE}"),
}
# list fields of which a subcommand reads only the first value
SINGLE = {"converge": ["rates"], "scale": ["rates"], "complete": ["rates", "algorithms"]}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tubalkit", description="Flags not given take ExperimentSpec's defaults."
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (summary, flags) in COMMANDS.items():
        # no prefixes: scale's --sizes must not take a --size meant for gen
        sub = subs.add_parser(command, help=summary, allow_abbrev=False)
        for flag in flags.split():
            sub.add_argument(f"--{flag}", **OPTIONS[flag])
    return parser


def main(argv=None):
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    paths = {name: args.pop(name) for name in PATHS if name in args}
    fields = {name: value for name, value in args.items() if value is not None}
    try:
        for name in SINGLE.get(command, ()):
            if len(fields.get(name, ())) > 1:
                raise ValueError(f"{command} reads one value of {name}: {fields[name]}")
        if command == "complete":
            harness.complete_file(
                paths["input"], paths["output"], paths["mask"], **fields
            )
            return 0
        if command == "scale":  # only --sizes bounds the rank
            sizes = fields.get("sizes", harness.ExperimentSpec.sizes)
            fields["m"] = fields["n"] = min(sizes)
        spec = harness.ExperimentSpec(**fields)
        if command == "gen":
            tensor, _ = synth_low_tubal_rank(
                spec.m, spec.n, spec.k, spec.rank, RngSeed(spec.seed, "gen")
            )
            harness.write_tensor(paths["file"], tensor)
        elif command == "sweep":
            harness.run_recovery_sweep(spec)
        elif command == "converge":
            harness.run_convergence(spec)
        else:
            harness.run_runtime_scaling(spec)
    except (FileFormatError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except TubalError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"bad argument: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

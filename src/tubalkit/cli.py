"""Command-line entry point for the benchmark harness.

Exit codes: 0 success, 2 bad arguments, 3 I/O failure, 4 solver failure.
"""

import argparse
import sys

from . import harness
from .errors import FileFormatError, TubalError
from .sampling import RngSeed, synth_low_tubal_rank


def _size(text):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("size must be m,n,k")
    return tuple(int(p) for p in parts)


def _rates(text):
    return [float(p) for p in text.split(",")]


def _add_common(sub):
    sub.add_argument("--size", type=_size, default=(50, 50, 10), help="m,n,k")
    sub.add_argument("--rank", type=int, default=3)
    sub.add_argument("--rates", type=_rates, default=[0.5], help="csv list in (0,1]")
    sub.add_argument(
        "--algo",
        action="append",
        choices=harness.ALGORITHMS,
        help="repeatable; default altmin-simple",
    )
    sub.add_argument("--iters", type=int, default=15)
    sub.add_argument("--mu0", type=float, default=1e6)
    sub.add_argument("--eps", type=float, default=0.01)
    sub.add_argument("--lambda", dest="lam", type=float, default=None)
    sub.add_argument("--alpha", type=float, help="ADMM penalty; default |Omega|/(mnk)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--reps", type=int, default=1)
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--threshold", type=float, default=1e-5)


def _spec(args):
    m, n, k = args.size
    return harness.ExperimentSpec(
        m=m,
        n=n,
        k=k,
        rank=args.rank,
        rates=args.rates,
        algorithms=tuple(args.algo or ["altmin-simple"]),
        iterations=args.iters,
        epsilon=args.eps,
        mu0=args.mu0,
        lam=args.lam,
        alpha=args.alpha,
        seed=args.seed,
        repetitions=args.reps,
        out_dir=args.out,
        threshold=args.threshold,
        sizes=getattr(args, "sizes", []),
    )


def build_parser():
    parser = argparse.ArgumentParser(prog="tubalkit")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="synthesize a low-tubal-rank instance")
    _add_common(gen)
    gen.add_argument("--file", required=True, help="output T3B path")

    sweep = subs.add_parser("sweep", help="final RSE vs sampling rate")
    _add_common(sweep)

    converge = subs.add_parser("converge", help="per-iteration RSE trace")
    _add_common(converge)

    scale = subs.add_parser("scale", help="time-to-threshold vs tensor size")
    _add_common(scale)
    scale.add_argument(
        "--sizes",
        type=lambda s: [int(v) for v in s.split(",")],
        default=[25, 50, 75, 100],
        help="csv list of square sizes, default 25,50,75,100",
    )

    complete = subs.add_parser("complete", help="complete a T3B tensor file")
    _add_common(complete)
    complete.add_argument("--input", required=True)
    complete.add_argument("--output", required=True)
    complete.add_argument("--mask", default=None, help="sample-set text file")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            spec = _spec(args)
            tensor, _ = synth_low_tubal_rank(
                spec.m, spec.n, spec.k, spec.rank, RngSeed(args.seed, "gen")
            )
            harness.write_tensor(args.file, tensor)
        elif args.command == "sweep":
            harness.run_recovery_sweep(_spec(args))
        elif args.command == "converge":
            harness.run_convergence(_spec(args))
        elif args.command == "scale":
            harness.run_runtime_scaling(_spec(args))
        elif args.command == "complete":
            spec = _spec(args)
            algo = (args.algo or ["altmin-simple"])[0]
            harness.complete_file(
                args.input, args.mask, args.rates[0], algo, spec, args.output
            )
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

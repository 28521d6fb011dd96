"""The ``sst`` command line.

Subcommands: ``run`` (one Monte Carlo experiment), ``sweep`` (the reference
benchmark grid), ``oracle`` (exact small-space statistics and strategy
validation), ``transform`` / ``invert`` (shape or unshape one sequence file).

Exit codes: 0 success, 2 invalid input, 3 not in image, 4 round-trip failure,
5 out of memory, 130 interrupted (Ctrl-C).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .harness import (
    RoundTripError,
    export,
    format_table1_comparison,
    run_experiment,
    summary_to_dict,
    sweep_table1,
)
from .oracle import oracle_report, validate_strategy
from .seqio import read_sequence, write_sequence
from .shaping import (
    ADAPTIVE_RANK,
    DEFAULT_MAX_SPACE,
    NotInImageError,
    ShaperConfig,
    SpaceTooLargeError,
    STRATEGIES,
    inverse_transform,
    transform,
)
from .sources import SourceSpec

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NOT_IN_IMAGE = 3
EXIT_ROUNDTRIP_FAILURE = 4
EXIT_OUT_OF_MEMORY = 5
EXIT_INTERRUPTED = 130


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sst",
        description="Bijective length-increasing sequence shaping: run experiments, "
        "inspect exact small-space statistics, and shape or unshape sequence files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the options every experiment shares, declared once for ``run`` and ``sweep``
    experiment = argparse.ArgumentParser(add_help=False)
    experiment.add_argument("--trials", type=int, default=1000)
    experiment.add_argument("--seed", type=int, default=0, help="master seed (64-bit unsigned)")
    experiment.add_argument("--strategy", choices=STRATEGIES, default=ADAPTIVE_RANK)
    experiment.add_argument("--k", type=int, default=1, help="shaping order (length increase)")
    experiment.add_argument("--workers", type=int, default=1)
    experiment.add_argument("--out", default=None, help="write results to this path")
    experiment.add_argument("--format", choices=("csv", "json"), default="json")
    experiment.add_argument("--max-space", type=int, default=DEFAULT_MAX_SPACE,
                            help="largest exact-sorted space (sequences) to tabulate")

    run = sub.add_parser("run", parents=[experiment], help="run one seeded shaping experiment")
    run.add_argument("--ns", type=int, required=True, help="alphabet size")
    run.add_argument("--len", type=int, required=True, dest="n", help="sequence length")
    run.add_argument("--pmax", type=float, required=True, help="probability of the favored symbol")

    sweep = sub.add_parser("sweep", parents=[experiment], help="run the reference benchmark grid")
    sweep.add_argument("--table1", action="store_true", required=True,
                       help="the ns in {30,40,50,60}, len 400, pmax 0.5 grid")

    oracle = sub.add_parser("oracle", help="exact optimal-shaping statistics from type classes")
    oracle.add_argument("--ns", type=int, required=True)
    oracle.add_argument("--len", type=int, required=True, dest="n")
    oracle.add_argument("--k", type=int, default=1)
    oracle.add_argument("--validate", choices=STRATEGIES, default=None,
                        help="also drive this strategy over the whole space")
    oracle.add_argument("--max-space", type=int, default=DEFAULT_MAX_SPACE)

    for name, help_text in (
        ("transform", "shape one sequence file"),
        ("invert", "unshape one sequence file"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--in", dest="infile", required=True, help="input sequence file")
        cmd.add_argument("--out", dest="outfile", default=None,
                         help="output sequence file (stdout when omitted)")
        cmd.add_argument("--k", type=int, default=1)
        cmd.add_argument("--strategy", choices=STRATEGIES, default=ADAPTIVE_RANK)
        cmd.add_argument("--max-space", type=int, default=DEFAULT_MAX_SPACE)

    return parser


def _cmd_run(args) -> int:
    spec = SourceSpec(ns=args.ns, n=args.n, pmax=args.pmax)
    cfg = ShaperConfig(ns=args.ns, strategy=args.strategy, k=args.k, max_space=args.max_space)
    summary, records = run_experiment(spec, cfg, args.trials, args.seed, workers=args.workers)
    print(f"mean input info  (n*H0(s))       : {summary.medinfc:.6f} bits")
    print(f"mean shaped info ((n+k)*H0(f(s))): {summary.medtinfc:.6f} bits")
    print(f"mean gain                        : {summary.mdife:.6f} bits")
    print(f"successes (shaped < input)       : {summary.cs2} of {summary.trials}")
    print(f"success percentage               : {summary.pcs:.2f}%")
    if args.out:
        export([summary], records, args.out, args.format)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = ShaperConfig(ns=2, strategy=args.strategy, k=args.k, max_space=args.max_space)
    summaries = sweep_table1(cfg, trials=args.trials, seed=args.seed, workers=args.workers)
    print(format_table1_comparison(summaries))
    if args.out:
        export(summaries, None, args.out, args.format)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    report = oracle_report(args.ns, args.n, args.k, max_space=args.max_space)
    payload = dataclasses.asdict(report)
    exit_code = EXIT_OK
    if args.validate is not None:
        cfg = ShaperConfig(ns=args.ns, strategy=args.validate, k=args.k, max_space=args.max_space)
        validation = validate_strategy(cfg, args.ns, args.n, max_space=args.max_space)
        payload["validation"] = dataclasses.asdict(validation)
        payload["validation"]["ok"] = validation.ok
        if not validation.ok:
            exit_code = EXIT_ROUNDTRIP_FAILURE
    print(json.dumps(payload, indent=2))
    return exit_code


def _cmd_transform(args, invert: bool) -> int:
    seq = read_sequence(args.infile)
    cfg = ShaperConfig(ns=seq.ns, strategy=args.strategy, k=args.k, max_space=args.max_space)
    result = inverse_transform(seq, cfg) if invert else transform(seq, cfg)
    if args.outfile:
        write_sequence(result, args.outfile)
    else:
        write_sequence(result, sys.stdout)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "transform":
            return _cmd_transform(args, invert=False)
        if args.command == "invert":
            return _cmd_transform(args, invert=True)
        raise AssertionError(f"unhandled command {args.command}")
    except NotInImageError:
        print("not in image", file=sys.stderr)
        return EXIT_NOT_IN_IMAGE
    except RoundTripError as exc:
        print(f"round-trip failure: {exc}", file=sys.stderr)
        return EXIT_ROUNDTRIP_FAILURE
    except (SpaceTooLargeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_OUT_OF_MEMORY
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())

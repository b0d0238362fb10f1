"""Command-line front end.

Subcommands: recognize, bounds, bandwidth, gen, bench. Exit codes: 0 for
success (recognize: verdict true), 1 only for a false recognition verdict,
2 for any failure, an internal one included, with one ``error:`` line on
stderr. gen and bench take their seed from --seed, which defaults to 0.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from .baselines import exact_bandwidth_bruteforce
from .bench import ALGORITHMS, BenchConfig, run_bench, summarize, write_records_csv
from .bounds import bandwidth_bounds
from .generate import GENERATORS, GenParams, random_banded_matrix
from .graph import layout_bandwidth
from .io import parse_graph_file, write_graph_file
from .recognition import recognize

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_ERROR = 2


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandrec",
        description="Bandwidth recognition for large targets, plus bounds, generators, and benchmarking.",
    )
    # argparse's usage error names dest when no subcommand is given.
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", help="decide whether a graph has bandwidth <= k")
    p.set_defaults(run=_cmd_recognize)
    p.add_argument("graph", help="edge-list graph file")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("bounds", help="print the lower bounds alpha and gamma")
    p.set_defaults(run=_cmd_bounds)
    p.add_argument("graph")

    p = sub.add_parser("bandwidth", help="exact bandwidth by brute force (n <= 9)")
    p.set_defaults(run=_cmd_bandwidth)
    p.add_argument("graph")

    p = sub.add_parser("gen", help="generate an instance and write it as a graph file")
    p.set_defaults(run=_cmd_gen)
    p.add_argument("--kind", choices=["banded", *GENERATORS], default="banded")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, help="target bandwidth (affirmative/negative kinds)")
    p.add_argument("--psi", type=int, help="band half-width (banded kind)")
    p.add_argument("--p", type=float, help="edge probability (banded kind)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="destination graph file")

    # The bench defaults are BenchConfig's own, so they are stated once.
    stock = BenchConfig()
    p = sub.add_parser("bench", help="run the benchmark harness")
    p.set_defaults(run=_cmd_bench)
    p.add_argument("--sizes", type=_int_list, default=stock.sizes, help="comma-separated n values")
    p.add_argument("--k-offsets-affirmative", type=_int_list, default=stock.affirmative_offsets, metavar="OFFSETS")
    p.add_argument("--k-offsets-negative", type=_int_list, default=stock.negative_offsets, metavar="OFFSETS")
    p.add_argument("--cases", type=int, default=stock.cases_per_pair, help="instances per (n, k, kind) cell")
    p.add_argument(
        "--timeout", type=float, default=stock.timeout_s, help="per-run budget in seconds, covering every repetition"
    )
    p.add_argument(
        "--reps", type=int, default=stock.repetitions, help="timing repetitions per solved run (min is kept)"
    )
    p.add_argument(
        "--algorithms", default=",".join(stock.algorithms), help=f"comma-separated subset of {sorted(ALGORITHMS)}"
    )
    p.add_argument("--seed", type=int, default=stock.seed)
    p.add_argument("--output", required=True, help="CSV destination; stdout gets the summary table")
    p.add_argument("--quiet", action="store_true", help="suppress per-run progress lines")
    return parser


def _cmd_recognize(args) -> int:
    g = parse_graph_file(args.graph)
    result = recognize(g, args.k)
    if result.verdict:
        print("verdict=true")
        print(f"certificate_bandwidth={layout_bandwidth(g, result.certificate)}")
        for pos, node in enumerate(result.certificate.inverse):
            print(f"{pos}:{node}")
        return EXIT_TRUE
    print(f"verdict=false reason={result.negative_reason}")
    return EXIT_FALSE


def _cmd_bounds(args) -> int:
    b = bandwidth_bounds(parse_graph_file(args.graph))
    print(f"alpha={b.alpha}")
    print(f"gamma={b.gamma}")
    print(f"combined={b.combined}")
    return EXIT_TRUE


def _cmd_bandwidth(args) -> int:
    print(f"bandwidth={exact_bandwidth_bruteforce(parse_graph_file(args.graph))}")
    return EXIT_TRUE


def _cmd_gen(args) -> int:
    # An option the kind does not read is refused, not silently dropped.
    unread = ("--k",) if args.kind == "banded" else ("--psi", "--p")
    unused = [option for option in unread if getattr(args, option[2:]) is not None]
    if unused:
        raise ValueError(f"{args.kind} generation does not read {', '.join(unused)}")
    if args.kind == "banded":
        if args.psi is None or args.p is None:
            raise ValueError("banded generation needs --psi and --p")
        g = random_banded_matrix(GenParams(args.n, args.psi, args.p, args.seed))
    else:
        if args.k is None:
            raise ValueError(f"{args.kind} generation needs --k")
        g, _meta = GENERATORS[args.kind](args.n, args.k, args.seed)
    write_graph_file(g, args.output)
    print(f"wrote {args.output} (n={g.n}, m={g.m})")
    return EXIT_TRUE


def _cmd_bench(args) -> int:
    config = BenchConfig(
        sizes=args.sizes,
        affirmative_offsets=args.k_offsets_affirmative,
        negative_offsets=args.k_offsets_negative,
        cases_per_pair=args.cases,
        timeout_s=args.timeout,
        repetitions=args.reps,
        algorithms=tuple(tok for tok in args.algorithms.split(",") if tok),
        seed=args.seed,
    )
    progress = None if args.quiet else lambda msg: print(msg, file=sys.stderr)
    # The CSV goes to a file next to --output, created up front so a bad path
    # fails before hours of benchmarking, and replaces --output only once the
    # run has finished: a failed run leaves an existing file as it was.
    if os.path.isdir(args.output):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.output)
    partial = f"{args.output}.{os.getpid()}.tmp"
    fh = open(partial, "x", encoding="ascii", newline="")
    try:
        with fh:
            records = run_bench(config, progress=progress)
            write_records_csv(records, fh)
        os.replace(partial, args.output)
    except BaseException:
        os.unlink(partial)
        raise
    print(summarize(records))
    return EXIT_TRUE


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Any failure exits 2, so exit 1 only ever means a false verdict.
    try:
        return args.run(args)
    except Exception as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())

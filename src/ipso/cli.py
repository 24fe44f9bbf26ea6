"""Command-line interface.

Subcommands: enumerate, grid, hasse, compare, topics, sweep, coverage.
Each handler returns its result object and `_emit` prints it in the
chosen `--format`: CSV (the default) through the result's `write_csv`,
JSON through its `to_dict`, and, for compare only, an aligned text report
through `to_text`.  Metric labels go to the library as typed, where a
bare family (`AP`) takes `--k` and a full label (`AP@10`) keeps its
depth; `metrics.read_depth` sets how deep the runs are parsed.  Exit
codes: 0 success, 1 input parse failure, 2 invalid arguments.

compare, topics, sweep and coverage deal their run and qrels files
round-robin to min(files, usable CPUs) processes: this one and children
made by os.fork, on Linux only and while no other thread is alive.  The
output, error and exit code are a serial parse's; library calls never fork.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import islice
from pathlib import Path

from .enumeration import build_grid, enumerate_pairs, hasse_cover, sample_pairs
from .experiment import (
    DEFAULT_ALPHA, METRIC_TESTS, compare_systems, sweep_all_pairs, topic_table)
from .metrics import parse_metric, read_depth
# build_serps is not called here; bench/tracer.py hooks it in this module
from .trecio import (
    DEFAULT_TRUNCATION,
    TrecParseError,
    build_serps,  # noqa: F401
    judgment_coverage,
    parse_qrels,
    parse_run,
)


def _tokens(text: str) -> list:
    """An option's non-empty comma-separated fields, stripped."""
    return [token.strip() for token in text.split(",") if token.strip()]


def _run_paths(directory: str) -> list:
    paths = sorted(
        p for p in Path(directory).iterdir()
        if p.is_file() and not p.name.startswith(".")
    )
    if not paths:
        raise ValueError(f"no run files found in {directory}")
    return paths


def _share(calls: list, start: int, step: int) -> list:
    """(index, outcome) of calls[start::step], up to and including the first exception raised."""
    outcomes = []
    for index in range(start, len(calls), step):
        try:
            outcomes.append((index, calls[index]()))
        except Exception as exc:
            return outcomes + [(index, exc)]
    return outcomes


def _parse_inputs(run_paths: list, qrels, truncate: int) -> tuple:
    """(runs, qrels), parsed in up to one process per usable CPU (see the module docstring)."""
    import os
    import pickle
    import signal
    import threading

    calls = [functools.partial(parse_run, path, truncate=truncate) for path in run_paths]
    calls.append(functools.partial(parse_qrels, qrels))
    cpus = len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1
    n = min(len(calls), cpus) if threading.active_count() == 1 else 1
    outcomes, children, finished = [], [], False
    try:
        for share in range(1, n):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # this process parses the shares left
                os.close(read)
                os.close(write)
                break
            if pid == 0:
                try:
                    os.close(read)
                    data = pickle.dumps(_share(calls, share, n), protocol=5)
                    with open(write, "wb") as pipe:
                        pipe.write(data)
                finally:
                    os._exit(0)  # never flushing stdio or running atexit handlers
            children.append((share, pid, open(read, "rb")))
            os.close(write)
        for share in (0, *range(len(children) + 1, n)):
            outcomes += _share(calls, share, n)
        for share, _, pipe in children:  # a child that sent nothing has its share parsed here
            outcomes += pickle.loads(data) if (data := pipe.read()) else _share(calls, share, n)
        finished = True
    finally:  # a child blocked on a full pipe sees it closed, or is killed
        for _, pid, pipe in children:
            pipe.close()
            if not finished:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    # each share stops at its first exception, so the first in argument order is the serial one
    outcomes = [outcome for _, outcome in sorted(outcomes, key=lambda pair: pair[0])]
    if failed := next((o for o in outcomes if isinstance(o, Exception)), None):
        raise failed
    return outcomes[:-1], outcomes[-1]


#: Encoder chunks joined into one stdout write: json.dump writes each
#: token alone, a system call apiece when stdout is unbuffered.
_JSON_BLOCK = 1 << 14


def _emit_json(payload) -> None:
    """Write json.dumps(payload, indent=2) and a newline, without building the whole text."""
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    while block := "".join(islice(chunks, _JSON_BLOCK)):
        sys.stdout.write(block)
    sys.stdout.write("\n")


def _emit(args, result) -> None:
    """Print a handler's result in --format: the one place the CLI writes a result."""
    if args.format == "json":
        _emit_json(result.to_dict())
    elif args.format == "text":
        print(result.to_text(ascii_symbols=args.ascii))
    else:
        result.write_csv(sys.stdout)


def _cmd_enumerate(args):
    if args.samples is not None:
        return sample_pairs(args.k, args.samples, seed=args.seed, workers=args.workers)
    return enumerate_pairs(args.k)


def _cmd_grid(args):
    return build_grid(args.k, parse_metric(args.rows), parse_metric(args.cols))


def _cmd_hasse(args):
    return hasse_cover(args.k)


def _pair_inputs(args, metrics) -> tuple:
    """run_a, run_b and the qrels, the runs parsed only to the job's read_depth.  Every row
    tied at that cut is kept until the doc-id sort, so the runs rank as a full parse does."""
    runs, qrels = _parse_inputs([args.run_a, args.run_b], args.qrels,
                                read_depth([args.k], metrics))
    return (*runs, qrels)


def _cmd_compare(args):
    return compare_systems(*_pair_inputs(args, [args.metric]), args.k, metric=args.metric,
                           alpha=args.alpha, test=args.test)


def _cmd_topics(args):
    metrics = _tokens(args.metrics)
    return topic_table(*_pair_inputs(args, metrics), args.k, metrics=metrics)


def _cmd_sweep(args):
    k_values = [int(token) for token in _tokens(args.k)]
    metrics = _tokens(args.metrics)
    depth = read_depth(k_values, metrics)
    runs, qrels = _parse_inputs(_run_paths(args.runs), args.qrels, depth)
    return sweep_all_pairs(runs, qrels, k_values, metrics, _tokens(args.tests), alpha=args.alpha)


def _cmd_coverage(args):
    return judgment_coverage(*_parse_inputs(_run_paths(args.runs), args.qrels, DEFAULT_TRUNCATION))


def _add_format(parser, extra=()) -> None:
    parser.add_argument("--format", choices=("csv", "json") + tuple(extra),
                        default="csv", help="output format (default csv)")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="ipso",
        description="Innate pairwise SERP ordering: enumeration, ingestion, "
                    "and corroborated system comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="count pair relationships at depth k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, default=None,
                   help="estimate from this many random pairs instead of counting "
                        "exactly (exact counts work at any k)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="threads for --samples, at most one per CPU and per 65,536-pair chunk")
    _add_format(p)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("grid", help="relationship grid under two metric orderings")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rows", required=True, help="metric ordering the rows, e.g. RBP0.5@6")
    p.add_argument("--cols", required=True, help="metric ordering the columns")
    _add_format(p)
    p.set_defaults(handler=_cmd_grid)

    p = sub.add_parser("hasse", help="covering relations of the dominance order")
    p.add_argument("--k", type=int, required=True)
    _add_format(p)
    p.set_defaults(handler=_cmd_hasse)

    p = sub.add_parser("compare", help="two-system comparison with corroboration")
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--metric", default="P", help="metric label, e.g. P@10 (default P@k)")
    p.add_argument("--test", choices=tuple(METRIC_TESTS), default="t")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--ascii", action="store_true",
                   help="render significance marks as + / ++ in text output")
    _add_format(p, extra=("text",))
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("topics", help="per-topic table for two systems")
    p.add_argument("--run-a", required=True)
    p.add_argument("--run-b", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--metrics", default="P",
                   help="comma-separated metric labels (default P@k)")
    _add_format(p)
    p.set_defaults(handler=_cmd_topics)

    p = sub.add_parser("sweep", help="all-pairs agreement categories")
    p.add_argument("--runs", required=True, help="directory of run files")
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", required=True, help="comma-separated depths")
    p.add_argument("--metrics", default="P")
    p.add_argument("--tests", default="t")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    _add_format(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("coverage", help="judgment coverage of run rankings")
    p.add_argument("--runs", required=True, help="directory of run files")
    p.add_argument("--qrels", required=True)
    _add_format(p)
    p.set_defaults(handler=_cmd_coverage)

    return parser


@functools.cache
def _fix_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at 32 and 64 MiB, where its dynamic rule ends.

    Left to that rule, they rise part-way through a process, and the peak RSS of repeated
    commands over the same files moved by up to 15 MB with the names of their directories.
    """
    import ctypes

    libc = ctypes.CDLL(None) if sys.platform == "linux" else None
    if hasattr(libc, "gnu_get_libc_version"):  # M_MMAP_THRESHOLD is -3, M_TRIM_THRESHOLD -1
        libc.mallopt(-3, 32 << 20)
        libc.mallopt(-1, 64 << 20)


def main(argv=None) -> int:
    _fix_malloc_thresholds()
    args = _parser().parse_args(argv)
    try:
        _emit(args, args.handler(args))
    except TrecParseError as exc:
        print(f"ipso: parse error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"ipso: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

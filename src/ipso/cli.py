"""Command-line interface.

Subcommands: enumerate, grid, hasse, compare, topics, sweep, coverage.
Results go to stdout as CSV (default) or JSON; compare also offers an
aligned text report.  Exit codes: 0 success, 1 input parse failure,
2 invalid arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .enumeration import (
    build_grid,
    enumerate_pairs,
    hasse_cover,
    sample_pairs,
    write_counts_csv,
)
from .experiment import (
    ComparisonReport,
    compare_systems,
    sweep_all_pairs,
    topic_table,
    write_topic_csv,
)
from .metrics import parse_metric
from .trecio import (
    CoverageReport,
    TrecParseError,
    build_serps,
    distinct_runs,
    judgment_coverage,
    parse_qrels,
    parse_run,
)

import csv as _csv


def _metric_arg(text: str, k: int) -> str:
    """Allow a bare family name by attaching the evaluation depth."""
    return text if "@" in text else f"{text}@{k}"


def _load_runs_dir(directory: str) -> list:
    paths = sorted(
        p for p in Path(directory).iterdir()
        if p.is_file() and not p.name.startswith(".")
    )
    if not paths:
        raise ValueError(f"no run files found in {directory}")
    return [parse_run(p) for p in paths]


def _emit_json(payload) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_enumerate(args) -> int:
    if args.samples is not None:
        counts = sample_pairs(args.k, args.samples, seed=args.seed, workers=args.workers)
    else:
        counts = enumerate_pairs(args.k)
    if args.format == "json":
        _emit_json(counts.to_dict())
    else:
        write_counts_csv([counts], sys.stdout)
    return 0


def _cmd_grid(args) -> int:
    grid = build_grid(args.k, parse_metric(args.rows), parse_metric(args.cols))
    if args.format == "json":
        _emit_json(grid.to_dict())
    else:
        grid.write_csv(sys.stdout)
    return 0


def _cmd_hasse(args) -> int:
    edges = hasse_cover(args.k)
    if args.format == "json":
        _emit_json(edges.to_dict())
    else:
        edges.write_csv(sys.stdout)
    return 0


def _cmd_compare(args) -> int:
    report = compare_systems(
        parse_run(args.run_a),
        parse_run(args.run_b),
        parse_qrels(args.qrels),
        args.k,
        metric=_metric_arg(args.metric, args.k),
        alpha=args.alpha,
        test=args.test,
    )
    if args.format == "json":
        _emit_json(report.to_dict())
    elif args.format == "text":
        print(report.to_text(ascii_symbols=args.ascii))
    else:
        writer = _csv.writer(sys.stdout)
        writer.writerow(ComparisonReport.CSV_HEADER)
        writer.writerow(report.csv_row())
    return 0


def _cmd_topics(args) -> int:
    metrics = [
        _metric_arg(token.strip(), args.k)
        for token in args.metrics.split(",") if token.strip()
    ]
    rows = topic_table(
        parse_run(args.run_a),
        parse_run(args.run_b),
        parse_qrels(args.qrels),
        args.k,
        metrics=metrics,
    )
    if args.format == "json":
        _emit_json([
            {
                "topic": row.topic_id,
                "group": row.group.label,
                "serp_a": row.serp_a,
                "serp_b": row.serp_b,
                "trajectory": list(row.trajectory.codes()),
                "score_diffs": row.score_diffs,
            }
            for row in rows
        ])
    else:
        write_topic_csv(rows, sys.stdout)
    return 0


def _cmd_sweep(args) -> int:
    runs = _load_runs_dir(args.runs)
    qrels = parse_qrels(args.qrels)
    k_values = [int(token) for token in args.k.split(",") if token.strip()]
    # bare family names are handed through so each sweep depth scores at
    # its own k; explicit labels like P@5 stay fixed
    metrics = [token.strip() for token in args.metrics.split(",") if token.strip()]
    tests = [token.strip() for token in args.tests.split(",") if token.strip()]
    result = sweep_all_pairs(runs, qrels, k_values, metrics, tests, alpha=args.alpha)
    if args.format == "json":
        _emit_json(result.to_dict())
    else:
        result.write_csv(sys.stdout)
    return 0


def _cmd_coverage(args) -> int:
    runs = distinct_runs(_load_runs_dir(args.runs))
    qrels = parse_qrels(args.qrels)
    reports = [judgment_coverage(build_serps(run, qrels, 1)) for run in runs]
    merged = CoverageReport.merged(reports)
    if args.format == "json":
        _emit_json(merged.to_dict())
    else:
        merged.write_csv(sys.stdout)
    return 0


def _add_format(parser, extra=()) -> None:
    parser.add_argument("--format", choices=("csv", "json") + tuple(extra),
                        default="csv", help="output format (default csv)")


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--workers", type=int, default=1)
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
    p.add_argument("--test", choices=("t", "wilcoxon", "sign"), default="t")
    p.add_argument("--alpha", type=float, default=0.05)
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
    p.add_argument("--alpha", type=float, default=0.05)
    _add_format(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("coverage", help="judgment coverage of run rankings")
    p.add_argument("--runs", required=True, help="directory of run files")
    p.add_argument("--qrels", required=True)
    _add_format(p)
    p.set_defaults(handler=_cmd_coverage)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except TrecParseError as exc:
        print(f"ipso: parse error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"ipso: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Runs one workload in a fresh interpreter and writes what it measured.

Usage: python3 bench/worker.py WORKLOAD SEED SECONDS TRACE CHECK INPUT_DIR RESULT_JSON [TRACE_JSON]

run.py starts it with ipso's src/ on PYTHONPATH, so its peak RSS is the
workload's alone.  The workload's operations run back to back in
iterations for about SECONDS (at least one iteration).  Each operation
is timed on its own, so hashing and bookkeeping between operations are
not counted, and a calibration loop runs between operations
(calibration.py); every time is scaled by the process's calibration
median.  With CHECK set, the first output of each operation is checked
(workloads.check), outside the timed region.  With TRACE set, after one
warm-up, each operation runs traced and untraced back to back, which
gives both the per-layer figures and the tracer's own overhead; traced
and untraced outputs must be byte-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibration
import tracer
import workloads

MIN_TRACE_ITERATIONS = 2  # rounds, after one warm-up


def _run(op, trace=None) -> tuple:
    """(op name, seconds, output or None, error or None, op span id)."""
    span = trace.operation(op.name) if trace else contextlib.nullcontext()
    with span as opened:
        start = perf_counter()
        try:
            text, error = op.run(), None
        except Exception as exc:  # an operation that raises counts as failed
            text, error = None, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    return op.name, seconds, text, error, opened.id if trace else None


def _iteration(ops, calibrator) -> list:
    """Every operation once, with a calibration loop before each and after the last."""
    results = []
    calibrator.measure()
    for op in ops:
        results.append(_run(op))
        calibrator.measure()
    return results


def _wall(iteration) -> float:
    return sum(seconds for _, seconds, *_ in iteration)


def _traced_run(ops, seconds: float, calibrator, trace: tracer.Tracer) -> tuple:
    """(untraced, traced) rounds after a warm-up.

    In a round every operation runs twice back to back, once traced and
    once not, in an order that alternates, so the host's drift cancels out
    of the overhead figure.
    """
    _iteration(ops, calibrator)
    untraced, traced = [], []
    start = perf_counter()
    while len(traced) < MIN_TRACE_ITERATIONS or perf_counter() - start < seconds:
        plain, timed = [], []
        for index, op in enumerate(ops):
            traced_first = (len(traced) + index) % 2 == 1
            for traced_turn in (traced_first, not traced_first):
                if not traced_turn:
                    plain.append(_run(op))
                    continue
                trace.install()
                try:
                    timed.append(_run(op, trace))
                finally:
                    trace.uninstall()
            calibrator.measure()
        untraced.append(plain)
        traced.append(timed)
    return untraced, traced


def _layer_figures(trace: tracer.Tracer, traced: list, untraced: list, ops,
                   manifest: dict) -> dict:
    per_iteration = []
    for iteration in traced:
        figures = trace.layer_metrics({span_id for *_, span_id in iteration}, manifest["lines"])
        figures["report.bytes"] = sum(
            len(text.encode()) for (_, _, text, _, _), op in zip(iteration, ops)
            if op.cli and text is not None)
        per_iteration.append(figures)
    figures = tracer.median_metrics(per_iteration)
    figures["trace.overhead_frac"] = statistics.median(
        _wall(timed) / _wall(plain) for timed, plain in zip(traced, untraced)) - 1
    return figures


def _write_spans(path: Path, trace: tracer.Tracer) -> None:
    path.write_text(json.dumps({
        "hooks": [[h.module, h.path, h.layer, h.aggregate] for h in tracer.HOOKS],
        "span_fields": list(tracer.Span._fields),
        "spans": [[*span[:7], None if span.info is None else repr(span.info), span.error]
                  for span in trace.spans],
        "aggregate_fields": ["op", "parent", "name", "layer", "count", "total"],
        "aggregates": [[op, parent, name, layer, count, total]
                       for (op, parent, name), (layer, count, total)
                       in trace.aggregates.items()],
    }))


def main(argv) -> int:
    workload, seed, seconds, trace_on, check_on, input_dir, result_path = argv[:7]
    seed, seconds = int(seed), float(seconds)
    trace_on, check_on = trace_on == "1", check_on == "1"
    manifest_path = Path(input_dir) / "manifest.json"
    manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else {"lines": {}}
    ops = workloads.operations(workload, manifest, seed)

    result: dict = {}
    with calibration.Calibrator() as calibrator:
        if trace_on:
            trace = tracer.Tracer()
            untraced, traced = _traced_run(ops, seconds, calibrator, trace)
            iterations = untraced + traced
        else:
            # stop where the next iteration would end more than half of one
            # past the budget, so the run lasts about SECONDS on average
            iterations = []
            start = perf_counter()
            elapsed = 0.0
            while not iterations or elapsed + elapsed / len(iterations) / 2 < seconds:
                iterations.append(_iteration(ops, calibrator))
                elapsed = perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scale = calibration.scale(calibrator.samples)
    if trace_on:
        result["per_layer"] = _layer_figures(trace, traced, untraced, ops, manifest)
        result["untraced_wall_s"] = statistics.median(map(_wall, untraced)) * scale
        if len(argv) > 7:
            _write_spans(Path(argv[7]), trace)

    # everything below is outside the timed region
    first, digests, errors = {}, {}, {}
    for iteration in iterations:
        for name, _, text, error, _ in iteration:
            if error is not None:
                errors.setdefault(name, error)
                continue
            first.setdefault(name, text)
            digests.setdefault(name, set()).add(hashlib.sha256(text.encode()).hexdigest())
    mix: dict = {}
    if check_on:
        try:
            problems = workloads.check(workload, manifest, seed, first, mix)
        except Exception as exc:  # output too malformed to check: nothing counts as correct
            problems = {name: [f"check raised {type(exc).__name__}: {exc}"] for name in first}
    else:
        problems = {name: [] for name in first}
    for name, seen in digests.items():
        if len(seen) > 1:
            problems[name].append(f"{len(seen)} different outputs over the iterations")
    for name, error in errors.items():
        problems.setdefault(name, []).append(error)

    result.update({
        "iterations": [[[name, seconds, seconds * scale] for name, seconds, *_ in iteration]
                       for iteration in iterations],
        "calibration_s": calibrator.samples,
        "digests": {name: sorted(seen) for name, seen in digests.items()},
        "problems": {name: found for name, found in problems.items() if found},
        "mix": mix,
    })
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

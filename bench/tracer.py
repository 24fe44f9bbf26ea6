"""Outside-in tracer: wraps ipso's public functions at layer boundaries.

The program is not touched.  `HOOKS` is the one table that maps each
layer to the functions that enter it; `Tracer.install` replaces each
listed name with a timing wrapper and `uninstall` puts the originals
back.  A name is wrapped in the module that *calls* it, because cli and
experiment import names directly (`from .trecio import parse_run`), so
wrapping only the defining module would miss those calls.  Calls made
inside one module (serp's trajectory called by serp's classify_group)
are not layer boundaries and are not wrapped.

Every wrapped call becomes a span: id, operation id, parent span,
layer, name, start, end, an optional work figure and the exception it
raised, if any.  Spans stay in memory until the run ends.  Hooks marked
`aggregate` are the per-(pair, topic) calls that reach a million hits
on the paper-sized sweep; they keep one count and one total per parent
span instead of a span each.  A span's self time is its duration minus
the part of it that child spans cover; children that ran in the
sampler's worker threads may overlap, so their intervals are merged
first.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import statistics
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, NamedTuple


class Hook(NamedTuple):
    module: str  # ipso submodule that calls the function
    path: str  # attribute path in that module; a dict item is "DICT.key"
    layer: str
    key: Callable | None = None  # (args, kwargs) -> identity of the work asked for
    info: Callable | None = None  # (args, kwargs, result) -> work figure
    aggregate: bool = False


def _serp_pair_key(args, kwargs):
    return (id(args[0]), id(args[1]), *args[2:])


def _evaluate_key(args, kwargs):
    return (args[0], id(args[1]))


def _score_all_key(args, kwargs):
    return (*args, *sorted(kwargs.items()))


def _source(args, kwargs, result):
    return args[0]


def _n_serps(args, kwargs, result):
    return len(result.serps)


def _sampler_info(args, kwargs, result):
    return (args[1], kwargs.get("workers", 1))


#: Layer -> entry points.  The sole place that knows what is wrapped.
HOOKS = (
    Hook("cli", "parse_run", "ingest", info=_source),
    Hook("cli", "parse_qrels", "ingest", info=_source),
    Hook("trecio", "parse_run", "ingest", info=_source),
    Hook("trecio", "parse_qrels", "ingest", info=_source),
    Hook("cli", "build_serps", "assemble", info=_n_serps),
    Hook("cli", "judgment_coverage", "assemble"),
    Hook("experiment", "build_serps", "assemble", info=_n_serps),
    Hook("trecio", "Qrels.topics", "assemble"),
    Hook("trecio", "Qrels.relevant_counts", "assemble"),
    Hook("experiment", "classify_group", "relate", key=_serp_pair_key, aggregate=True),
    Hook("experiment", "trajectory", "relate", key=_serp_pair_key),
    Hook("experiment", "group_sort_key", "relate"),
    Hook("experiment", "category_fractions", "relate"),
    Hook("_bits", "classify_pair_rows", "relate"),
    Hook("_bits", "category_matrix", "relate", key=_score_all_key),
    Hook("_bits", "relationship_counts_exact", "relate"),
    Hook("experiment", "evaluate", "score", key=_evaluate_key),
    Hook("enumeration", "score_all", "score", key=_score_all_key),
    Hook("metrics", "score_all", "score", key=_score_all_key),
    Hook("metrics", "certify_compliance", "certify"),
    Hook("experiment", "METRIC_TESTS.t", "test"),
    Hook("experiment", "METRIC_TESTS.wilcoxon", "test"),
    Hook("experiment", "METRIC_TESTS.sign", "test"),
    Hook("experiment", "sign_test", "test"),
    Hook("cli", "sweep_all_pairs", "experiment"),
    Hook("cli", "compare_systems", "experiment"),
    Hook("cli", "topic_table", "experiment"),
    Hook("cli", "main", "report"),
    Hook("cli", "enumerate_pairs", "enum"),
    Hook("enumeration", "dp_counts", "dp"),
    Hook("cli", "sample_pairs", "sampler", info=_sampler_info),
    Hook("cli", "build_grid", "grid"),
    Hook("cli", "hasse_cover", "hasse"),
    Hook("enumeration", "kendall_tau", "kendall"),
)

#: Per-layer metrics: name, unit, better, and the end-to-end metric and
#: workload each should move.  BENCHMARK.json's per_layer list is this.
PER_LAYER = (
    ("ingest.self_s", "s", "lower", "wall_s on trec-ingest; on trec-sweep too, less so"),
    ("ingest.calls", "count", "lower", "wall_s on trec-ingest"),
    ("ingest.lines", "count", "lower", "wall_s on trec-ingest"),
    ("ingest.lines_per_s", "1/s", "higher", "wall_s on trec-ingest"),
    ("assemble.self_s", "s", "lower", "wall_s and peak_rss_mb on trec-sweep"),
    ("assemble.serps", "count", "lower", "wall_s and peak_rss_mb on trec-sweep"),
    ("assemble.qrels_scans", "count", "lower", "wall_s on trec-sweep"),
    ("relate.self_s", "s", "lower", "wall_s on trec-sweep and census; none on trec-ingest"),
    ("relate.calls", "count", "lower", "wall_s on trec-sweep; none on trec-ingest"),
    ("relate.calls_per_unique", "ratio", "lower", "wall_s on trec-sweep; none on trec-ingest"),
    ("score.self_s", "s", "lower", "wall_s on trec-sweep and census"),
    ("score.calls", "count", "lower", "wall_s on trec-sweep and census"),
    ("score.calls_per_unique", "ratio", "lower", "wall_s on trec-sweep and census"),
    ("certify.self_s", "s", "lower", "wall_s on census"),
    ("test.self_s", "s", "lower", "wall_s on trec-sweep"),
    ("test.calls", "count", "lower", "wall_s on trec-sweep"),
    ("test.undefined", "count", "lower", "wall_s on trec-sweep"),
    ("experiment.self_s", "s", "lower", "wall_s on trec-sweep"),
    ("report.self_s", "s", "lower", "wall_s on trec-sweep"),
    ("report.bytes", "bytes", "lower", "wall_s on trec-sweep"),
    ("enum.self_s", "s", "lower", "wall_s and peak_rss_mb on census"),
    ("dp.self_s", "s", "lower", "wall_s and peak_rss_mb on census"),
    ("sampler.self_s", "s", "lower", "wall_s and peak_rss_mb on census"),
    ("sampler.pairs_per_s", "1/s", "higher", "wall_s and peak_rss_mb on census"),
    ("sampler.w2_speedup", "ratio", "higher", "wall_s and peak_rss_mb on census"),
    ("grid.self_s", "s", "lower", "wall_s and peak_rss_mb on census"),
    ("hasse.self_s", "s", "lower", "wall_s and peak_rss_mb on census"),
    ("kendall.self_s", "s", "lower", "wall_s and peak_rss_mb on census"),
    ("trace.overhead_frac", "ratio", "lower", "none: traced wall_s / untraced wall_s - 1"),
)

_LAYERS = tuple(dict.fromkeys(hook.layer for hook in HOOKS))
_ROOT = 0


class Span(NamedTuple):
    id: int
    op: int
    parent: int
    layer: str
    name: str
    start: float
    end: float
    info: object = None
    error: str | None = None


def _resolve(module, path: str):
    """(container, key, current value) for an attribute path like 'Qrels.topics'."""
    *heads, last = path.split(".")
    container = module
    for part in heads:
        container = container[part] if isinstance(container, dict) else getattr(container, part)
    value = container[last] if isinstance(container, dict) else getattr(container, last)
    return container, last, value


def _assign(container, key: str, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class Tracer:
    """Spans and aggregates for one traced run; install, run, uninstall."""

    def __init__(self):
        self.spans: list = []
        self.aggregates: dict = {}  # (op, parent, name) -> [layer, count, total]
        self.unique: dict = defaultdict(set)  # (op, layer) -> work identities
        self.op = _ROOT
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = [_ROOT]
        self._saved: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # a worker thread (the sampler's pool): its calls belong to the
            # span open in the main thread when it started
            stack = self._local.stack = [self._main[-1]]
        return stack

    def install(self) -> None:
        self._local.stack = self._main
        for hook in HOOKS:
            module = importlib.import_module(f"ipso.{hook.module}")
            container, key, original = _resolve(module, hook.path)
            self._saved.append((container, key, original))
            _assign(container, key, self._wrap(hook, original))

    def uninstall(self) -> None:
        while self._saved:
            _assign(*self._saved.pop())

    def operation(self, name: str) -> "_OpSpan":
        """Context manager for one benchmark operation: the root span of its calls."""
        return _OpSpan(self, name)

    def _wrap(self, hook: Hook, fn):
        tracer, layer, keyfn, infofn = self, hook.layer, hook.key, hook.info
        name = f"{hook.module}.{hook.path}"

        if hook.aggregate:
            @functools.wraps(fn)
            def aggregated(*args, **kwargs):
                parent = tracer._stack()[-1]
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    slot = tracer.aggregates.get((tracer.op, parent, name))
                    if slot is None:
                        slot = tracer.aggregates[(tracer.op, parent, name)] = [layer, 0, 0.0]
                    slot[1] += 1
                    slot[2] += elapsed
                    if keyfn is not None:
                        tracer.unique[(tracer.op, layer)].add((name, keyfn(args, kwargs)))
            return aggregated

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1]
            span_id = next(tracer._ids)
            stack.append(span_id)
            error = None
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                info = infofn(args, kwargs, result) if infofn and error is None else None
                tracer.spans.append(Span(span_id, tracer.op, parent, layer, name,
                                         start, end, info, error))
                unique = keyfn(args, kwargs) if keyfn is not None else span_id
                tracer.unique[(tracer.op, layer)].add((name, unique))
        return wrapper

    def self_times(self) -> dict:
        """span id -> duration less the union of its children's intervals."""
        children = defaultdict(list)
        for span in self.spans:
            children[span.parent].append((span.start, span.end))
        aggregated_child = defaultdict(float)
        for (_, parent, _), (_, _, total) in self.aggregates.items():
            aggregated_child[parent] += total
        return {
            span.id: (span.end - span.start) - _union(children[span.id])
            - aggregated_child[span.id]
            for span in self.spans
        }

    def layer_metrics(self, ops: set, lines: dict) -> dict:
        """Per-layer metrics over the operations `ops` (one iteration).

        `lines` maps an input file to its line count; ingest spans count
        the lines of the file they were given.
        """
        own = self.self_times()
        spans = [s for s in self.spans if s.op in ops]
        self_s = dict.fromkeys(_LAYERS, 0.0)
        calls = defaultdict(int)
        for span in spans:
            if span.layer in self_s:
                self_s[span.layer] += own[span.id]
            calls[span.layer] += 1
        for (op, _, _), (layer, count, total) in self.aggregates.items():
            if op in ops:
                self_s[layer] += total
                calls[layer] += count

        def unique(layer):
            return sum(len(self.unique[(op, layer)]) for op in ops)

        def per_unique(layer):
            n = unique(layer)
            return calls[layer] / n if n else 0.0

        ingest_lines = sum(
            lines.get(os.path.abspath(str(s.info)), 0) for s in spans if s.layer == "ingest"
        )
        sampler = [s for s in spans if s.layer == "sampler"]
        sampled = sum(s.info[0] for s in sampler)
        sampler_time = sum(s.end - s.start for s in sampler)
        by_workers = defaultdict(float)
        for s in sampler:
            by_workers[s.info[1]] += s.end - s.start
        out = {f"{layer}.self_s": value for layer, value in self_s.items()}
        out.update({
            "ingest.calls": calls["ingest"],
            "ingest.lines": ingest_lines,
            "ingest.lines_per_s": ingest_lines / self_s["ingest"] if self_s["ingest"] else 0.0,
            "assemble.serps": sum(s.info or 0 for s in spans if s.layer == "assemble"),
            "assemble.qrels_scans": sum(1 for s in spans if s.name.startswith("trecio.Qrels.")),
            "relate.calls": calls["relate"],
            "relate.calls_per_unique": per_unique("relate"),
            "score.calls": calls["score"],
            "score.calls_per_unique": per_unique("score"),
            "test.calls": calls["test"],
            "test.undefined": sum(1 for s in spans
                                  if s.layer == "test" and s.error == "UndefinedTestError"),
            "sampler.pairs_per_s": sampled / sampler_time if sampler_time else 0.0,
            "sampler.w2_speedup": (by_workers[1] / by_workers[2]
                                   if by_workers[1] and by_workers[2] else 0.0),
        })
        return out


class _OpSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tracer = self.tracer
        self.id = next(tracer._ids)
        tracer.op = self.id
        tracer._main.append(self.id)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        tracer = self.tracer
        tracer._main.pop()
        tracer.spans.append(Span(self.id, self.id, _ROOT, "op", self.name, self.start, end))
        tracer.op = _ROOT
        return False


def _union(intervals: list) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def median_metrics(per_iteration: list) -> dict:
    """Median of each metric over iterations."""
    return {name: statistics.median(it[name] for it in per_iteration)
            for name in per_iteration[0]}

"""System-vs-system experiments built on the innate pairwise ordering.

The centrepiece is a two-step protocol: test a chosen metric's per-topic
score differences for significance, then corroborate a significant
outcome with the metric-independent evidence — an exact Sign test on the
counts of topics fixed in each direction, with equal and non-separable
topics excluded.  A dagger marks metric significance, a double dagger a
corroborated one.
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
import math
import warnings
from dataclasses import dataclass, fields
from typing import IO, Iterable, NamedTuple, Sequence, Union

import numpy as np

from . import _bits
from .enumeration import CategoryCounts
# evaluate, build_serps and classify_group are not called here; bench/tracer.py hooks
# all three names in this module
from .metrics import MetricSpec, evaluate, evaluate_rows, read_depth, resolve_metric  # noqa: F401
from .serp import (
    GROUP_TABLE_ORDER,
    Serp,
    TopicGroup,
    Trajectory,
    classify_group,  # noqa: F401
    group_sort_key,
    trajectory,
)
from .stats import UndefinedTestError, sign_test, sign_test_rows, t_test_rows, wilcoxon_rows
from .trecio import (  # noqa: F401
    Qrels, RunFile, build_serps, distinct_runs, grade_runs, topic_sort_key)

#: Each metric test, run over the rows of a (pairs x topics) array of differences.
METRIC_TESTS = {"t": t_test_rows, "wilcoxon": wilcoxon_rows, "sign": sign_test_rows}

DEFAULT_ALPHA = 0.05

DAGGER, DOUBLE_DAGGER = "†", "‡"

#: Most system pairs the sweep tests in one block.
_BLOCK_PAIRS = 1024


def _check_options(alpha: float, tests: Sequence[str]) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    for test in tests:
        if test not in METRIC_TESTS:
            raise ValueError(f"unknown test {test!r}; choose from {sorted(METRIC_TESTS)}")


class _Collection(NamedTuple):
    """Every run's binary relevance over the evaluation topics; systems are rows in run order."""

    topics: list
    tags: list  # system tag per row, in distinct_runs order
    bits: np.ndarray  # (systems x topics x depth) int8; all-0 rows for absent topics
    present: np.ndarray  # (systems x topics) bool: the run ranks documents for the topic
    relevant: np.ndarray  # R per topic: the count of documents judged relevant


def _collection(runs: Sequence[RunFile], qrels: Qrels, k_values: Sequence[int],
                metrics: Sequence[Union[MetricSpec, str]] = ()) -> _Collection:
    """One grading pass over each run to the job's read_depth: every k and every metric scored."""
    depth = read_depth(k_values, metrics)
    runs = distinct_runs(runs)
    # the evaluation topics: judged topics that at least one run retrieved
    topics = sorted(set().union(*(run.columns.topics for run in runs)) & set(qrels.topics()),
                    key=topic_sort_key)
    bits, present, _ = grade_runs(runs, qrels, topics, depth)
    counts = qrels.relevant_counts()
    relevant = np.array([counts[t] for t in topics], dtype=np.int64)
    return _Collection(topics, [run.system_tag for run in runs], bits, present, relevant)


def _score_matrix(collection: _Collection, metric: MetricSpec) -> np.ndarray:
    """(systems x topics) scores of the SERPs at the metric's depth, rows in collection order."""
    bits = collection.bits[:, :, :metric.depth]
    flat = evaluate_rows(metric, bits.reshape(-1, metric.depth),
                         np.tile(collection.relevant, len(bits)))
    return flat.reshape(bits.shape[:2])


def _pair_blocks(collection: _Collection, pairs: Sequence[tuple], stacklevel: int = 3) -> list:
    """The one topic rule: blocks of (pair indices, (pairs x 2) collection rows, topics).

    A pair is evaluated on the topics either system ranks, warning for each
    system that lacks some; pairs on the same topics share blocks of at most
    _BLOCK_PAIRS.
    """
    pairs, by_topics = np.array(pairs), {}
    for i, pair in enumerate(pairs):
        has = collection.present[pair]
        at = np.flatnonzero(has.any(axis=0))
        if not at.size:
            raise ValueError("runs {} and {} share no judged topics".format(
                *(collection.tags[row] for row in pair)))
        for row, missing in zip(pair, at.size - has[:, at].sum(axis=1)):
            if missing:
                warnings.warn(f"system {collection.tags[row]}: {missing} evaluated topic(s) "
                              "absent from the run; scored as all-0 SERPs", stacklevel=stacklevel)
        by_topics.setdefault(at.tobytes(), (at, []))[1].append(i)
    return [(chunk, pairs[chunk], at) for at, members in by_topics.values()
            for chunk in np.split(members, range(_BLOCK_PAIRS, len(members), _BLOCK_PAIRS))]


def _evaluate(collection: _Collection, blocks: Sequence[tuple], k: int, scores: dict,
              tests: Sequence[str]) -> Iterable[tuple]:
    """Per block at depth k: (pair indices, pairs x topics five-way codes, outcomes).

    outcomes maps (metric, test) to RowOutcomes over the scored topics, None if undefined.
    """
    packed = _bits._pack_blocks(collection.bits[:, :, :k])  # each system's rows, once
    for members, sides, at in blocks:
        a, b = sides[:, :1], sides[:, 1:]
        codes = _bits.group_codes(packed[a, at], packed[b, at], k)
        scored = at[collection.relevant[at] >= 1]
        outcomes = {}
        for spec, matrix in scores.items():
            diffs = matrix[a, scored] - matrix[b, scored]
            for test in tests:
                try:
                    outcomes[spec, test] = METRIC_TESTS[test](diffs)
                except UndefinedTestError:
                    outcomes[spec, test] = None
        yield members.tolist(), codes, outcomes


_NI, _NS = (GROUP_TABLE_ORDER.index(g) for g in (TopicGroup.SEPARABLE_NI, TopicGroup.SEPARABLE_NS))


def _group_counts(codes: np.ndarray) -> np.ndarray:
    """(pairs, 5) topic counts per group, in GROUP_TABLE_ORDER, of (pairs, topics) codes."""
    codes = codes + 5 * np.arange(len(codes))[:, None]
    return np.bincount(codes.ravel(), minlength=5 * len(codes)).reshape(-1, 5)


def _ipso_p(counts: np.ndarray) -> list:
    """The innate Sign test's p per row of (pairs, 5) group counts; NaN with no separable topic."""
    return [sign_test(ni, ns).p_value if ni + ns else math.nan
            for ni, ns in counts[:, [_NI, _NS]].tolist()]


@dataclass(frozen=True)
class ComparisonReport:
    """Full outcome of one system-vs-system comparison at one depth."""

    system_a: str
    system_b: str
    k: int
    metric: MetricSpec
    test: str
    alpha: float
    n_topics: int
    n_scored_topics: int
    mean_a: float | None
    mean_b: float | None
    effect_size: float | None
    metric_p: float | None
    metric_statistic: float | None
    metric_degenerate: bool
    ipso_counts: dict  # TopicGroup -> topic count
    ipso_p: float | None
    metric_significant: bool
    ipso_corroborated: bool
    zero_relevant_topics: tuple

    def group_count(self, group: TopicGroup) -> int:
        return self.ipso_counts.get(group, 0)

    @property
    def sign_counts(self) -> tuple:
        """(non-inferior-group, non-superior-group) topic counts for the Sign test."""
        return (self.group_count(TopicGroup.SEPARABLE_NI),
                self.group_count(TopicGroup.SEPARABLE_NS))

    def to_dict(self) -> dict:
        """Every field in field order; the metric as its label, the groups by label."""
        return {**{field.name: getattr(self, field.name) for field in fields(self)},
                "metric": self.metric.label,
                "ipso_counts": {g.label: self.group_count(g) for g in GROUP_TABLE_ORDER},
                "zero_relevant_topics": list(self.zero_relevant_topics)}

    #: The ipso_counts columns, in GROUP_TABLE_ORDER.
    GROUP_COLUMNS = ("group_ns_midpoint", "group_ns", "group_equal", "group_ni",
                     "group_ni_midpoint")
    CSV_HEADER = (
        "system_a", "system_b", "k", "metric", "test", "alpha",
        "n_topics", "n_scored_topics", "mean_a", "mean_b", "effect_size",
        "metric_p", "metric_significant", *GROUP_COLUMNS, "ipso_p", "ipso_corroborated",
    )

    def write_csv(self, stream: IO[str]) -> None:
        """CSV_HEADER and one row of to_dict's values, the group counts spread out."""
        fields = self.to_dict()
        fields.update(zip(self.GROUP_COLUMNS, fields["ipso_counts"].values()))
        csv.writer(stream).writerows([self.CSV_HEADER, [fields[name] for name in self.CSV_HEADER]])

    def to_text(self, ascii_symbols: bool = False) -> str:
        """Aligned human-readable report."""
        dagger = "+" if ascii_symbols else DAGGER
        ddagger = "++" if ascii_symbols else DOUBLE_DAGGER

        def num(x, fmt="{:.4f}"):
            return "n/a" if x is None else fmt.format(x)

        ni, ns = self.sign_counts
        lines = [
            f"Comparison of {self.system_a} (A) vs {self.system_b} (B) at depth k={self.k}",
            f"  topics evaluated: {self.n_topics} "
            f"(scored under {self.metric.label}: {self.n_scored_topics})",
            f"  mean {self.metric.label}:  A = {num(self.mean_a)}   B = {num(self.mean_b)}",
            f"  effect size (B - A): {num(self.effect_size, '{:+.4f}')}",
            f"  {self.test} test: p = {num(self.metric_p)}"
            + (f" {dagger}" if self.metric_significant else ""),
            "  groups: " + " | ".join(
                f"{g.label} {self.group_count(g)}" for g in GROUP_TABLE_ORDER
            ),
            f"  sign test on separable directions ({ni} ni vs {ns} ns): "
            f"p = {num(self.ipso_p)}"
            + (f" {ddagger}" if self.ipso_corroborated else ""),
        ]
        return "\n".join(lines)


def _one_pair(run_a: RunFile, run_b: RunFile, qrels: Qrels, k: int,
              specs: Sequence[MetricSpec], tests: Sequence[str] = ()) -> tuple:
    """(collection, topics, (1 x topics) group codes, outcomes, score matrices) at depth k.
    Row 0 is run_a's and row -1 run_b's: one row when the two are the same run."""
    collection = _collection([run_a, run_b], qrels, [k], specs)
    # the warnings name the caller of compare_systems or topic_table
    [(_, _, at)] = blocks = _pair_blocks(collection, [(0, len(collection.tags) - 1)], 4)
    scores = {spec: _score_matrix(collection, spec) for spec in specs}
    [(_, codes, outcomes)] = _evaluate(collection, blocks, k, scores, tests)
    return collection, at, codes, outcomes, scores


def compare_systems(
    run_a: RunFile,
    run_b: RunFile,
    qrels: Qrels,
    k: int,
    metric: Union[MetricSpec, str] = "P",
    alpha: float = DEFAULT_ALPHA,
    test: str = "t",
) -> ComparisonReport:
    """Run the full comparison protocol between two systems at depth k.

    Reports per-topic means and effect size for the metric (topics with
    no relevant documents are excluded from scoring), the metric test's
    p-value, the five-group tally of the innate per-topic orderings, and
    the Sign test on the two separable group counts.  metric is a
    MetricSpec or a label: a bare family (the default, precision) takes
    depth k, and a full label such as ``AP@10`` keeps its own depth.
    """
    _check_options(alpha, [test])
    spec = resolve_metric(metric, k)
    collection, at, codes, outcomes, scores = _one_pair(run_a, run_b, qrels, k, [spec], [test])
    scored = collection.relevant >= 1
    a, b = scores[spec][[0, -1]][:, scored]
    mean_a, mean_b = (float(np.cumsum(x)[-1] / x.size) if x.size else None for x in (a, b))
    effect = None if mean_a is None else mean_b - mean_a
    result = outcomes[spec, test].result(0) if outcomes[spec, test] else None
    counts = _group_counts(codes)
    [ipso_p] = _ipso_p(counts)
    metric_p = result.p_value if result else None
    significant = metric_p is not None and metric_p < alpha
    return ComparisonReport(
        system_a=run_a.system_tag, system_b=run_b.system_tag, k=k, metric=spec, test=test,
        alpha=alpha, n_topics=at.size, n_scored_topics=int(scored.sum()),
        mean_a=mean_a, mean_b=mean_b, effect_size=effect, metric_p=metric_p,
        metric_statistic=result.statistic if result else None,
        metric_degenerate=result.degenerate if result else False,
        ipso_counts={g: int(n) for g, n in zip(GROUP_TABLE_ORDER, counts[0])},
        ipso_p=None if math.isnan(ipso_p) else ipso_p, metric_significant=significant,
        ipso_corroborated=significant and ipso_p < alpha,
        zero_relevant_topics=tuple(collection.topics[i] for i in at if not scored[i]),
    )


@dataclass(frozen=True)
class TopicRow:
    """One topic's entry in a per-topic comparison table."""

    topic_id: str
    serp_a: str  # bitstring
    serp_b: str
    trajectory: Trajectory
    group: TopicGroup
    score_diffs: dict  # metric label -> score(A) - score(B)


class TopicTable(list):
    """topic_table's rows, with their JSON and CSV forms."""

    def to_dict(self) -> list:
        return [{"topic": row.topic_id, "group": row.group.label, "serp_a": row.serp_a,
                 "serp_b": row.serp_b, "trajectory": list(row.trajectory.codes()),
                 "score_diffs": row.score_diffs} for row in self]

    def write_csv(self, stream: IO[str]) -> None:
        write_topic_csv(self, stream)


def topic_table(
    run_a: RunFile,
    run_b: RunFile,
    qrels: Qrels,
    k: int,
    metrics: Sequence[Union[MetricSpec, str]] = (),
) -> TopicTable:
    """Per-topic rows, sectioned and ordered for tabular presentation.

    Rows appear in five sections — non-separable with a non-superior
    midpoint, separable non-superior, equal, separable non-inferior,
    non-separable with a non-inferior midpoint — and are ordered within a
    section by the number of non-separable depths, then by the length of
    the leading equal zone.  Signed per-metric score differences
    (A minus B) are attached to every row.
    """
    specs = [resolve_metric(m, k) for m in metrics]
    collection, at, codes, _, scores = _one_pair(run_a, run_b, qrels, k, specs)
    diffs = {spec.label: np.subtract(*scores[spec][[0, -1]]).tolist() for spec in specs}
    rel_a, rel_b = collection.bits[[0, -1], :, :k].tolist()
    rows = TopicTable()
    for i, code in zip(at.tolist(), codes[0].tolist()):
        serp_a, serp_b = Serp(rel_a[i]), Serp(rel_b[i])
        rows.append(TopicRow(
            topic_id=collection.topics[i], serp_a=serp_a.bitstring, serp_b=serp_b.bitstring,
            trajectory=trajectory(serp_a, serp_b), group=GROUP_TABLE_ORDER[code],
            score_diffs={label: column[i] for label, column in diffs.items()},
        ))
    rows.sort(key=lambda r: (
        r.group.table_order, group_sort_key(r.trajectory), topic_sort_key(r.topic_id),
    ))
    return rows


def write_topic_csv(rows: Sequence[TopicRow], stream: IO[str]) -> None:
    """CSV export of a topic table, one diff column per metric."""
    labels = list(rows[0].score_diffs) if rows else []
    writer = csv.writer(stream)
    writer.writerow(["topic", "group", "serp_a", "serp_b", "trajectory"]
                    + [f"diff_{label}" for label in labels])
    writer.writerows([row.topic_id, row.group.label, row.serp_a, row.serp_b,
                      " ".join(row.trajectory.codes()),
                      *(row.score_diffs[label] for label in labels)] for row in rows)


class AgreementCategory(enum.Enum):
    """Agreement between the metric test and the corroborating Sign test."""

    BOTH_YES = "Both:Yes"
    BOTH_NO = "Both:No"
    METRIC_YES = "Metric:Yes"
    METRIC_NO = "Metric:No"

    @property
    def label(self) -> str:
        return self.value

    @classmethod
    def from_flags(cls, metric_significant: bool, ipso_significant: bool):
        return _CATEGORIES[2 * bool(metric_significant) + bool(ipso_significant)]

    def __str__(self) -> str:
        return self.value


#: Each agreement code, 2 * (metric test significant) + (Sign test significant), -> category.
_CATEGORIES = tuple(map(AgreementCategory, ("Both:No", "Metric:No", "Metric:Yes", "Both:Yes")))

#: Most sweep rows a writer turns into Python objects at once.
_ROW_BLOCK = 1 << 12


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Agreement categories for every system pair and condition, as columns in row order.

    Rows run k by k, then pair by pair, then over that k's cells.  A p of NaN
    marks an undefined test; it is never below alpha, so never significant.
    """

    tags: tuple
    cells: tuple  # (k, metric label, test) per condition
    pairs: np.ndarray  # (rows, 2) indices into tags
    cell: np.ndarray  # (rows,) indices into cells
    metric_p: np.ndarray  # (rows,) float
    ipso_p: np.ndarray  # (rows,) float
    alpha: float
    FIELDS = ("system_a", "system_b", "k", "metric", "test", "metric_p", "ipso_p", "category")

    def codes(self) -> np.ndarray:
        """Each row's agreement code: its category is _CATEGORIES[code]."""
        return 2 * (self.metric_p < self.alpha) + (self.ipso_p < self.alpha)

    def fractions(self) -> dict:
        """Per (k, metric, test), in cell order: category fractions plus the two totals.

        metric_total is the fraction of pairs the metric test finds
        significant, ipso_total the fraction the Sign test does; both
        include the pairs where the two agree.
        """
        tally = np.bincount(4 * self.cell + self.codes(), minlength=4 * len(self.cells))
        out = {}
        for key, counts in zip(self.cells, tally.reshape(-1, 4).tolist()):
            if n := sum(counts):
                fracs = {cat.label: counts[_CATEGORIES.index(cat)] / n for cat in AgreementCategory}
                out[key] = {**fracs, "metric_total": fracs["Both:Yes"] + fracs["Metric:Yes"],
                            "ipso_total": fracs["Both:Yes"] + fracs["Metric:No"], "n_pairs": n}
        return out

    def _blocks(self) -> Iterable[list]:
        """The rows as lists of Python values in FIELDS order, _ROW_BLOCK a block; None for NaN."""
        tags, cells = np.array(self.tags, dtype=object), np.array(self.cells, dtype=object)
        labels = np.array([cat.label for cat in _CATEGORIES], dtype=object)[self.codes()]
        for rows in (slice(at, at + _ROW_BLOCK) for at in range(0, len(self.cell), _ROW_BLOCK)):
            p = [np.where(np.isnan(x[rows]), None, x[rows]) for x in (self.metric_p, self.ipso_p)]
            yield np.column_stack([tags[self.pairs[rows]], cells[self.cell[rows]],
                                   *p, labels[rows]]).tolist()

    def write_csv(self, stream: IO[str]) -> None:
        # csv.writer writes each row alone, a system call apiece when stream is unbuffered
        lines = itertools.chain([self.FIELDS], itertools.chain.from_iterable(self._blocks()))
        while block := list(itertools.islice(lines, _ROW_BLOCK)):
            buffer = io.StringIO()
            csv.writer(buffer).writerows(block)
            stream.write(buffer.getvalue())

    def to_dict(self) -> dict:
        rows = [dict(zip(self.FIELDS, row)) for block in self._blocks() for row in block]
        fractions = [{"k": k, "metric": metric, "test": test, **fracs}
                     for (k, metric, test), fracs in sorted(self.fractions().items())]
        return {"alpha": self.alpha, "rows": rows, "fractions": fractions}


def sweep_all_pairs(
    runs: Sequence[RunFile],
    qrels: Qrels,
    k_values: Sequence[int],
    metrics: Sequence[Union[MetricSpec, str]],
    tests: Sequence[str],
    alpha: float = DEFAULT_ALPHA,
) -> SweepResult:
    """Compare every unordered pair of systems under every condition.

    Each (pair, k, metric, test) cell reproduces exactly what a
    standalone compare_systems call would report; the category records
    whether the metric test and the Sign test agree on significance.
    """
    runs = distinct_runs(runs)
    if len(runs) < 2:
        raise ValueError("sweep needs at least two distinct runs")
    # a depth, metric or test given twice is one condition
    k_values, tests = list(dict.fromkeys(k_values)), list(dict.fromkeys(tests))
    _check_options(alpha, tests)
    if not metrics or not tests or not k_values:
        raise ValueError("k_values, metrics, and tests must all be non-empty")
    # each k's specs: labels that resolve alike ("P", "P@5" at k = 5) are one condition
    plan = {k: list(dict.fromkeys(resolve_metric(m, k) for m in metrics)) for k in k_values}
    every_spec = list(dict.fromkeys(itertools.chain(*plan.values())))
    collection = _collection(runs, qrels, k_values, every_spec)
    pairs = np.array(list(itertools.combinations(range(len(runs)), 2)))
    blocks = _pair_blocks(collection, pairs)
    matrices = {spec: _score_matrix(collection, spec) for spec in every_spec}
    cells, columns = (), []
    for k, specs in plan.items():
        n = len(specs) * len(tests)
        ipso_p, metric_p = np.empty(len(pairs)), np.empty((len(pairs), n))
        scores = {spec: matrices[spec] for spec in specs}
        for members, codes, outcomes in _evaluate(collection, blocks, k, scores, tests):
            ipso_p[members] = _ipso_p(_group_counts(codes))
            for j, outcome in enumerate(outcomes.values()):
                metric_p[members, j] = outcome.p_value if outcome else math.nan
        columns.append((np.repeat(pairs, n, axis=0), np.tile(len(cells) + np.arange(n), len(pairs)),
                        metric_p.ravel(), np.repeat(ipso_p, n)))
        cells += tuple((k, spec.label, test) for spec, test in itertools.product(specs, tests))
    return SweepResult(tuple(collection.tags), cells, *map(np.concatenate, zip(*columns)), alpha)


def category_fractions(runs: Sequence[RunFile], qrels: Qrels, k: int) -> CategoryCounts:
    """Pair-relationship tallies over every (topic, unordered system pair).

    Aggregates the innate comparison across all SERP-vs-SERP pairs in a
    collection of runs, mirroring the enumeration-table format but over
    observed data.  Each pair is counted on the topics either system
    ranks, as compare_systems counts it, with a warning for a system that
    lacks some of them; total is the sum of those topic counts over the
    n(n-1)/2 pairs.
    """
    runs = distinct_runs(runs)
    if len(runs) < 2:
        raise ValueError("category_fractions needs at least two distinct runs")
    collection = _collection(runs, qrels, [k])
    blocks = _pair_blocks(collection, list(itertools.combinations(range(len(runs)), 2)))
    tally = sum(_group_counts(codes).sum(axis=0)
                for _, codes, _ in _evaluate(collection, blocks, k, {}, ()))
    ns_midpoint, ns, eq, ni, ni_midpoint = tally.tolist()
    return CategoryCounts(k=k, equal=eq, separable=ni + ns, non_separable=ns_midpoint + ni_midpoint,
                          total=int(tally.sum()), mode="exact")


def mean_metric_by_system(
    runs: Sequence[RunFile],
    qrels: Qrels,
    metric: Union[MetricSpec, str],
) -> dict:
    """Mean metric score per system over the shared judged topic set.

    All systems are averaged over the same topics (those with at least
    one relevant document), with all-0 SERPs standing in for topics a
    run did not retrieve.
    """
    spec = resolve_metric(metric)
    collection = _collection(runs, qrels, [spec.depth])
    scored = collection.relevant >= 1
    if not scored.any():
        raise ValueError("no topics with relevant documents to score")
    scores = _score_matrix(collection, spec)[:, scored]
    return dict(zip(collection.tags, (np.cumsum(scores, axis=1)[:, -1] / scored.sum()).tolist()))


def percentile_run(
    runs: Sequence[RunFile],
    qrels: Qrels,
    metric: Union[MetricSpec, str],
    percentile: float,
) -> tuple:
    """(system tag, mean score) at a percentile of the per-system ranking.

    Systems are ranked ascending by mean score; the nearest-rank rule
    picks the entry, so percentile 100 is the best system and percentile
    25 the conventional lower-quartile pick.  Ties are broken by tag.
    """
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    means = mean_metric_by_system(runs, qrels, metric)
    ranked = sorted(means.items(), key=lambda item: (item[1], item[0]))
    index = max(1, math.ceil(percentile / 100.0 * len(ranked))) - 1
    return ranked[index]

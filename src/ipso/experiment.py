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
import itertools
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import IO, Iterable, NamedTuple, Sequence, Union

import numpy as np

from . import _bits
from .enumeration import CategoryCounts
# evaluate, build_serps and classify_group are not called here; bench/tracer.py hooks
# all three names in this module
from .metrics import MetricSpec, evaluate, evaluate_rows, parse_metric  # noqa: F401
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


def _as_metric(metric: Union[MetricSpec, str]) -> MetricSpec:
    return metric if isinstance(metric, MetricSpec) else parse_metric(metric)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")


def _check_test(test: str) -> None:
    if test not in METRIC_TESTS:
        raise ValueError(f"unknown test {test!r}; choose from {sorted(METRIC_TESTS)}")


class _Collection(NamedTuple):
    """Every run's binary relevance over the evaluation topics; systems are rows in run order."""

    topics: list
    tags: list  # system tag per row, in distinct_runs order
    bits: np.ndarray  # (systems x topics x depth) int8; all-0 rows for absent topics
    present: np.ndarray  # (systems x topics) bool: the run ranks documents for the topic
    relevant: np.ndarray  # R per topic: the count of documents judged relevant


def _collection(runs: Sequence[RunFile], qrels: Qrels, k_values: Sequence[int]) -> _Collection:
    """One grading pass over the first max(k) documents of each run's rankings."""
    if min(k_values) < 1:
        raise ValueError(f"k must be >= 1, got {min(k_values)}")
    runs = distinct_runs(runs)
    # the evaluation topics: judged topics that at least one run retrieved
    topics = sorted(set().union(*(run.columns.topics for run in runs)) & set(qrels.topics()),
                    key=topic_sort_key)
    bits, present, _ = grade_runs(runs, qrels, topics, max(k_values))
    counts = qrels.relevant_counts()
    relevant = np.array([counts[t] for t in topics], dtype=np.int64)
    return _Collection(topics, [run.system_tag for run in runs], bits, present, relevant)


def _score_matrix(collection: _Collection, k: int, metric: MetricSpec) -> np.ndarray:
    """(systems x topics) scores of the depth-k SERPs, rows in collection order."""
    bits = collection.bits[:, :, :k]
    flat = evaluate_rows(metric, bits.reshape(-1, k), np.tile(collection.relevant, len(bits)))
    return flat.reshape(bits.shape[:2])


def _pair_blocks(collection: _Collection, pairs: Sequence[tuple]) -> list:
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
                              "absent from the run; scored as all-0 SERPs", stacklevel=3)
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


def _ipso_p(ni: int, ns: int) -> float | None:
    """The innate Sign test's p on the separable directions; None with no separable topic."""
    return sign_test(ni, ns).p_value if ni + ns else None


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
        return {
            "system_a": self.system_a,
            "system_b": self.system_b,
            "k": self.k,
            "metric": self.metric.label,
            "test": self.test,
            "alpha": self.alpha,
            "n_topics": self.n_topics,
            "n_scored_topics": self.n_scored_topics,
            "mean_a": self.mean_a,
            "mean_b": self.mean_b,
            "effect_size": self.effect_size,
            "metric_p": self.metric_p,
            "metric_statistic": self.metric_statistic,
            "metric_degenerate": self.metric_degenerate,
            "ipso_counts": {g.label: self.group_count(g) for g in GROUP_TABLE_ORDER},
            "ipso_p": self.ipso_p,
            "metric_significant": self.metric_significant,
            "ipso_corroborated": self.ipso_corroborated,
            "zero_relevant_topics": list(self.zero_relevant_topics),
        }

    CSV_HEADER = (
        "system_a", "system_b", "k", "metric", "test", "alpha",
        "n_topics", "n_scored_topics", "mean_a", "mean_b", "effect_size",
        "metric_p", "metric_significant",
        "group_ns_midpoint", "group_ns", "group_equal", "group_ni", "group_ni_midpoint",
        "ipso_p", "ipso_corroborated",
    )

    def csv_row(self) -> tuple:
        def num(x):
            return "" if x is None else repr(x)

        return (
            self.system_a, self.system_b, self.k, self.metric.label, self.test,
            self.alpha, self.n_topics, self.n_scored_topics,
            num(self.mean_a), num(self.mean_b), num(self.effect_size),
            num(self.metric_p), self.metric_significant,
            *(self.group_count(g) for g in GROUP_TABLE_ORDER),
            num(self.ipso_p), self.ipso_corroborated,
        )

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


def compare_systems(
    run_a: RunFile,
    run_b: RunFile,
    qrels: Qrels,
    k: int,
    metric: Union[MetricSpec, str, None] = None,
    alpha: float = DEFAULT_ALPHA,
    test: str = "t",
) -> ComparisonReport:
    """Run the full comparison protocol between two systems at depth k.

    Reports per-topic means and effect size for the metric (topics with
    no relevant documents are excluded from scoring), the metric test's
    p-value, the five-group tally of the innate per-topic orderings, and
    the Sign test on the two separable group counts.  metric defaults to
    precision at k.
    """
    _check_alpha(alpha)
    _check_test(test)
    spec = MetricSpec("P", k) if metric is None else _as_metric(metric)
    collection = _collection([run_a, run_b], qrels, [k])
    # rows are run_a's and run_b's, or one row when the two are the same run
    [(_, _, at)] = blocks = _pair_blocks(collection, [(0, len(collection.tags) - 1)])
    scores = {spec: _score_matrix(collection, k, spec)}
    [(_, codes, outcomes)] = _evaluate(collection, blocks, k, scores, [test])
    scored = collection.relevant >= 1
    a, b = scores[spec][[0, -1]][:, scored]
    mean_a, mean_b = (float(np.cumsum(x)[-1] / x.size) if x.size else None for x in (a, b))
    effect = None if mean_a is None else mean_b - mean_a
    result = outcomes[spec, test].result(0) if outcomes[spec, test] else None
    counts = _group_counts(codes)[0]
    ipso_p = _ipso_p(int(counts[_NI]), int(counts[_NS]))
    metric_p = result.p_value if result else None
    significant = metric_p is not None and metric_p < alpha
    return ComparisonReport(
        system_a=run_a.system_tag, system_b=run_b.system_tag, k=k, metric=spec, test=test,
        alpha=alpha, n_topics=at.size, n_scored_topics=int(scored.sum()),
        mean_a=mean_a, mean_b=mean_b, effect_size=effect, metric_p=metric_p,
        metric_statistic=result.statistic if result else None,
        metric_degenerate=result.degenerate if result else False,
        ipso_counts={g: int(n) for g, n in zip(GROUP_TABLE_ORDER, counts)}, ipso_p=ipso_p,
        metric_significant=significant,
        ipso_corroborated=significant and ipso_p is not None and ipso_p < alpha,
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


def topic_table(
    run_a: RunFile,
    run_b: RunFile,
    qrels: Qrels,
    k: int,
    metrics: Sequence[Union[MetricSpec, str]] = (),
) -> list:
    """Per-topic rows, sectioned and ordered for tabular presentation.

    Rows appear in five sections — non-separable with a non-superior
    midpoint, separable non-superior, equal, separable non-inferior,
    non-separable with a non-inferior midpoint — and are ordered within a
    section by the number of non-separable depths, then by the length of
    the leading equal zone.  Signed per-metric score differences
    (A minus B) are attached to every row.
    """
    specs = [_as_metric(m) for m in metrics]
    collection = _collection([run_a, run_b], qrels, [k])
    # rows are run_a's and run_b's, or one row when the two are the same run
    [(_, _, at)] = blocks = _pair_blocks(collection, [(0, len(collection.tags) - 1)])
    [(_, codes, _)] = _evaluate(collection, blocks, k, {}, ())
    diffs = {spec.label: np.subtract(*_score_matrix(collection, k, spec)[[0, -1]]).tolist()
             for spec in specs}
    rel_a, rel_b = collection.bits[[0, -1]].tolist()
    rows = []
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
    for row in rows:
        writer.writerow([
            row.topic_id, row.group.label, row.serp_a, row.serp_b,
            " ".join(row.trajectory.codes()),
            *(repr(row.score_diffs[label]) for label in labels),
        ])


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
        if metric_significant and ipso_significant:
            return cls.BOTH_YES
        if metric_significant:
            return cls.METRIC_YES
        if ipso_significant:
            return cls.METRIC_NO
        return cls.BOTH_NO

    def __str__(self) -> str:
        return self.value


class SweepRow(NamedTuple):
    system_a: str
    system_b: str
    k: int
    metric: str
    test: str
    metric_p: float | None
    ipso_p: float | None
    category: AgreementCategory


@dataclass(frozen=True)
class SweepResult:
    """Agreement categories for every system pair and condition."""

    rows: tuple
    alpha: float

    def fractions(self) -> dict:
        """Per (k, metric, test): category fractions plus the two totals.

        metric_total is the fraction of pairs the metric test finds
        significant, ipso_total the fraction the Sign test does; both
        include the pairs where the two agree.
        """
        sizes = Counter((row.k, row.metric, row.test) for row in self.rows)
        tally = Counter((row.k, row.metric, row.test, row.category) for row in self.rows)
        out = {}
        for key, n in sizes.items():
            fracs = {cat.label: tally[(*key, cat)] / n for cat in AgreementCategory}
            fracs["metric_total"] = fracs["Both:Yes"] + fracs["Metric:Yes"]
            fracs["ipso_total"] = fracs["Both:Yes"] + fracs["Metric:No"]
            fracs["n_pairs"] = n
            out[key] = fracs
        return out

    def write_csv(self, stream: IO[str]) -> None:
        writer = csv.writer(stream)
        writer.writerow(SweepRow._fields)
        for row in self.rows:
            writer.writerow((
                row.system_a, row.system_b, row.k, row.metric, row.test,
                "" if row.metric_p is None else repr(row.metric_p),
                "" if row.ipso_p is None else repr(row.ipso_p),
                row.category.label,
            ))

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "rows": [{**row._asdict(), "category": row.category.label} for row in self.rows],
            "fractions": [
                {"k": k, "metric": metric, "test": test, **fracs}
                for (k, metric, test), fracs in sorted(self.fractions().items())
            ],
        }


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
    _check_alpha(alpha)
    # a depth, metric or test given twice is one condition
    k_values, tests = list(dict.fromkeys(k_values)), list(dict.fromkeys(tests))
    for test in tests:
        _check_test(test)
    # a bare family name ("P", "RBP0.8") tracks the sweep depth; a full
    # label ("P@5") keeps its own depth at every k
    plan = []
    for m in metrics:
        if isinstance(m, str) and "@" not in m:
            parse_metric(f"{m}@1")  # validate the family up front
            plan.append(m)
        else:
            plan.append(_as_metric(m))
    if not plan or not tests or not k_values:
        raise ValueError("k_values, metrics, and tests must all be non-empty")
    collection = _collection(runs, qrels, k_values)
    pairs = list(itertools.combinations(range(len(runs)), 2))
    blocks = _pair_blocks(collection, pairs)
    rows = []
    for k in k_values:
        specs = list(dict.fromkeys(parse_metric(f"{m}@{k}") if isinstance(m, str) else m
                                   for m in plan))
        scores = {spec: _score_matrix(collection, k, spec) for spec in specs}
        ipso_p = [None] * len(pairs)
        metric_p = {cell: [None] * len(pairs) for cell in itertools.product(specs, tests)}
        for members, codes, outcomes in _evaluate(collection, blocks, k, scores, tests):
            for i, ni, ns in zip(members, *_group_counts(codes)[:, [_NI, _NS]].T.tolist()):
                ipso_p[i] = _ipso_p(ni, ns)
            for cell, outcome in outcomes.items():
                for i, p in zip(members, outcome.p_value.tolist() if outcome else ()):
                    metric_p[cell][i] = p
        cells = [(spec.label, test) for spec, test in metric_p]
        for (x, y), innate, *cell_p in zip(pairs, ipso_p, *metric_p.values()):
            innate_significant = innate is not None and innate < alpha
            for (label, test), p in zip(cells, cell_p):
                rows.append(SweepRow(collection.tags[x], collection.tags[y], k, label, test, p,
                                     innate, AgreementCategory.from_flags(
                                         p is not None and p < alpha, innate_significant)))
    return SweepResult(rows=tuple(rows), alpha=alpha)


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
    spec = _as_metric(metric)
    collection = _collection(runs, qrels, [spec.depth])
    scored = collection.relevant >= 1
    if not scored.any():
        raise ValueError("no topics with relevant documents to score")
    scores = _score_matrix(collection, spec.depth, spec)[:, scored]
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

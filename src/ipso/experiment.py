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
from dataclasses import dataclass
from typing import IO, Iterable, NamedTuple, Sequence, Union

import numpy as np

from . import _bits
from .enumeration import CategoryCounts
from .metrics import MetricSpec, TopicContext, evaluate, parse_metric
from .serp import (
    GROUP_TABLE_ORDER,
    Serp,
    TopicGroup,
    Trajectory,
    classify_group,
    group_sort_key,
    trajectory,
)
from .stats import (
    TestResult,
    UndefinedTestError,
    sign_test,
    sign_test_diffs,
    t_test_paired,
    wilcoxon_signed_rank,
)
from .trecio import Qrels, RunFile, build_serps, distinct_runs, topic_sort_key

METRIC_TESTS = {
    "t": t_test_paired,
    "wilcoxon": wilcoxon_signed_rank,
    "sign": sign_test_diffs,
}

DEFAULT_ALPHA = 0.05

DAGGER, DOUBLE_DAGGER = "†", "‡"


def _as_metric(metric: Union[MetricSpec, str]) -> MetricSpec:
    return metric if isinstance(metric, MetricSpec) else parse_metric(metric)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")


def _check_test(test: str) -> None:
    if test not in METRIC_TESTS:
        raise ValueError(f"unknown test {test!r}; choose from {sorted(METRIC_TESTS)}")


def _evaluation_topics(runs: Sequence[RunFile], judged: set) -> list:
    """Topics to evaluate: judged topics retrieved by at least one of runs."""
    return sorted(set().union(*(run.entries for run in runs)) & judged, key=topic_sort_key)


class _Collection(NamedTuple):
    """Every run's binary relevance over the evaluation topics, in topic order."""

    topics: list
    rel: dict  # system tag -> (topics x depth) int8 matrix; all-0 rows for absent topics
    serps: dict  # (system tag, k) -> depth-k Serp per topic, built on first use
    scores: dict  # (system tag, k, metric label) -> {topic: score}, computed on first use


def _collection(runs: Sequence[RunFile], qrels: Qrels, k_values: Sequence[int],
                judged: set) -> _Collection:
    """One pass over the runs, reading only the first max(k) documents of each ranking."""
    if min(k_values) < 1:
        raise ValueError(f"k must be >= 1, got {min(k_values)}")
    depth = max(k_values)
    runs = distinct_runs(runs)
    topics = _evaluation_topics(runs, judged)
    grades = qrels.by_topic()
    rel = {}
    for run in runs:
        matrix = rel[run.system_tag] = np.zeros((len(topics), depth), dtype=np.int8)
        for row, t in zip(matrix, topics):
            judged_docs = grades[t]
            bits = [judged_docs.get(e.doc_id, 0) >= 1 for e in run.ranking(t)[:depth]]
            row[:len(bits)] = bits
    return _Collection(topics, rel, {}, {})


def _group_tally(bits_a: np.ndarray, bits_b: np.ndarray) -> dict:
    """TopicGroup -> count of row pairs in that group."""
    counts = np.bincount(_bits.group_codes(bits_a, bits_b), minlength=5)
    return {g: int(n) for g, n in zip(GROUP_TABLE_ORDER, counts)}


def _pair_topics(run_a: RunFile, run_b: RunFile, judged: set) -> list:
    """A pair's evaluation topics, warning for each run about those it lacks."""
    topics = _evaluation_topics([run_a, run_b], judged)
    if not topics:
        raise ValueError(f"runs {run_a.system_tag} and {run_b.system_tag} share no judged topics")
    for run in (run_a, run_b):
        missing = [t for t in topics if t not in run.entries]
        if missing:
            warnings.warn(
                f"system {run.system_tag}: {len(missing)} evaluated topic(s) absent from the "
                "run; scored as all-0 SERPs",
                stacklevel=3,
            )
    return topics


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


def _scores_for(collection: _Collection, tag: str, k: int, metric: MetricSpec,
                rel_counts: dict) -> dict:
    """topic -> one system's depth-k score on each topic with a relevant document."""
    if (tag, k) not in collection.serps:
        collection.serps[(tag, k)] = [Serp(row) for row in collection.rel[tag][:, :k].tolist()]
    key = (tag, k, metric.label)
    if key not in collection.scores:
        collection.scores[key] = {
            t: evaluate(metric, serp, TopicContext(rel_counts[t]))
            for t, serp in zip(collection.topics, collection.serps[(tag, k)])
            if rel_counts[t] >= 1
        }
    return collection.scores[key]


def _pair_report(
    tag_a: str,
    tag_b: str,
    collection: _Collection,
    topics: Sequence[str],
    groups: dict,
    rel_counts: dict,
    k: int,
    metric: MetricSpec,
    test: str,
    alpha: float,
) -> ComparisonReport:
    zero_rel = tuple(t for t in topics if rel_counts[t] == 0)
    scored = [t for t in topics if rel_counts[t] >= 1]
    scores_a = _scores_for(collection, tag_a, k, metric, rel_counts)
    scores_b = _scores_for(collection, tag_b, k, metric, rel_counts)
    diffs = [scores_a[t] - scores_b[t] for t in scored]

    if scored:
        mean_a = sum(scores_a[t] for t in scored) / len(scored)
        mean_b = sum(scores_b[t] for t in scored) / len(scored)
        effect = mean_b - mean_a
    else:
        mean_a = mean_b = effect = None

    try:
        metric_result = METRIC_TESTS[test](diffs)
    except UndefinedTestError:
        metric_result = None

    ni, ns = groups[TopicGroup.SEPARABLE_NI], groups[TopicGroup.SEPARABLE_NS]
    ipso_result = sign_test(ni, ns) if ni + ns else None

    metric_p = metric_result.p_value if metric_result else None
    ipso_p = ipso_result.p_value if ipso_result else None
    significant = metric_p is not None and metric_p < alpha
    corroborated = significant and ipso_p is not None and ipso_p < alpha

    return ComparisonReport(
        system_a=tag_a,
        system_b=tag_b,
        k=k,
        metric=metric,
        test=test,
        alpha=alpha,
        n_topics=len(topics),
        n_scored_topics=len(scored),
        mean_a=mean_a,
        mean_b=mean_b,
        effect_size=effect,
        metric_p=metric_p,
        metric_statistic=metric_result.statistic if metric_result else None,
        metric_degenerate=bool(metric_result.degenerate) if metric_result else False,
        ipso_counts=groups,
        ipso_p=ipso_p,
        metric_significant=significant,
        ipso_corroborated=corroborated,
        zero_relevant_topics=zero_rel,
    )


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
    judged = set(qrels.topics())
    collection = _collection([run_a, run_b], qrels, [k], judged)
    topics = _pair_topics(run_a, run_b, judged)
    groups = _group_tally(collection.rel[run_a.system_tag], collection.rel[run_b.system_tag])
    return _pair_report(
        run_a.system_tag, run_b.system_tag, collection, topics, groups,
        qrels.relevant_counts(), k, spec, test, alpha,
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
    serp_set = build_serps([run_a, run_b], qrels, k)
    topics = _pair_topics(run_a, run_b, set(qrels.topics()))
    rel_counts = qrels.relevant_counts()

    rows = []
    for t in topics:
        serp_a = serp_set.serp_or_empty(run_a.system_tag, t)
        serp_b = serp_set.serp_or_empty(run_b.system_tag, t)
        traj = trajectory(serp_a, serp_b)
        ctx = TopicContext(rel_counts.get(t, 0))
        diffs = {
            spec.label: evaluate(spec, serp_a, ctx) - evaluate(spec, serp_b, ctx)
            for spec in specs
        }
        rows.append(TopicRow(
            topic_id=t,
            serp_a=serp_a.bitstring,
            serp_b=serp_b.bitstring,
            trajectory=traj,
            group=classify_group(serp_a, serp_b, k),
            score_diffs=diffs,
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
        grouped: dict = {}
        for row in self.rows:
            grouped.setdefault((row.k, row.metric, row.test), []).append(row)
        out = {}
        for key, rows in grouped.items():
            n = len(rows)
            tally = {cat: 0 for cat in AgreementCategory}
            for row in rows:
                tally[row.category] += 1
            fracs = {cat.label: tally[cat] / n for cat in AgreementCategory}
            fracs["metric_total"] = fracs["Both:Yes"] + fracs["Metric:Yes"]
            fracs["ipso_total"] = fracs["Both:Yes"] + fracs["Metric:No"]
            fracs["n_pairs"] = n
            out[key] = fracs
        return out

    def write_csv(self, stream: IO[str]) -> None:
        writer = csv.writer(stream)
        writer.writerow(("system_a", "system_b", "k", "metric", "test",
                         "metric_p", "ipso_p", "category"))
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
            "rows": [
                {
                    "system_a": row.system_a, "system_b": row.system_b,
                    "k": row.k, "metric": row.metric, "test": row.test,
                    "metric_p": row.metric_p, "ipso_p": row.ipso_p,
                    "category": row.category.label,
                }
                for row in self.rows
            ],
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
    if len(runs) < 2:
        raise ValueError("sweep needs at least two runs")
    _check_alpha(alpha)
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
    rel_counts = qrels.relevant_counts()
    judged = set(qrels.topics())
    collection = _collection(runs, qrels, k_values, judged)
    row_of = {t: i for i, t in enumerate(collection.topics)}
    pairs = []
    for x, y in itertools.combinations(runs, 2):
        topics = _pair_topics(x, y, judged)
        pairs.append((x.system_tag, y.system_tag, topics, [row_of[t] for t in topics]))
    rows = []
    for k in k_values:
        specs = [
            parse_metric(f"{m}@{k}") if isinstance(m, str) else m for m in plan
        ]
        for tag_x, tag_y, topics, at in pairs:
            groups = _group_tally(collection.rel[tag_x][at, :k], collection.rel[tag_y][at, :k])
            for spec in specs:
                for test in tests:
                    report = _pair_report(
                        tag_x, tag_y, collection, topics, groups,
                        rel_counts, k, spec, test, alpha,
                    )
                    ipso_significant = report.ipso_p is not None and report.ipso_p < alpha
                    rows.append(SweepRow(
                        system_a=report.system_a,
                        system_b=report.system_b,
                        k=k,
                        metric=spec.label,
                        test=test,
                        metric_p=report.metric_p,
                        ipso_p=report.ipso_p,
                        category=AgreementCategory.from_flags(
                            report.metric_significant, ipso_significant),
                    ))
    return SweepResult(rows=tuple(rows), alpha=alpha)


def category_fractions(runs: Sequence[RunFile], qrels: Qrels, k: int) -> CategoryCounts:
    """Pair-relationship tallies over every (topic, unordered system pair).

    Aggregates the innate comparison across all SERP-vs-SERP pairs in a
    collection of runs, mirroring the enumeration-table format but over
    observed data: total = judged topics x n(n-1)/2 pairs.
    """
    if len(runs) < 2:
        raise ValueError("category_fractions needs at least two runs")
    collection = _collection(runs, qrels, [k], set(qrels.topics()))
    if not collection.topics:
        raise ValueError("no judged topics in the supplied runs")
    tally = np.zeros(4, dtype=np.int64)
    for bits_x, bits_y in itertools.combinations(collection.rel.values(), 2):
        tally += np.bincount(_bits.classify_pair_rows(bits_x, bits_y), minlength=4)
    eq, ni, ns, xx = (int(x) for x in tally)
    n_pairs = len(runs) * (len(runs) - 1) // 2
    return CategoryCounts(
        k=k, equal=eq, separable=ni + ns, non_separable=xx,
        total=len(collection.topics) * n_pairs, mode="exact",
    )


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
    collection = _collection(runs, qrels, [spec.depth], set(qrels.topics()))
    rel_counts = qrels.relevant_counts()
    if not any(rel_counts[t] >= 1 for t in collection.topics):
        raise ValueError("no topics with relevant documents to score")
    scores = {run.system_tag: _scores_for(collection, run.system_tag, spec.depth, spec, rel_counts)
              for run in runs}
    return {tag: sum(s.values()) / len(s) for tag, s in scores.items()}


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

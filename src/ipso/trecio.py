"""TREC run and qrels ingestion, binarization, and depth-k SERP assembly.

Run lines carry six whitespace-separated fields (topic, literal Q0,
document, rank, score, system tag); qrels lines carry four (topic,
iteration, document, grade).  Rankings are rebuilt from the score field
-- descending, ties broken by document id descending -- because rank
columns in the wild are unreliable; a strict mode honours them instead.
"""

from __future__ import annotations

import csv
import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby, islice, repeat
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import IO, Iterable, NamedTuple, Union

import numpy as np

from .serp import Serp

#: Documents retained per topic after ordering, unless overridden.
DEFAULT_TRUNCATION = 100

SERPSET_CSV_HEADER = ("system", "topic", "bitstring")


class TrecParseError(ValueError):
    """Malformed run or qrels input; the message names the offending line."""


class RunEntry(NamedTuple):
    doc_id: str
    rank: int
    score: float


def topic_sort_key(topic_id: str):
    """Numeric order for all-digit topic ids, lexicographic otherwise."""
    if topic_id.isdigit():
        return (0, int(topic_id), topic_id)
    return (1, 0, topic_id)


@dataclass(frozen=True)
class RunFile:
    """One system's ranked document lists, one list per topic."""

    system_tag: str
    entries: dict  # topic_id -> tuple of RunEntry, already ordered and truncated
    truncation: int = DEFAULT_TRUNCATION

    def topics(self) -> list:
        return sorted(self.entries, key=topic_sort_key)

    def ranking(self, topic_id: str) -> tuple:
        return self.entries.get(topic_id, ())


Source = Union[str, Path, IO[str]]


#: Records split into tokens at a time; bounds the token objects alive at once.
_CHUNK = 1 << 12


def _records(source: Source, n_fields: int, layout: str):
    """Columnar tokenizer shared by the run and qrels parsers.

    The source is read once as bytes (text is encoded to UTF-8) and must
    be valid UTF-8.  Lines end at \\n, \\r\\n or a lone \\r; fields are
    separated by ASCII whitespace; blank lines are skipped.  Returns
    (chunks, tokens_at, lines, misfit): chunks yields (first record
    index, columns of bytes tokens); tokens_at(records, j) lists field j
    of the given records; lines[i] is record i's 1-based line number.
    Records stop before the first line with another field count; misfit
    lists it as a problem at index len(records), which every problem a
    caller finds in the records precedes.
    """
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    else:
        data = source.read().encode("utf-8", "surrogatepass")
    buf = np.frombuffer(data, dtype=np.uint8)
    crs = np.flatnonzero(buf == 13)
    lone_crs = crs[buf[np.minimum(crs + 1, len(buf) - 1)] != 10]
    breaks = np.sort(np.concatenate((np.flatnonzero(buf == 10), lone_crs)))
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = np.searchsorted(breaks, exc.start) + 1
            raise TrecParseError(f"line {line}: not valid UTF-8") from None
    # space[i + 1]: byte i is 9-13 or 32, the whitespace bytes.split() uses
    space = np.empty(len(buf) + 1, dtype=bool)
    space[0] = True
    np.less(buf - np.uint8(9), 5, out=space[1:])
    space[1:] |= buf == 32
    # where each token starts, then len(buf), where the last token's span ends
    bounds = np.append(np.flatnonzero(space[:-1] > space[1:]), len(buf))
    del space
    line_begins = np.concatenate(([0], breaks + 1))
    counts = np.diff(np.searchsorted(bounds, line_begins), append=len(bounds) - 1)
    misfit = np.flatnonzero((counts != 0) & (counts != n_fields))[:1]
    record_lines = np.flatnonzero(counts[: misfit[0] if misfit.size else None])
    begins = line_begins[record_lines]
    ends = np.append(breaks, len(buf))[record_lines]
    problem = [(len(begins), 0, f"expected {n_fields} fields ({layout}), got {counts[line]}")
               for line in misfit.tolist()]

    def chunks():
        for lo in range(0, len(begins), _CHUNK):
            tokens = data[begins[lo]:ends[min(lo + _CHUNK, len(ends)) - 1]].split()
            yield lo, [tokens[j::n_fields] for j in range(n_fields)]

    def tokens_at(records, j: int) -> list:
        at = np.asarray(records, dtype=np.int64) * n_fields + j
        return [data[a:b].rstrip() for a, b in zip(bounds[at].tolist(), bounds[at + 1].tolist())]

    return chunks(), tokens_at, np.append(record_lines, misfit) + 1, problem


def _numbers(convert, tokens: list, lo: int, problems: list, rank: int, what: str):
    """convert of each token as an array, up to a problem at the first token it rejects."""
    try:
        return np.fromiter(map(convert, tokens), np.int64 if convert is int else float, len(tokens))
    except (ValueError, OverflowError):  # a token convert rejects, or an int past 64 bits
        values: list = []
    try:
        values.extend(map(convert, tokens))  # keeps the values before a failure
    except ValueError:
        problems.append((lo + len(values), rank, what.format(tokens[len(values)].decode())))
    return np.array(values, dtype=object if convert is int else float)  # big ints stay exact


@contextmanager
def _gc_held():
    """Hold the cyclic collector: the parsers build many tuples and no cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _first_repeat(items):
    """Index of the first item equal to an earlier one, or None."""
    seen = set()
    for index, item in enumerate(items):
        if item in seen:
            return index
        seen.add(item)


def _raise_first(problems: list, lines) -> None:
    """Raise the (record index, rank, message) problem on the earliest line and rank."""
    if problems:
        index, _, message = min(problems)
        raise TrecParseError(f"line {lines[index]}: {message}")


@_gc_held()
def parse_run(
    source: Source,
    truncate: int = DEFAULT_TRUNCATION,
    strict_ranks: bool = False,
) -> RunFile:
    """Parse a TREC run; blank lines are ignored.

    Entries are grouped per topic and ordered by score descending with
    document id descending on ties (or by the rank column when
    strict_ranks is set), then truncated to the first `truncate` >= 1.
    Every line must carry the same system tag, and scores must be finite.
    """
    if truncate < 1:
        raise ValueError(f"truncate must be >= 1, got {truncate}")
    chunks, tokens_at, lines, misfit = _records(source, 6, "topic Q0 doc rank score tag")
    topic_ids, tag, problems = {}, None, []
    codes, pairs, ranks, scores = [], [], [], []
    for lo, (topics, _, docs, rank_tokens, score_tokens, tags) in chunks:
        runs = [(topic_ids.setdefault(t, len(topic_ids)), len(list(g))) for t, g in groupby(topics)]
        codes.append(np.repeat(*np.array(runs, dtype=np.int64).T))
        pairs.append(np.fromiter(map(hash, zip(topics, docs)), np.int64, len(topics)))
        ranks.append(_numbers(int, rank_tokens, lo, problems, 0, "rank {!r} is not an integer"))
        scores.append(_numbers(float, score_tokens, lo, problems, 1, "score {!r} is not numeric"))
        for index in np.flatnonzero(~np.isfinite(scores[-1]))[:1].tolist():
            text = score_tokens[index].decode()
            problems.append((lo + index, 1, f"score {text!r} is not finite"))
        tag = tag or tags[0]
        if tags.count(tag) < len(tags):
            index = next(i for i, other in enumerate(tags) if other != tag)
            message = f"system tag {tags[index].decode()!r} differs from {tag.decode()!r}"
            problems.append((lo + index, 3, message))
        if problems:
            break
    topic_code = np.concatenate(codes or [np.zeros(0, np.int64)])
    pair = np.sort(np.concatenate(pairs or [topic_code]))
    if (pair[1:] == pair[:-1]).any():  # equal (topic, doc) hashes: confirm on the ids
        index = _first_repeat(zip(topic_code.tolist(), tokens_at(range(len(pair)), 2)))
        if index is not None:
            doc = tokens_at([index], 2)[0].decode()
            topic = list(topic_ids)[topic_code[index]].decode()
            problems.append((index, 2, f"duplicate document {doc!r} for topic {topic}"))
    _raise_first(problems or misfit, lines)
    if tag is None:
        raise TrecParseError("run contains no entries")
    ranks, scores = np.concatenate(ranks), np.concatenate(scores)
    key = ranks if strict_ranks else -scores
    if key.dtype == object:  # ranks beyond 64 bits: clipping keeps the order up to ties
        key = np.clip(key, -(2**63), 2**63 - 1).astype(np.int64)
    # Per topic, keep the first `truncate` rows of the numeric order plus
    # every row tied with the last of them; doc ids then break the ties.
    order, size = np.argsort(topic_code, kind="stable"), np.bincount(topic_code)
    ordered, starts = key[order], np.cumsum(size) - size
    cuts = np.maximum.reduceat(ordered, starts)
    for t in np.flatnonzero(size > truncate).tolist():
        cuts[t] = np.partition(ordered[starts[t]:starts[t] + size[t]], truncate - 1)[truncate - 1]
    kept = order[ordered <= np.repeat(cuts, size)]
    kept_entries = map(tuple.__new__, repeat(RunEntry), zip(
        map(bytes.decode, tokens_at(kept, 2)), ranks[kept].tolist(), scores[kept].tolist()
    ))
    sort_key = itemgetter(1, 0) if strict_ranks else itemgetter(2, 0)  # (rank|score, doc_id)
    entries = {}
    for topic_id, n in zip(topic_ids, np.bincount(topic_code[kept]).tolist()):
        ranking = sorted(islice(kept_entries, n), key=sort_key, reverse=not strict_ranks)
        entries[topic_id.decode()] = tuple(ranking[:truncate])
    return RunFile(system_tag=tag.decode(), entries=entries, truncation=truncate)


def write_run(run: RunFile, stream: IO[str]) -> None:
    """Serialize a RunFile in TREC format; re-parsing restores it exactly."""
    for topic_id in run.topics():
        for entry in run.ranking(topic_id):
            stream.write(
                f"{topic_id} Q0 {entry.doc_id} {entry.rank} {entry.score!r} "
                f"{run.system_tag}\n"
            )


@dataclass(frozen=True)
class Qrels:
    """Relevance judgments: raw integer grade per (topic, document)."""

    judgments: dict  # (topic_id, doc_id) -> grade

    @cached_property
    def _by_topic(self) -> dict:
        """topic_id -> {doc_id: grade}, built on first use in one pass over the judgments."""
        grades: dict = {}
        for (topic_id, doc_id), grade in self.judgments.items():
            grades.setdefault(topic_id, {})[doc_id] = grade
        return grades

    @cached_property
    def _relevant(self) -> dict:
        return {t: sum(g >= 1 for g in docs.values()) for t, docs in self._by_topic.items()}

    def topics(self) -> list:
        return sorted(self._by_topic, key=topic_sort_key)

    def grade(self, topic_id: str, doc_id: str, default: int | None = None):
        return self.judgments.get((topic_id, doc_id), default)

    def by_topic(self) -> MappingProxyType:
        """topic_id -> {doc_id: grade}, as read-only views of the one shared index."""
        return MappingProxyType({t: MappingProxyType(docs) for t, docs in self._by_topic.items()})

    def relevant_count(self, topic_id: str) -> int:
        """Number of documents judged relevant (grade >= 1) for a topic."""
        return self._relevant.get(topic_id, 0)

    def relevant_counts(self) -> dict:
        """topic_id -> count of documents judged relevant."""
        return dict(self._relevant)


def binarize(grade: int) -> int:
    """Collapse a raw grade to binary relevance: 1 iff grade >= 1."""
    return 1 if grade >= 1 else 0


@_gc_held()
def parse_qrels(source: Source) -> Qrels:
    """Parse a qrels file: four fields per line, grades kept raw."""
    chunks, _, lines, misfit = _records(source, 4, "topic iter doc grade")
    keys, grades, problems = [], [], []
    for lo, (topics, _, docs, tokens) in chunks:
        keys += zip(map(bytes.decode, topics), map(bytes.decode, docs))
        grades += _numbers(int, tokens, lo, problems, 0, "grade {!r} is not an integer").tolist()
        if problems:
            break
    judgments = dict(zip(keys, grades))
    index = _first_repeat(keys) if len(judgments) < len(keys) else None
    if index is not None:
        problems.append((index, 1, "duplicate judgment for ({}, {})".format(*keys[index])))
    _raise_first(problems or misfit, lines)
    return Qrels(judgments=judgments)


class CoverageEntry(NamedTuple):
    """Judgment coverage of one ranked list."""

    first_unjudged_rank: int | None
    n_unjudged: int
    n_retrieved: int


@dataclass(frozen=True)
class SerpSet:
    """Depth-k binary SERPs for every (system, topic), plus coverage counts."""

    k: int
    serps: dict  # (system_tag, topic_id) -> Serp of length exactly k
    coverage: dict = field(default_factory=dict)  # (system_tag, topic_id) -> CoverageEntry

    def systems(self) -> list:
        return sorted({s for s, _ in self.serps})

    def topics(self) -> list:
        return sorted({t for _, t in self.serps}, key=topic_sort_key)

    def get(self, system_tag: str, topic_id: str) -> Serp | None:
        return self.serps.get((system_tag, topic_id))

    def serp_or_empty(self, system_tag: str, topic_id: str) -> Serp:
        """The stored SERP, or an all-0 SERP for a missing (system, topic)."""
        found = self.serps.get((system_tag, topic_id))
        return found if found is not None else Serp((0,) * self.k)

    def write_csv(self, stream: IO[str]) -> None:
        writer = csv.writer(stream)
        writer.writerow(SERPSET_CSV_HEADER)
        for system_tag, topic_id in sorted(
            self.serps, key=lambda key: (key[0], topic_sort_key(key[1]))
        ):
            writer.writerow([system_tag, topic_id, self.serps[(system_tag, topic_id)].bitstring])


def distinct_runs(runs: Union[RunFile, Iterable[RunFile]]) -> list:
    """One run per system tag, in first-seen order.

    A run given twice is one input; two different runs may not share a tag.
    """
    by_tag: dict = {}
    for run in [runs] if isinstance(runs, RunFile) else runs:
        if by_tag.setdefault(run.system_tag, run) != run:
            raise ValueError(f"two different runs share the system tag {run.system_tag!r}")
    return list(by_tag.values())


def build_serps(
    runs: Union[RunFile, Iterable[RunFile]],
    qrels: Qrels,
    k: int,
    include_qrels_only_topics: bool = False,
) -> SerpSet:
    """Materialize depth-k SERPs from one or more runs against judgments.

    Position i of a SERP is 1 exactly when the i-th ranked document is
    judged with grade >= 1; unjudged documents count as non-relevant and
    short lists are padded with 0s.  Topics that appear only in the qrels
    are added as all-0 SERPs when include_qrels_only_topics is set.  Runs
    are keyed by system tag, so two different runs may not share one.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    grades = qrels.by_topic()
    serps: dict = {}
    coverage: dict = {}
    for run in distinct_runs(runs):
        topics = set(run.entries)
        if include_qrels_only_topics:
            topics |= set(grades)
        for topic_id in topics:
            ranking = run.ranking(topic_id)
            judged = grades.get(topic_id, {})
            found = [judged.get(entry.doc_id) for entry in ranking]
            unjudged = [rank for rank, grade in enumerate(found, start=1) if grade is None]
            bits = [0 if grade is None else binarize(grade) for grade in found[:k]]
            serps[(run.system_tag, topic_id)] = Serp(bits + [0] * (k - len(bits)))
            coverage[(run.system_tag, topic_id)] = CoverageEntry(
                unjudged[0] if unjudged else None, len(unjudged), len(ranking))
    return SerpSet(k=k, serps=serps, coverage=coverage)


class CoverageRow(NamedTuple):
    system: str
    topic: str
    first_unjudged_rank: int | None
    n_unjudged: int
    n_retrieved: int


@dataclass(frozen=True)
class CoverageReport:
    """Judgment coverage per ranked list, with corpus-level aggregates.

    A "list" is one (system, topic) ranking.  Aggregates: the fraction of
    lists containing at least one unjudged document, the mean rank of the
    first unjudged document over lists that have one, and the mean number
    of unjudged documents per list.
    """

    rows: tuple

    @property
    def n_lists(self) -> int:
        return len(self.rows)

    @property
    def fraction_with_unjudged(self) -> float:
        if not self.rows:
            return 0.0
        return sum(1 for r in self.rows if r.n_unjudged) / len(self.rows)

    @property
    def mean_first_unjudged_rank(self) -> float | None:
        ranks = [r.first_unjudged_rank for r in self.rows if r.first_unjudged_rank]
        if not ranks:
            return None
        return sum(ranks) / len(ranks)

    @property
    def mean_unjudged_per_list(self) -> float:
        if not self.rows:
            return 0.0
        return sum(r.n_unjudged for r in self.rows) / len(self.rows)

    def to_dict(self) -> dict:
        return {
            "n_lists": self.n_lists,
            "fraction_with_unjudged": self.fraction_with_unjudged,
            "mean_first_unjudged_rank": self.mean_first_unjudged_rank,
            "mean_unjudged_per_list": self.mean_unjudged_per_list,
            "rows": [row._asdict() for row in self.rows],
        }

    def write_csv(self, stream: IO[str]) -> None:
        writer = csv.writer(stream)
        writer.writerow(CoverageRow._fields)
        for row in self.rows:
            writer.writerow([
                row.system, row.topic,
                "" if row.first_unjudged_rank is None else row.first_unjudged_rank,
                row.n_unjudged, row.n_retrieved,
            ])

    @classmethod
    def merged(cls, reports: Iterable["CoverageReport"]) -> "CoverageReport":
        rows: list = []
        for report in reports:
            rows.extend(report.rows)
        return cls(rows=tuple(rows))


def judgment_coverage(
    serp_set: SerpSet,
    runs: Union[RunFile, Iterable[RunFile], None] = None,
    qrels: Qrels | None = None,
) -> CoverageReport:
    """Coverage report for a SerpSet, recomputed from its runs when given.

    With runs and qrels supplied, coverage is rebuilt from the rankings
    directly; otherwise the counters recorded at build time are used.
    """
    if runs is not None and qrels is not None:
        serp_set = build_serps(runs, qrels, serp_set.k)
    rows = [
        CoverageRow(system, topic, entry.first_unjudged_rank,
                    entry.n_unjudged, entry.n_retrieved)
        for (system, topic), entry in sorted(
            serp_set.coverage.items(),
            key=lambda item: (item[0][0], topic_sort_key(item[0][1])),
        )
    ]
    return CoverageReport(rows=tuple(rows))

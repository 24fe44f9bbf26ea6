"""TREC run and qrels ingestion, binarization, and depth-k SERP assembly.

Run lines carry six whitespace-separated fields (topic, literal Q0,
document, rank, score, system tag); qrels lines carry four (topic,
iteration, document, grade).  Rankings are rebuilt from the score field
-- descending, ties broken by document id descending -- because rank
columns in the wild are unreliable; a strict mode honours them instead.

Runs and qrels are held as numpy columns.  A document id is a row of a
NUL-padded bytes column beside its length, because numpy drops trailing
NULs when it reads such a row; ids are UTF-8, so their byte order is
their code-point order.  One lexsort orders the kept rows of all of a
run's topics.  The qrels sort their (topic, document) keys once, and
grading a run is one searchsorted of its keys against them.  `RunFile.entries`
and `Qrels.judgments` are built from the columns only when asked for.
"""

from __future__ import annotations

import csv
import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby, islice, repeat
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
    """Numeric order for all-decimal topic ids, lexicographic otherwise."""
    if topic_id.isdecimal():
        return (0, int(topic_id), topic_id)
    return (1, 0, topic_id)


def _bytes_column(ids: Iterable[str]) -> tuple:
    """(NUL-padded bytes column, byte lengths) of str ids."""
    ids = [i.encode("utf-8", "surrogatepass") for i in ids]
    return np.array(ids, dtype=bytes), np.fromiter(map(len, ids), np.int64, len(ids))


def _decoded(docs: np.ndarray, lengths: np.ndarray) -> list:
    """A bytes column's ids as str, their trailing NULs restored from their lengths."""
    return [doc.ljust(n, b"\0").decode("utf-8", "surrogatepass")
            for doc, n in zip(docs.tolist(), lengths.tolist())]


class RunColumns(NamedTuple):
    """A run's kept rows, topic after topic, each topic's rows in ranking order."""

    topics: list  # topic ids, first seen first
    offsets: np.ndarray  # topics[i] ranks rows offsets[i]:offsets[i + 1]
    docs: np.ndarray  # doc ids as UTF-8, a NUL-padded bytes ("S") column
    lengths: np.ndarray  # bytes per doc id, trailing NULs included
    ranks: np.ndarray
    scores: np.ndarray


class RunFile:
    """One system's ranked document lists, one list per topic.

    `entries` maps topic_id -> tuple of RunEntry, already ordered and
    truncated; `columns` holds the same rows.  A run is made from one of
    the two and builds the other on first use.
    """

    def __init__(self, system_tag: str, entries: dict, truncation: int = DEFAULT_TRUNCATION):
        self.system_tag, self.entries, self.truncation = system_tag, entries, truncation

    @classmethod
    def _of_columns(cls, system_tag: str, columns: RunColumns, truncation: int) -> "RunFile":
        run = cls.__new__(cls)
        run.system_tag, run.columns, run.truncation = system_tag, columns, truncation
        return run

    @cached_property
    def entries(self) -> dict:
        c = self.columns
        rows = map(tuple.__new__, repeat(RunEntry), zip(
            _decoded(c.docs, c.lengths), c.ranks.tolist(), c.scores.tolist()))
        return {t: tuple(islice(rows, n)) for t, n in zip(c.topics, np.diff(c.offsets).tolist())}

    @cached_property
    def columns(self) -> RunColumns:
        rows = [entry for ranking in self.entries.values() for entry in ranking]
        sizes = [len(ranking) for ranking in self.entries.values()]
        return RunColumns(list(self.entries), np.cumsum([0, *sizes]), *_bytes_column(
            e.doc_id for e in rows), np.array([e.rank for e in rows], dtype=object),
            np.array([e.score for e in rows], dtype=float))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RunFile):
            return NotImplemented
        return other is self or (self.system_tag, self.truncation, self.entries) == (
            other.system_tag, other.truncation, other.entries)

    def topics(self) -> list:
        return sorted(self.columns.topics, key=topic_sort_key)

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
    (chunks, column, lines, misfit): chunks yields (first record index,
    columns of bytes tokens); column(records, j) gives field j of the given
    records as (bytes column, lengths); lines[i] is record i's 1-based line
    number.  Records stop before the first line with another field count;
    misfit lists it as a problem at index len(records), which every
    problem a caller finds in the records precedes.
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

    def column(records, j: int) -> tuple:
        at = records * n_fields + j
        starts, stops = bounds[at], bounds[at + 1]
        while (space := (buf[stops - 1] - np.uint8(9) < 5) | (buf[stops - 1] == 32)).any():
            stops[space] -= 1  # a span ends in the whitespace before the next token
        lengths = stops - starts
        cells = np.zeros((len(at), max(int(lengths.max(initial=0)), 1)), np.uint8)
        for offset in range(cells.shape[1]):
            rows = np.flatnonzero(lengths > offset)
            cells[rows, offset] = buf[starts[rows] + offset]
        return cells.view(f"S{cells.shape[1]}").ravel(), lengths

    return chunks(), column, np.append(record_lines, misfit) + 1, problem


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
    chunks, column, lines, misfit = _records(source, 6, "topic Q0 doc rank score tag")
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
        docs, lengths = column(np.arange(len(pair)), 2)
        index = _index(topic_code, docs, lengths)[2]
        if index is not None:
            doc = _decoded(docs[[index]], lengths[[index]])[0]
            topic = list(topic_ids)[topic_code[index]].decode()
            problems.append((index, 2, f"duplicate document {doc!r} for topic {topic}"))
    _raise_first(problems or misfit, lines)
    if tag is None:
        raise TrecParseError("run contains no entries")
    ranks, scores = np.concatenate(ranks), np.concatenate(scores)
    key = ranks if strict_ranks else -scores
    if key.dtype == object:  # ranks beyond 64 bits: their order, as int64
        key = np.unique(key, return_inverse=True)[1]
    # Per topic, keep the first `truncate` rows of the numeric order plus
    # every row tied with the last of them; doc ids then break the ties.
    order, size = np.argsort(topic_code, kind="stable"), np.bincount(topic_code)
    ordered, starts = key[order], np.cumsum(size) - size
    cuts = np.maximum.reduceat(ordered, starts)
    for t in np.flatnonzero(size > truncate).tolist():
        cuts[t] = np.partition(ordered[starts[t]:starts[t] + size[t]], truncate - 1)[truncate - 1]
    kept = order[ordered <= np.repeat(cuts, size)]
    docs, lengths = column(kept, 2)
    topic = topic_code[kept]
    # One sort of the kept rows by topic, key and doc id; an id sorts by its
    # padded bytes, then its length.  Scores descend: the sort ascends with
    # the topics negated, and is read backwards.
    if strict_ranks:
        rows = np.lexsort((lengths, docs, key[kept], topic))
    else:
        rows = np.lexsort((lengths, docs, scores[kept], -topic))[::-1]
    size = np.bincount(topic, minlength=len(size))
    rows = rows[np.arange(len(rows)) - np.repeat(np.cumsum(size) - size, size) < truncate]
    columns = RunColumns([t.decode() for t in topic_ids],
                         np.concatenate(([0], np.cumsum(np.minimum(size, truncate)))),
                         docs[rows], lengths[rows], ranks[kept[rows]], scores[kept[rows]])
    return RunFile._of_columns(tag.decode(), columns, truncate)


def write_run(run: RunFile, stream: IO[str]) -> None:
    """Serialize a RunFile in TREC format; re-parsing restores it exactly."""
    for topic_id in run.topics():
        for entry in run.ranking(topic_id):
            stream.write(
                f"{topic_id} Q0 {entry.doc_id} {entry.rank} {entry.score!r} "
                f"{run.system_tag}\n"
            )


def _keys(codes: np.ndarray, docs: np.ndarray, lengths: np.ndarray, width: int) -> np.ndarray:
    """(topic code, doc id) keys as one bytes column.

    A key is the code, the id cut or NUL-padded to width, then the id's
    length, so no cut or trailing NUL makes two ids' keys equal; keys of
    ids no longer than width sort in (code, id) order.
    """
    n = len(codes)
    cells = np.zeros((n, width + 8), np.uint8)
    cells[:, :4] = codes.astype(">u4").view(np.uint8).reshape(n, 4)
    shown = min(width, docs.itemsize)
    cells[:, 4:4 + shown] = docs.view(np.uint8).reshape(n, docs.itemsize)[:, :shown]
    cells[:, -4:] = lengths.astype(">u4").view(np.uint8).reshape(n, 4)
    return cells.view(f"S{width + 8}").ravel()


class QrelsColumns(NamedTuple):
    """Judgments as arrays: row i grades docs[i] for topics[codes[i]] with grades[i]."""

    topics: list  # topic ids, first seen first
    codes: np.ndarray
    docs: np.ndarray  # as RunColumns.docs
    lengths: np.ndarray
    grades: np.ndarray
    keys: np.ndarray  # every row's (code, doc id) key, sorted
    order: np.ndarray  # the row of each key


def _index(codes: np.ndarray, docs: np.ndarray, lengths: np.ndarray) -> tuple:
    """(sorted keys of the rows, the row of each key, the first row to repeat an earlier one)."""
    keys = _keys(codes, docs, lengths, docs.itemsize)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    repeats = order[1:][keys[1:] == keys[:-1]]  # the stable sort puts a repeat after its first
    return keys, order, (int(repeats.min()) if repeats.size else None)


class Qrels:
    """Relevance judgments: raw integer grade per (topic, document).

    Held as QrelsColumns; `judgments`, (topic_id, doc_id) -> grade, and
    the per-topic index behind by_topic() are built on first use.
    """

    def __init__(self, judgments: dict):
        topic_ids: dict = {}
        rows = [(topic_ids.setdefault(t, len(topic_ids)), d, g) for (t, d), g in judgments.items()]
        codes, docs, grades = zip(*rows) if rows else ((), (), ())
        codes, (docs, lengths) = np.array(codes, dtype=np.int64), _bytes_column(docs)
        self.columns = QrelsColumns(list(topic_ids), codes, docs, lengths, np.array(grades),
                                    *_index(codes, docs, lengths)[:2])

    @classmethod
    def _of_columns(cls, columns: QrelsColumns) -> "Qrels":
        qrels = cls.__new__(cls)
        qrels.columns = columns
        return qrels

    @cached_property
    def judgments(self) -> dict:
        c = self.columns
        keys = zip(map(c.topics.__getitem__, c.codes.tolist()), _decoded(c.docs, c.lengths))
        return dict(zip(keys, c.grades.tolist()))

    @cached_property
    def _by_topic(self) -> dict:
        """topic_id -> {doc_id: grade}, built on first use in one pass over the judgments."""
        grades: dict = {}
        for (topic_id, doc_id), grade in self.judgments.items():
            grades.setdefault(topic_id, {})[doc_id] = grade
        return grades

    @cached_property
    def _relevant(self) -> dict:
        c = self.columns
        relevant = c.codes[np.asarray(c.grades >= 1, dtype=bool)]
        return dict(zip(c.topics, np.bincount(relevant, minlength=len(c.topics)).tolist()))

    def __eq__(self, other) -> bool:
        return self.judgments == other.judgments if isinstance(other, Qrels) else NotImplemented

    def topics(self) -> list:
        return sorted(self.columns.topics, key=topic_sort_key)

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
    chunks, column, lines, misfit = _records(source, 4, "topic iter doc grade")
    topic_ids, codes, grades, problems = {}, [], [], []
    for lo, (topics, _, _, tokens) in chunks:
        runs = [(topic_ids.setdefault(t, len(topic_ids)), len(list(g))) for t, g in groupby(topics)]
        codes.append(np.repeat(*np.array(runs, dtype=np.int64).T))
        grades.append(_numbers(int, tokens, lo, problems, 0, "grade {!r} is not an integer"))
        if problems:
            break
    code = np.concatenate(codes or [np.zeros(0, np.int64)])
    topics, (docs, lengths) = [t.decode() for t in topic_ids], column(np.arange(len(code)), 2)
    keys, order, index = _index(code, docs, lengths)
    if index is not None:
        doc = _decoded(docs[[index]], lengths[[index]])[0]
        problems.append((index, 1, f"duplicate judgment for ({topics[code[index]]}, {doc})"))
    _raise_first(problems or misfit, lines)
    grades = np.concatenate(grades or [code])
    return Qrels._of_columns(QrelsColumns(topics, code, docs, lengths, grades, keys, order))


class CoverageEntry(NamedTuple):
    """Judgment coverage of one ranked list."""

    first_unjudged_rank: int | None
    n_unjudged: int
    n_retrieved: int


def grade_runs(runs: list, qrels: Qrels, topics: list, depth: int) -> tuple:
    """Grade distinct runs' first `depth` documents per topic: (bits, present, coverage).

    bits is (runs x topics x depth) int8, 1 where a document is judged
    with grade >= 1; unjudged documents count as non-relevant and short
    lists leave 0s.  present (runs x topics) marks the topics a run ranks.
    coverage (runs x topics x 3) holds the rank of the first unjudged
    document (0 if none), the unjudged count and the documents graded.
    Each run's (topic, doc) keys are found in the qrels' by one searchsorted.
    """
    q = qrels.columns
    code, index = {t: i for i, t in enumerate(q.topics)}, {t: i for i, t in enumerate(topics)}
    bits = np.zeros((len(runs), len(topics), depth), np.int8)
    present, coverage = np.zeros(bits.shape[:2], bool), np.zeros((*bits.shape[:2], 3), np.int64)
    for s, run in enumerate(runs):
        c = run.columns
        # (run topic, column in topics, qrels code): a topic the qrels lack gets a code no key has
        mine = [(i, index[t], code.get(t, len(code))) for i, t in enumerate(c.topics) if t in index]
        listed, at, topic_code = np.array(mine, np.int64).reshape(-1, 3).T
        n = np.minimum(np.diff(c.offsets)[listed], depth)
        rank = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        rows = np.repeat(c.offsets[listed], n) + rank
        keys = _keys(np.repeat(topic_code, n), c.docs[rows], c.lengths[rows], q.docs.itemsize)
        found = np.searchsorted(q.keys, keys)
        judged = found < len(q.keys)
        judged[judged] = q.keys[found[judged]] == keys[judged]
        topic, hit, missing = np.repeat(at, n), np.flatnonzero(judged), np.flatnonzero(~judged)
        bits[s, topic[hit], rank[hit]] = q.grades[q.order[found[hit]]] >= 1
        firsts = missing[np.unique(topic[missing], return_index=True)[1]]
        coverage[s, topic[firsts], 0] = rank[firsts] + 1
        coverage[s, :, 1] = np.bincount(topic[missing], minlength=len(topics))
        present[s, at], coverage[s, at, 2] = True, n
    return bits, present, coverage


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
    Coverage counts each whole retained list.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    runs = distinct_runs(runs)
    topics = set().union(*(run.columns.topics for run in runs))
    judged = set(qrels.columns.topics) if include_qrels_only_topics else set()
    topics = sorted(topics | judged, key=topic_sort_key)
    depth = max([k, *(int(np.diff(run.columns.offsets).max(initial=0)) for run in runs)])
    bits, present, counts = grade_runs(runs, qrels, topics, depth)
    serps, coverage = {}, {}
    for s, t in np.argwhere(present | np.isin(topics, list(judged))).tolist():
        key = (runs[s].system_tag, topics[t])
        serps[key] = Serp(bits[s, t, :k].tolist())
        first, unjudged, retrieved = counts[s, t].tolist()
        coverage[key] = CoverageEntry(first or None, unjudged, retrieved)
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

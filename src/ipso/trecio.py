"""TREC run and qrels ingestion, binarization, and depth-k SERP assembly.

Run lines carry six whitespace-separated fields (topic, literal Q0,
document, rank, score, system tag); qrels lines carry four (topic,
iteration, document, grade).  Rankings are rebuilt from the score field
-- descending, ties broken by document id descending -- because rank
columns in the wild are unreliable; a strict mode honours them instead.

A file is read once, as bytes, and no reader sees anything else.
numpy's C text reader reads valid UTF-8 as latin-1: a thread writes the
bytes into a pipe that loadtxt opens by its /dev/fd name, so loadtxt
reads text in chunks, with \\r\\n and a lone \\r turned into line
breaks.  A plain line loop reads the rest and every file whose records
fail a check (a line, number, tag or score it would judge, a repeated
document), so every error comes from it and names the line.  One
ordering step serves both readers.

Runs and qrels are held as numpy columns.  A document id is a row of a
NUL-padded bytes column beside its length, because numpy drops trailing
NULs when it reads such a row; ids are UTF-8, so their byte order is
their code-point order.  One lexsort orders the kept rows of all of a
run's topics by score, and a second orders each score tie by doc id.
The qrels sort their (topic, document) keys once, and grading a run is
one searchsorted of its keys against them.  `RunFile.entries` and
`Qrels.judgments` are built from the columns only when asked for.
"""

from __future__ import annotations

import csv
import io
import math
import os
import threading
import warnings
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat
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


def _bytes_column(ids) -> tuple:
    """(NUL-padded bytes column, byte lengths) of bytes ids."""
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
        docs = [e.doc_id.encode("utf-8", "surrogatepass") for e in rows]
        return RunColumns(list(self.entries), np.cumsum([0, *sizes]), *_bytes_column(docs),
                          np.array([e.rank for e in rows], dtype=object),
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


def _read(source: Source) -> bytes:
    """The source's bytes, which must be UTF-8; text is encoded to UTF-8."""
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    else:
        data = source.read().encode("utf-8", "surrogatepass")
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = data[:exc.start]
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise TrecParseError(f"line {line}: not valid UTF-8") from None
    return data


#: Where open files are named by number; the C reader opens a pipe's read end there.
_FDS = "/dev/fd"


def _feed(data: bytes, fd: int) -> None:
    """Write data to fd and close it."""
    view = memoryview(data)
    try:
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


@contextmanager
def _fed(data: bytes):
    """What np.loadtxt reads data from: the name of a pipe a thread fills, else a BytesIO.

    Given a name, loadtxt reads text in chunks; given a file object, one
    line at a time.  The pipe is drained before it is closed, so the
    thread never writes to a closed pipe and ends, however loadtxt ends.
    """
    if not os.path.isdir(_FDS):
        yield io.BytesIO(data)
        return
    read, write = os.pipe()
    feeder = threading.Thread(target=_feed, args=(data, write))
    try:
        feeder.start()
    except BaseException:
        os.close(write)
        os.close(read)
        raise
    try:
        yield f"{_FDS}/{read}"
    finally:
        while os.read(read, 1 << 16):
            pass
        os.close(read)
        feeder.join()


def _loaded(data: bytes, fields: dict):
    """(records, topic ids, topic codes) by numpy's C text reader, or None where it may differ.

    loadtxt reads the bytes as latin-1, one character per byte, so an "S"
    field (bytes) gets UTF-8 back unchanged.  With comments off, on UTF-8
    (_read checks it) without NUL, \\x1c-\\x1f, 0x85 or 0xA0 (more
    separators to numpy; the last two occur inside UTF-8 characters),
    loadtxt splits lines and converts numbers as the line loop does, or
    raises.  An "S" field holds n + 8 bytes, n its longest token in the
    first 64 KiB, rounded up to a multiple of 8: so every field starts on
    an 8-byte boundary.  A token that fills its field may be cut: such
    fields are read once more, as wide as the longest line.
    """
    sample, n = data[:1 << 16].split(), len(fields)
    if len(sample) < n or any(byte in data for byte in b"\0\x1c\x1d\x1e\x1f\x85\xa0"):
        return None
    widths = {name: max(map(len, sample[j::n])) + 8
              for j, (name, kind) in enumerate(fields.items()) if kind == "S"}
    for _ in range(2):
        dtype = np.dtype([(name, f"S{-(-widths[name] // 8) * 8}" if name in widths else kind)
                          for name, kind in fields.items()])
        try:  # where numpy still reads "1.0" into an integer field, it warns: an error here
            with warnings.catch_warnings(), _fed(data) as text:
                warnings.simplefilter("error", DeprecationWarning)
                records = np.loadtxt(text, dtype, comments=None, ndmin=1, encoding="latin-1")
        except (ValueError, DeprecationWarning):  # a line or token the line loop judges
            return None
        cells = records.view(np.uint8).reshape(len(records), dtype.itemsize)
        full = [name for name in widths
                if cells[:, dtype.fields[name][1] + dtype[name].itemsize - 1].any()]
        if not full:
            break
        buf = np.frombuffer(data, np.uint8)
        longest = np.diff(np.flatnonzero((buf == 10) | (buf == 13)), prepend=-1, append=len(buf))
        widths.update(dict.fromkeys(full, int(longest.max())))
    else:
        return None
    # topic codes in first-seen order, one lookup per run of equal ids
    topics, ids, first = records["topic"], {}, np.zeros(len(records), bool)
    first[0] = True
    for word in _words(topics):
        first[1:] |= word[1:] != word[:-1]
    starts = np.flatnonzero(first)
    codes = [ids.setdefault(t, len(ids)) for t in topics[starts].tolist()]
    return records, [t.decode() for t in ids], np.repeat(codes, np.diff(starts, append=len(topics)))


def _trimmed(docs: np.ndarray) -> tuple:
    """(bytes column cut to its longest id, byte lengths) of ids that hold no NUL."""
    lengths = np.strings.str_len(docs)
    return docs.astype(f"S{max(int(lengths.max(initial=0)), 1)}"), lengths


def _words(column: np.ndarray) -> np.ndarray:
    """A loaded bytes column (a multiple of 8 bytes wide) as rows of 64-bit words, in place."""
    return column[:, None].view(np.uint64).T


def _id_hashes(codes: np.ndarray, docs: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row's (topic code, doc id)."""
    hashes = codes.astype(np.uint64)
    hashes *= np.uint64(0x9E3779B97F4A7C15)
    for word in _words(docs):
        hashes ^= word
        hashes *= np.uint64(0xBF58476D1CE4E5B9)
        hashes ^= hashes >> np.uint64(31)
    return hashes


def _lines(data: bytes, n_fields: int, layout: str):
    """(line number, bytes fields) of each line that is not blank.

    Lines end at \\n, \\r\\n or a lone \\r; fields are separated by ASCII
    whitespace.  A line with another field count raises.
    """
    lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    for number, line in enumerate(lines, start=1):
        if fields := line.split():
            if len(fields) != n_fields:
                raise TrecParseError(
                    f"line {number}: expected {n_fields} fields ({layout}), got {len(fields)}")
            yield number, fields


def _number(convert, token: bytes, line: int, message: str):
    """convert(token), else a TrecParseError naming the line and, in message, the token."""
    try:
        return convert(token)
    except ValueError:
        raise TrecParseError(f"line {line}: " + message.format(token.decode())) from None


def _integers(values) -> np.ndarray:
    """values as int64, or as Python ints where one is past 64 bits."""
    try:
        return np.array(values, np.int64)
    except OverflowError:  # np.array alone would make floats of ints past int64 beside small ones
        return np.array(values, dtype=object)


def _run_loaded(data: bytes):
    """(tag, topic ids, topic codes, ranks, scores, docs of rows) by the C reader, or None.

    None also on a second tag, a score that is not finite or two equal (topic, doc id) hashes.
    """
    loaded = _loaded(data, dict(topic="S", q0="S0", doc="S", rank="i8", score="f8", tag="S"))
    if loaded is None:
        return None
    records, topics, code = loaded
    tags, scores, docs = records["tag"], records["score"], records["doc"]
    hashes = _id_hashes(code, docs)
    hashes.sort()
    repeat = (hashes[1:] == hashes[:-1]).any()
    tagged = not any((word != word[0]).any() for word in _words(tags))
    if not tagged or not np.isfinite(scores).all() or repeat:
        return None
    return tags[0], topics, code, records["rank"], scores, lambda rows: _trimmed(docs[rows])


def _run_lines(data: bytes) -> tuple:
    """_run_loaded's tuple by the line loop; the first line at fault raises."""
    topic_ids, seen, tag = {}, defaultdict(set), None  # seen[code]: that topic's doc ids
    codes, docs, ranks, scores = [], [], [], []
    for number, (topic, _, doc, rank, score, line_tag) in _lines(
            data, 6, "topic Q0 doc rank score tag"):
        ranks.append(_number(int, rank, number, "rank {!r} is not an integer"))
        scores.append(_number(float, score, number, "score {!r} is not numeric"))
        if not math.isfinite(scores[-1]):
            raise TrecParseError(f"line {number}: score {score.decode()!r} is not finite")
        code = topic_ids.setdefault(topic, len(topic_ids))
        if doc in seen[code]:
            raise TrecParseError(
                f"line {number}: duplicate document {doc.decode()!r} for topic {topic.decode()}")
        seen[code].add(doc)
        tag = tag or line_tag
        if line_tag != tag:
            raise TrecParseError(
                f"line {number}: system tag {line_tag.decode()!r} differs from {tag.decode()!r}")
        codes.append(code)
        docs.append(doc)
    if tag is None:
        raise TrecParseError("run contains no entries")
    docs, lengths = _bytes_column(docs)
    return (tag, [t.decode() for t in topic_ids], np.array(codes, np.int64), _integers(ranks),
            np.array(scores), lambda rows: (docs[rows], lengths[rows]))


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
    data = _read(source)
    tag, topics, topic_code, ranks, scores, docs_of = _run_loaded(data) or _run_lines(data)
    del data  # the C reader's columns are copies: free the file's bytes before ordering
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
    topic, key = topic_code[kept], key[kept]
    rows = np.lexsort((key, topic))  # by topic, then key: a score descends as its negation ascends
    tied = (topic[rows[1:]] == topic[rows[:-1]]) & (key[rows[1:]] == key[rows[:-1]])
    docs, lengths = docs_of(kept)
    if tied.any():  # sort each tie by doc id, then length: descending, or ascending when strict
        at = np.flatnonzero(np.append(tied, False) | np.insert(tied, 0, False))
        group, ties = np.cumsum(np.insert(~tied, 0, True))[at], rows[at]
        by_id = np.lexsort((lengths[ties], docs[ties], group if strict_ranks else -group))
        rows[at] = ties[by_id if strict_ranks else by_id[::-1]]
    size = np.bincount(topic, minlength=len(size))
    rows = rows[np.arange(len(rows)) - np.repeat(np.cumsum(size) - size, size) < truncate]
    columns = RunColumns(topics, np.concatenate(([0], np.cumsum(np.minimum(size, truncate)))),
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
    """(sorted keys of the rows, the row of each key)."""
    keys = _keys(codes, docs, lengths, docs.itemsize)
    order = np.argsort(keys, kind="stable")
    return keys[order], order


class Qrels:
    """Relevance judgments: raw integer grade per (topic, document).

    Held as QrelsColumns; `judgments`, (topic_id, doc_id) -> grade, and
    the per-topic index behind by_topic() are built on first use.
    """

    def __init__(self, judgments: dict):
        topic_ids: dict = {}
        rows = [(topic_ids.setdefault(t, len(topic_ids)), d.encode("utf-8", "surrogatepass"), g)
                for (t, d), g in judgments.items()]
        codes, docs, grades = zip(*rows) if rows else ((), (), ())
        codes, (docs, lengths) = np.array(codes, dtype=np.int64), _bytes_column(docs)
        self.columns = QrelsColumns(list(topic_ids), codes, docs, lengths, _integers(grades),
                                    *_index(codes, docs, lengths))

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


def parse_qrels(source: Source) -> Qrels:
    """Parse a qrels file: four fields per line, grades kept raw."""
    data = _read(source)
    if (loaded := _loaded(data, dict(topic="S", iter="S0", doc="S", grade="i8"))) is not None:
        (records, topics, code), (docs, lengths) = loaded, _trimmed(loaded[0]["doc"])
        keys, order = _index(code, docs, lengths)
        if not (keys[1:] == keys[:-1]).any():  # else the line loop names the repeat's line
            grades = records["grade"].copy()
            return Qrels._of_columns(QrelsColumns(topics, code, docs, lengths, grades, keys, order))
    judgments: dict = {}
    for number, (topic, _, doc, grade) in _lines(data, 4, "topic iter doc grade"):
        grade = _number(int, grade, number, "grade {!r} is not an integer")
        key = topic.decode(), doc.decode()
        if key in judgments:
            raise TrecParseError(f"line {number}: duplicate judgment for ({key[0]}, {key[1]})")
        judgments[key] = grade
    return Qrels(judgments)


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
    """Depth-k binary SERPs for every (system, topic); judgment_coverage reports coverage."""

    k: int
    serps: dict  # (system_tag, topic_id) -> Serp of length exactly k

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
    runs = distinct_runs(runs)
    topics = set().union(*(run.columns.topics for run in runs))
    judged = set(qrels.columns.topics) if include_qrels_only_topics else set()
    topics = sorted(topics | judged, key=topic_sort_key)
    bits, present, _ = grade_runs(runs, qrels, topics, k)
    return SerpSet(k, {(runs[s].system_tag, topics[t]): Serp(bits[s, t].tolist())
                       for s, t in np.argwhere(present | np.isin(topics, list(judged))).tolist()})


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
        """One line per row; csv writes a missing first unjudged rank (None) as empty."""
        writer = csv.writer(stream)
        writer.writerow(CoverageRow._fields)
        writer.writerows(self.rows)


def judgment_coverage(runs: Union[RunFile, Iterable[RunFile]], qrels: Qrels) -> CoverageReport:
    """Judgment coverage of each whole retained list, from one grade_runs pass.

    One row per (run, topic) the run ranks: runs one per system tag, in
    first-seen order (distinct_runs), then topics in topic_sort_key
    order.  A list with every document judged has no first unjudged rank
    (None).  At least one run is required.
    """
    runs = distinct_runs(runs)
    if not runs:
        raise ValueError("judgment coverage needs at least one run")
    topics = sorted(set().union(*(run.columns.topics for run in runs)), key=topic_sort_key)
    depth = max([1, *(int(np.diff(run.columns.offsets).max(initial=0)) for run in runs)])
    _, present, counts = grade_runs(runs, qrels, topics, depth)
    return CoverageReport(tuple(
        CoverageRow(runs[s].system_tag, topics[t], first or None, unjudged, retrieved)
        for (s, t), (first, unjudged, retrieved)
        in zip(np.argwhere(present).tolist(), counts[present].tolist())))

"""Line-by-line reference parsers for TREC runs and qrels.

The tests compare `ipso.trecio`'s columnar parsers with these.  They
follow the same input contract, one line at a time: the input must
be UTF-8; lines end at \\n, \\r\\n or a lone \\r; fields are separated by
ASCII whitespace; numbers are parsed by Python's int and float; scores
must be finite; a run carries one system tag.  On one line the checks
run in the order field count, rank, score, duplicate, system tag.
"""

from __future__ import annotations

import io
import math
from pathlib import Path

from ipso.trecio import DEFAULT_TRUNCATION, Qrels, RunEntry, RunFile, TrecParseError


def _lines(source):
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    else:
        data = source.read().encode("utf-8", "surrogatepass")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise TrecParseError(f"line {line}: not valid UTF-8") from None
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        yield lineno, [field.decode() for field in line.encode().split()]


def parse_run(source, truncate: int = DEFAULT_TRUNCATION, strict_ranks: bool = False) -> RunFile:
    if truncate < 1:
        raise ValueError(f"truncate must be >= 1, got {truncate}")
    system_tag = None
    raw: dict = {}
    seen = set()
    for lineno, fields in _lines(source):
        if not fields:
            continue
        if len(fields) != 6:
            raise TrecParseError(
                f"line {lineno}: expected 6 fields (topic Q0 doc rank score tag), "
                f"got {len(fields)}"
            )
        topic_id, _, doc_id, rank_text, score_text, tag = fields
        try:
            rank = int(rank_text.encode())
        except ValueError:
            raise TrecParseError(f"line {lineno}: rank {rank_text!r} is not an integer") from None
        try:
            score = float(score_text.encode())
        except ValueError:
            raise TrecParseError(f"line {lineno}: score {score_text!r} is not numeric") from None
        if not math.isfinite(score):
            raise TrecParseError(f"line {lineno}: score {score_text!r} is not finite")
        if (topic_id, doc_id) in seen:
            raise TrecParseError(
                f"line {lineno}: duplicate document {doc_id!r} for topic {topic_id}"
            )
        seen.add((topic_id, doc_id))
        if system_tag is None:
            system_tag = tag
        elif tag != system_tag:
            raise TrecParseError(f"line {lineno}: system tag {tag!r} differs from {system_tag!r}")
        raw.setdefault(topic_id, []).append(RunEntry(doc_id, rank, score))
    if system_tag is None:
        raise TrecParseError("run contains no entries")
    entries = {}
    for topic_id, docs in raw.items():
        if strict_ranks:
            docs = sorted(docs, key=lambda e: (e.rank, e.doc_id))
        else:
            docs = sorted(docs, key=lambda e: (e.score, e.doc_id), reverse=True)
        entries[topic_id] = tuple(docs[:truncate])
    return RunFile(system_tag=system_tag, entries=entries, truncation=truncate)


def parse_qrels(source) -> Qrels:
    judgments: dict = {}
    for lineno, fields in _lines(source):
        if not fields:
            continue
        if len(fields) != 4:
            raise TrecParseError(
                f"line {lineno}: expected 4 fields (topic iter doc grade), got {len(fields)}"
            )
        topic_id, _, doc_id, grade_text = fields
        try:
            grade = int(grade_text.encode())
        except ValueError:
            raise TrecParseError(f"line {lineno}: grade {grade_text!r} is not an integer") from None
        if (topic_id, doc_id) in judgments:
            raise TrecParseError(f"line {lineno}: duplicate judgment for ({topic_id}, {doc_id})")
        judgments[(topic_id, doc_id)] = grade
    return Qrels(judgments=judgments)

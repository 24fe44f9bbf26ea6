"""Property tests: the columnar TREC parsers against the line-by-line reference.

Generated files mix score ties, blank and whitespace-only lines, tabs,
every line ending and short topics; malformed files carry one to three
broken lines and must fail on the earliest of them, with the same
message as the reference.  numpy's C reader reads most well-formed
files, ASCII or not; files with a NUL, \\x1c, à (C3 A0) or Å (C3 85)
byte or a number numpy does not read (1_0, a rank past int64), and every
malformed file, go to the line loop.
"""

import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trec_reference
from ipso import trecio
from ipso.serp import Serp
from ipso.trecio import (
    TrecParseError, build_serps, judgment_coverage, parse_qrels, parse_run, topic_sort_key)
from trec_reference import decoded

# PLAIN_* draw what numpy's C reader reads; the rest also what only the line loop reads
PLAIN_IDS = st.text(alphabet="abAB09-#\"", min_size=1, max_size=3)
IDS = st.text(alphabet="abAB09-é€àÅ\x1c\x00", min_size=1, max_size=3)
# ids that end in à (C3 A0) or Å (C3 85), before a separator: numpy would take the last
# byte for one more separator and keep the field count, so only the byte screen catches them
SCREENED_IDS = st.builds(str.__add__, PLAIN_IDS, st.sampled_from(["à", "Å"]))
PLAIN_TOPIC_IDS = st.text(alphabet="0123ab", min_size=1, max_size=3)
TOPIC_IDS = st.text(alphabet="0123ab²", min_size=1, max_size=3)
PLAIN_RANKS = st.one_of(st.integers(-2, 40).map(str), st.sampled_from(["007", "+5"]))
RANKS = st.one_of(PLAIN_RANKS, st.sampled_from(
    ["1_0", "9223372036854775808", "99999999999999999999", "-99999999999999999999"]
))
PLAIN_SCORES = st.one_of(
    st.sampled_from(["0", "0.0", "-0.0", "1", "1.5", "1.50", "-3", "+4.0", "1e2", "100"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
SCORES = st.one_of(PLAIN_SCORES, st.just("7_0"))
SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t ", "\x0b", "\x0c"])
BLANKS = st.sampled_from(["", " ", "\t", " \t  "])
PLAIN_ENDINGS = st.sampled_from(["\n", "\r\n"])
ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])

BAD_RANKS = ["x", "1.5", "1e3", "٣", "0x1", "--1"]
BAD_SCORES = ["x", "1.5.", "٣", "0x1", "1,5", "nan", "NaN", "inf", "-Infinity", "1e999"]


@st.composite
def records(draw, make_record, max_topics=4, max_docs=8):
    """Rows for a few topics, each with unique doc ids, in a shuffled order.

    Three examples in four draw only plain fields; in one of those three,
    doc ids may also end in à or Å.
    """
    kind = draw(st.integers(0, 3))
    plain = kind < 3
    topics = PLAIN_TOPIC_IDS if plain else TOPIC_IDS
    ids = [PLAIN_IDS, PLAIN_IDS, st.one_of(PLAIN_IDS, SCREENED_IDS), IDS][kind]
    rows = []
    for topic in draw(st.lists(topics, min_size=1, max_size=max_topics, unique=True)):
        for doc in draw(st.lists(ids, min_size=1, max_size=max_docs, unique=True)):
            rows.append(make_record(draw, topic, doc, plain))
    return draw(st.permutations(rows))


def _run_record(draw, topic, doc, plain=False):
    ranks, scores = (PLAIN_RANKS, PLAIN_SCORES) if plain else (RANKS, SCORES)
    return [topic, "Q0", doc, draw(ranks), draw(scores), "tag"]


def _qrels_record(draw, topic, doc, plain=False):
    return [topic, "0", doc, str(draw(st.integers(-2, 3)))]


@st.composite
def lines_of(draw, rows, mixed_endings=True):
    """(line bodies, line endings): rows joined by varied whitespace, blank lines between.

    With mixed endings, three examples in four end no line with a lone \\r.
    """
    bodies = []
    for fields in rows:
        while draw(st.integers(0, 3)) == 3:
            bodies.append(draw(BLANKS))
        line = draw(st.sampled_from(["", " ", "\t"])) + fields[0]
        for field in fields[1:]:
            line += draw(SEPARATORS) + field
        bodies.append(line + draw(st.sampled_from(["", " ", "\t"])))
    if mixed_endings:
        pool = ENDINGS if draw(st.integers(0, 3)) == 3 else PLAIN_ENDINGS
        endings = [draw(pool) for _ in bodies]
    else:
        endings = [draw(ENDINGS)] * len(bodies)
    if draw(st.booleans()):
        endings[-1] = ""
    return bodies, endings


def _text(bodies, endings) -> str:
    return "".join(body + ending for body, ending in zip(bodies, endings))


def _dtypes(columns) -> list:
    return [getattr(column, "dtype", None) for column in columns]


def _error(parse, text, **kwargs) -> str:
    with pytest.raises(TrecParseError) as info:
        parse(io.StringIO(text), **kwargs)
    return str(info.value)


def test_run_parser_matches_reference(monkeypatch):
    """Both readers ran: numpy's C reader on most examples, the line loop on the rest."""
    readers = Counter()
    loaded = trecio._run_loaded

    def spy(data):
        result = loaded(data)
        readers["lines" if result is None else "C"] += 1
        return result

    monkeypatch.setattr(trecio, "_run_loaded", spy)
    _run_parser_matches_reference()
    assert readers["C"] > 0 and readers["lines"] > 0


@settings(max_examples=150, deadline=None)
@given(
    rows=records(_run_record),
    data=st.data(),
    truncate=st.integers(1, 10),
)
def _run_parser_matches_reference(rows, data, truncate):
    text = _text(*data.draw(lines_of(rows)))
    expected = trec_reference.parse_run(io.StringIO(text), truncate=truncate)
    actual = parse_run(io.StringIO(text), truncate=truncate)
    assert decoded(actual) == expected and list(decoded(actual)[2]) == list(expected[2])
    # ranks past int64 are kept as Python ints
    assert actual.columns.ranks.dtype in (np.int64, object) and actual.columns.scores.dtype == float


@settings(max_examples=100, deadline=None)
@given(rows=records(_qrels_record), data=st.data())
def test_qrels_parser_matches_reference(rows, data):
    text = _text(*data.draw(lines_of(rows)))
    expected = trec_reference.parse_qrels(io.StringIO(text))
    actual = parse_qrels(io.StringIO(text))
    assert list(decoded(actual).items()) == list(expected.items())


@settings(max_examples=100, deadline=None)
@given(judgments=st.dictionaries(st.one_of(st.tuples(PLAIN_TOPIC_IDS, PLAIN_IDS),
                                           st.tuples(PLAIN_TOPIC_IDS, SCREENED_IDS),
                                           st.tuples(TOPIC_IDS, IDS)), st.integers(-5, 5),
                                 min_size=1))
def test_qrels_round_trip(judgments):
    """Both qrels readers give the judgments back, in columns of one dtype each."""
    text = "".join(f"{topic} 0 {doc} {grade}\n" for (topic, doc), grade in judgments.items())
    parsed = parse_qrels(io.StringIO(text))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trecio, "_loaded", lambda *_: None)
        by_lines = parse_qrels(io.StringIO(text))
    assert decoded(parsed) == decoded(by_lines) == judgments
    assert _dtypes(parsed.columns) == _dtypes(by_lines.columns)


@settings(max_examples=100, deadline=None)
@given(rows=records(_run_record), data=st.data(), k=st.integers(1, 10))
def test_serps_match_a_lookup_per_document(rows, data, k):
    """grade_runs' one searchsorted per run against a dict lookup per ranked document."""
    run = parse_run(io.StringIO(_text(*data.draw(lines_of(rows)))))
    pairs = [(fields[0], fields[2]) for fields in rows]
    pairs += data.draw(st.lists(st.tuples(TOPIC_IDS, IDS), max_size=5))
    judgments = {pair: data.draw(st.integers(-2, 3)) for pair in pairs if data.draw(st.booleans())}
    text = "".join(f"{topic} 0 {doc} {grade}\n" for (topic, doc), grade in judgments.items())
    qrels = parse_qrels(io.StringIO(text))
    serps = build_serps(run, qrels, k)
    coverage = {row.topic: row[2:] for row in judgment_coverage(run, qrels).rows}
    assert list(coverage) == sorted(run.columns.topics, key=topic_sort_key)
    for topic, ranking in decoded(run)[2].items():
        grades = [judgments.get((topic, doc)) for doc, _, _ in ranking]
        bits = [int(grade is not None and grade >= 1) for grade in grades[:k]]
        assert serps.get(run.system_tag, topic) == Serp(bits + [0] * (k - len(bits)))
        unjudged = [rank for rank, grade in enumerate(grades, start=1) if grade is None]
        assert coverage[topic] == (unjudged[0] if unjudged else None, len(unjudged), len(ranking))


def test_serps_match_a_lookup_when_hashes_collide(colliding_hashes, monkeypatch):
    """Under seed 0 every id of a topic hashes alike: qrels with two ids of one topic hash
    again under seed 1, and the rest keep seed 0, where each equal hash must be checked."""
    seeds = Counter()
    index = trecio._index

    def spy(*args):
        result = index(*args)
        seeds[result[0]] += 1
        return result

    monkeypatch.setattr(trecio, "_index", spy)
    test_serps_match_a_lookup_per_document()
    assert seeds[0] > 0 and seeds[1] > 0 and set(seeds) == {0, 1}


def _break_run_line(draw, kind, fields, first):
    fields = list(fields)
    if kind == "fields":
        return fields[:-1] if draw(st.booleans()) else fields + ["extra"]
    if kind == "rank":
        fields[3] = draw(st.sampled_from(BAD_RANKS))
    elif kind == "score":
        fields[4] = draw(st.sampled_from(BAD_SCORES))
    elif kind == "duplicate":
        fields[0], fields[2] = first[0], first[2]
    elif kind == "tag":
        fields[5] = "other"
    else:  # an unpaired surrogate encodes to bytes that are not UTF-8
        fields[2] += "\udcff"
    return fields


def _break_qrels_line(draw, kind, fields, first):
    fields = list(fields)
    if kind == "fields":
        return fields[:-1] if draw(st.booleans()) else fields + ["extra"]
    if kind == "grade":
        fields[3] = draw(st.sampled_from(BAD_RANKS))
    elif kind == "duplicate":
        fields[0], fields[2] = first[0], first[2]
    else:
        fields[2] += "\udcff"
    return fields


@st.composite
def malformed(draw, make_record, kinds, break_line):
    """(text, line expected in the error): one to three rows broken after the first."""
    rows = list(draw(records(make_record, max_topics=3, max_docs=5)))
    rows.append(make_record(draw, "zz", "last"))
    positions = draw(st.lists(st.integers(1, len(rows) - 1), min_size=1, max_size=3, unique=True))
    broken = {}
    for position in positions:
        kind = draw(st.sampled_from(kinds))
        rows[position] = break_line(draw, kind, rows[position], rows[0])
        broken[position] = kind
    bodies, endings = draw(lines_of(rows, mixed_endings=False))
    record_lines = [n for n, body in enumerate(bodies, start=1) if body.strip()]
    utf8 = [p for p in sorted(broken) if broken[p] == "utf8"]
    # invalid UTF-8 is reported before anything else; otherwise the earliest broken line
    position = utf8[0] if utf8 else min(broken)
    return _text(bodies, endings), record_lines[position]


@settings(max_examples=150, deadline=None)
@given(case=malformed(
    _run_record, ["fields", "rank", "score", "duplicate", "tag", "utf8"], _break_run_line
))
def test_malformed_run_names_the_line(case):
    text, line = case
    message = _error(parse_run, text)
    assert message.startswith(f"line {line}:")
    assert message == _error(trec_reference.parse_run, text)


@settings(max_examples=100, deadline=None)
@given(case=malformed(_qrels_record, ["fields", "grade", "duplicate", "utf8"], _break_qrels_line))
def test_malformed_qrels_names_the_line(case):
    text, line = case
    message = _error(parse_qrels, text)
    assert message.startswith(f"line {line}:")
    assert message == _error(trec_reference.parse_qrels, text)

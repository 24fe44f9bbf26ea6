import io
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import trec_reference
from ipso import trecio
from ipso.experiment import compare_systems
from ipso.serp import Serp
from ipso.trecio import (
    TrecParseError,
    build_serps,
    distinct_runs,
    judgment_coverage,
    parse_qrels,
    parse_run,
    topic_sort_key,
)
from trec_reference import decoded

RUN_A = """\
1 Q0 d1 1 9.0 sysA
1 Q0 dX 2 8.0 sysA
1 Q0 d2 3 7.0 sysA
1 Q0 d3 4 6.0 sysA
2 Q0 dY 1 5.0 sysA
2 Q0 d1 2 4.0 sysA
"""

QRELS = """\
1 0 d1 1
1 0 d2 0
1 0 d3 2
2 0 d1 1
3 0 d9 1
"""


def _docs(run, topic: str) -> list:
    """The doc ids a run ranks for a topic, in ranking order."""
    return [doc for doc, _, _ in decoded(run)[2].get(topic, ())]


def _matches(parse, text: str) -> bool:
    """parse (parse_run or parse_qrels) reads text as the line-by-line reference does."""
    reference = getattr(trec_reference, parse.__name__)
    return decoded(parse(io.StringIO(text))) == reference(io.StringIO(text))


class TestParseRun:
    def test_single_line(self):
        run = parse_run(io.StringIO("351 Q0 doc1 1 5.0 sysA\n"))
        assert run.system_tag == "sysA"
        assert decoded(run) == ("sysA", 100, {"351": [("doc1", 1, 5.0)]})

    def test_orders_by_score_not_rank_column(self):
        text = ("1 Q0 low 1 1.0 s\n"
                "1 Q0 high 2 9.0 s\n"
                "1 Q0 mid 3 5.0 s\n")
        run = parse_run(io.StringIO(text))
        assert _docs(run, "1") == ["high", "mid", "low"]

    def test_score_ties_break_by_doc_id_descending(self):
        text = ("1 Q0 aaa 1 5.0 s\n"
                "1 Q0 ccc 2 5.0 s\n"
                "1 Q0 bbb 3 5.0 s\n")
        run = parse_run(io.StringIO(text))
        assert _docs(run, "1") == ["ccc", "bbb", "aaa"]

    def test_truncates_after_sorting(self):
        run = parse_run(io.StringIO(RUN_A), truncate=2)
        assert _docs(run, "1") == ["d1", "dX"]
        assert run.truncation == 2

    def test_field_count_error_names_line(self):
        text = ("1 Q0 d1 1 5.0 s\n"
                "1 Q0 d2 2 4.0\n")
        with pytest.raises(TrecParseError, match="line 2"):
            parse_run(io.StringIO(text))

    def test_blank_lines_skipped_but_counted(self):
        text = ("1 Q0 d1 1 5.0 s\n"
                "\n"
                "1 Q0 d2 2 bad s\n")
        with pytest.raises(TrecParseError, match="line 3"):
            parse_run(io.StringIO(text))

    def test_bad_rank_and_score(self):
        with pytest.raises(TrecParseError, match="rank"):
            parse_run(io.StringIO("1 Q0 d1 x 5.0 s\n"))
        with pytest.raises(TrecParseError, match="score"):
            parse_run(io.StringIO("1 Q0 d1 1 x s\n"))

    def test_duplicate_document_rejected(self):
        text = ("1 Q0 d1 1 5.0 s\n"
                "1 Q0 d1 2 4.0 s\n")
        with pytest.raises(TrecParseError, match="duplicate"):
            parse_run(io.StringIO(text))

    def test_same_document_on_two_topics_allowed(self):
        text = ("1 Q0 d1 1 5.0 s\n"
                "2 Q0 d1 1 4.0 s\n")
        run = parse_run(io.StringIO(text))
        assert run.columns.topics == ["1", "2"]

    def test_empty_input_rejected(self):
        with pytest.raises(TrecParseError, match="no entries"):
            parse_run(io.StringIO(""))
        with pytest.raises(TrecParseError, match="no entries"):
            parse_run(io.StringIO("\n\n"))

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text(RUN_A)
        run = parse_run(path)
        assert run.system_tag == "sysA"
        assert parse_run(str(path)) == run

    def test_utf8_doc_ids_stay_distinct(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_bytes("1 Q0 dé 1 5.0 s\n1 Q0 dè 2 4.0 s\n".encode())
        assert _docs(parse_run(path), "1") == ["dé", "dè"]

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_bytes(b"1 Q0 d1 1 5.0 s\r\n\r\n1 Q0 d\xe9 2 4.0 s\n")
        with pytest.raises(TrecParseError, match="line 3: not valid UTF-8"):
            parse_run(path)

    @pytest.mark.parametrize("score", ["nan", "-NaN", "inf", "-Infinity", "1e999"])
    def test_non_finite_score_rejected(self, score):
        text = f"1 Q0 d1 1 5.0 s\n\n1 Q0 d2 2 {score} s\n"
        with pytest.raises(TrecParseError, match=f"line 3: score '{score}' is not finite"):
            parse_run(io.StringIO(text))

    def test_mixed_system_tags_rejected(self):
        text = "1 Q0 d1 1 5.0 s\n1 Q0 d2 2 4.0 s\n2 Q0 d1 1 4.0 t\n"
        with pytest.raises(TrecParseError, match="line 3: system tag 't' differs from 's'"):
            parse_run(io.StringIO(text))

    def test_line_breaks_and_separators(self):
        # \r\n and a lone \r end lines; \x1c is not a field separator
        text = "1\tQ0 d\x1c1 1 5.0 s\r\n\r1 Q0 d2 2 4.0 s\r1 Q0 d3 x 3.0 s\n"
        with pytest.raises(TrecParseError, match="line 4: rank 'x'"):
            parse_run(io.StringIO(text))
        run = parse_run(io.StringIO(text.replace(" x ", " 3 ")))
        assert _docs(run, "1") == ["d\x1c1", "d2", "d3"]

    def test_earliest_problem_wins(self):
        text = ("1 Q0 d1 1 5.0 s\n"
                "1 Q0 d2 2 4.0 t\n"      # tag
                "1 Q0 d1 3 3.0 s\n"      # duplicate
                "1 Q0 d3 4\n")           # field count
        with pytest.raises(TrecParseError, match="line 2: system tag"):
            parse_run(io.StringIO(text))
        with pytest.raises(TrecParseError, match="line 3: duplicate"):
            parse_run(io.StringIO(text.replace(" t\n", " s\n")))
        with pytest.raises(TrecParseError, match="line 4: expected 6 fields"):
            parse_run(io.StringIO(text.replace(" t\n", " s\n").replace("d1 3", "d4 3")))
        # on one line: field count, rank, score, duplicate, then system tag
        with pytest.raises(TrecParseError, match="line 2: duplicate"):
            parse_run(io.StringIO("1 Q0 d1 1 5.0 s\n1 Q0 d1 2 4.0 t\n"))
        with pytest.raises(TrecParseError, match="line 2: score 'inf'"):
            parse_run(io.StringIO("1 Q0 d1 1 5.0 s\n1 Q0 d1 2 inf t\n"))
        with pytest.raises(TrecParseError, match="line 2: rank 'x'"):
            parse_run(io.StringIO("1 Q0 d1 1 5.0 s\n1 Q0 d1 x y t\n"))
        # a non-finite score before a score that is not a number
        with pytest.raises(TrecParseError, match="line 2: score 'nan' is not finite"):
            parse_run(io.StringIO("1 Q0 d1 1 5.0 s\n1 Q0 d2 2 nan s\n1 Q0 d3 3 x s\n"))

    def test_equal_hashes_are_confirmed_on_the_ids(self):
        expected = parse_run(io.StringIO(RUN_A))
        assert parse_run(io.StringIO(RUN_A)) == expected
        with pytest.raises(TrecParseError, match="line 7: duplicate document 'dY' for topic 2"):
            parse_run(io.StringIO(RUN_A + "2 Q0 dY 3 1.0 sysA\n"))

    def test_equal_c_reader_hashes_leave_the_run_to_the_token_reader(self, monkeypatch):
        expected = parse_run(io.StringIO(RUN_A))
        monkeypatch.setattr(trecio, "_id_hashes", lambda codes, _: np.zeros_like(codes, np.uint64))
        monkeypatch.setattr(trecio, "_run_lines", spy := Spy(trecio._run_lines))
        assert parse_run(io.StringIO(RUN_A)) == expected
        assert spy.calls == 1
        with pytest.raises(TrecParseError, match="line 7: duplicate document 'dY' for topic 2"):
            parse_run(io.StringIO(RUN_A + "2 Q0 dY 3 1.0 sysA\n"))

    @pytest.mark.parametrize("lines", [
        ["1 Q0 d 1 1.0 s", "1 Q0 d\x00 1 1.0 s", "1 Q0 d\x00\x00 3 0.5 s"],
        ["1 Q0 d\x00\x00 3 0.5 s", "1 Q0 d\x00 1 1.0 s", "1 Q0 d 1 1.0 s"],
    ])
    def test_trailing_nul_keeps_ids_apart(self, lines):
        # numpy drops trailing NULs from a bytes column; the length column keeps them
        text = "\n".join(lines) + "\n"
        run = parse_run(io.StringIO(text))
        assert _docs(run, "1") == ["d\x00", "d", "d\x00\x00"]
        qrels = parse_qrels(io.StringIO("1 0 d\x00 1\n1 0 d 0\n1 0 d\x00\x00\x00 1\n"))
        assert decoded(qrels) == {("1", "d\x00"): 1, ("1", "d"): 0, ("1", "d\x00\x00\x00"): 1}
        assert build_serps(run, qrels, 3).get("s", "1") == Serp([1, 0, 0])
        assert judgment_coverage(run, qrels).rows[0].first_unjudged_rank == 3

    def test_ids_longer_than_every_judged_id_are_unjudged(self):
        run = parse_run(io.StringIO("1 Q0 dd 1 2.0 s\n1 Q0 d 2 1.0 s\n"))
        qrels = parse_qrels(io.StringIO("1 0 d 1\n"))
        assert build_serps(run, qrels, 2).get("s", "1") == Serp([0, 1])
        assert judgment_coverage(run, qrels).rows == (("s", "1", 1, 1, 2),)

    def test_score_ties_at_the_cut(self):
        text = "".join(f"1 Q0 {doc} 1 2.0 s\n" for doc in ("b", "d", "a", "c")) + "1 Q0 z 1 3.0 s\n"
        run = parse_run(io.StringIO(text), truncate=3)
        assert _docs(run, "1") == ["z", "d", "c"]

    def test_round_trip_preserves_awkward_scores(self):
        # each score is the float its text names: repr gives the text back
        text = "1 Q0 d1 1 0.1000000000000001 s\n1 Q0 d2 2 -3.5e-07 s\n"
        run = parse_run(io.StringIO(text))
        assert list(map(repr, run.columns.scores.tolist())) == ["0.1000000000000001", "-3.5e-07"]

    @pytest.mark.parametrize("parse", [parse_run, trec_reference.parse_run],
                             ids=["columnar", "reference"])
    @pytest.mark.parametrize("truncate", [0, -1])
    def test_truncate_below_one_rejected(self, parse, truncate):
        with pytest.raises(ValueError, match=f"truncate must be >= 1, got {truncate}"):
            parse(io.StringIO(RUN_A), truncate=truncate)

    def test_every_row_tied_at_the_cut_is_kept(self):
        # two interleaved topics longer than the cut, each cut inside a tie
        # whose largest doc id sits in the middle of the file
        text = "".join(f"{topic} Q0 {doc} {rank} {score} s\n" for topic, doc, rank, score in [
            ("1", "b", 2, 2.0), ("2", "y", 3, 1.0), ("1", "a", 1, 3.0), ("1", "e", 2, 2.0),
            ("2", "z", 3, 1.0), ("1", "c", 2, 2.0), ("2", "x", 1, 1.0), ("1", "d", 2, 2.0),
        ])
        run = parse_run(io.StringIO(text), truncate=2)
        assert _docs(run, "1") == ["a", "e"]
        assert _docs(run, "2") == ["z", "y"]
        expected = trec_reference.parse_run(io.StringIO(text), truncate=2)
        assert decoded(run) == expected

    @pytest.mark.parametrize("truncate", [1, 2, 100])
    def test_equal_keys_on_interleaved_topics_order_as_the_reference(self, truncate):
        # the keys are ranked across all topics at once; each topic's ties must stay together
        text = "".join(f"{topic} Q0 {doc} {rank} {score} s\n" for topic, doc, rank, score in [
            ("1", "b", 2, 5.0), ("3", "b", 2, 5.0), ("2", "a", 2, 5.0), ("1", "c", 1, 7.0),
            ("3", "c", 2, 5.0), ("2", "c", 1, 7.0), ("1", "a", 2, 5.0), ("3", "a", 1, 5.0),
            ("2", "b", 2, -0.0), ("1", "d", 3, 0.0), ("3", "d", 3, 0.0), ("2", "d", 1, 5.0),
        ])
        expected = trec_reference.parse_run(io.StringIO(text), truncate=truncate)
        assert decoded(parse_run(io.StringIO(text), truncate=truncate)) == expected

    @pytest.mark.parametrize("truncate", [1, 2, 100])
    def test_ranks_past_int64_on_interleaved_topics_order_as_the_reference(self, truncate):
        # every score ties, so doc ids order each topic; the rank column keeps its exact ints
        big = ["99999999999999999999", "-99999999999999999999", "9223372036854775808"]
        text = "".join(f"{topic} Q0 {doc} {rank} 1.0 s\n" for topic, doc, rank in [
            ("1", "a", big[0]), ("2", "a", big[1]), ("1", "b", 5), ("2", "b", big[0]),
            ("1", "c", big[2]), ("2", "c", 5), ("1", "d", big[1]), ("2", "d", big[1]),
            ("1", "e", 5), ("2", "e", big[2]),
        ])
        expected = trec_reference.parse_run(io.StringIO(text), truncate=truncate)
        assert decoded(parse_run(io.StringIO(text), truncate=truncate)) == expected

    def test_problem_in_a_later_chunk_precedes_a_field_count_error(self):
        text = "".join(f"1 Q0 d{i} {i} 1.0 s\n" for i in range(6))
        with pytest.raises(TrecParseError, match="line 4: rank 'x'"):
            parse_run(io.StringIO(text.replace("d3 3", "d3 x") + "1 Q0 d9 9\n"))
        qrels = "".join(f"1 0 d{i} 1\n" for i in range(6))
        with pytest.raises(TrecParseError, match="line 5: grade 'x'"):
            parse_qrels(io.StringIO(qrels.replace("d4 1", "d4 x") + "1 0 d9\n"))


class Spy:
    """A callable that counts its calls and hands them on."""

    def __init__(self, function):
        self.function, self.calls = function, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.function(*args, **kwargs)


def _outcome(parse, text):
    """What parse makes of text, as trec_reference gives it, or its TrecParseError's message."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            parsed = parse(io.StringIO(text))
        except TrecParseError as error:
            return str(error)
    return parsed if isinstance(parsed, (tuple, dict)) else decoded(parsed)


#: Over 64 KiB of six-byte ids, which the C reader sizes its doc id field by: 16 bytes.
SAMPLED_RUN = "".join(f"1 Q0 d{i:05} 1 1.0 s\n" for i in range(4000))
SAMPLED_QRELS = "".join(f"1 0 d{i:05} 1\n" for i in range(6000))

RUN_CASES = {
    "hash and quote in ids": '1 Q0 d#1 1 5.0 s\n1 Q0 "d 2 4.0 s\n1 Q0 d" 3 3.0 s\n',
    "x1f between fields": "1 Q0 d1 1 5.0 s\n1 Q0 d2 2 4.0\x1fs\n",
    "x1f inside a tag": "1 Q0 d1 1 5.0 s\x1fs\n",
    "seven fields": "1 Q0 d1 1 5.0 s\n1 Q0 d2 2 4.0 s extra\n",
    "id as wide as its field": SAMPLED_RUN + "1 Q0 " + "x" * 16 + " 2 4.0 s\n",
    "id wider than its field": SAMPLED_RUN + "1 Q0 " + "x" * 40 + " 2 4.0 s\n",
    "NUL ending an id": "1 Q0 d\x00 1 5.0 s\n1 Q0 e 2 4.0 s\n",
    "blank only": " \n\t\n\n",
    "empty": "",
    "rank 1_0": "1 Q0 d1 1 5.0 s\n1 Q0 d2 1_0 4.0 s\n",
    "score nan": "1 Q0 d1 1 5.0 s\n1 Q0 d2 2 nan s\n",
    "lone cr": "1 Q0 d1 1 5.0 s\r1 Q0 d2 2 4.0 s\n",
    "crlf": "1 Q0 d1 1 5.0 s\r\n\r\n1 Q0 d2 2 4.0 s\r\n",
    "two tags": "1 Q0 d1 1 5.0 s\n1 Q0 d2 2 4.0 t\n",
    "duplicate": "1 Q0 d1 1 5.0 s\n2 Q0 d1 1 5.0 s\n1 Q0 d1 2 4.0 s\n",
}

QRELS_CASES = {
    "hash and quote in ids": '1 0 d#1 1\n1 0 "d 0\n1 0 d" 2\n',
    "x1f between fields": "1 0 d1 1\n1 0 d2\x1f1\n",
    "five fields": "1 0 d1 1\n1 0 d2 1 extra\n",
    "id wider than its field": SAMPLED_QRELS + "1 0 " + "x" * 40 + " 1\n",
    "NUL ending an id": "1 0 d\x00 1\n1 0 e 0\n",
    "blank only": " \n\t\n\n",
    "grade 1_0": "1 0 d1 1\n1 0 d2 1_0\n",
    "lone cr": "1 0 d1 1\r1 0 d2 0\n",
    "crlf": "1 0 d1 1\r\n\r\n1 0 d2 0\r\n",
    "duplicate": "1 0 d1 1\n2 0 d1 1\n1 0 d1 0\n",
}


class TestTwoReaders:
    """numpy's C reader and the line loop give the reference's result or error."""

    @pytest.mark.parametrize("text", RUN_CASES.values(), ids=RUN_CASES.keys())
    def test_run_matches_reference(self, text):
        assert _outcome(parse_run, text) == _outcome(trec_reference.parse_run, text)

    @pytest.mark.parametrize("text", QRELS_CASES.values(), ids=QRELS_CASES.keys())
    def test_qrels_matches_reference(self, text):
        assert _outcome(parse_qrels, text) == _outcome(trec_reference.parse_qrels, text)

    def test_plain_ascii_skips_the_token_reader(self, monkeypatch):
        monkeypatch.setattr(trecio, "_lines", spy := Spy(trecio._lines))
        text = RUN_A.replace("d1 1", "d#1 1") + "3 Q0 " + "x" * 9 + " 1 1.0 sysA\r\n"
        assert _matches(parse_run, text)
        text = SAMPLED_RUN + "1 Q0 " + "x" * 15 + " 2 4.0 s\n"  # longer than the sample's ids
        assert _matches(parse_run, text)
        assert _matches(parse_qrels, QRELS)
        assert spy.calls == 0

    def test_utf8_stays_on_the_c_reader(self, monkeypatch):
        monkeypatch.setattr(trecio, "_lines", spy := Spy(trecio._lines))
        run = "1 Q0 é 1 5.0 s€\n1 Q0 €uro 2 4.0 s€\n日本 Q0 日本語 1 3.0 s€\n1 Q0 naïve 3 4.0 s€\n"
        qrels = "1 0 é 1\n1 0 €uro 0\n日本 0 日本語 2\n1 0 naïve 1\n"
        assert _matches(parse_run, run)
        assert _matches(parse_qrels, qrels)
        assert spy.calls == 0

    @pytest.mark.parametrize("char", ["à", "Å"], ids=["C3-A0", "C3-85"])
    def test_utf8_holding_a_numpy_separator_goes_to_the_line_loop(self, monkeypatch, char):
        # read as latin-1, A0 and 85 are whitespace: before a space, numpy would merge the two
        # and cut the id, with no field count to give it away
        monkeypatch.setattr(trecio, "_lines", spy := Spy(trecio._lines))
        run = f"1 Q0 déj{char} 3 0.5 s\n1 Q0 d{char} 2 4.0 s\n2 Q0 d{char} 1 3.0 s\n"
        qrels = f"1 0 déj{char} 1\n1 0 d{char} 0\n2 0 d{char} 2\n"
        assert _matches(parse_run, run)
        assert _matches(parse_qrels, qrels)
        assert spy.calls == 2

    def test_numbers_past_int64_stay_exact_ints(self):
        # beside small ints, np.array would turn 2**63 into a float
        text = "1 Q0 d1 1 5.0 s\n1 Q0 d2 9223372036854775808 4.0 s\n"
        run = parse_run(io.StringIO(text))
        assert decoded(run) == trec_reference.parse_run(io.StringIO(text))
        assert [type(rank) for _, rank, _ in decoded(run)[2]["1"]] == [int, int]
        judgments = {("1", "d1"): 1, ("1", "d2"): 2 ** 63}
        text = "".join(f"{t} 0 {d} {g}\n" for (t, d), g in judgments.items())
        assert decoded(parse_qrels(io.StringIO(text))) == judgments
        assert [type(g) for g in decoded(parse_qrels(io.StringIO(text))).values()] == [int, int]

    @pytest.mark.parametrize("parse, text", [
        (parse_run, RUN_CASES["id as wide as its field"]),
        (parse_run, SAMPLED_RUN + "".join(
            f"{topic} Q0 {doc} 2 4.0 s\n" for topic, doc in [("1", "x" * 100), ("2" * 60, "y")])),
        (parse_qrels, SAMPLED_QRELS + "1 0 " + "x" * 100 + " 1\n"),
    ], ids=["id as wide as its field", "id and topic past their fields", "qrels id past its field"])
    def test_tokens_past_the_sampled_width_are_read_again(self, monkeypatch, parse, text):
        # a field a token fills is read once more, as wide as the longest line
        monkeypatch.setattr(trecio, "_lines", lines := Spy(trecio._lines))
        monkeypatch.setattr(np, "loadtxt", loadtxt := Spy(np.loadtxt))
        assert _matches(parse, text)
        assert (lines.calls, loadtxt.calls) == (0, 2)

    @pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "lone cr"])
    def test_cr_line_endings_stay_on_the_c_reader(self, monkeypatch, ending):
        monkeypatch.setattr(trecio, "_lines", spy := Spy(trecio._lines))
        run, qrels = RUN_A.replace("\n", ending), QRELS.replace("\n", ending + ending)
        assert _matches(parse_run, run)
        assert _matches(parse_qrels, qrels)
        assert spy.calls == 0
        # the line loop names a bad line, counting lines as the reference does
        bad = run + ending + "1 Q0 d9 x 1.0 sysA" + ending
        with pytest.raises(TrecParseError, match="line 8: rank 'x'"):
            parse_run(io.StringIO(bad))
        assert spy.calls == 1
        assert _outcome(trec_reference.parse_run, bad) == "line 8: rank 'x' is not an integer"

    def test_a_numpy_deprecation_leaves_the_file_to_the_token_reader(self, monkeypatch):
        loadtxt = np.loadtxt

        def warns(*args, **kwargs):  # as a numpy that reads "1.0" into an int64 field does
            warnings.warn("a float read as an integer", DeprecationWarning)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", warns)
        monkeypatch.setattr(trecio, "_lines", spy := Spy(trecio._lines))
        assert _matches(parse_run, RUN_A)
        assert spy.calls == 1


#: Over 2 MB of run lines: more than a pipe holds, so the thread that feeds the C reader waits.
LARGE_RUN = "".join(f"1 Q0 d{i} {i} 1.0 s\n" for i in range(100_000))


@pytest.mark.skipif(not os.path.isdir(trecio._FDS), reason="the C reader reads a pipe by name")
class TestFeed:
    """The C reader reads the bytes _read gave, from a pipe a thread fills; nothing is left behind."""

    def test_readers_follow_the_bytes_read_not_the_file(self, monkeypatch, tmp_path):
        run_path, qrels_path = tmp_path / "run.txt", tmp_path / "qrels.txt"
        run_path.write_text(RUN_A)
        qrels_path.write_text(QRELS)
        given = {run_path: RUN_A.replace("sysA", "sysB"), qrels_path: QRELS.replace(" 1\n", " 3\n")}
        monkeypatch.setattr(trecio, "_read", lambda source: given[source].encode())
        monkeypatch.setattr(trecio, "_lines", spy := Spy(trecio._lines))
        assert decoded(parse_run(run_path)) == trec_reference.parse_run(
            io.StringIO(given[run_path]))
        assert decoded(parse_qrels(qrels_path)) == trec_reference.parse_qrels(
            io.StringIO(given[qrels_path]))
        assert spy.calls == 0

    @pytest.mark.parametrize("bad_line", [None, 2, 99_999], ids=["good", "bad near the start",
                                                                "bad near the end"])
    def test_no_thread_or_fd_is_left_behind(self, bad_line):
        lines = LARGE_RUN.splitlines(keepends=True)
        if bad_line is not None:
            lines[bad_line - 1] = lines[bad_line - 1].replace(" 1.0 ", " x ")
        before = threading.active_count(), os.listdir(trecio._FDS)
        if bad_line is None:
            assert len(_docs(parse_run(io.StringIO("".join(lines))), "1")) == 100
        else:
            with pytest.raises(TrecParseError, match=f"line {bad_line}: score 'x'"):
                parse_run(io.StringIO("".join(lines)))
        assert (threading.active_count(), os.listdir(trecio._FDS)) == before

    def test_default_sigpipe_does_not_kill_a_parse_that_fails(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text(LARGE_RUN.replace("1 Q0 d1 1 1.0 s", "1 Q0 d1 1 x s"))
        script = """
import signal, sys
signal.signal(signal.SIGPIPE, signal.SIG_DFL)
from ipso.trecio import TrecParseError, parse_run
try:
    parse_run(sys.argv[1])
except TrecParseError as error:
    print(error)
"""
        src = str(Path(trecio.__file__).resolve().parent.parent)
        path_env = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True,
                                env={**os.environ, "PYTHONPATH": path_env}, text=True, timeout=120)
        assert (result.returncode, result.stdout) == (0, "line 2: score 'x' is not numeric\n")

    def test_without_fd_names_every_parse_is_the_same(self, monkeypatch, tmp_path):
        cases = [(parse_run, text) for text in [RUN_A, LARGE_RUN, *RUN_CASES.values()]]
        cases += [(parse_qrels, text) for text in [QRELS, *QRELS_CASES.values()]]
        fed = [_outcome(parse, text) for parse, text in cases]
        monkeypatch.setattr(trecio, "_FDS", str(tmp_path / "missing"))
        assert [_outcome(parse, text) for parse, text in cases] == fed


class TestQrels:
    def test_parse_and_grades(self):
        qrels = parse_qrels(io.StringIO(QRELS))
        assert decoded(qrels) == {("1", "d1"): 1, ("1", "d2"): 0, ("1", "d3"): 2,
                                   ("2", "d1"): 1, ("3", "d9"): 1}
        assert qrels.topics() == ["1", "2", "3"]

    def test_relevant_counts_use_binary_threshold(self):
        qrels = parse_qrels(io.StringIO(QRELS))
        assert qrels.relevant_counts() == {"1": 2, "2": 1, "3": 1}  # d2 has grade 0

    def test_index_cannot_be_mutated_by_callers(self):
        qrels = parse_qrels(io.StringIO(QRELS))
        qrels.relevant_counts()["1"] = 99
        qrels.topics().append("9")
        assert qrels.relevant_counts() == {"1": 2, "2": 1, "3": 1}
        assert qrels.topics() == ["1", "2", "3"]

    def test_negative_grades_kept_raw(self):
        qrels = parse_qrels(io.StringIO("1 0 d1 -2\n"))
        assert decoded(qrels) == {("1", "d1"): -2}
        assert qrels.relevant_counts() == {"1": 0}

    def test_field_count_error(self):
        with pytest.raises(TrecParseError, match="line 1"):
            parse_qrels(io.StringIO("1 0 d1\n"))

    def test_bad_grade_error(self):
        with pytest.raises(TrecParseError, match="grade"):
            parse_qrels(io.StringIO("1 0 d1 rel\n"))

    def test_errors_name_the_line(self):
        with pytest.raises(TrecParseError, match="line 3: grade 'x'"):
            parse_qrels(io.StringIO("1 0 d1 1\n\n1 0 d2 x\n1 0 d1 0\n"))
        with pytest.raises(TrecParseError, match="line 4: duplicate"):
            parse_qrels(io.StringIO("1 0 d1 1\n\n1 0 d2 1\n1 0 d1 0\n1 0\n"))

    def test_duplicate_judgment_rejected(self):
        text = "1 0 d1 1\n1 0 d1 0\n"
        with pytest.raises(TrecParseError, match="duplicate"):
            parse_qrels(io.StringIO(text))


class TestHashCollisions:
    """Equal hashes of different (topic, doc id) keys never merge or judge documents."""

    def test_qrels_hash_again_under_the_next_seed(self, colliding_hashes, monkeypatch):
        expected = {("1", "d1"): 1, ("1", "d2"): 0, ("1", "d3"): 2, ("2", "d1"): 1, ("3", "d9"): 1}
        by_c_reader = parse_qrels(io.StringIO(QRELS))
        monkeypatch.setattr(trecio, "_loaded", lambda *_: None)  # the line loop reads the rest
        for qrels in (by_c_reader, parse_qrels(io.StringIO(QRELS))):
            assert qrels.columns.seed == 1 and decoded(qrels) == expected
            assert build_serps(parse_run(io.StringIO(RUN_A)), qrels, 4).serps == {
                ("sysA", "1"): Serp([1, 0, 0, 1]), ("sysA", "2"): Serp([0, 1, 0, 0])}

    def test_a_shared_hash_judges_nothing(self, colliding_hashes):
        # one judgment per topic keeps seed 0, under which every ranked id of topic 1 hashes
        # as d2 does and every id of topic 2 as d1 does
        qrels = parse_qrels(io.StringIO("1 0 d2 1\n2 0 d1 1\n"))
        assert qrels.columns.seed == 0
        run = parse_run(io.StringIO(RUN_A))
        assert build_serps(run, qrels, 4).serps == {
            ("sysA", "1"): Serp([0, 0, 1, 0]), ("sysA", "2"): Serp([0, 1, 0, 0])}
        assert judgment_coverage(run, qrels).rows == (
            ("sysA", "1", 1, 3, 4), ("sysA", "2", 1, 1, 2))

    def test_a_duplicate_judgment_still_names_its_line(self, colliding_hashes):
        for text, line in [("1 0 d1 1\n1 0 d2 0\n1 0 d1 0\n", 3), ("1 0 d1 1\n1 0 d1 0\n", 2),
                           ("1 0 d1 1\n2 0 d1 1\n1 0 d2 1\n2 0 d1 0\n", 4)]:
            with pytest.raises(TrecParseError, match=f"line {line}: duplicate judgment"):
                parse_qrels(io.StringIO(text))

    def test_hashes_that_never_part_are_an_error(self, monkeypatch):
        monkeypatch.setattr(trecio, "_id_hashes", lambda codes, *_: codes.astype(np.uint64))
        assert parse_qrels(io.StringIO("1 0 d1 1\n2 0 d1 1\n")).columns.seed == 0
        with pytest.raises(ValueError, match="under each of 16 seeds"):
            parse_qrels(io.StringIO("1 0 d1 1\n1 0 d2 1\n"))

    def test_empty_qrels_and_unjudged_topics_judge_nothing(self):
        run = parse_run(io.StringIO(RUN_A))
        # the same doc ids judged for topics the run does not rank
        for qrels in (parse_qrels(io.StringIO("")),
                      parse_qrels(io.StringIO("3 0 d1 1\n9 0 dY 2\n2x 0 d1 1\n"))):
            bits, present, coverage = trecio.grade_runs([run], qrels, ["1", "2"], 4)
            assert not bits.any() and present.all()
            assert coverage[0].tolist() == [[1, 4, 4], [1, 2, 2]]


class TestTopicSortKey:
    def test_numeric_then_lexicographic(self):
        topics = ["10", "9", "abc", "2", "A1"]
        assert sorted(topics, key=topic_sort_key) == ["2", "9", "10", "A1", "abc"]

    def test_digits_that_are_not_decimal_sort_as_text(self):
        # "²" is a digit to str.isdigit but not a decimal int() accepts
        topics = ["²", "10", "٣", "2"]
        assert sorted(topics, key=topic_sort_key) == ["2", "٣", "10", "²"]
        run = parse_run(io.StringIO("² Q0 d1 1 1.0 s\n2 Q0 d1 1 1.0 s\n"))
        assert sorted(run.columns.topics, key=topic_sort_key) == ["2", "²"]


class TestBuildSerps:
    def test_hand_fixture(self):
        run = parse_run(io.StringIO(RUN_A))
        qrels = parse_qrels(io.StringIO(QRELS))
        serp_set = build_serps(run, qrels, 3)
        # topic 1 top-3 is d1(rel) dX(unjudged) d2(grade 0)
        assert serp_set.get("sysA", "1") == Serp([1, 0, 0])
        # topic 2 is dY(unjudged) d1(rel), padded to depth 3
        assert serp_set.get("sysA", "2") == Serp([0, 1, 0])
        assert serp_set.get("sysA", "3") is None
        assert serp_set.topics() == ["1", "2"]

    def test_depth_truncation(self):
        run = parse_run(io.StringIO(RUN_A))
        qrels = parse_qrels(io.StringIO(QRELS))
        assert build_serps(run, qrels, 4).get("sysA", "1") == Serp([1, 0, 0, 1])
        assert build_serps(run, qrels, 1).get("sysA", "1") == Serp([1])

    def test_coverage_counts_full_retained_list(self):
        run = parse_run(io.StringIO(RUN_A))
        qrels = parse_qrels(io.StringIO(QRELS))
        cov1, cov2 = judgment_coverage(run, qrels).rows
        assert cov1.first_unjudged_rank == 2
        assert cov1.n_unjudged == 1
        assert cov1.n_retrieved == 4
        assert cov2.first_unjudged_rank == 1
        assert cov2.n_retrieved == 2

    def test_multiple_runs(self):
        run_a = parse_run(io.StringIO(RUN_A))
        run_b = parse_run(io.StringIO("1 Q0 d3 1 2.0 sysB\n"))
        qrels = parse_qrels(io.StringIO(QRELS))
        serp_set = build_serps([run_a, run_b], qrels, 2)
        assert list(serp_set.serps) == [("sysA", "1"), ("sysA", "2"), ("sysB", "1")]
        assert serp_set.get("sysB", "1") == Serp([1, 0])

    def test_rejects_two_runs_with_one_tag(self):
        run_a = parse_run(io.StringIO(RUN_A))
        run_b = parse_run(io.StringIO("1 Q0 d3 1 2.0 sysA\n"))
        qrels = parse_qrels(io.StringIO(QRELS))
        with pytest.raises(ValueError, match="system tag 'sysA'"):
            build_serps([run_a, run_b], qrels, 2)
        assert {tag for tag, _ in build_serps([run_a, run_a], qrels, 2).serps} == {"sysA"}

    def test_distinct_runs_keeps_one_run_per_tag_in_first_seen_order(self):
        run_a = parse_run(io.StringIO(RUN_A))
        run_b = parse_run(io.StringIO("1 Q0 d3 1 2.0 sysB\n"))
        again = parse_run(io.StringIO(RUN_A))
        assert distinct_runs([run_b, run_a, run_b, again]) == [run_b, run_a]
        assert distinct_runs(run_a) == [run_a]

    def test_rejects_bad_depth(self):
        run = parse_run(io.StringIO(RUN_A))
        with pytest.raises(ValueError):
            build_serps(run, parse_qrels(io.StringIO(QRELS)), 0)

    def test_topics_sorted_numerically(self):
        run = parse_run(io.StringIO("".join(f"{t} Q0 d1 1 1.0 s\n" for t in ("10", "9", "2"))))
        serp_set = build_serps(run, parse_qrels(io.StringIO("")), 1)
        assert serp_set.topics() == ["2", "9", "10"]


class TestRunIdentity:
    """Two runs are one input exactly when tag, truncation, topics and every column agree."""

    def test_both_readers_give_one_run(self, monkeypatch):
        by_c_reader = parse_run(io.StringIO(RUN_A))
        monkeypatch.setattr(trecio, "_run_loaded", lambda data: None)
        by_line_loop = parse_run(io.StringIO(RUN_A))
        assert by_line_loop == by_c_reader
        assert distinct_runs([by_c_reader, by_line_loop]) == [by_c_reader]

    @pytest.mark.parametrize("text, truncate", [  # truncation 4 cuts no topic of RUN_A
        (RUN_A.replace(" 7.0 ", " 7.5 "), 100), (RUN_A.replace(" d3 ", " d3\0 "), 100), (RUN_A, 4),
    ], ids=["one score", "a trailing NUL", "truncation"])
    def test_runs_that_differ_in_one_field_do_not_share_a_tag(self, text, truncate):
        run, other = parse_run(io.StringIO(RUN_A)), parse_run(io.StringIO(text), truncate)
        assert other != run
        with pytest.raises(ValueError, match="system tag 'sysA'"):
            distinct_runs([run, other])
        with pytest.raises(ValueError, match="system tag 'sysA'"):
            compare_systems(run, other, parse_qrels(io.StringIO(QRELS)), 3)


class TestCoverageReport:
    def _fixture(self):
        return parse_run(io.StringIO(RUN_A)), parse_qrels(io.StringIO(QRELS))

    def test_aggregates(self):
        report = judgment_coverage(*self._fixture())
        assert report.n_lists == 2
        assert report.fraction_with_unjudged == 1.0
        assert report.mean_first_unjudged_rank == 1.5
        assert report.mean_unjudged_per_list == 1.0

    def test_fully_judged_corpus(self):
        run = parse_run(io.StringIO("1 Q0 d1 1 5.0 s\n"))
        qrels = parse_qrels(io.StringIO("1 0 d1 1\n"))
        report = judgment_coverage(run, qrels)
        assert report.fraction_with_unjudged == 0.0
        assert report.mean_first_unjudged_rank is None
        assert report.mean_unjudged_per_list == 0.0

    def test_csv_blank_for_missing_rank(self):
        run = parse_run(io.StringIO("1 Q0 d1 1 5.0 s\n"))
        qrels = parse_qrels(io.StringIO("1 0 d1 1\n"))
        buf = io.StringIO()
        judgment_coverage(run, qrels).write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "system,topic,first_unjudged_rank,n_unjudged,n_retrieved"
        assert lines[1] == "s,1,,0,1"

    def test_rows_follow_run_order(self):
        run_a, qrels = self._fixture()
        run_b = parse_run(io.StringIO("3 Q0 d9 1 2.0 sysB\n1 Q0 dZ 1 1.0 sysB\n"))
        report = judgment_coverage([run_b, run_a, run_b], qrels)
        assert [(row.system, row.topic) for row in report.rows] == [
            ("sysB", "1"), ("sysB", "3"), ("sysA", "1"), ("sysA", "2")]
        assert report.rows[:2] == (("sysB", "1", 1, 1, 1), ("sysB", "3", None, 0, 1))
        assert report.rows[2:] == judgment_coverage(run_a, qrels).rows
        assert report.n_lists == 4
        assert report.mean_unjudged_per_list == 0.75

    def test_needs_a_run(self):
        with pytest.raises(ValueError, match="at least one run"):
            judgment_coverage([], parse_qrels(io.StringIO(QRELS)))

    def test_to_dict(self):
        d = judgment_coverage(*self._fixture()).to_dict()
        assert d["n_lists"] == 2
        assert d["rows"][0]["system"] == "sysA"

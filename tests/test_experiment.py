import io
import itertools
import json
import math
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ipso import experiment, stats
from ipso.experiment import (
    AgreementCategory,
    ComparisonReport,
    _collection,
    category_fractions,
    compare_systems,
    mean_metric_by_system,
    percentile_run,
    sweep_all_pairs,
    topic_table,
)
from ipso.metrics import PHI, MetricSpec
from ipso.serp import Serp, TopicGroup, classify_group
from ipso.trecio import Qrels, RunFile, build_serps, parse_qrels, parse_run

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def fixture():
    qrels = parse_qrels(DATA / "qrels.txt")
    runs = {
        name: parse_run(DATA / "runs" / f"{name}.run")
        for name in ("alpha", "bravo", "charlie")
    }
    return runs, qrels


def run_of(tag: str, rankings: dict) -> RunFile:
    """The run, parsed from TREC text, ranking each topic's doc ids in the order given."""
    return parse_run(io.StringIO("".join(f"{topic} Q0 {doc} {i + 1} {-i} {tag}\n"
                                         for topic, docs in rankings.items()
                                         for i, doc in enumerate(docs))))


def qrels_of(judgments: dict) -> Qrels:
    """The qrels, parsed from TREC text, that grade each (topic, doc id)."""
    return parse_qrels(io.StringIO("".join(f"{topic} 0 {doc} {grade}\n"
                                           for (topic, doc), grade in judgments.items())))


def synthetic_pair(diff_profile):
    """Two runs over a shared judged pool whose depth-5 SERPs realise the
    given (sup_bits, inf_bits) per topic."""
    pools = [f"non{i}" for i in range(8)], [f"rel{i}" for i in range(8)]
    topics = [str(t) for t in range(1, len(diff_profile) + 1)]
    judgments = {(t, doc): grade for t in topics for grade in (1, 0) for doc in pools[grade]}
    rankings = {}, {}
    for topic, bit_pair in zip(topics, diff_profile):
        for ranking, bits in zip(rankings, bit_pair):
            docs = [iter(pool) for pool in pools]
            ranking[topic] = [next(docs[b]) for b in bits]
    return run_of("sup", rankings[0]), run_of("inf", rankings[1]), qrels_of(judgments)


class TestCompareSystems:
    def test_balanced_pair(self, fixture):
        runs, qrels = fixture
        r = compare_systems(runs["alpha"], runs["bravo"], qrels, 5)
        assert (r.system_a, r.system_b) == ("alpha", "bravo")
        assert r.metric == MetricSpec("P", 5)
        assert r.n_topics == 6
        assert r.n_scored_topics == 5  # topic 606 has nothing relevant
        assert r.zero_relevant_topics == ("606",)
        assert_allclose([r.mean_a, r.mean_b, r.effect_size], [0.4, 0.4, 0.0])
        assert r.metric_p == pytest.approx(1.0)
        assert not r.metric_degenerate
        assert {g.label: n for g, n in r.ipso_counts.items()} == {
            "**/ns": 1, "ns": 1, "==": 2, "ni": 1, "**/ni": 1,
        }
        assert r.sign_counts == (1, 1)
        assert r.ipso_p == 1.0
        assert not r.metric_significant
        assert not r.ipso_corroborated

    def test_one_sided_pair(self, fixture):
        runs, qrels = fixture
        with pytest.warns(UserWarning, match="charlie"):
            r = compare_systems(runs["alpha"], runs["charlie"], qrels, 5,
                                metric=MetricSpec("RBP", 5, 0.5), test="t")
        assert_allclose([r.mean_a, r.mean_b], [0.53125, 0.2])
        assert r.effect_size == pytest.approx(-0.33125)
        assert r.metric_p == pytest.approx(0.02356195652042681, abs=1e-14)
        assert r.metric_statistic == pytest.approx(3.561139645621998, abs=1e-12)
        assert r.sign_counts == (5, 0)
        assert r.ipso_p == 0.0625
        # the metric separates the systems, the innate relation does not
        # reach significance on five untied topics
        assert r.metric_significant
        assert not r.ipso_corroborated

    def test_metric_accepts_text(self, fixture):
        runs, qrels = fixture
        r = compare_systems(runs["alpha"], runs["bravo"], qrels, 5, metric="RR@5")
        assert r.metric == MetricSpec("RR", 5)

    @pytest.mark.parametrize("family", ["P", "AP", "RBP0.8"])
    def test_bare_family_takes_depth_k(self, fixture, family):
        runs, qrels = fixture
        bare = compare_systems(runs["alpha"], runs["bravo"], qrels, 5, metric=family)
        assert bare == compare_systems(runs["alpha"], runs["bravo"], qrels, 5,
                                       metric=f"{family}@5")

    def test_run_against_itself(self, fixture):
        runs, qrels = fixture
        r = compare_systems(runs["alpha"], runs["alpha"], qrels, 5)
        assert r.ipso_counts[TopicGroup.EQUAL] == 6
        assert r.sign_counts == (0, 0)
        assert r.ipso_p is None  # no untied topics: the test is undefined
        assert r.metric_degenerate
        assert r.metric_p == 1.0
        assert not r.ipso_corroborated

    def test_corroborated_dominance(self):
        profile = [((1, 1, 1, 0, 0), (1, 1, 0, 0, 0))] * 6 \
            + [((1, 1, 1, 1, 0), (1, 1, 0, 0, 0))] * 6
        sup, inf, qrels = synthetic_pair(profile)
        r = compare_systems(sup, inf, qrels, 5, test="t")
        assert r.sign_counts == (12, 0)
        assert r.ipso_p == pytest.approx(2 / 4096)
        assert r.effect_size == pytest.approx(-0.3)
        assert r.metric_significant
        assert r.ipso_corroborated

    def test_innate_separation_with_blind_metric(self):
        # success@5 ties every topic, but the innate relation is one-sided
        profile = [((1, 1, 1, 0, 0), (1, 1, 0, 0, 0))] * 12
        sup, inf, qrels = synthetic_pair(profile)
        r = compare_systems(sup, inf, qrels, 5, metric="S@5", test="t")
        assert r.metric_degenerate
        assert not r.metric_significant
        assert r.ipso_p < 0.001
        assert not r.ipso_corroborated  # corroboration needs the metric side too

    def test_single_topic_has_no_t_test(self):
        sup, inf, qrels = synthetic_pair([((1, 0, 0, 0, 0), (0, 0, 0, 0, 1))])
        r = compare_systems(sup, inf, qrels, 5, test="t")
        assert r.metric_p is None
        assert not r.metric_significant
        assert r.ipso_p == 1.0  # one untied topic

    def test_test_selection(self, fixture):
        runs, qrels = fixture
        for test in ("t", "wilcoxon", "sign"):
            with pytest.warns(UserWarning):
                r = compare_systems(runs["alpha"], runs["charlie"], qrels, 5, test=test)
            assert r.test == test
            assert r.metric_p is None or 0.0 <= r.metric_p <= 1.0

    def test_argument_validation(self, fixture):
        runs, qrels = fixture
        with pytest.raises(ValueError):
            compare_systems(runs["alpha"], runs["bravo"], qrels, 5, test="anova")
        with pytest.raises(ValueError):
            compare_systems(runs["alpha"], runs["bravo"], qrels, 5, alpha=0.0)
        with pytest.raises(ValueError):
            compare_systems(runs["alpha"], runs["bravo"], qrels, 5, alpha=1.0)

    def test_no_shared_judged_topics(self, fixture):
        runs, qrels = fixture
        stranger = run_of("stray", {"999": ["d1"]})
        with pytest.raises(ValueError, match="judged"):
            compare_systems(stranger, stranger, qrels, 5)

    def test_two_runs_with_one_tag_rejected(self, fixture):
        runs, qrels = fixture
        renamed = RunFile("alpha", runs["bravo"].columns, runs["bravo"].truncation)
        with pytest.raises(ValueError, match="system tag 'alpha'"):
            compare_systems(runs["alpha"], renamed, qrels, 5)

    def test_csv_row_matches_header(self, fixture):
        """write_csv prints CSV_HEADER and the report's row; an undefined p (None) is empty."""
        runs, qrels = fixture
        header = ",".join(ComparisonReport.CSV_HEADER) + "\r\n"
        for b, row in (
            ("bravo", "alpha,bravo,5,P@5,t,0.05,6,5,0.4,0.4,0.0,0.9999999999999999,False,"
                      "1,1,2,1,1,1.0,False\r\n"),
            ("alpha", "alpha,alpha,5,P@5,t,0.05,6,5,0.4,0.4,0.0,1.0,False,0,0,6,0,0,,False\r\n"),
        ):
            buf = io.StringIO()
            compare_systems(runs["alpha"], runs[b], qrels, 5).write_csv(buf)
            assert buf.getvalue() == header + row

    def test_to_dict_is_json_ready(self, fixture):
        runs, qrels = fixture
        r = compare_systems(runs["alpha"], runs["bravo"], qrels, 5)
        payload = json.loads(json.dumps(r.to_dict()))
        assert payload["ipso_counts"] == {"**/ns": 1, "ns": 1, "==": 2, "ni": 1, "**/ni": 1}
        assert payload["zero_relevant_topics"] == ["606"]

    def test_text_report_symbols(self, fixture):
        runs, qrels = fixture
        with pytest.warns(UserWarning):
            r = compare_systems(runs["alpha"], runs["charlie"], qrels, 5,
                                metric=MetricSpec("RBP", 5, 0.5))
        text = r.to_text()
        assert "†" in text  # significant metric test is flagged
        assert "‡" not in text  # but not corroborated
        ascii_text = r.to_text(ascii_symbols=True)
        assert "†" not in ascii_text

    def test_text_report_corroborated(self):
        profile = [((1, 1, 1, 0, 0), (1, 1, 0, 0, 0))] * 6 \
            + [((1, 1, 1, 1, 0), (1, 1, 0, 0, 0))] * 6
        sup, inf, qrels = synthetic_pair(profile)
        text = compare_systems(sup, inf, qrels, 5, test="t").to_text()
        assert "‡" in text


class TestTopicTable:
    def test_ordered_rows(self, fixture):
        runs, qrels = fixture
        rows = topic_table(runs["alpha"], runs["bravo"], qrels, 5,
                           metrics=(MetricSpec("P", 5),))
        assert [r.topic_id for r in rows] == ["605", "602", "603", "606", "601", "604"]
        assert [r.group.label for r in rows] == ["**/ns", "ns", "==", "==", "ni", "**/ni"]
        by_topic = {r.topic_id: r for r in rows}
        assert by_topic["601"].serp_a == "11100"
        assert by_topic["601"].serp_b == "10100"
        assert by_topic["601"].trajectory.codes() == ("==", "ni", "ni", "ni", "ni")
        assert by_topic["602"].score_diffs["P@5"] == pytest.approx(-0.2)

    def test_within_group_sort_by_separation_depth(self):
        # both topics end non-separable from inferior states; fewer
        # non-separable depths sorts first within the group
        profile = [
            ((0, 1, 1, 0, 0), (1, 0, 0, 0, 1)),   # ns ns ** ** **
            ((0, 1, 1, 1, 0), (1, 1, 0, 0, 1)),   # ns ns ns ** **
        ]
        sup, inf, qrels = synthetic_pair(profile)
        rows = topic_table(sup, inf, qrels, 5)
        assert [r.topic_id for r in rows] == ["2", "1"]
        assert rows[0].trajectory.codes() == ("ns", "ns", "ns", "**", "**")
        assert rows[0].group is rows[1].group is TopicGroup.NON_SEP_NS_MIDPOINT

    def test_csv_output(self, fixture):
        runs, qrels = fixture
        rows = topic_table(runs["alpha"], runs["bravo"], qrels, 5,
                           metrics=(MetricSpec("P", 5),))
        buf = io.StringIO()
        rows.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "topic,group,serp_a,serp_b,trajectory,diff_P@5"
        assert lines[1] == "605,**/ns,01100,10001,ns ns ** ** **,0.0"

    def test_no_metrics_by_default(self, fixture):
        runs, qrels = fixture
        rows = topic_table(runs["alpha"], runs["bravo"], qrels, 5)
        assert all(r.score_diffs == {} for r in rows)


class TestSweep:
    def test_matches_standalone_comparisons(self, fixture):
        runs, qrels = fixture
        ordered = [runs["alpha"], runs["bravo"], runs["charlie"]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sweep = sweep_all_pairs(ordered, qrels, [5], ["P@5", "RBP0.5@5"],
                                    ["t", "sign"], alpha=0.05)
            for row in sweep.to_dict()["rows"]:
                direct = compare_systems(
                    runs[row["system_a"]], runs[row["system_b"]], qrels, row["k"],
                    metric=row["metric"], test=row["test"], alpha=0.05,
                )
                assert row["metric_p"] == direct.metric_p
                assert row["ipso_p"] == direct.ipso_p
                expected = AgreementCategory.from_flags(
                    direct.metric_significant,
                    direct.ipso_p is not None and direct.ipso_p < 0.05,
                )
                assert row["category"] == expected.label

    def test_cell_count(self, fixture):
        runs, qrels = fixture
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sweep = sweep_all_pairs(list(runs.values()), qrels, [3, 5],
                                    ["P"], ["t", "wilcoxon"])
        assert len(sweep.to_dict()["rows"]) == 3 * 2 * 1 * 2  # pairs x k x metrics x tests

    def test_bare_metric_tracks_depth(self, fixture):
        runs, qrels = fixture
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sweep = sweep_all_pairs(list(runs.values()), qrels, [3, 5],
                                    ["P", "NDCG@5"], ["t"])
        seen = {(row["k"], row["metric"]) for row in sweep.to_dict()["rows"]}
        assert seen == {(3, "P@3"), (3, "NDCG@5"), (5, "P@5"), (5, "NDCG@5")}

    def test_category_fractions_sum_to_one(self, fixture):
        runs, qrels = fixture
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sweep = sweep_all_pairs(list(runs.values()), qrels, [5],
                                    ["P", "RR"], ["t", "sign"])
        for cell in sweep.fractions().values():
            total = sum(cell[c.value] for c in AgreementCategory)
            assert total == pytest.approx(1.0)
            assert cell["n_pairs"] == 3

    def test_csv_layout(self, fixture):
        runs, qrels = fixture
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sweep = sweep_all_pairs(list(runs.values()), qrels, [5], ["P"], ["t"])
        buf = io.StringIO()
        sweep.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "system_a,system_b,k,metric,test,metric_p,ipso_p,category"
        assert len(lines) == 4

    def test_validation(self, fixture):
        runs, qrels = fixture
        with pytest.raises(ValueError):
            sweep_all_pairs([runs["alpha"]], qrels, [5], ["P"], ["t"])
        with pytest.raises(ValueError):
            sweep_all_pairs(list(runs.values()), qrels, [], ["P"], ["t"])
        with pytest.raises(ValueError):
            sweep_all_pairs(list(runs.values()), qrels, [5], ["P"], ["anova"])


    def test_repeated_run_is_one_input(self, fixture):
        runs, qrels = fixture
        alpha, bravo = runs["alpha"], runs["bravo"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            once = sweep_all_pairs([alpha, bravo], qrels, [5], ["P"], ["t", "sign"])
            twice = sweep_all_pairs([alpha, alpha, bravo, alpha], qrels, [5], ["P"], ["t", "sign"])
            assert twice.to_dict() == once.to_dict()
            assert all(cell["n_pairs"] == 1 for cell in twice.fractions().values())
            with pytest.raises(ValueError, match="two distinct runs"):
                sweep_all_pairs([alpha, alpha], qrels, [5], ["P"], ["t"])

    @pytest.mark.parametrize("k_values, metrics, tests", [
        ([5, 5], ["P"], ["t"]),
        ([5], ["P", "P"], ["t"]),
        ([5], ["P", "P@5"], ["t"]),
        ([5], ["P"], ["t", "t"]),
    ])
    def test_repeated_condition_is_one_condition(self, fixture, k_values, metrics, tests):
        runs, qrels = fixture
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            once = sweep_all_pairs(list(runs.values()), qrels, [5], ["P"], ["t"])
            repeated = sweep_all_pairs(list(runs.values()), qrels, k_values, metrics, tests)
        assert repeated.to_dict() == once.to_dict()
        assert [cell["n_pairs"] for cell in repeated.fractions().values()] == [3]

    def test_reads_judged_topics_once(self, fixture, monkeypatch):
        runs, qrels = fixture
        calls = []
        topics = Qrels.topics
        monkeypatch.setattr(Qrels, "topics", lambda self: calls.append(1) or topics(self))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sweep_all_pairs(list(runs.values()), qrels, [3, 5], ["P", "RR"], ["t", "sign"])
            assert len(calls) == 1
            category_fractions(list(runs.values()), qrels, 5)
            assert len(calls) == 2
            mean_metric_by_system(list(runs.values()), qrels, "P@5")
            assert len(calls) == 3


@pytest.mark.filterwarnings("ignore:system charlie")
def test_full_label_deeper_than_k_keeps_its_depth(fixture):
    runs, qrels = fixture
    alpha, bravo, charlie = runs["alpha"], runs["bravo"], runs["charlie"]
    at3, at10 = (compare_systems(alpha, bravo, qrels, k, metric="P@10") for k in (3, 10))
    scores = ("mean_a", "mean_b", "effect_size", "metric_p", "metric_statistic")
    assert [getattr(at3, name) for name in scores] == [getattr(at10, name) for name in scores]
    assert at3.mean_a == at3.mean_b == pytest.approx(0.2)
    tables = [topic_table(alpha, charlie, qrels, k, ["P@10"]) for k in (3, 10)]
    diffs3, diffs10 = ({r.topic_id: r.score_diffs for r in table} for table in tables)
    assert diffs3 == diffs10 and {len(r.serp_a) for r in tables[0]} == {3}
    sweep = sweep_all_pairs(list(runs.values()), qrels, [3, 10], ["P@10"], ["t"])
    rows = sweep.to_dict()["rows"]
    p = {(r["system_a"], r["system_b"], r["k"]): r["metric_p"] for r in rows}
    assert p["alpha", "charlie", 3] == pytest.approx(0.0993, abs=1e-4)
    assert all(p[a, b, 3] == p[a, b, 10] for a, b, _ in p)


def test_topic_table_bare_families_take_depth_k(fixture):
    runs, qrels = fixture
    bare = topic_table(runs["alpha"], runs["bravo"], qrels, 5, metrics=["AP", "P"])
    assert bare == topic_table(runs["alpha"], runs["bravo"], qrels, 5, metrics=["AP@5", "P@5"])
    assert list(bare[0].score_diffs) == ["AP@5", "P@5"]


@pytest.mark.filterwarnings("ignore:system charlie")
def test_sweep_scores_each_metric_matrix_once(fixture, monkeypatch):
    """A full label scores the same at every k: the sweep scores it once, bare families once per k."""
    runs, qrels = fixture
    scored, score_matrix = Counter(), experiment._score_matrix

    def spy(collection, metric):
        scored[metric.label] += 1
        return score_matrix(collection, metric)

    monkeypatch.setattr(experiment, "_score_matrix", spy)
    sweep_all_pairs(list(runs.values()), qrels, [3, 5, 10, 20], ["P@10", "P", "AP"], ["t"])
    assert scored == {"P@10": 1, **{f"{family}@{k}": 1 for family in ("P", "AP")
                                    for k in (3, 5, 10, 20)}}


@pytest.mark.filterwarnings("ignore:system charlie")
def test_innate_p_does_not_call_the_scalar_sign_test(fixture, monkeypatch):
    """compare and the sweep read the innate p from the Sign test's row kernel."""
    runs, qrels = fixture

    def outcomes():
        sweep = sweep_all_pairs(list(runs.values()), qrels, [3, 5], ["P", "AP"], ["t", "sign"])
        return compare_systems(runs["alpha"], runs["bravo"], qrels, 5), sweep.to_dict()

    def scalar(n_pos, n_neg):
        raise AssertionError("the scalar sign_test was called")

    want = outcomes()
    for module in (stats, experiment):
        monkeypatch.setattr(module, "sign_test", scalar)
    assert outcomes() == want


class TestAgreementCategory:
    def test_from_flags(self):
        assert AgreementCategory.from_flags(True, True) is AgreementCategory.BOTH_YES
        assert AgreementCategory.from_flags(False, False) is AgreementCategory.BOTH_NO
        assert AgreementCategory.from_flags(True, False) is AgreementCategory.METRIC_YES
        assert AgreementCategory.from_flags(False, True) is AgreementCategory.METRIC_NO

    def test_labels(self):
        assert [c.value for c in AgreementCategory] == [
            "Both:Yes", "Both:No", "Metric:Yes", "Metric:No",
        ]


class TestAggregates:
    def test_category_fractions(self, fixture):
        runs, qrels = fixture
        with pytest.warns(UserWarning, match="charlie"):
            counts = category_fractions(list(runs.values()), qrels, 5)
        assert (counts.equal, counts.separable, counts.non_separable) == (4, 11, 3)
        assert counts.total == 18  # 6 topics x 3 unordered pairs
        assert counts.mode == "exact"

    def test_category_fractions_repeated_run_is_one_input(self, fixture):
        runs, qrels = fixture
        alpha, bravo = runs["alpha"], runs["bravo"]
        assert (category_fractions([alpha, alpha, bravo], qrels, 5)
                == category_fractions([alpha, bravo], qrels, 5))
        with pytest.raises(ValueError, match="two distinct runs"):
            category_fractions([alpha, alpha], qrels, 5)

    def test_category_fractions_match_pair_reports(self, fixture):
        runs, qrels = fixture
        tally = {"equal": 0, "separable": 0, "non_separable": 0}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for a, b in (("alpha", "bravo"), ("alpha", "charlie"), ("bravo", "charlie")):
                r = compare_systems(runs[a], runs[b], qrels, 5)
                for group, n in r.ipso_counts.items():
                    if group is TopicGroup.EQUAL:
                        tally["equal"] += n
                    elif group in (TopicGroup.SEPARABLE_NI, TopicGroup.SEPARABLE_NS):
                        tally["separable"] += n
                    else:
                        tally["non_separable"] += n
        with pytest.warns(UserWarning, match="charlie"):
            counts = category_fractions(list(runs.values()), qrels, 5)
        assert tally == {
            "equal": counts.equal,
            "separable": counts.separable,
            "non_separable": counts.non_separable,
        }

    def test_mean_metric_by_system(self, fixture):
        runs, qrels = fixture
        means = mean_metric_by_system(list(runs.values()), qrels, MetricSpec("P", 5))
        assert means == pytest.approx({"alpha": 0.4, "bravo": 0.4, "charlie": 0.24})

    def test_percentile_run(self, fixture):
        runs, qrels = fixture
        ordered = list(runs.values())
        metric = MetricSpec("P", 5)
        assert percentile_run(ordered, qrels, metric, 25) == ("charlie", pytest.approx(0.24))
        assert percentile_run(ordered, qrels, metric, 50) == ("alpha", pytest.approx(0.4))
        assert percentile_run(ordered, qrels, metric, 100) == ("bravo", pytest.approx(0.4))
        with pytest.raises(ValueError):
            percentile_run(ordered, qrels, metric, 0)
        with pytest.raises(ValueError):
            percentile_run(ordered, qrels, metric, 101)


def gapped_runs():
    """Runs a and b lack topic 3, which only c retrieved; all three topics are judged."""
    judgments = {(t, d): int(d.startswith("r")) for t in "123" for d in ("r1", "r2", "n1", "n2")}

    return [run_of(tag, {t: docs for t in topics}) for tag, topics, docs in [
        ("a", "12", ["r1", "n1", "r2"]),
        ("b", "12", ["n1", "r1", "r2"]),
        ("c", "123", ["r1", "r2", "n1"]),
    ]], qrels_of(judgments)


class TestCollection:
    def test_rows_match_build_serps(self, fixture):
        runs, qrels = fixture
        collection = _collection(list(runs.values()), qrels, [5])
        serps = build_serps(list(runs.values()), qrels, 5)
        assert collection.topics == ["601", "602", "603", "604", "605", "606"]
        for tag, matrix in zip(collection.tags, collection.bits):
            for t, row in zip(collection.topics, matrix.tolist()):
                assert tuple(row) == (serps.get(tag, t) or (0,) * 5)

    def test_sweep_with_missing_topics_matches_compare(self):
        runs, qrels = gapped_runs()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            # NDCG@3 keeps its label at k=2, where it scores the depth-2 SERPs
            sweep = sweep_all_pairs(runs, qrels, [2, 3], ["P", "AP", "NDCG@3"], ["t", "sign"])
            by_tag = {run.system_tag: run for run in runs}
            rows = sweep.to_dict()["rows"]
            assert len(rows) == 3 * 2 * 3 * 2
            for row in rows:
                direct = compare_systems(by_tag[row["system_a"]], by_tag[row["system_b"]], qrels,
                                         row["k"], metric=row["metric"], test=row["test"])
                assert (row["metric_p"], row["ipso_p"]) == (direct.metric_p, direct.ipso_p)
                assert row["category"] == AgreementCategory.from_flags(
                    direct.metric_significant,
                    direct.ipso_p is not None and direct.ipso_p < 0.05).label
            # topic 3 is scored for a as an all-0 SERP against c's 110
            report = compare_systems(by_tag["a"], by_tag["c"], qrels, 3, test="sign")
            rows = {r.topic_id: r for r in topic_table(by_tag["a"], by_tag["c"], qrels, 3)}
        assert report.n_topics == 3
        assert (rows["3"].serp_a, rows["3"].serp_b, rows["3"].group.label) == ("000", "110", "ns")

    def test_missing_topic_warnings_once_per_pair(self, fixture):
        runs, qrels = fixture
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sweep_all_pairs(list(runs.values()), qrels, [3, 5], ["P", "RR"], ["t", "sign"])
        # charlie lacks a topic; it meets alpha and bravo once each
        assert [str(w.message).split(":")[0] for w in caught] == ["system charlie"] * 2


#: Each of the five groups -> its CategoryCounts field.
FOLD = {
    TopicGroup.EQUAL: "equal",
    TopicGroup.SEPARABLE_NI: "separable",
    TopicGroup.SEPARABLE_NS: "separable",
    TopicGroup.NON_SEP_NI_MIDPOINT: "non_separable",
    TopicGroup.NON_SEP_NS_MIDPOINT: "non_separable",
}


def assert_pair_reports_agree(runs, qrels, k):
    """category_fractions, compare_systems, topic_table and the sweep count the same topics."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        census = category_fractions(runs, qrels, k)
        sweep = sweep_all_pairs(runs, qrels, [k], ["P"], ["t"])
        folded = Counter()
        rows = sweep.to_dict()["rows"]
        for (a, b), row in zip(itertools.combinations(runs, 2), rows, strict=True):
            report = compare_systems(a, b, qrels, k)
            table = topic_table(a, b, qrels, k)
            for group, n in report.ipso_counts.items():
                folded[FOLD[group]] += n
            for r in table:
                assert r.group is classify_group(r.serp_a, r.serp_b, k), r.topic_id
            assert +Counter(r.group for r in table) == +Counter(report.ipso_counts)
            assert (row["system_a"], row["system_b"]) == (a.system_tag, b.system_tag)
            assert row["ipso_p"] == report.ipso_p
    assert (census.equal, census.separable, census.non_separable, census.total) == (
        folded["equal"], folded["separable"], folded["non_separable"], sum(folded.values()))
    return census


@st.composite
def uneven_collections(draw):
    """3-4 runs over up to 4 judged topics, each run ranking a random subset of them."""
    topics = [str(t) for t in range(1, draw(st.integers(1, 4)) + 1)]
    docs = [f"d{i}" for i in range(6)]
    grades = st.integers(0, 2)
    qrels = qrels_of({(t, d): draw(grades) for t in topics for d in docs})
    runs = []
    for i in range(draw(st.integers(3, 4))):
        ranked = draw(st.lists(st.sampled_from(topics), min_size=1, unique=True))
        runs.append(run_of(f"s{i}", {t: draw(st.permutations(docs))[:draw(st.integers(1, len(docs)))]
                                     for t in ranked}))
    return runs, qrels, draw(st.integers(1, 6))


class TestPairReportsAgree:
    """Every pair report evaluates a pair on the topics either system ranks."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_gapped_runs(self, k):
        runs, qrels = gapped_runs()
        census = assert_pair_reports_agree(runs, qrels, k)
        # a and b both lack topic 3: it is no evidence about that pair
        assert (census.equal, census.separable, census.non_separable, census.total) == (0, 8, 0, 8)

    @settings(max_examples=60, deadline=None)
    @given(case=uneven_collections())
    def test_uneven_coverage(self, case):
        assert_pair_reports_agree(*case)


class TestTies:
    """A tie is |difference| <= SCORE_TOLERANCE for every metric test."""

    def test_rbp_phi_noise_ties(self):
        # RBP at phi scores 100 and 011 alike; floating point leaves -5.6e-17
        sup, inf, qrels = synthetic_pair([((1, 0, 0), (0, 1, 1))] * 10)
        for test in ("sign", "wilcoxon", "t"):
            r = compare_systems(sup, inf, qrels, 3, metric=MetricSpec("RBP", 3, PHI), test=test)
            assert r.effect_size == pytest.approx(0.0, abs=1e-15)
            assert r.metric_degenerate, test
            assert r.metric_p == 1.0, test
            assert not r.metric_significant

    def test_noisy_constant_gap_is_degenerate(self):
        # one more relevant document on every topic: P@10 gaps of 0.1 up to noise
        profile = [(tuple([1] * (n + 1) + [0] * (9 - n)), tuple([1] * n + [0] * (10 - n)))
                   for n in range(2, 8)]
        sup, inf, qrels = synthetic_pair(profile)
        r = compare_systems(sup, inf, qrels, 10, metric="P@10", test="t")
        assert r.metric_degenerate
        assert r.metric_p == 0.0
        assert r.metric_statistic == math.inf
        assert r.effect_size == pytest.approx(-0.1)


def test_sweep_builds_no_per_row_objects(fixture, monkeypatch):
    """The sweep path reads the run and qrels columns: it makes no Serp, and it holds its
    decisions as numeric columns, with no category object per cell."""
    runs, qrels = fixture

    def refuse(*args, **kwargs):
        raise AssertionError("a per-row object was built")

    monkeypatch.setattr(Serp, "__new__", refuse)
    monkeypatch.setattr(AgreementCategory, "from_flags", refuse)
    with pytest.raises(AssertionError):
        Serp([1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # charlie lacks a topic
        sweep = sweep_all_pairs(list(runs.values()), qrels, [3, 5], ["P", "AP"], ["t", "sign"])
        counts = category_fractions(list(runs.values()), qrels, 5)
    columns = [sweep.pairs, sweep.cell, sweep.metric_p, sweep.ipso_p]
    assert all(isinstance(c, np.ndarray) and c.dtype.kind in "iuf" for c in columns)
    assert {len(c) for c in columns} == {3 * 2 * 2 * 2}
    assert counts.total > 0

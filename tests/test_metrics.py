import hashlib
import itertools
import math

import numpy as np
import pytest
from census_reference import certify_compliance_dense
from numpy.testing import assert_allclose

from ipso import _bits, metrics
from ipso.enumeration import kendall_tau
from ipso.metrics import (
    PHI,
    SCORE_TOLERANCE,
    MetricSpec,
    TopicContext,
    certify_compliance,
    evaluate,
    evaluate_rows,
    metric_suite,
    ordering_check,
    parse_metric,
    read_depth,
    score_all,
)
from ipso.serp import Relationship, Serp, compare

A = Serp([1, 0, 0])
B = Serp([0, 1, 1])


def score(label: str, serp, total_relevant: int | None = None) -> float:
    """evaluate under a metric label, with R given as an int."""
    ctx = None if total_relevant is None else TopicContext(total_relevant)
    return evaluate(parse_metric(label), serp, ctx)


def deeper_is_better(serp):
    return sum(i * r for i, r in enumerate(serp, start=1))


def late_bonus_precision(serp):
    # a tiny bonus for placing relevant items later flips score ties on
    # dominance pairs like [1,0,0] vs [0,1,0]
    return score(f"P@{len(serp)}", serp) + 1e-6 * ((1 << len(serp)) - 1 - serp.to_int())


def noisy_precision(serp):
    return score(f"P@{len(serp)}", serp) + 1e-13 * ((1 << len(serp)) - 1 - serp.to_int())


class TestMetricSpec:
    def test_labels(self):
        assert MetricSpec("P", 3).label == "P@3"
        assert MetricSpec("RR", 10).label == "RR@10"
        assert MetricSpec("RBP", 3, 0.5).label == "RBP0.5@3"
        assert MetricSpec("RBP", 5, 0.85).label == "RBP0.85@5"

    def test_validation(self):
        with pytest.raises(ValueError):
            MetricSpec("MAP", 3)
        with pytest.raises(ValueError):
            MetricSpec("P", 0)
        with pytest.raises(ValueError):
            MetricSpec("RBP", 3)  # persistence required
        with pytest.raises(ValueError):
            MetricSpec("RBP", 3, 1.0)
        with pytest.raises(ValueError):
            MetricSpec("P", 3, 0.5)  # persistence forbidden

    def test_parse_round_trip(self):
        for text in ("P@3", "RR@10", "S@1", "AP@20", "NDCG@5", "RBP0.5@3", "RBP0.8@10"):
            assert parse_metric(text).label == text

    def test_parse_aliases_and_case(self):
        assert parse_metric("prec@3") == MetricSpec("P", 3)
        assert parse_metric("succ@5") == MetricSpec("S", 5)
        assert parse_metric("rbp0.85@5") == MetricSpec("RBP", 5, 0.85)

    def test_bare_family_takes_k(self):
        assert parse_metric("AP", 7) == MetricSpec("AP", 7)
        assert parse_metric("rbp0.8", 4) == MetricSpec("RBP", 4, 0.8)
        assert parse_metric("P@3", 7).depth == 3

    def test_bare_family_without_k_names_the_missing_depth(self):
        for text in ("AP", "RBP0.5"):
            with pytest.raises(ValueError, match="has no depth"):
                parse_metric(text)

    def test_read_depth(self):
        assert read_depth([5]) == 5
        assert read_depth([3, 5], ["P", "AP@4", MetricSpec("NDCG", 2)]) == 5
        assert read_depth([3], ["P", "NDCG@150"]) == 150
        for k_values in ([], [0], [5, -1]):
            with pytest.raises(ValueError, match="k must be >= 1"):
                read_depth(k_values)
        with pytest.raises(ValueError, match="unrecognised"):
            read_depth([5], ["XYZ"])

    def test_parse_rejects_garbage(self):
        for text in ("P3", "P@", "@3", "RBP@3", "RBP1.5@3", "XYZ@3", "P@0"):
            with pytest.raises(ValueError):
                parse_metric(text)


class TestScalarValues:
    """Both rankings place relevant items, yet every weighting disagrees on
    which is better: the canonical depth-3 pair with two relevant documents."""

    def test_precision(self):
        assert_allclose(score("P@3", A), 1 / 3)
        assert_allclose(score("P@3", B), 2 / 3)

    def test_rbp_08_prefers_b(self):
        assert_allclose(score("RBP0.8@3", A), 0.2)
        assert_allclose(score("RBP0.8@3", B), 0.288)

    def test_average_precision(self):
        assert_allclose(score("AP@3", A, 2), 0.5)
        assert_allclose(score("AP@3", B, 2), 7 / 12)

    def test_ndcg(self):
        ideal = 1.0 + 1.0 / math.log2(3)
        assert_allclose(score("NDCG@3", A, 2), 1.0 / ideal)
        assert_allclose(score("NDCG@3", B, 2), (1.0 / math.log2(3) + 0.5) / ideal)
        assert score("NDCG@3", A, 2) < score("NDCG@3", B, 2)

    def test_success_ties(self):
        assert score("S@3", A) == score("S@3", B) == 1.0

    def test_rbp_phi_ties_exactly(self):
        # phi + phi^2 == 1, so the single early hit exactly balances two late ones
        phi = MetricSpec("RBP", 3, PHI)
        assert_allclose(evaluate(phi, A), evaluate(phi, B), rtol=0, atol=1e-15)
        assert ordering_check(phi, A, B) == "="

    def test_reciprocal_rank_prefers_a(self):
        assert_allclose(score("RR@3", A), 1.0)
        assert_allclose(score("RR@3", B), 0.5)

    def test_rbp_05_prefers_a(self):
        assert_allclose(score("RBP0.5@3", A), 0.5)
        assert_allclose(score("RBP0.5@3", B), 0.375)

    def test_disagreement_summary(self):
        ctx = TopicContext(total_relevant=2)
        prefers_b = [MetricSpec("P", 3), MetricSpec("RBP", 3, 0.8),
                     MetricSpec("AP", 3), MetricSpec("NDCG", 3)]
        ties = [MetricSpec("S", 3), MetricSpec("RBP", 3, PHI)]
        prefers_a = [MetricSpec("RR", 3), MetricSpec("RBP", 3, 0.5)]
        assert [ordering_check(m, A, B, ctx) for m in prefers_b] == ["<"] * 4
        assert [ordering_check(m, A, B, ctx) for m in ties] == ["="] * 2
        assert [ordering_check(m, A, B, ctx) for m in prefers_a] == [">"] * 2


class TestValueSets:
    def test_precision_at_3(self):
        values = {round(evaluate(MetricSpec("P", 3), s), 12) for s in _all(3)}
        assert values == {0.0, round(1 / 3, 12), round(2 / 3, 12), 1.0}

    def test_reciprocal_rank_at_3(self):
        values = {round(evaluate(MetricSpec("RR", 3), s), 12) for s in _all(3)}
        assert values == {0.0, round(1 / 3, 12), 0.5, 1.0}

    def test_success_at_3(self):
        values = {evaluate(MetricSpec("S", 3), s) for s in _all(3)}
        assert values == {0.0, 1.0}

    def test_rbp_05_all_distinct_and_lexicographic(self):
        # (1-p) sum p^(i-1) r_i at p=1/2 is binary expansion: 8 distinct
        # scores whose order is exactly the integer-code order
        metric = MetricSpec("RBP", 3, 0.5)
        scores = [evaluate(metric, s) for s in _all(3)]
        assert len(set(scores)) == 8
        assert scores == sorted(scores)
        assert_allclose(scores, [c / 8 for c in range(8)])


def _all(k):
    return [Serp.from_int(c, k) for c in range(1 << k)]


class TestPaddingAndDepth:
    def test_short_serp_padded_with_zeros(self):
        assert score("P@3", [1]) == score("P@3", [1, 0, 0])
        assert score("RBP0.8@4", [1]) == score("RBP0.8@4", [1, 0, 0, 0])

    def test_long_serp_truncated(self):
        assert score("P@2", [1, 0, 1, 1]) == 0.5
        assert score("RR@2", [0, 0, 1, 1]) == 0.0

    def test_evaluate_uses_metric_depth(self):
        assert evaluate(MetricSpec("P", 2), Serp([1, 0, 1])) == 0.5
        assert evaluate(MetricSpec("P", 4), Serp([1, 0, 1])) == 0.5


class TestTotalRelevant:
    def test_default_context_is_depth(self):
        # with no context, AP normalises by the depth itself
        assert_allclose(evaluate(MetricSpec("AP", 3), Serp([1, 1, 1])), 1.0)
        assert_allclose(evaluate(MetricSpec("AP", 3), Serp([1, 0, 0])), 1 / 3)

    def test_zero_relevant_all_zero_serp(self):
        ctx = TopicContext(total_relevant=0)
        assert evaluate(MetricSpec("AP", 3), Serp([0, 0, 0]), ctx) == 0.0
        assert evaluate(MetricSpec("NDCG", 3), Serp([0, 0, 0]), ctx) == 0.0

    def test_fewer_relevant_than_retrieved_is_an_error(self):
        with pytest.raises(ValueError):
            score("AP@3", Serp([1, 1, 0]), 1)
        with pytest.raises(ValueError):
            score("NDCG@3", Serp([1, 0, 1]), 1)
        with pytest.raises(ValueError):
            evaluate(MetricSpec("AP", 3), Serp([1, 1, 0]), TopicContext(total_relevant=1))

    def test_ideal_gain_capped_by_pool(self):
        # one relevant document in the collection; retrieving it at rank 1
        # is already ideal no matter the depth
        assert_allclose(score("NDCG@3", Serp([1, 0, 0]), 1), 1.0)
        assert_allclose(score("AP@3", Serp([1, 0, 0]), 1), 1.0)

    def test_negative_total_relevant_rejected(self):
        with pytest.raises(ValueError):
            TopicContext(total_relevant=-1)


class TestScoreAll:
    @pytest.mark.parametrize("metric", metric_suite(5))
    def test_matches_scalar_evaluate(self, metric):
        scores = score_all(metric, 5)
        expected = [evaluate(metric, s) for s in _all(5)]
        assert scores.tolist() == expected

    def test_honours_context(self):
        ctx = TopicContext(total_relevant=4)
        scores = score_all(MetricSpec("AP", 4), 4, ctx)
        expected = [evaluate(MetricSpec("AP", 4), s, ctx) for s in _all(4)]
        assert scores.tolist() == expected

    def test_rejects_insufficient_pool(self):
        # the enumeration contains the all-relevant ranking, so the pool
        # must cover it
        with pytest.raises(ValueError):
            score_all(MetricSpec("AP", 4), 4, TopicContext(total_relevant=2))

    def test_depth_wider_than_lattice(self):
        scores = score_all(MetricSpec("P", 6), 3)
        expected = [evaluate(MetricSpec("P", 6), s) for s in _all(3)]
        assert scores.tolist() == expected


class TestCompliance:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_whole_suite_compliant(self, k):
        for metric in metric_suite(k):
            assert certify_compliance(metric, k) == []

    def test_phi_rbp_compliant(self):
        assert certify_compliance(MetricSpec("RBP", 4, PHI), 4) == []

    def test_depth_weighted_scorer_fails(self):
        violations = certify_compliance(deeper_is_better, 2)
        assert (Serp([1, 0]), Serp([0, 1])) in violations

    def test_late_tie_break_fails(self):
        violations = certify_compliance(late_bonus_precision, 3)
        assert violations
        for a, b in violations:
            assert compare(a, b, 3) is Relationship.NON_INFERIOR
        assert (Serp([1, 0, 0]), Serp([0, 1, 0])) in violations

    def test_respects_tolerance(self, monkeypatch):
        assert certify_compliance(noisy_precision, 3) == []
        monkeypatch.setattr(metrics, "SCORE_TOLERANCE", 1e-16)  # the noise is found when tighter
        assert certify_compliance(noisy_precision, 3) != []


def _scores_with_holes(serp):
    # NaN, +inf and -inf scores among otherwise violating ones
    code = serp.to_int()
    holes = {0: math.nan, 1: math.inf, 2: -math.inf}
    return holes.get(code % 5, late_bonus_precision(serp))


def _precision_with(holes: dict):
    """P at the SERP's depth, but the score holes[code] for the codes in holes."""
    return lambda serp: holes.get(serp.to_int(), score(f"P@{len(serp)}", serp))


class TestComplianceOracle:
    """certify_compliance over the dominance pairs against the full gap matrix."""

    @pytest.mark.parametrize("k", range(1, 9))
    def test_suite_matches_dense_check(self, k):
        for ctx in (None, TopicContext(total_relevant=2 * k)):
            for metric in metric_suite(k):
                want = certify_compliance_dense(metric, k, ctx)
                assert certify_compliance(metric, k, ctx) == want, (metric.label, ctx)

    # inf - inf gaps are NaN, which numpy reports as it computes them
    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
    @pytest.mark.parametrize("scorer, k, tolerance", [
        (late_bonus_precision, 3, SCORE_TOLERANCE),
        (late_bonus_precision, 8, SCORE_TOLERANCE),
        (deeper_is_better, 2, SCORE_TOLERANCE),
        (deeper_is_better, 7, SCORE_TOLERANCE),
        (noisy_precision, 3, 1e-16),
        (_scores_with_holes, 4, SCORE_TOLERANCE),
        (_scores_with_holes, 7, SCORE_TOLERANCE),
    ])
    def test_violators_match_dense_check(self, monkeypatch, scorer, k, tolerance):
        monkeypatch.setattr(metrics, "SCORE_TOLERANCE", tolerance)
        got = certify_compliance(scorer, k)
        assert got
        assert got == certify_compliance_dense(scorer, k, tolerance=tolerance)

    # the covers alone certify a compliant scorer; any failed cover, a NaN
    # included, falls through to the dominance scan, which still tolerates
    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
    @pytest.mark.parametrize("scorer, k, scanned, complies", [
        (noisy_precision, 3, True, True),  # fails moves by < 1e-12: within tolerance
        (_precision_with({15: math.inf, 0: -math.inf}), 4, False, True),
        (lambda serp: math.inf if serp[0] else score("P@4", serp), 4, False, True),  # inf - inf
        (_precision_with({15: -math.inf}), 4, True, False),
        (_precision_with({5: math.nan}), 4, True, True),
        (_precision_with({0: math.nan}), 4, True, True),
    ], ids=["within-tolerance", "infinite-ends", "inf-minus-inf", "minus-inf-top", "nan-inside",
            "nan-bottom"])
    def test_covers_decide_when_to_scan(self, monkeypatch, scorer, k, scanned, complies):
        scans, dominance_pairs = [], _bits.dominance_pairs
        monkeypatch.setattr(_bits, "dominance_pairs", lambda k: scans.append(k) or dominance_pairs(k))
        got = certify_compliance(scorer, k)
        assert got == certify_compliance_dense(scorer, k)
        assert scans == ([k] if scanned else [])
        assert (got == []) == complies

    # violators at k = 10 as the dominance scan alone found them
    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
    @pytest.mark.parametrize("scorer, count, digest", [
        (late_bonus_precision, 57762, "5aa55f1413c5871afcb41ea6c0f9a3673f9660ff2c42004274038f0c51e77ecd"),
        (deeper_is_better, 92906, "371c99ecd454e0a56052a8b03ae690cf506037ae262307935f66a526b59de2ed"),
        (_scores_with_holes, 79634, "090ea067a21a3c79d800f22ca3a1533f39a09f5b695907bc3f4016bb268d625d"),
    ])
    def test_violators_at_depth_ten(self, scorer, count, digest):
        got = [(a.bitstring, b.bitstring) for a, b in certify_compliance(scorer, 10)]
        assert len(got) == count
        assert hashlib.sha256(repr(got).encode()).hexdigest() == digest

    @pytest.mark.parametrize("k", range(1, 11))
    def test_equal_pairs_are_the_diagonal(self, k):
        equal = _bits.category_matrix(k) == _bits.EQ
        assert np.array_equal(equal, np.eye(1 << k, dtype=bool))


class TestSharedScores:
    @pytest.mark.parametrize("metric", metric_suite(6))
    def test_read_only_and_equal_to_evaluate_rows(self, metric):
        for ctx, r in ((None, 6), (TopicContext(total_relevant=9), 9)):
            scores = score_all(metric, 6, ctx)
            with pytest.raises(ValueError):
                scores[0] = 1.0
            assert np.array_equal(scores, evaluate_rows(metric, _bits.bit_matrix(6), r))
            assert score_all(metric, 6, ctx) is scores

    def test_kendall_scores_each_metric_once(self, monkeypatch):
        calls = []
        real = metrics.evaluate_rows

        def spy(metric, *args):
            calls.append(metric)
            return real(metric, *args)

        monkeypatch.setattr(metrics, "evaluate_rows", spy)
        score_all.cache_clear()
        suite = metric_suite(12)
        for a, b in itertools.combinations_with_replacement(suite, 2):
            kendall_tau(a, b, 12)
        assert sorted(calls, key=suite.index) == suite


class TestMetricSuite:
    def test_contents(self):
        labels = [m.label for m in metric_suite(3)]
        assert labels == ["P@3", "RR@3", "S@3", "RBP0.5@3", "RBP0.8@3", "AP@3", "NDCG@3"]

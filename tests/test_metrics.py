import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ipso.metrics import (
    PHI,
    MetricSpec,
    TopicContext,
    average_precision,
    certify_compliance,
    evaluate,
    metric_suite,
    ndcg,
    ordering_check,
    parse_metric,
    precision,
    rbp,
    reciprocal_rank,
    score_all,
    success,
)
from ipso.serp import Relationship, Serp, compare

A = Serp([1, 0, 0])
B = Serp([0, 1, 1])


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

    def test_parse_rejects_garbage(self):
        for text in ("P3", "P@", "@3", "RBP@3", "RBP1.5@3", "XYZ@3", "P@0"):
            with pytest.raises(ValueError):
                parse_metric(text)


class TestScalarValues:
    """Both rankings place relevant items, yet every weighting disagrees on
    which is better: the canonical depth-3 pair with two relevant documents."""

    def test_precision(self):
        assert_allclose(precision(A, 3), 1 / 3)
        assert_allclose(precision(B, 3), 2 / 3)

    def test_rbp_08_prefers_b(self):
        assert_allclose(rbp(A, 0.8, 3), 0.2)
        assert_allclose(rbp(B, 0.8, 3), 0.288)

    def test_average_precision(self):
        assert_allclose(average_precision(A, 3, 2), 0.5)
        assert_allclose(average_precision(B, 3, 2), 7 / 12)

    def test_ndcg(self):
        ideal = 1.0 + 1.0 / math.log2(3)
        assert_allclose(ndcg(A, 3, 2), 1.0 / ideal)
        assert_allclose(ndcg(B, 3, 2), (1.0 / math.log2(3) + 0.5) / ideal)
        assert ndcg(A, 3, 2) < ndcg(B, 3, 2)

    def test_success_ties(self):
        assert success(A, 3) == success(B, 3) == 1.0

    def test_rbp_phi_ties_exactly(self):
        # phi + phi^2 == 1, so the single early hit exactly balances two late ones
        assert_allclose(rbp(A, PHI, 3), rbp(B, PHI, 3), rtol=0, atol=1e-15)
        assert ordering_check(MetricSpec("RBP", 3, PHI), A, B) == "="

    def test_reciprocal_rank_prefers_a(self):
        assert_allclose(reciprocal_rank(A, 3), 1.0)
        assert_allclose(reciprocal_rank(B, 3), 0.5)

    def test_rbp_05_prefers_a(self):
        assert_allclose(rbp(A, 0.5, 3), 0.5)
        assert_allclose(rbp(B, 0.5, 3), 0.375)

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
        assert precision([1], 3) == precision([1, 0, 0], 3)
        assert rbp([1], 0.8, 4) == rbp([1, 0, 0, 0], 0.8, 4)

    def test_long_serp_truncated(self):
        assert precision([1, 0, 1, 1], 2) == 0.5
        assert reciprocal_rank([0, 0, 1, 1], 2) == 0.0

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
            average_precision(Serp([1, 1, 0]), 3, 1)
        with pytest.raises(ValueError):
            ndcg(Serp([1, 0, 1]), 3, 1)
        with pytest.raises(ValueError):
            evaluate(MetricSpec("AP", 3), Serp([1, 1, 0]), TopicContext(total_relevant=1))

    def test_ideal_gain_capped_by_pool(self):
        # one relevant document in the collection; retrieving it at rank 1
        # is already ideal no matter the depth
        assert_allclose(ndcg(Serp([1, 0, 0]), 3, 1), 1.0)
        assert_allclose(average_precision(Serp([1, 0, 0]), 3, 1), 1.0)

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
        def deeper_is_better(serp):
            return sum(i * r for i, r in enumerate(serp, start=1))

        violations = certify_compliance(deeper_is_better, 2)
        assert (Serp([1, 0]), Serp([0, 1])) in violations

    def test_late_tie_break_fails(self):
        # a tiny bonus for placing relevant items later flips score ties on
        # dominance pairs like [1,0,0] vs [0,1,0]
        def late_bonus_precision(serp):
            return precision(serp, 3) + 1e-6 * ((1 << 3) - 1 - serp.to_int())

        violations = certify_compliance(late_bonus_precision, 3)
        assert violations
        for a, b in violations:
            assert compare(a, b, 3) is Relationship.NON_INFERIOR
        assert (Serp([1, 0, 0]), Serp([0, 1, 0])) in violations

    def test_respects_tolerance(self):
        def noisy_precision(serp):
            return precision(serp, 3) + 1e-13 * ((1 << 3) - 1 - serp.to_int())

        assert certify_compliance(noisy_precision, 3) == []
        assert certify_compliance(noisy_precision, 3, tolerance=1e-16) != []


class TestMetricSuite:
    def test_contents(self):
        labels = [m.label for m in metric_suite(3)]
        assert labels == ["P@3", "RR@3", "S@3", "RBP0.5@3", "RBP0.8@3", "AP@3", "NDCG@3"]

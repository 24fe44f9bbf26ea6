"""Release gate: ten numbered end-to-end criteria with pinned targets.

Each ``test_criterion_NN_*`` function is one criterion; the conftest hook
prints a one-line PASS/FAIL verdict per criterion after the run.  Targets
are frozen here, not recomputed, and every tolerance is explicit.  The
TREC branch of criterion 09 runs only when IPSO_ROBUST_RUN_DIR and
IPSO_ROBUST_QRELS point at the 2004 Robust track data; the bundled
fixture branch always runs.
"""

from __future__ import annotations

import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from ipso import _bits
from ipso.enumeration import (
    dp_counts,
    enumerate_pairs,
    hasse_cover,
    kendall_tau,
    relationship_counts,
    sample_pairs,
)
from ipso.experiment import (
    category_fractions,
    compare_systems,
    percentile_run,
    topic_table,
)
from ipso.metrics import (
    PHI,
    SCORE_TOLERANCE,
    MetricSpec,
    TopicContext,
    certify_compliance,
    metric_suite,
    evaluate,
    ordering_check,
    score_all,
)
from ipso.serp import (
    GROUP_TABLE_ORDER,
    Relationship,
    Serp,
    compare,
    trajectory,
)
from ipso.stats import sign_test, t_test_paired, wilcoxon_signed_rank
from ipso.trecio import judgment_coverage, parse_qrels, parse_run
from scalar_reference import prefix_dominance_oracle

DATA = Path(__file__).parent / "data"

EQ = Relationship.EQUAL
NI = Relationship.NON_INFERIOR
NS = Relationship.NON_SUPERIOR
XX = Relationship.NON_SEPARABLE


# --------------------------------------------------------------------------
# criterion 01 — exhaustive category percentages at k = 5, 10, 15
# --------------------------------------------------------------------------

# Two-decimal target cells for the exhaustive census.  The k=10
# non-separable target of "32.81" is kept here verbatim but cannot be
# reproduced: the exact count is 344168 of 2^20, i.e. 32.8224%, which
# renders as "32.82" (and 0.10 + 67.08 + 32.81 leaves that row short of
# 100.00).  Both independent tallies — bit-parallel enumeration and the
# closed-form dynamic program — agree on 344168, so the exact count is
# asserted and the discrepant cell is treated as an upstream rounding
# slip.  The conftest summary repeats this note next to the verdict.
EXHAUSTIVE_TARGETS = {
    5: ("3.12", "83.98", "12.89"),
    10: ("0.10", "67.08", "32.81"),
    15: ("0.00", "55.97", "44.02"),
}

K10_NON_SEPARABLE_COUNT = 344168  # of 2^20 pairs -> renders "32.82"

ENUMERATION_TIME_BUDGET_S = 600.0


def test_criterion_01_exhaustive_category_percentages():
    start = time.perf_counter()
    for k, (equal_pct, separable_pct, non_sep_pct) in EXHAUSTIVE_TARGETS.items():
        counts = enumerate_pairs(k)
        rendered = counts.percent_strings()
        assert counts.total == 4 ** k
        assert rendered["equal"] == equal_pct, (k, rendered)
        assert rendered["separable"] == separable_pct, (k, rendered)
        if k == 10:
            assert counts.non_separable == K10_NON_SEPARABLE_COUNT
            assert rendered["non_separable"] == "32.82"
            assert non_sep_pct == "32.81"  # the unreachable cell, see note
        else:
            assert rendered["non_separable"] == non_sep_pct, (k, rendered)
    elapsed = time.perf_counter() - start
    assert elapsed < ENUMERATION_TIME_BUDGET_S, f"census took {elapsed:.1f}s"


# --------------------------------------------------------------------------
# criterion 02 — sampled non-separable rates at k = 20, 50, 100
# --------------------------------------------------------------------------

SAMPLED_TARGETS_PCT = {20: 51.09, 50: 68.57, 100: 77.66}
SAMPLE_COUNT = 10_000_000
SAMPLE_TOLERANCE_PP = 0.3


def test_criterion_02_sampled_non_separable_rates():
    for k, target in SAMPLED_TARGETS_PCT.items():
        counts = sample_pairs(k, SAMPLE_COUNT, seed=1)
        assert counts.mode == "sampled"
        assert counts.total == SAMPLE_COUNT
        observed = 100.0 * counts.non_separable_fraction
        assert abs(observed - target) <= SAMPLE_TOLERANCE_PP, (k, observed)


# --------------------------------------------------------------------------
# criterion 03 — dual routes agree: DP vs enumeration, walk vs dominance
# --------------------------------------------------------------------------


def test_criterion_03_dual_route_agreement():
    for k in range(1, 13):
        eq, ni, ns, xx = _bits.relationship_counts_exact(k)
        counts = relationship_counts(k)
        assert (counts[EQ], counts[NI], counts[NS], counts[XX]) == (eq, ni, ns, xx), k
        c = dp_counts(k)
        assert (c.equal, c.separable, c.non_separable) == (eq, ni + ns, xx), k
    for k in range(1, 11):
        serps = [Serp.from_int(code, k) for code in range(1 << k)]
        for a in serps:
            for b in serps:
                assert compare(a, b, k) is prefix_dominance_oracle(a, b, k)


# --------------------------------------------------------------------------
# criterion 04 — one depth-3 pair splits the metric suite three ways
# --------------------------------------------------------------------------

ROW_A = [1, 0, 0]
ROW_B = [0, 1, 1]
ROW_CTX = TopicContext(total_relevant=2)

PREFER_B = [MetricSpec("P", 3), MetricSpec("RBP", 3, 0.8),
            MetricSpec("AP", 3), MetricSpec("NDCG", 3)]
EXACT_TIES = [MetricSpec("S", 3), MetricSpec("RBP", 3, PHI)]
PREFER_A = [MetricSpec("RR", 3), MetricSpec("RBP", 3, 0.5)]

TIE_TOLERANCE = 1e-12


def test_criterion_04_depth3_metric_disagreement():
    for metric in PREFER_B:
        assert ordering_check(metric, ROW_A, ROW_B, ROW_CTX) == "<", metric.label
    assert TIE_TOLERANCE == SCORE_TOLERANCE  # the tolerance ordering_check compares with
    for metric in EXACT_TIES:
        assert ordering_check(metric, ROW_A, ROW_B, ROW_CTX) == "=", metric.label
    for metric in PREFER_A:
        assert ordering_check(metric, ROW_A, ROW_B, ROW_CTX) == ">", metric.label


# --------------------------------------------------------------------------
# criterion 05 — compliance certification
# --------------------------------------------------------------------------


def test_criterion_05_compliance_certification():
    for k in range(1, 9):
        ctx = TopicContext(total_relevant=k)
        for metric in metric_suite(k):
            assert certify_compliance(metric, k, ctx) == [], (k, metric.label)

    # A planted violator: precision plus a tiny bonus for ranking relevant
    # items later.  It flips score ties on dominance pairs and must be
    # reported.
    def late_bonus_precision(serp):
        return evaluate(MetricSpec("P", 3), serp) + 1e-6 * ((1 << 3) - 1 - serp.to_int())

    violations = certify_compliance(late_bonus_precision, 3)
    assert violations
    assert (Serp([1, 0, 0]), Serp([0, 1, 0])) in violations


# --------------------------------------------------------------------------
# criterion 06 — k=3 census and Hasse incomparability
# --------------------------------------------------------------------------


def test_criterion_06_k3_census_and_hasse():
    census = relationship_counts(3)
    assert census[EQ] == 8
    assert census[XX] == 2
    assert census[NI] + census[NS] == 54
    assert census[NI] == census[NS]

    edges = hasse_cover(3).bitstring_pairs()
    children: dict = {}
    for parent, child in edges:
        children.setdefault(parent, set()).add(child)

    def reachable(src: str, dst: str) -> bool:
        frontier, seen = [src], {src}
        while frontier:
            node = frontier.pop()
            if node == dst:
                return True
            for nxt in children.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    assert reachable("111", "000")  # sanity: top dominates bottom
    assert not reachable("100", "011")
    assert not reachable("011", "100")


# --------------------------------------------------------------------------
# criterion 07 — exact sign test window
# --------------------------------------------------------------------------


def test_criterion_07_sign_test_window():
    result = sign_test(109, 81)
    assert result.method == "exact"
    assert 0.0498 <= result.p_value <= 0.0500, result.p_value


# --------------------------------------------------------------------------
# criterion 08 — rank correlation of metric orderings at k=6
# --------------------------------------------------------------------------

TAU_TARGETS = [
    (MetricSpec("AP", 6), MetricSpec("NDCG", 6), 0.976),
    (MetricSpec("RBP", 6, 0.5), MetricSpec("NDCG", 6), 0.796),
    (MetricSpec("AP", 6), MetricSpec("RBP", 6, 0.5), 0.786),
]
TAU_TOLERANCE = 0.02


def test_criterion_08_metric_ordering_correlations():
    ctx = TopicContext(total_relevant=6)
    for metric in metric_suite(6):
        assert kendall_tau(metric, metric, 6, ctx) == 1.0, metric.label
    for metric_a, metric_b, target in TAU_TARGETS:
        tau = kendall_tau(metric_a, metric_b, 6, ctx)
        assert abs(tau - target) <= TAU_TOLERANCE, (metric_a.label,
                                                    metric_b.label, tau)


# --------------------------------------------------------------------------
# criterion 09 — ingestion and comparison pipeline, end to end
# --------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore:system charlie")
def test_criterion_09_pipeline_on_bundled_fixture():
    runs = [parse_run(DATA / "runs" / name, truncate=5)
            for name in ("alpha.run", "bravo.run", "charlie.run")]
    alpha, bravo, charlie = runs
    qrels = parse_qrels(DATA / "qrels.txt")

    # judgment coverage over every retained list
    coverage = judgment_coverage(runs, qrels)
    assert coverage.n_lists == 17
    assert coverage.fraction_with_unjudged == pytest.approx(4 / 17)

    # census over all three system pairs
    fractions = category_fractions(runs, qrels, 5)
    assert (fractions.equal, fractions.separable,
            fractions.non_separable, fractions.total) == (4, 11, 3, 18)

    # one comparison that exercises all five topic groups
    report = compare_systems(alpha, bravo, qrels, 5, metric="P@5", test="t")
    assert report.zero_relevant_topics == ("606",)
    assert [report.group_count(g) for g in GROUP_TABLE_ORDER] == [1, 1, 2, 1, 1]
    assert report.sign_counts == (1, 1)
    assert report.ipso_p == 1.0
    assert report.mean_a == pytest.approx(0.4)
    assert report.mean_b == pytest.approx(0.4)
    assert report.metric_p == pytest.approx(1.0)
    assert not report.ipso_corroborated

    # one-sided dominance with a significant paired test
    report = compare_systems(alpha, charlie, qrels, 5,
                             metric="RBP0.5@5", test="t")
    assert report.sign_counts == (5, 0)
    assert report.ipso_p == 0.0625
    assert report.metric_p == pytest.approx(0.02356195652042681, abs=1e-12)
    assert report.metric_significant

    # sectioned per-topic table ordering
    rows = topic_table(alpha, bravo, qrels, 5)
    assert [row.topic_id for row in rows] == ["605", "602", "603",
                                              "606", "601", "604"]

    # percentile selection used to pick comparison pairs
    assert percentile_run(runs, qrels, "P@5", 100)[0] == "bravo"
    assert percentile_run(runs, qrels, "P@5", 25)[0] == "charlie"


ROBUST_RUN_DIR = os.environ.get("IPSO_ROBUST_RUN_DIR", "")
ROBUST_QRELS = os.environ.get("IPSO_ROBUST_QRELS", "")

# Exhaustive-census fractions over all run pairs of the TREC 2004 Robust
# track (110 systems, 249 topics, lists truncated at 100), in percent.
ROBUST_TARGETS_PCT = {
    5: (20.40, 74.49, 5.12),
    10: (8.33, 74.66, 17.01),
    15: (4.91, 69.91, 25.18),
    20: (3.55, 66.01, 30.44),
    50: (1.54, 55.88, 42.58),
    100: (0.92, 50.44, 48.64),
}
ROBUST_FRACTION_TOLERANCE_PP = 0.5
ROBUST_GROUP_SIZES = [20, 81, 23, 109, 16]
ROBUST_COVERAGE_REL_TOL = 0.01  # 1% relative on each coverage statistic


@pytest.mark.skipif(not (ROBUST_RUN_DIR and ROBUST_QRELS),
                    reason="IPSO_ROBUST_RUN_DIR / IPSO_ROBUST_QRELS not set")
def test_criterion_09_pipeline_on_robust_track_data():
    paths = sorted(p for p in Path(ROBUST_RUN_DIR).iterdir() if p.is_file())
    runs = [parse_run(p, truncate=100) for p in paths]
    qrels = parse_qrels(ROBUST_QRELS)
    assert len(runs) == 110

    for k, targets in ROBUST_TARGETS_PCT.items():
        fractions = category_fractions(runs, qrels, k)
        observed = (100.0 * fractions.equal_fraction,
                    100.0 * fractions.separable_fraction,
                    100.0 * fractions.non_separable_fraction)
        for got, want in zip(observed, targets):
            assert abs(got - want) <= ROBUST_FRACTION_TOLERANCE_PP, (k, observed)

    # the best run against the lower-quartile run, by mean P@10
    by_tag = {run.system_tag: run for run in runs}
    best_tag, _ = percentile_run(runs, qrels, "P@10", 100)
    quartile_tag, _ = percentile_run(runs, qrels, "P@10", 25)
    rows = topic_table(by_tag[best_tag], by_tag[quartile_tag], qrels, 10)
    sizes = [sum(1 for row in rows if row.group is g) for g in GROUP_TABLE_ORDER]
    assert sizes == ROBUST_GROUP_SIZES

    # judgment coverage of the truncated lists
    coverage = judgment_coverage(runs, qrels)
    affected = [row for row in coverage.rows if row.n_unjudged]
    mean_unjudged_in_affected = (sum(row.n_unjudged for row in affected)
                                 / len(affected))
    checks = [
        (coverage.fraction_with_unjudged, 0.687),
        (coverage.mean_first_unjudged_rank, 46.0),
        (mean_unjudged_in_affected, 14.6),
    ]
    for got, want in checks:
        assert abs(got - want) <= ROBUST_COVERAGE_REL_TOL * want, checks


# --------------------------------------------------------------------------
# criterion 10 — randomized invariant suites and worker-invariant sampling
# --------------------------------------------------------------------------

SUITE_SIZE = 100_000
TRAJECTORY_SHAPE = re.compile(r"^(==)*((ni)+|(ns)+)?(\*\*)*$")


def test_criterion_10_trajectory_shape_invariants():
    rng = np.random.default_rng(1001)
    depths = rng.integers(1, 21, size=SUITE_SIZE)
    bits = rng.integers(0, 2, size=(SUITE_SIZE, 2, 20))
    for i in range(SUITE_SIZE):
        k = int(depths[i])
        a = bits[i, 0, :k].tolist()
        b = bits[i, 1, :k].tolist()
        traj = trajectory(a, b)
        codes = traj.codes()
        assert len(codes) == k
        joined = "".join(codes)
        assert TRAJECTORY_SHAPE.match(joined), joined
        assert codes[-1] == compare(a, b, k).code
        assert traj.leading_equal_run() == _leading_count(codes, "==")
        assert traj.non_separable_count() == codes.count("**")
        directional = [c for c in codes if c in ("ni", "ns")]
        if "**" in codes:
            assert traj.first_non_separable_depth() == codes.index("**") + 1
            assert traj.midpoint() is (NI if directional[-1] == "ni" else NS)
        else:
            assert traj.first_non_separable_depth() is None
            assert traj.midpoint() is None


def _leading_count(codes, code):
    n = 0
    for c in codes:
        if c != code:
            break
        n += 1
    return n


def test_criterion_10_antisymmetry_invariant():
    rng = np.random.default_rng(1002)
    depths = rng.integers(1, 21, size=SUITE_SIZE)
    bits = rng.integers(0, 2, size=(SUITE_SIZE, 2, 20))
    for i in range(SUITE_SIZE):
        k = int(depths[i])
        a = bits[i, 0, :k].tolist()
        b = bits[i, 1, :k].tolist()
        assert compare(b, a, k) is compare(a, b, k).flipped()


def _rows_dominated_by(rows: np.ndarray, rng) -> np.ndarray:
    """Random rows whose every prefix-one count stays <= the input row's."""
    n, k = rows.shape
    bound = np.cumsum(rows, axis=1)
    out = np.zeros_like(rows)
    running = np.zeros(n, dtype=np.int64)
    for depth in range(k):
        free = running < bound[:, depth]
        bit = np.where(free, rng.integers(0, 2, size=n), 0)
        out[:, depth] = bit
        running += bit
    return out


def test_criterion_10_transitivity_invariant():
    rng = np.random.default_rng(1003)
    k = 12
    top = rng.integers(0, 2, size=(SUITE_SIZE, k))
    mid = _rows_dominated_by(top, rng)
    low = _rows_dominated_by(mid, rng)
    for i in range(SUITE_SIZE):
        a = top[i].tolist()
        b = mid[i].tolist()
        c = low[i].tolist()
        assert compare(a, b, k) in (EQ, NI)
        assert compare(b, c, k) in (EQ, NI)
        assert compare(a, c, k) in (EQ, NI)


def test_criterion_10_p_value_range_invariant():
    rng = np.random.default_rng(1004)

    for _ in range(50_000):
        n_pos = int(rng.integers(0, 151))
        n_neg = int(rng.integers(0, 151))
        if n_pos == n_neg == 0:
            n_pos = 1
        result = sign_test(n_pos, n_neg)
        assert 0.0 <= result.p_value <= 1.0, (n_pos, n_neg)

    for _ in range(30_000):
        n = int(rng.integers(2, 31))
        diffs = rng.integers(-3, 4, size=n).astype(float)
        result = t_test_paired(diffs)
        assert 0.0 <= result.p_value <= 1.0, diffs

    for _ in range(20_000):
        n = int(rng.integers(2, 41))
        diffs = rng.integers(-5, 6, size=n).astype(float)
        if not diffs.any():
            diffs[0] = 1.0
        result = wilcoxon_signed_rank(diffs)
        assert 0.0 <= result.p_value <= 1.0, diffs


def test_criterion_10_mandated_polarity_invariant():
    k = 8
    ctx = TopicContext(total_relevant=k)
    suite = metric_suite(k)
    table = np.vstack([score_all(metric, k, ctx) for metric in suite])

    rng = np.random.default_rng(1005)
    draws = 150_000  # leaves >= SUITE_SIZE mandated instances after filtering
    code_a = rng.integers(0, 1 << k, size=draws)
    code_b = rng.integers(0, 1 << k, size=draws)
    metric_index = rng.integers(0, len(suite), size=draws)

    shifts = np.arange(k - 1, -1, -1)
    prefix_a = np.cumsum((code_a[:, None] >> shifts) & 1, axis=1)
    prefix_b = np.cumsum((code_b[:, None] >> shifts) & 1, axis=1)
    never_behind = np.all(prefix_a >= prefix_b, axis=1)
    never_ahead = np.all(prefix_a <= prefix_b, axis=1)

    diffs = table[metric_index, code_a] - table[metric_index, code_b]
    tolerance = 1e-12

    mandated = never_behind | never_ahead
    assert int(mandated.sum()) >= SUITE_SIZE
    assert np.all(diffs[never_behind & ~never_ahead] >= -tolerance)
    assert np.all(diffs[never_ahead & ~never_behind] <= tolerance)
    assert np.all(diffs[never_behind & never_ahead] == 0.0)


def test_criterion_10_sampling_worker_invariance():
    baseline = sample_pairs(25, 655_360, seed=99, workers=1)
    for workers in (4, 16):
        assert sample_pairs(25, 655_360, seed=99, workers=workers) == baseline

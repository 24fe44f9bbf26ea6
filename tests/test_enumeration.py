import io
import itertools

import numpy as np
import pytest

from ipso import _bits, enumeration
from ipso.enumeration import (
    COUNTS_CSV_HEADER,
    EXHAUSTIVE_LIMIT,
    CategoryCounts,
    build_grid,
    dp_counts,
    enumerate_pairs,
    hasse_cover,
    kendall_tau,
    relationship_counts,
    sample_pairs,
    write_counts_csv,
)
from ipso.metrics import PHI, MetricSpec, TopicContext, evaluate, metric_suite
from ipso.serp import Relationship, Serp, compare

EQ = Relationship.EQUAL
NI = Relationship.NON_INFERIOR
NS = Relationship.NON_SUPERIOR
XX = Relationship.NON_SEPARABLE

# exhaustively verified category counts (equal, ni, ns, non-separable)
KNOWN_COUNTS = {
    1: (2, 1, 1, 0),
    2: (4, 6, 6, 0),
    3: (8, 27, 27, 2),
    6: (64, 1652, 1652, 728),
    8: (256, 24054, 24054, 17172),
    10: (1024, 351692, 351692, 344168),
    12: (4096, 5196204, 5196204, 6380712),
}


class TestRelationshipCounts:
    @pytest.mark.parametrize("k", sorted(KNOWN_COUNTS))
    def test_known_values(self, k):
        counts = relationship_counts(k)
        assert (counts[EQ], counts[NI], counts[NS], counts[XX]) == KNOWN_COUNTS[k]
        assert _bits.relationship_counts_exact(k) == KNOWN_COUNTS[k]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_matches_pairwise_compare(self, k):
        serps = [Serp.from_int(c, k) for c in range(1 << k)]
        expected = {r: 0 for r in Relationship}
        for a, b in itertools.product(serps, repeat=2):
            expected[compare(a, b, k)] += 1
        assert relationship_counts(k) == expected

    @pytest.mark.parametrize("k", list(KNOWN_COUNTS))
    def test_structural_invariants(self, k):
        counts = relationship_counts(k)
        assert counts[EQ] == 1 << k
        assert counts[NI] == counts[NS]
        assert sum(counts.values()) == 1 << (2 * k)

    def test_exact_beyond_exhaustive_limit(self):
        for k in (EXHAUSTIVE_LIMIT + 1, 30):
            counts = relationship_counts(k)
            assert counts[EQ] == 1 << k
            assert counts[NI] == counts[NS] > 0
            assert sum(counts.values()) == 4 ** k
        with pytest.raises(ValueError):
            relationship_counts(0)


class TestEnumeratePairs:
    def test_k3(self):
        c = enumerate_pairs(3)
        assert (c.equal, c.separable, c.non_separable) == (8, 54, 2)
        assert c.total == 64
        assert c.mode == "exact"
        assert c.sample_seed is None

    def test_percent_rendering(self):
        assert enumerate_pairs(5).percent_strings() == {
            "equal": "3.12",
            "separable": "83.98",
            "non_separable": "12.89",
        }
        assert enumerate_pairs(10).percent_strings() == {
            "equal": "0.10",
            "separable": "67.08",
            "non_separable": "32.82",
        }

    def test_exact_beyond_exhaustive_limit(self):
        for k in (16, 30):
            c = enumerate_pairs(k)
            assert (c.equal, c.total, c.mode) == (1 << k, 4 ** k, "exact")
            assert c.equal + c.separable + c.non_separable == 4 ** k
        with pytest.raises(ValueError):
            enumerate_pairs(0)


def assert_dp_matches_bit_parallel(k):
    eq, ni, ns, xx = _bits.relationship_counts_exact(k)
    counts = relationship_counts(k)
    assert (counts[EQ], counts[NI], counts[NS], counts[XX]) == (eq, ni, ns, xx)
    c = dp_counts(k)
    assert (c.equal, c.separable, c.non_separable, c.total) == (eq, ni + ns, xx, 4 ** k)


class TestDpCounts:
    @pytest.mark.parametrize("k", sorted(KNOWN_COUNTS))
    def test_agrees_with_enumeration(self, k):
        assert_dp_matches_bit_parallel(k)

    @pytest.mark.parametrize("k", range(13, EXHAUSTIVE_LIMIT + 1))
    def test_agrees_with_enumeration_up_to_the_limit(self, k):
        assert_dp_matches_bit_parallel(k)

    def test_large_depths_exact(self):
        for k, pct in [(20, "51.05"), (50, "68.48"), (100, "77.57")]:
            c = dp_counts(k)
            assert c.total == 1 << (2 * k)
            assert c.equal == 1 << k
            assert c.percent_strings()["non_separable"] == pct

    def test_non_separable_fraction_grows(self):
        fracs = [dp_counts(k).non_separable_fraction for k in (2, 5, 10, 20, 50, 100)]
        assert fracs == sorted(fracs)


class TestCategoryCounts:
    def test_validates_sum(self):
        with pytest.raises(ValueError):
            CategoryCounts(k=2, equal=4, separable=11, non_separable=0,
                           total=16, mode="exact")

    def test_validates_mode(self):
        with pytest.raises(ValueError):
            CategoryCounts(k=2, equal=4, separable=12, non_separable=0,
                           total=16, mode="guessed")

    def test_csv_round_trip(self):
        buf = io.StringIO()
        write_counts_csv([enumerate_pairs(3), sample_pairs(3, 64, seed=9)], buf)
        lines = buf.getvalue().strip().splitlines()
        assert COUNTS_CSV_HEADER == ("k", "equal", "separable", "non_separable",
                                     "total", "mode", "seed")
        assert lines[0] == "k,equal,separable,non_separable,total,mode,seed"
        assert lines[1] == "3,8,54,2,64,exact,"
        fields = lines[2].split(",")
        assert fields[0] == "3" and fields[5] == "sampled" and fields[6] == "9"
        assert sum(int(x) for x in fields[1:4]) == 64

    def test_to_dict_has_percentages(self):
        d = enumerate_pairs(10).to_dict()
        assert d["percent"] == {"equal": 0.1, "separable": 67.08, "non_separable": 32.82}
        assert d["total"] == 1 << 20


class TestSampling:
    def test_frozen_draw(self):
        c = sample_pairs(10, 200_000, seed=42)
        assert (c.equal, c.separable, c.non_separable) == (224, 134418, 65358)
        assert c.mode == "sampled"
        assert c.sample_seed == 42

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_count_does_not_change_counts(self, workers):
        base = sample_pairs(10, 200_000, seed=42)
        multi = sample_pairs(10, 200_000, seed=42, workers=workers)
        assert (base.equal, base.separable, base.non_separable) == \
            (multi.equal, multi.separable, multi.non_separable)

    def test_seed_changes_counts(self):
        a = sample_pairs(10, 200_000, seed=42)
        b = sample_pairs(10, 200_000, seed=43)
        assert (a.equal, a.separable, a.non_separable) != (b.equal, b.separable, b.non_separable)

    def test_close_to_exact_at_k10(self):
        n = 200_000
        c = sample_pairs(10, n, seed=42)
        exact = enumerate_pairs(10)
        for attr in ("equal_fraction", "separable_fraction", "non_separable_fraction"):
            p = getattr(exact, attr)
            se = (p * (1 - p) / n) ** 0.5
            assert abs(getattr(c, attr) - p) < 5 * se + 1e-9

    def test_frozen_seed_one_census(self):
        # seed-1 draws of the benchmark's sampled census; a change to the
        # stream or the classifier moves these counts
        frozen = {20: (2, 489928, 510070), 50: (0, 314530, 685470), 100: (0, 224427, 775573)}
        n = 10**6
        for k, counts in frozen.items():
            c = sample_pairs(k, n, seed=1)
            assert (c.equal, c.separable, c.non_separable) == counts, k
            exact = dp_counts(k)
            for attr in ("equal", "separable", "non_separable"):
                p = getattr(exact, attr) / exact.total
                se = (n * p * (1 - p)) ** 0.5
                assert abs(getattr(c, attr) - n * p) <= 5 * se, (k, attr)

    @pytest.mark.parametrize("n", [1, 5, 7, 9, 13])
    @pytest.mark.parametrize("seed, chunk", [(0, 0), (1, 3), (7, 15), (2**63, 1)])
    def test_chunk_bytes_are_generator_bytes(self, seed, chunk, n):
        bit_generator = np.random.Philox(key=seed, counter=chunk << 64)
        expected = np.random.Generator(bit_generator).bytes(n)
        assert enumeration._chunk_bytes(seed, chunk, n).tobytes() == expected

    def test_deep_k_runs(self):
        c = sample_pairs(60, 10_000, seed=1)
        assert c.total == 10_000
        assert c.equal + c.separable + c.non_separable == 10_000

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_pairs(5, 0)
        with pytest.raises(ValueError):
            sample_pairs(0, 100)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_workers_below_one_before_any_pool(self, workers, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was made")

        monkeypatch.setattr(enumeration, "ThreadPoolExecutor", no_pool)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            sample_pairs(5, 100, workers=workers)


class TestGrid:
    def test_k1_layout(self):
        g = build_grid(1, MetricSpec("P", 1), MetricSpec("P", 1))
        assert g.row_bitstrings() == ["0", "1"]
        assert g.col_bitstrings() == ["0", "1"]
        cells = [[g.relationship(i, j) for j in range(2)] for i in range(2)]
        assert cells == [[EQ, NS], [NI, EQ]]

    def test_rbp_half_rows_are_integer_order(self):
        # RBP at persistence 1/2 scores each ranking by its binary expansion,
        # so the score order reproduces the integer-code order exactly
        g = build_grid(3, MetricSpec("RBP", 3, 0.5), MetricSpec("RBP", 3, 0.5))
        assert g.row_bitstrings() == [Serp.from_int(c, 3).bitstring for c in range(8)]
        assert g.category_counts() == {EQ: 8, NI: 27, NS: 27, XX: 2}

    def test_diagonal_equal_when_axes_share_order(self):
        g = build_grid(4, MetricSpec("P", 4), MetricSpec("P", 4))
        for i in range(16):
            assert g.relationship(i, i) is EQ

    def test_cell_multiset_invariant_under_metric_choice(self):
        # reordering rows and columns permutes cells but never changes the
        # multiset of relationships
        expected = relationship_counts(6)
        for row, col in [
            (MetricSpec("P", 6), MetricSpec("NDCG", 6)),
            (MetricSpec("RR", 6), MetricSpec("RBP", 6, 0.8)),
            (MetricSpec("AP", 6), MetricSpec("S", 6)),
        ]:
            assert build_grid(6, row, col).category_counts() == expected

    def test_cells_match_compare(self):
        g = build_grid(3, MetricSpec("AP", 3), MetricSpec("RR", 3))
        rows = [Serp.from_bitstring(b) for b in g.row_bitstrings()]
        cols = [Serp.from_bitstring(b) for b in g.col_bitstrings()]
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                assert g.relationship(i, j) is compare(a, b, 3)

    def test_score_ties_break_lexicographically(self):
        g = build_grid(2, MetricSpec("S", 2), MetricSpec("S", 2))
        # success ties 01, 10 and 11; ties keep ascending code order
        assert g.row_bitstrings() == ["00", "01", "10", "11"]

    def test_csv_shape(self):
        g = build_grid(1, MetricSpec("P", 1), MetricSpec("P", 1))
        buf = io.StringIO()
        g.write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ",0,1"
        assert lines[1] == "0,==,ns"
        assert lines[2] == "1,ni,=="

    def test_respects_depth_limit(self):
        with pytest.raises(ValueError):
            build_grid(13, MetricSpec("P", 13), MetricSpec("P", 13))


class TestHasse:
    def test_k1_single_edge(self):
        h = hasse_cover(1)
        assert h.bitstring_pairs() == [("1", "0")]

    def test_k3_known_edges(self):
        pairs = hasse_cover(3).bitstring_pairs()
        assert ("110", "101") in pairs
        assert ("100", "010") in pairs
        # these two are innately unordered: neither direction appears
        assert ("100", "011") not in pairs
        assert ("011", "100") not in pairs

    def test_edges_are_strict_dominance(self):
        for frm, to in hasse_cover(4).bitstring_pairs():
            assert compare(Serp.from_bitstring(frm), Serp.from_bitstring(to), 4) is NI

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_matches_networkx_transitive_reduction(self, k):
        nx = pytest.importorskip("networkx")
        full = nx.DiGraph()
        serps = [Serp.from_int(c, k) for c in range(1 << k)]
        full.add_nodes_from(range(1 << k))
        for a, b in itertools.product(range(1 << k), repeat=2):
            if compare(serps[a], serps[b], k) is NI:
                full.add_edge(a, b)
        reduced = nx.transitive_reduction(full)
        expected = sorted(reduced.edges())
        assert sorted(hasse_cover(k).edges) == expected

    def test_closure_recovers_dominance(self):
        # following cover edges must reach exactly the dominated rankings
        nx = pytest.importorskip("networkx")
        k = 5
        g = nx.DiGraph(hasse_cover(k).edges)
        g.add_nodes_from(range(1 << k))
        serps = [Serp.from_int(c, k) for c in range(1 << k)]
        for a in range(1 << k):
            reachable = nx.descendants(g, a)
            for b in range(1 << k):
                dominated = compare(serps[a], serps[b], k) is NI
                assert (b in reachable) == dominated

    def test_csv_is_bare_pairs(self):
        buf = io.StringIO()
        hasse_cover(2).write_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert all(len(line.split(",")) == 2 for line in lines)
        assert "from" not in buf.getvalue()

    def test_respects_depth_limit(self):
        with pytest.raises(ValueError):
            hasse_cover(9)


class TestKendallTau:
    def test_self_correlation(self):
        for metric in metric_suite(5):
            assert kendall_tau(metric, metric, 5) == pytest.approx(1.0)

    def test_frozen_values(self):
        assert kendall_tau(MetricSpec("RBP", 6, 0.5), MetricSpec("NDCG", 6), 6) == \
            pytest.approx(0.7956349206349206, abs=1e-12)
        assert kendall_tau(MetricSpec("AP", 6), MetricSpec("RBP", 6, 0.5), 6) == \
            pytest.approx(0.7829997222364906, abs=1e-12)
        assert kendall_tau(MetricSpec("AP", 6), MetricSpec("NDCG", 6), 6) == \
            pytest.approx(0.9758910823810991, abs=1e-12)

    def test_symmetric(self):
        a, b = MetricSpec("P", 4), MetricSpec("S", 4)
        assert kendall_tau(a, b, 4) == kendall_tau(b, a, 4)
        assert kendall_tau(a, b, 4) == pytest.approx(0.4016096644512494, abs=1e-12)

    def test_agrees_with_scipy_direct(self):
        from scipy.stats import kendalltau

        metric_a, metric_b = MetricSpec("RR", 5), MetricSpec("AP", 5)
        xs = [evaluate(metric_a, Serp.from_int(c, 5)) for c in range(32)]
        ys = [evaluate(metric_b, Serp.from_int(c, 5)) for c in range(32)]
        assert kendall_tau(metric_a, metric_b, 5) == float(kendalltau(xs, ys).statistic)

    def test_respects_depth_limit(self):
        with pytest.raises(ValueError):
            kendall_tau(MetricSpec("P", 13), MetricSpec("S", 13), 13)

import itertools
import re

import numpy as np
import pytest

from ipso.serp import (
    GROUP_TABLE_ORDER,
    Relationship,
    Serp,
    TopicGroup,
    Trajectory,
    as_serp,
    classify_group,
    compare,
    group_sort_key,
    trajectory,
)
from scalar_reference import prefix_dominance_oracle

EQ = Relationship.EQUAL
NI = Relationship.NON_INFERIOR
NS = Relationship.NON_SUPERIOR
XX = Relationship.NON_SEPARABLE


def all_serps(k):
    return [Serp.from_int(c, k) for c in range(1 << k)]


class TestSerpType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Serp([0, 2, 1])
        with pytest.raises(ValueError):
            Serp([0, -1])

    def test_bitstring_round_trip(self):
        s = Serp.from_bitstring("10110")
        assert s == (1, 0, 1, 1, 0)
        assert s.bitstring == "10110"

    def test_int_encoding_is_lexicographic(self):
        # MSB-first: integer order of codes == lexicographic order of vectors
        serps = all_serps(4)
        assert serps == sorted(serps, key=tuple)
        for code, s in enumerate(serps):
            assert s.to_int() == code
        with pytest.raises(ValueError):
            Serp.from_int(16, 4)

    def test_as_serp_coercions(self):
        assert as_serp("101") == Serp([1, 0, 1])
        assert as_serp([1, 0]) == Serp([1, 0])
        s = Serp([1])
        assert as_serp(s) is s


class TestRelationship:
    def test_codes(self):
        assert [r.code for r in (EQ, NI, NS, XX)] == ["==", "ni", "ns", "**"]

    def test_flipped(self):
        assert NI.flipped() is NS
        assert NS.flipped() is NI
        assert EQ.flipped() is EQ
        assert XX.flipped() is XX


class TestCompare:
    def test_known_pairs(self):
        assert compare([1, 1, 0], [1, 0, 0], 3) is NI
        assert compare([1, 0, 0], [0, 1, 1], 3) is XX
        assert compare([1, 1, 0], [1, 0, 1], 3) is NI
        assert compare([0, 1], [1, 0], 2) is NS

    def test_identity_any_serp(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(1, 20))
            s = Serp(rng.integers(0, 2, size=k))
            assert compare(s, s, k) is EQ

    def test_truncates_longer_serps(self):
        # disagreement beyond the depth must not matter
        assert compare([1, 0, 0, 0], [1, 0, 1, 1], 2) is EQ
        assert compare([1, 0, 0, 0], [1, 0, 1, 1], 3) is NS

    def test_depth_errors(self):
        with pytest.raises(ValueError):
            compare([1, 0], [0, 1], 0)
        with pytest.raises(ValueError):
            compare([1, 0], [0, 1], 3)
        with pytest.raises(ValueError):
            compare([1, 0, 1], [0, 1], 3)

    def test_antisymmetry_exhaustive(self):
        for k in range(1, 6):
            for a, b in itertools.product(all_serps(k), repeat=2):
                assert compare(a, b, k) is compare(b, a, k).flipped()

    def test_equal_iff_identical_prefix(self):
        for a, b in itertools.product(all_serps(4), repeat=2):
            for k in (1, 2, 3, 4):
                is_equal = compare(a, b, k) is EQ
                assert is_equal == (a[:k] == b[:k])

    def test_transitivity_exhaustive_k4(self):
        serps = all_serps(4)
        for a, b, c in itertools.product(serps, repeat=3):
            if compare(a, b, 4) is NI and compare(b, c, 4) is NI:
                assert compare(a, c, 4) in (EQ, NI)

    def test_transitivity_random_k8(self):
        rng = np.random.default_rng(11)
        found = 0
        while found < 2000:
            a, b, c = (Serp(rng.integers(0, 2, size=8)) for _ in range(3))
            if compare(a, b, 8) is NI and compare(b, c, 8) is NI:
                found += 1
                assert compare(a, c, 8) in (EQ, NI)


class TestPrefixDominanceOracle:
    def test_known_pairs(self):
        assert prefix_dominance_oracle([1, 1, 0], [1, 0, 0], 3) is NI
        assert prefix_dominance_oracle([1, 0, 1], [0, 1, 1], 3) is NI
        assert prefix_dominance_oracle([1, 0, 0], [0, 1, 1], 3) is XX

    def test_agrees_with_compare_exhaustive(self):
        for k in range(1, 7):
            for a, b in itertools.product(all_serps(k), repeat=2):
                assert prefix_dominance_oracle(a, b, k) is compare(a, b, k)

    def test_agrees_with_compare_random_deep(self):
        rng = np.random.default_rng(13)
        for k in (20, 50):
            for _ in range(2000):
                a = Serp(rng.integers(0, 2, size=k))
                b = Serp(rng.integers(0, 2, size=k))
                assert prefix_dominance_oracle(a, b, k) is compare(a, b, k)

    def test_depth_errors(self):
        with pytest.raises(ValueError):
            prefix_dominance_oracle([1], [0], 0)
        with pytest.raises(ValueError):
            prefix_dominance_oracle([1], [0], 2)


class TestRuleClosure:
    """compare() must equal the reflexive-transitive closure of the two
    single-step dominance rules: weaken one relevant value, or move one
    relevant value later past a non-relevant one."""

    @staticmethod
    def _closure(k):
        n = 1 << k
        reach = np.eye(n, dtype=bool)
        for code in range(n):
            bits = list(Serp.from_int(code, k))
            for i in range(k):
                if bits[i] != 1:
                    continue
                weakened = bits.copy()
                weakened[i] = 0
                reach[code, Serp(weakened).to_int()] = True
                for j in range(i + 1, k):
                    if bits[j] == 0:
                        swapped = bits.copy()
                        swapped[i], swapped[j] = 0, 1
                        reach[code, Serp(swapped).to_int()] = True
        while True:
            grown = reach | ((reach.astype(np.uint8) @ reach.astype(np.uint8)) > 0)
            if (grown == reach).all():
                return reach
            reach = grown

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_closure_equals_compare(self, k):
        reach = self._closure(k)
        for a in range(1 << k):
            for b in range(1 << k):
                ge, le = reach[a, b], reach[b, a]
                got = compare(Serp.from_int(a, k), Serp.from_int(b, k), k)
                if ge and le:
                    assert a == b and got is EQ
                elif ge:
                    assert got is NI
                elif le:
                    assert got is NS
                else:
                    assert got is XX


TRAJECTORY_PATTERN = re.compile(r"^(==)*((ni)+|(ns)+)?(\*\*)*$")


class TestTrajectory:
    def test_constructed_ten_deep_pair(self):
        traj = trajectory([0, 1, 0, 1, 1, 0, 0, 0, 0, 0],
                          [0, 1, 0, 0, 1, 0, 0, 1, 1, 0])
        assert traj.codes() == ("==", "==", "==", "ni", "ni", "ni", "ni", "ni", "**", "**")
        assert traj.leading_equal_run() == 3
        assert traj.non_separable_count() == 2
        assert traj.first_non_separable_depth() == 9
        assert traj.midpoint() is NI

    def test_tiny_cases(self):
        assert trajectory([1], [0]).codes() == ("ni",)
        # depth 1 puts the walk at -1 and it returns to 0 without ever
        # going positive, so both depths stay non-superior
        assert trajectory([0, 1], [1, 0]).codes() == ("ns", "ns")

    def test_unequal_lengths_error(self):
        with pytest.raises(ValueError):
            trajectory([1, 0], [1])
        with pytest.raises(ValueError):
            trajectory([], [])

    def test_entries_match_prefix_compare(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            k = int(rng.integers(1, 16))
            a = Serp(rng.integers(0, 2, size=k))
            b = Serp(rng.integers(0, 2, size=k))
            traj = trajectory(a, b)
            assert len(traj) == k
            for depth in range(1, k + 1):
                assert traj[depth - 1] is compare(a, b, depth)

    def test_pattern_exhaustive_k5(self):
        for a, b in itertools.product(all_serps(5), repeat=2):
            joined = "".join(trajectory(a, b).codes())
            assert TRAJECTORY_PATTERN.match(joined), joined

    def test_monotone_once_non_separable(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            k = int(rng.integers(2, 30))
            a = Serp(rng.integers(0, 2, size=k))
            b = Serp(rng.integers(0, 2, size=k))
            traj = trajectory(a, b)
            first = traj.first_non_separable_depth()
            if first is not None:
                assert all(r is XX for r in traj[first - 1:])

    def test_midpoint_is_directional(self):
        # the state just before the first non-separable depth can never be EQUAL
        rng = np.random.default_rng(23)
        seen = 0
        while seen < 500:
            k = int(rng.integers(2, 20))
            a = Serp(rng.integers(0, 2, size=k))
            b = Serp(rng.integers(0, 2, size=k))
            traj = trajectory(a, b)
            if traj.first_non_separable_depth() is None:
                continue
            seen += 1
            assert traj.midpoint() in (NI, NS)

    def test_midpoint_none_when_separable(self):
        assert trajectory([1, 0], [0, 0]).midpoint() is None


class TestClassifyGroup:
    def test_known_pairs(self):
        assert classify_group([1, 0, 0], [0, 1, 1], 3) is TopicGroup.NON_SEP_NI_MIDPOINT
        assert classify_group([0, 1, 1], [1, 0, 0], 3) is TopicGroup.NON_SEP_NS_MIDPOINT
        assert classify_group([1, 1, 0], [1, 0, 0], 3) is TopicGroup.SEPARABLE_NI
        assert classify_group([1, 0, 0], [1, 1, 0], 3) is TopicGroup.SEPARABLE_NS
        assert classify_group([1, 0, 1], [1, 0, 1], 3) is TopicGroup.EQUAL

    def test_group_consistent_with_compare(self):
        direct = {
            EQ: {TopicGroup.EQUAL},
            NI: {TopicGroup.SEPARABLE_NI},
            NS: {TopicGroup.SEPARABLE_NS},
            XX: {TopicGroup.NON_SEP_NI_MIDPOINT, TopicGroup.NON_SEP_NS_MIDPOINT},
        }
        for a, b in itertools.product(all_serps(5), repeat=2):
            assert classify_group(a, b, 5) in direct[compare(a, b, 5)]

    def test_truncates_to_depth(self):
        assert classify_group([1, 0, 0, 0], [0, 1, 1, 0], 1) is TopicGroup.SEPARABLE_NI

    def test_table_order(self):
        assert [g.label for g in GROUP_TABLE_ORDER] == ["**/ns", "ns", "==", "ni", "**/ni"]
        assert TopicGroup.EQUAL.table_order == 2


class TestGroupSortKey:
    def test_examples(self):
        assert group_sort_key(Trajectory([EQ, EQ, NI, XX])) == (1, 2)
        assert group_sort_key(Trajectory([NI, NI, NI])) == (0, 0)
        assert group_sort_key(Trajectory([EQ, XX, XX])) == (2, 1)

    def test_accepts_plain_sequences(self):
        assert group_sort_key([EQ, NS, XX]) == (1, 1)

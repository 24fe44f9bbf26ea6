"""Property tests: the vectorised relation kernels against the scalar relation.

Every row's group from _bits.group_codes must equal classify_group and an
independent prefix-walk oracle.  The four-way category from the block-walk
classify_pair_rows and from category_matrix must equal the same walk's.
The sampler's walk-table index, cut straight from the random bytes, must
equal the index packed from unpacked bits, and its tallies the unpacking
sampler's.
"""

import census_reference
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ipso import _bits, enumeration
from ipso.enumeration import SAMPLE_PIECE, relationship_counts, sample_pairs
from ipso.serp import CATEGORY_TO_RELATIONSHIP, GROUP_TABLE_ORDER, TopicGroup, classify_group


def walk_group(a, b) -> str:
    """Five-way group from the running difference of relevant counts."""
    walk, first = 0, {}
    for depth, (x, y) in enumerate(zip(a, b)):
        walk += x - y
        if walk:
            first.setdefault(walk > 0, depth)
    if not first:
        return "=="
    if len(first) == 1:
        return "ni" if True in first else "ns"
    return "**/ni" if first[True] < first[False] else "**/ns"


def walk_category(a, b) -> int:
    """Four-way category code: 1 if the walk went positive, plus 2 if negative."""
    walk, pos, neg = 0, False, False
    for x, y in zip(a, b):
        walk += x - y
        pos, neg = pos or walk > 0, neg or walk < 0
    return pos + 2 * neg


def assert_rows_agree(bits_a: np.ndarray, bits_b: np.ndarray) -> None:
    codes = _bits.group_codes(bits_a, bits_b)
    k = bits_a.shape[1]
    for i, (a, b) in enumerate(zip(bits_a.tolist(), bits_b.tolist())):
        label = GROUP_TABLE_ORDER[codes[i]].label
        assert label == classify_group(a, b, k).label == walk_group(a, b), (a, b)


@st.composite
def row_pairs(draw, max_k=24):
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(1, 12))
    bits = st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k), min_size=n, max_size=n)
    return np.array(draw(bits), dtype=np.int8), np.array(draw(bits), dtype=np.int8)


@settings(max_examples=150, deadline=None)
@given(pair=row_pairs())
def test_random_rows(pair):
    assert_rows_agree(*pair)


@settings(max_examples=40, deadline=None)
@given(pair=row_pairs())
def test_equal_rows_are_equal(pair):
    rows, _ = pair
    assert (_bits.group_codes(rows, rows) == TopicGroup.EQUAL.table_order).all()
    assert_rows_agree(rows, rows)


@settings(max_examples=60, deadline=None)
@given(pair=row_pairs())
def test_rows_differing_only_at_the_last_rank(pair):
    rows, _ = pair
    other = rows.copy()
    other[:, -1] ^= 1
    codes = _bits.group_codes(rows, other)
    # the walk stays at 0 until the last rank, so only one direction is possible
    assert set(codes.tolist()) <= {1, 3}
    assert_rows_agree(rows, other)


def test_depth_one_covers_every_pair():
    a = np.array([[0], [0], [1], [1]], dtype=np.int8)
    b = np.array([[0], [1], [0], [1]], dtype=np.int8)
    assert [GROUP_TABLE_ORDER[c].label for c in _bits.group_codes(a, b)] == [
        "==", "ns", "ni", "=="]
    assert_rows_agree(a, b)


def test_every_pair_at_depth_eight():
    bits = _bits.bit_matrix(8)
    a = np.repeat(bits, len(bits), axis=0)
    b = np.tile(bits, (len(bits), 1))
    sample = np.random.default_rng(0).choice(len(a), size=2000, replace=False)
    assert_rows_agree(a[sample], b[sample])
    # grouping agrees with the four-way category kernel on all 2^16 pairs
    codes = _bits.group_codes(a, b)
    cats = _bits.classify_pair_rows(a, b)
    as_category = np.array([_bits.XX, _bits.NS, _bits.EQ, _bits.NI, _bits.XX])[codes]
    assert (as_category == cats).all()


def test_leading_axes():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 2, size=(3, 4, 10))
    b = rng.integers(0, 2, size=(3, 4, 10))
    codes = _bits.group_codes(a, b)
    assert codes.shape == (3, 4)
    assert (codes.reshape(-1) == _bits.group_codes(a.reshape(12, 10), b.reshape(12, 10))).all()


# depths next to the 8-position block edges and past the int8 range
EDGE_DEPTHS = [8 * m + r for m in range(17) for r in (0, 1, 7) if 1 <= 8 * m + r <= 130]


@st.composite
def category_rows(draw):
    k = draw(st.one_of(st.integers(1, 130), st.sampled_from(EDGE_DEPTHS)))
    n = draw(st.integers(1, 12))
    # each row drawn as one k-bit integer, MSB first, which shrinks cleanly
    codes = st.lists(st.integers(0, (1 << k) - 1), min_size=n, max_size=n)
    shifts = np.arange(k - 1, -1, -1)

    def bits(dtype):
        return np.array([[(c >> int(s)) & 1 for s in shifts] for c in draw(codes)], dtype=dtype)

    return bits(np.uint8), bits(np.int8)


@settings(max_examples=200, deadline=None)
@given(pair=category_rows())
def test_classify_pair_rows_matches_walk(pair):
    a, b = pair
    cats = _bits.classify_pair_rows(a, b)
    assert cats.dtype == np.uint8
    assert cats.tolist() == [walk_category(x, y) for x, y in zip(a.tolist(), b.tolist())]


@settings(max_examples=200, deadline=None)
@given(pair=category_rows())
def test_group_codes_match_walk_across_block_edges(pair):
    a, b = pair
    codes = _bits.group_codes(a, b)
    assert [GROUP_TABLE_ORDER[c].label for c in codes] == [
        walk_group(x, y) for x, y in zip(a.tolist(), b.tolist())]


@settings(max_examples=100, deadline=None)
@given(pair=category_rows())
def test_group_codes_of_rows_packed_once_equal_the_unpacked(pair):
    a, b = pair
    k = a.shape[1]
    packed_a, packed_b = _bits._pack_blocks(a), _bits._pack_blocks(b)
    assert _bits.group_codes(packed_a, packed_b, k).tolist() == _bits.group_codes(a, b).tolist()
    assert _bits.group_codes(packed_a[:, None], packed_b[None], k).tolist() == \
        _bits.group_codes(a[:, None], b[None]).tolist()


@settings(max_examples=60, deadline=None)
@given(k=st.one_of(st.integers(1, 130), st.sampled_from(EDGE_DEPTHS)),
       seed=st.one_of(st.just(2**63), st.integers(0, 2**64 - 1)),
       chunk=st.integers(0, 3), pieces=st.integers(0, 3), ragged=st.integers(1, SAMPLE_PIECE - 1))
@example(k=130, seed=2**63, chunk=1, pieces=2, ragged=5)
def test_sampled_chunk_cuts_the_packed_index(k, seed, chunk, pieces, ragged):
    size = pieces * SAMPLE_PIECE + ragged
    assert enumeration._sample_chunk(k, seed, chunk, size).tolist() == \
        census_reference.sample_chunk_unpacked(k, seed, chunk, size).tolist()
    raw = enumeration._chunk_bytes(seed, chunk, (size + 4) * k // 4 + 1)
    # the first piece, and the ragged last one
    for start in {0, pieces * SAMPLE_PIECE}:
        rows, piece = min(SAMPLE_PIECE, size - start), raw[start * k // 4:]
        cut = enumeration._cut_index(piece, k, rows)
        in_row_order = np.moveaxis(cut, 1, 2).reshape(len(cut), -1)[:, :rows].T
        assert np.array_equal(in_row_order, census_reference.packed_index(piece, k, rows))


@settings(max_examples=60, deadline=None)
@given(pair=category_rows(), data=st.data())
def test_classify_pair_rows_broadcasts_leading_axes(pair, data):
    a, b = pair
    cut = data.draw(st.integers(1, len(b)))
    rows, cols = a[:, None, :], b[None, :cut, :]
    cats = _bits.classify_pair_rows(rows, cols)
    assert cats.shape == (len(a), cut)
    expected = [[walk_category(x, y) for y in b[:cut].tolist()] for x in a.tolist()]
    assert cats.tolist() == expected
    # a bare (k,) row broadcasts against a matrix of rows
    assert _bits.classify_pair_rows(a[0], b).tolist() == [
        walk_category(a[0].tolist(), y) for y in b.tolist()]


def test_category_oracle_at_depth_one():
    assert [walk_category([x], [y]) for x in (0, 1) for y in (0, 1)] == [
        _bits.EQ, _bits.NS, _bits.NI, _bits.EQ]


@pytest.mark.parametrize("k", range(1, 9))
def test_category_matrix_matches_walk(k):
    rows = _bits.bit_matrix(k).tolist()
    expected = [[walk_category(a, b) for b in rows] for a in rows]
    assert _bits.category_matrix(k).tolist() == expected


@pytest.mark.parametrize("k", range(9, 13))
def test_category_matrix_tallies_the_dp_and_matches_walk_cells(k):
    matrix = _bits.category_matrix(k)
    tally = np.bincount(matrix.ravel(), minlength=4)
    expected = relationship_counts(k)
    assert {CATEGORY_TO_RELATIONSHIP[c]: int(n) for c, n in enumerate(tally)} == expected
    rows = _bits.bit_matrix(k)
    cells = np.random.default_rng(k).integers(0, len(rows), size=(2000, 2))
    assert [matrix[i, j] for i, j in cells.tolist()] == [
        walk_category(rows[i].tolist(), rows[j].tolist()) for i, j in cells.tolist()]


def test_long_one_sided_walks_do_not_wrap():
    # walks that climb past the int8 range, then end below zero
    ones, zeros = np.ones((1, 130), dtype=np.int8), np.zeros((1, 130), dtype=np.int8)
    assert _bits.classify_pair_rows(ones, zeros).tolist() == [_bits.NI]
    assert _bits.classify_pair_rows(zeros, ones).tolist() == [_bits.NS]
    late = np.concatenate([zeros[:, :65], ones[:, :65]], axis=1)
    early = np.concatenate([ones[:, :64], zeros[:, :66]], axis=1)
    assert _bits.classify_pair_rows(early, late).tolist() == [_bits.XX]


def test_walks_deeper_than_int16_are_refused():
    k = _bits.MAX_WALK_DEPTH
    assert k == 32_767
    ones, zeros = np.ones((1, k + 1), dtype=np.int8), np.zeros((1, k + 1), dtype=np.int8)
    assert _bits.classify_pair_rows(ones[:, :k], zeros[:, :k]).tolist() == [_bits.NI]
    assert [GROUP_TABLE_ORDER[c] for c in _bits.group_codes(ones[:, :k], zeros[:, :k])] == [
        TopicGroup.SEPARABLE_NI]
    # one position deeper, the int16 sums would wrap to -32,768
    for kernel in (_bits.classify_pair_rows, _bits.group_codes):
        with pytest.raises(ValueError, match="k <= 32767"):
            kernel(ones, zeros)
    with pytest.raises(ValueError, match="32767"):
        sample_pairs(k + 1, 10)

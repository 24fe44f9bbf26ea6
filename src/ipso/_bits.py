"""Vectorised kernels over the full set of length-k binary SERPs.

Row/column index i always denotes the SERP whose MSB-first integer encoding is i, so
index order equals lexicographic vector order.  Category codes are shared across the
package: 0 equal, 1 non-inferior, 2 non-superior, 3 non-separable.  Every pair relation
is one fold, fold_blocks, over 8-position blocks packed or cut from the pair's bits: one
lookup per block into one packed table of every block's walk.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

EQ, NI, NS, XX = 0, 1, 2, 3


@lru_cache(maxsize=32)
def bit_matrix(k: int) -> np.ndarray:
    """(2^k, k) int8 matrix of every SERP of length k, row i = encoding i."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    codes = np.arange(1 << k, dtype=np.int64)
    shifts = np.arange(k - 1, -1, -1, dtype=np.int64)
    m = ((codes[:, None] >> shifts[None, :]) & 1).astype(np.int8)
    m.setflags(write=False)
    return m


@lru_cache(maxsize=1)
def _block_walk_table() -> np.ndarray:
    """Read-only int16 total << 8 | highest << 4 | -lowest prefix of a - b per 8-position block.

    Entry (a_byte << 8) | b_byte summarises the block whose MSB-first bytes,
    as np.packbits lays them out, are a_byte and b_byte; the empty prefix
    counts, so lowest <= 0 <= highest, and both fit in 4 bits.
    """
    index = np.arange(1 << 16, dtype=np.uint16)
    total = np.zeros(1 << 16, dtype=np.int16)
    low, high = total.copy(), total.copy()
    for pos in range(8):
        total += index >> (15 - pos) & 1
        total -= index >> (7 - pos) & 1
        np.minimum(low, total, out=low)
        np.maximum(high, total, out=high)
    table = total << 8 | high << 4 | -low
    table.setflags(write=False)
    return table


def _pack_blocks(bits: np.ndarray) -> np.ndarray:
    """(..., k) 0/1 array -> (..., ceil(k/8)) uint8 of MSB-first 8-position blocks."""
    k = np.shape(bits)[-1]
    padded = np.zeros((*np.shape(bits)[:-1], -(-k // 8) * 8), dtype=np.uint8)
    padded[..., :k] = bits
    # packing the flat buffer, not along a short last axis, releases the GIL
    return np.packbits(padded, axis=None).reshape(*padded.shape[:-1], -1)


MAX_WALK_DEPTH = (1 << 15) - 1  #: deepest pair fold_blocks takes: its sums are int16


def fold_blocks(index: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(lowest, highest) prefix of a - b per row, folded in depth order over the blocks.

    index[j] is each row's (a_byte << 8) | b_byte at positions 8j to 8j + 7, zero past k;
    index may be 1-d, one unbatched row.
    """
    if k > MAX_WALK_DEPTH:
        raise ValueError(f"the block walk takes k <= {MAX_WALK_DEPTH}, got k = {k}")
    index = np.ascontiguousarray(index, dtype=np.intp)  # a contiguous row per fold step
    if index.ndim == 1:  # take and out= need an array per step: give the fold a row axis
        lowest, highest = fold_blocks(index[:, None], k)
        return lowest[0], highest[0]
    table = _block_walk_table()
    step = np.take(table, index[0])
    lowest, highest, run = -(step & 15), step >> 4 & 15, step >> 8
    part = np.empty_like(step)
    # mode="clip" clips nothing (indices are < 2^16) but, unlike the
    # default, writes straight into out instead of through a copy
    for block in index[1:]:
        np.take(table, block, out=step, mode="clip")
        np.bitwise_and(step, 15, out=part)
        np.subtract(run, part, out=part)
        np.minimum(lowest, part, out=lowest)
        np.right_shift(step, 4, out=part)
        part &= 15
        part += run
        np.maximum(highest, part, out=highest)
        step >>= 8  # arithmetic: the total keeps its sign
        run += step
    return lowest, highest


def classify_pair_rows(rows_a: np.ndarray, rows_b: np.ndarray, k: int | None = None) -> np.ndarray:
    """Category code per row for two (..., k) 0/1 arrays compared rowwise.

    Leading axes broadcast.  With k given, the rows come packed to depth k by _pack_blocks.
    """
    if k is None:
        k, rows_a, rows_b = np.shape(rows_a)[-1], _pack_blocks(rows_a), _pack_blocks(rows_b)
    index = np.left_shift(rows_a, 8, dtype=np.uint16) | rows_b
    lowest, highest = fold_blocks(np.moveaxis(index, -1, 0), k)
    codes = (lowest < 0).view(np.uint8) << 1
    codes |= highest > 0
    return codes


def group_code(category, first):
    """The five-way group, as an index into serp.GROUP_TABLE_ORDER.

    category is the four-way code and first the sign of a - b at the first
    rank where the two differ, which is where the walk first leaves zero
    (ints or arrays).  The code is 2 + first, the step doubled for a
    non-separable pair: equal (2), ni (3), ns (1); the first step names the
    midpoint of a non-separable walk, **/ni (4) or **/ns (0).
    """
    return 2 + first * (1 + (category == XX))


def group_codes(rows_a: np.ndarray, rows_b: np.ndarray, k: int | None = None) -> np.ndarray:
    """Per row, the five-way group code (see group_code); arguments as classify_pair_rows'."""
    if k is None:
        k, rows_a, rows_b = np.shape(rows_a)[-1], _pack_blocks(rows_a), _pack_blocks(rows_b)
    rows_a, rows_b = np.broadcast_arrays(rows_a, rows_b)
    # in the first block that differs, the top differing bit is A's (up) or B's (down)
    differ = rows_a ^ rows_b
    at = (differ != 0).argmax(axis=-1)[..., None]
    up, down = (np.take_along_axis(rows & differ, at, -1)[..., 0] for rows in (rows_a, rows_b))
    first = np.subtract(up > down, down > up, dtype=np.int8)
    return group_code(classify_pair_rows(rows_a, rows_b, k), first)


@lru_cache(maxsize=2)  # the k = 12 matrix alone is 16 MB; build_grid and dominance_pairs read it
def category_matrix(k: int) -> np.ndarray:
    """(2^k, 2^k) read-only uint8 matrix of category codes for every ordered pair.

    Entry [a, b] classifies SERP a against SERP b, by classify_pair_rows
    over row blocks of at most 65,536 pairs; k <= 12 by contract.
    """
    if not 1 <= k <= 12:
        raise ValueError(f"category_matrix supports 1 <= k <= 12, got {k}")
    bits = bit_matrix(k)
    out = np.empty((len(bits), len(bits)), dtype=np.uint8)
    rows = (1 << 16) // len(bits)
    for lo in range(0, len(bits), rows):
        out[lo:lo + rows] = classify_pair_rows(bits[lo:lo + rows, None], bits[None])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=2)
def dominance_pairs(k: int) -> np.ndarray:
    """Read-only (2, n) uint16 (row, col) codes of category_matrix(k)'s NI entries, row-major."""
    pairs = np.array(np.nonzero(category_matrix(k) == NI), dtype=np.uint16)
    pairs.setflags(write=False)
    return pairs


@lru_cache(maxsize=2)
def cover_pairs(k: int) -> np.ndarray:
    """Read-only (2, n) uint16 (sup, inf) codes of the covers of strict dominance, sorted.

    A cover moves a relevant document a rank later (bit j + 1 set, bit j
    clear: c - 2^j) or drops the one at rank k (bit 0 set: c - 1).
    """
    if not 1 <= k <= 16:
        raise ValueError(f"cover_pairs supports 1 <= k <= 16, got {k}")
    codes, shifts = np.arange(1 << k), np.arange(k - 1, -1, -1)  # columns j = k - 1 … 0
    covers = codes[:, None] >> shifts & 3 == 2
    covers[:, -1] |= codes & 1 == 1
    sup, column = np.nonzero(covers)  # row-major: by sup, then by inf
    pairs = np.array([sup, sup - (1 << shifts[column])], dtype=np.uint16)
    pairs.setflags(write=False)
    return pairs


_EXACT_ROWS = 1024  #: SERP rows relationship_counts_exact takes at a time


def relationship_counts_exact(k: int) -> tuple[int, int, int, int]:
    """Exact (equal, ni, ns, non_separable) counts over all 2^{2k} ordered pairs.

    The bit-parallel cross-check that tests hold the dynamic program
    behind enumeration.relationship_counts to; the two share no code.
    For each depth i and each possible prefix count v, the set of SERPs
    whose depth-i prefix count is below (resp. above) v is precomputed as
    a packed bitmask over all 2^k SERPs.  A row's been-positive /
    been-negative mask is then an OR over its k depths, and categories
    fall out of popcounts.  Handles k = 15 (about 10^9 pairs) in seconds.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = 1 << k
    pc = np.cumsum(bit_matrix(k), axis=1, dtype=np.int8)  # per-depth prefix one-counts
    words = (n + 63) // 64
    # mask_lt[i, v] marks SERPs b with fewer than v ones in their depth-i prefix, mask_gt
    # those with more, as little-endian uint64 words, zero padded
    flags = np.zeros((2, k, k + 2, 64 * words), dtype=bool)
    counts, v = pc.T[:, None, :], np.arange(k + 2, dtype=np.int8)[:, None]
    flags[0, ..., :n], flags[1, ..., :n] = counts < v, counts > v
    mask_lt, mask_gt = np.packbits(flags, axis=-1, bitorder="little").view(np.uint64)
    eq = ni = ns = xx = 0
    for start in range(0, n, _EXACT_ROWS):
        pcb = pc[start:start + _EXACT_ROWS].astype(np.intp)
        rows = pcb.shape[0]
        been_pos, been_neg = (np.zeros((rows, words), dtype=np.uint64) for _ in range(2))
        for i, v in enumerate(pcb.T):
            been_pos |= mask_lt[i, v]
            been_neg |= mask_gt[i, v]
        both = been_pos & been_neg
        xx += int(np.bitwise_count(both).sum(dtype=np.int64))
        ni += int(np.bitwise_count(been_pos & ~both).sum(dtype=np.int64))
        ns += int(np.bitwise_count(been_neg & ~both).sum(dtype=np.int64))
        # padding bits are zero in every mask, so count equals via the complement
        eq += rows * n - int(np.bitwise_count(been_pos | been_neg).sum(dtype=np.int64))
    return eq, ni, ns, xx

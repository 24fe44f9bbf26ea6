"""Vectorised kernels over the full set of length-k binary SERPs.

Row/column index i always denotes the SERP whose MSB-first integer
encoding is i, so index order equals lexicographic vector order.
Category codes are shared across the package: 0 equal, 1 non-inferior,
2 non-superior, 3 non-separable.
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
def _block_walk_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(total, lowest prefix, highest prefix) of a - b over every 8-position block.

    Entry (a_byte << 8) | b_byte summarises the block whose MSB-first bytes,
    as np.packbits lays them out, are a_byte and b_byte; the empty prefix
    counts, so lowest <= 0 <= highest.
    """
    index = np.arange(1 << 16, dtype=np.uint16)
    total = np.zeros(1 << 16, dtype=np.int16)
    low, high = total.copy(), total.copy()
    for pos in range(8):
        total += index >> (15 - pos) & 1
        total -= index >> (7 - pos) & 1
        np.minimum(low, total, out=low)
        np.maximum(high, total, out=high)
    for table in (total, low, high):
        table.setflags(write=False)
    return total, low, high


def _pack_blocks(bits: np.ndarray) -> np.ndarray:
    """(..., k) 0/1 array -> (..., ceil(k/8)) uint8 of MSB-first 8-position blocks."""
    k = np.shape(bits)[-1]
    padded = np.zeros((*np.shape(bits)[:-1], -(-k // 8) * 8), dtype=np.uint8)
    padded[..., :k] = bits
    # packing the flat buffer, not along a short last axis, releases the GIL
    return np.packbits(padded, axis=None).reshape(*padded.shape[:-1], -1)


def classify_pair_rows(bits_a: np.ndarray, bits_b: np.ndarray) -> np.ndarray:
    """Category code per row for two (..., k) 0/1 arrays compared rowwise.

    Leading axes broadcast.  Each 8-position block of a row pair indexes
    the walk-summary table, and the blocks fold in depth order into a
    running sum and the lowest and highest prefix so far.
    """
    index = np.left_shift(_pack_blocks(bits_a), 8, dtype=np.uint16) | _pack_blocks(bits_b)
    # block-major, so each fold step reads one contiguous row of indices
    index = np.moveaxis(index, -1, 0).astype(np.intp, order="C")
    total, low, high = _block_walk_table()
    run, lowest, highest = (np.take(t, index[0]) for t in (total, low, high))
    step = np.empty_like(run)
    # mode="clip" clips nothing (indices are < 2^16) but, unlike the
    # default, writes straight into out instead of through a copy
    for block in index[1:]:
        np.take(low, block, out=step, mode="clip")
        step += run
        np.minimum(lowest, step, out=lowest)
        np.take(high, block, out=step, mode="clip")
        step += run
        np.maximum(highest, step, out=highest)
        np.take(total, block, out=step, mode="clip")
        run += step
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


def group_codes(bits_a: np.ndarray, bits_b: np.ndarray) -> np.ndarray:
    """Per row, the five-way group code (see group_code) of two (..., k) 0/1 arrays."""
    bits_a, bits_b = np.broadcast_arrays(bits_a, bits_b)
    at = (bits_a != bits_b).argmax(axis=-1)[..., None]
    # rows that never differ point at rank 1, where the difference is 0
    first = np.subtract(np.take_along_axis(bits_a, at, -1), np.take_along_axis(bits_b, at, -1),
                        dtype=np.int8)
    return group_code(classify_pair_rows(bits_a, bits_b), first[..., 0])


@lru_cache(maxsize=2)  # the k = 12 matrix alone is 16 MB
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


def _pack_bits(flags: np.ndarray) -> np.ndarray:
    """Pack a boolean vector into little-endian uint64 words (zero padded)."""
    packed = np.packbits(flags, bitorder="little")
    if packed.size % 8:
        packed = np.concatenate([packed, np.zeros(8 - packed.size % 8, dtype=np.uint8)])
    return packed.view(np.uint64)


def relationship_counts_exact(k: int, block: int = 1024) -> tuple[int, int, int, int]:
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
    # mask_lt[i, v] marks SERPs b with fewer than v ones in their depth-i prefix
    mask_lt = np.zeros((k, k + 2, words), dtype=np.uint64)
    mask_gt = np.zeros((k, k + 2, words), dtype=np.uint64)
    for i in range(k):
        col = pc[:, i]
        for v in range(i + 2):
            mask_lt[i, v] = _pack_bits(col < v)
            mask_gt[i, v] = _pack_bits(col > v)
    eq = ni = ns = xx = 0
    for start in range(0, n, block):
        pcb = pc[start:start + block].astype(np.intp)
        rows = pcb.shape[0]
        been_pos = np.zeros((rows, words), dtype=np.uint64)
        been_neg = np.zeros((rows, words), dtype=np.uint64)
        for i in range(k):
            v = pcb[:, i]
            been_pos |= mask_lt[i, v]
            been_neg |= mask_gt[i, v]
        both = been_pos & been_neg
        xx += int(np.bitwise_count(both).sum(dtype=np.int64))
        ni += int(np.bitwise_count(been_pos & ~both).sum(dtype=np.int64))
        ns += int(np.bitwise_count(been_neg & ~both).sum(dtype=np.int64))
        # padding bits are zero in every mask, so count equals via the complement
        eq += rows * n - int(np.bitwise_count(been_pos | been_neg).sum(dtype=np.int64))
    return eq, ni, ns, xx

"""Reference forms of the census's renderers, compliance check and sampler.

The grid and Hasse renderers build every line from Serp.from_int and
write it through csv.writer or one f-string a line.  The Hasse cover is
the dominance matrix's transitive reduction by one matrix product, and the
elementary weakenings are listed one SERP and one rank at a time.  The
compliance check scores the whole 2^k x 2^k gap matrix and checks the
equal pairs as well as the dominance pairs.  The block walk is stepped
one position at a time.  The sampler draws each chunk's stream whole
through Philox, from the chunk's own counter, and unpacks each sampled
pair to one byte per position and packs it again before the block walk.
The array forms in ipso must match them byte for byte, pair for pair and
tally for tally.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from ipso import _bits
from ipso.enumeration import SAMPLE_PIECE, HasseEdges, RelationshipGrid
from ipso.metrics import SCORE_TOLERANCE, MetricSpec, score_all
from ipso.serp import CATEGORY_TO_RELATIONSHIP, Serp


def _bitstrings(k: int, codes) -> list:
    return [Serp.from_int(int(c), k).bitstring for c in codes]


def _code_rows(grid: RelationshipGrid) -> list:
    return [[CATEGORY_TO_RELATIONSHIP[int(c)].code for c in row] for row in grid.cells]


def grid_csv(grid: RelationshipGrid) -> str:
    stream = io.StringIO()
    writer = csv.writer(stream)
    writer.writerow([""] + _bitstrings(grid.k, grid.col_order))
    for label, row in zip(_bitstrings(grid.k, grid.row_order), _code_rows(grid)):
        writer.writerow([label] + row)
    return stream.getvalue()


def grid_dict(grid: RelationshipGrid) -> dict:
    return {
        "k": grid.k,
        "row_metric": grid.row_metric.label,
        "col_metric": grid.col_metric.label,
        "rows": _bitstrings(grid.k, grid.row_order),
        "cols": _bitstrings(grid.k, grid.col_order),
        "cells": _code_rows(grid),
    }


def hasse_pairs(hasse: HasseEdges) -> list:
    return [(Serp.from_int(a, hasse.k).bitstring, Serp.from_int(b, hasse.k).bitstring)
            for a, b in hasse.edges]


def hasse_csv(hasse: HasseEdges) -> str:
    return "".join(f"{sup},{inf}\n" for sup, inf in hasse_pairs(hasse))


def hasse_dict(hasse: HasseEdges) -> dict:
    return {"k": hasse.k, "edges": [list(pair) for pair in hasse_pairs(hasse)]}


def hasse_reduction(k: int) -> np.ndarray:
    """(2, n) (sup, inf) codes of the dominance pairs that no third SERP joins, row-major."""
    dominates = _bits.category_matrix(k) == _bits.NI
    # path counts are at most 2^k <= 256, exact in float32, where BLAS does the product
    d = dominates.astype(np.float32)
    return np.argwhere(dominates & ~(d @ d > 0)).T


def elementary_weakenings(k: int) -> list:
    """Sorted [sup, inf] codes: each relevant document moved one rank later, or dropped at rank k."""
    pairs = []
    for code in range(1 << k):
        serp = list(Serp.from_int(code, k))
        for rank, hit in enumerate(serp):
            if hit and (rank == k - 1 or not serp[rank + 1]):
                weaker = serp.copy()
                weaker[rank] = 0
                if rank < k - 1:
                    weaker[rank + 1] = 1
                pairs.append([code, Serp(weaker).to_int()])
    return sorted(pairs)


def certify_compliance_dense(metric, k: int, ctx=None, tolerance: float = SCORE_TOLERANCE) -> list:
    """Offending pairs over the full gap matrix: a dominance pair scored
    lower beyond tolerance, or an equal pair scored apart beyond it."""
    if isinstance(metric, MetricSpec):
        scores = np.array(score_all(metric, k, ctx))
    else:
        scores = np.array([float(metric(Serp.from_int(c, k))) for c in range(1 << k)])
    cat = _bits.category_matrix(k)
    gap = scores[:, None] - scores[None, :]
    bad = ((cat == _bits.NI) & (gap < -tolerance)) | (
        (cat == _bits.EQ) & (np.abs(gap) > tolerance)
    )
    return [(Serp.from_int(int(a), k), Serp.from_int(int(b), k)) for a, b in np.argwhere(bad)]


def block_walk(entry: int) -> tuple[int, int, int]:
    """(total, lowest prefix, highest prefix) of a - b over one 8-position block.

    entry is (a_byte << 8) | b_byte with each byte's bits in rank order,
    most significant first; the empty prefix counts.
    """
    a, b = format(entry >> 8, "08b"), format(entry & 0xFF, "08b")
    walk = lowest = highest = 0
    for x, y in zip(a, b):
        walk += int(x) - int(y)
        lowest, highest = min(lowest, walk), max(highest, walk)
    return walk, lowest, highest


def chunk_bytes(seed: int, chunk_index: int, n: int) -> np.ndarray:
    """The first n bytes of a chunk's stream, drawn whole: Generator.bytes(n), from raw words.

    Each chunk owns the counter range from chunk_index << 64, so the stream
    is the same whichever worker draws it.
    """
    words = np.random.Philox(key=seed, counter=chunk_index << 64).random_raw(-(-n // 8))
    return words.astype("<u8", copy=False).view(np.uint8)[:n]


def packed_index(raw: np.ndarray, k: int, rows: int) -> np.ndarray:
    """(rows, blocks) walk-table indices of the first rows sample pairs in raw.

    Each pair's 2k bits are unpacked, split into its a and b sides, and
    packed into 8-position blocks by _bits._pack_blocks.
    """
    bits = np.unpackbits(raw, count=rows * 2 * k).reshape(rows, 2, k)
    return np.left_shift(_bits._pack_blocks(bits[:, 0]), 8, dtype=np.uint16) | \
        _bits._pack_blocks(bits[:, 1])


def sample_chunk_unpacked(k: int, seed: int, chunk_index: int, size: int) -> np.ndarray:
    """(equal, ni, ns, non_separable) tallies of one sample chunk, piece by piece.

    Each piece's pairs are unpacked to one byte per position, classified
    by classify_pair_rows (which packs them again) and counted by bincount.
    """
    raw = chunk_bytes(seed, chunk_index, (size * 2 * k + 7) // 8)
    tally = np.zeros(4, dtype=np.int64)
    for start in range(0, size, SAMPLE_PIECE):
        rows = min(SAMPLE_PIECE, size - start)
        bits = np.unpackbits(raw[start * k // 4:], count=rows * 2 * k).reshape(rows, 2, k)
        tally += np.bincount(_bits.classify_pair_rows(bits[:, 0], bits[:, 1]), minlength=4)
    return tally

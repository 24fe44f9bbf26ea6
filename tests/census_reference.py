"""Reference forms of the census's renderers, compliance check and sampler.

The grid and Hasse renderers build every line from Serp.from_int and
write it through csv.writer or one f-string a line.  The compliance check
scores the whole 2^k x 2^k gap matrix and checks the equal pairs as well
as the dominance pairs.  The sampler unpacks each sampled pair to one
byte per position and packs it again before the block walk.  The array
forms in ipso must match them byte for byte, pair for pair and tally for
tally.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from ipso import _bits, enumeration
from ipso.enumeration import HasseEdges, RelationshipGrid
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
    raw = enumeration._chunk_bytes(seed, chunk_index, (size * 2 * k + 7) // 8)
    tally = np.zeros(4, dtype=np.int64)
    for start in range(0, size, enumeration.SAMPLE_PIECE):
        rows = min(enumeration.SAMPLE_PIECE, size - start)
        bits = np.unpackbits(raw[start * k // 4:], count=rows * 2 * k).reshape(rows, 2, k)
        tally += np.bincount(_bits.classify_pair_rows(bits[:, 0], bits[:, 1]), minlength=4)
    return tally

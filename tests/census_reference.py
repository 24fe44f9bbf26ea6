"""Reference forms of the census's renderers and compliance check.

The grid and Hasse renderers build every line from Serp.from_int and
write it through csv.writer or one f-string a line.  The compliance check
scores the whole 2^k x 2^k gap matrix and checks the equal pairs as well
as the dominance pairs.  The array forms in ipso must match them byte for
byte and pair for pair.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from ipso import _bits
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

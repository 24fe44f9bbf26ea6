"""Counting and structure over the whole space of length-k SERP pairs.

Provides exact category counts at any depth (a dynamic program over the
difference walk, cross-checked in tests against bit-parallel
enumeration), reproducible Monte Carlo estimates, relationship grids under
metric-induced orderings, the Hasse cover of the dominance order, and
metric-vs-metric rank correlations.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import IO

import numpy as np

from . import _bits
from .metrics import MetricSpec, TopicContext, score_all
from .serp import CATEGORY_TO_RELATIONSHIP, Relationship, Serp
from .stats import kendall_tau_b

#: Largest depth at which tests run _bits.relationship_counts_exact, the
#: bit-parallel cross-check of the exact counts over all 2^{2k} pairs.
EXHAUSTIVE_LIMIT = 15

#: Pairs generated per Monte Carlo chunk; fixed so that results are
#: bit-identical for any worker count.
SAMPLE_CHUNK = 1 << 16

#: Rows unpacked and classified at a time within a chunk, which bounds
#: each worker's scratch memory.  A multiple of 4, so that every piece
#: (2k bits a row) starts on a byte of the stream.
SAMPLE_PIECE = 1 << 13

COUNTS_CSV_HEADER = ("k", "equal", "separable", "non_separable", "total", "mode", "seed")


@dataclass(frozen=True)
class CategoryCounts:
    """Tallies of pair relationships at one depth, exact or sampled."""

    k: int
    equal: int
    separable: int
    non_separable: int
    total: int
    mode: str
    sample_seed: int | None = None

    def __post_init__(self):
        if self.equal + self.separable + self.non_separable != self.total:
            raise ValueError("category counts do not sum to total")
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"mode must be 'exact' or 'sampled', got {self.mode!r}")

    @property
    def equal_fraction(self) -> float:
        return self.equal / self.total

    @property
    def separable_fraction(self) -> float:
        return self.separable / self.total

    @property
    def non_separable_fraction(self) -> float:
        return self.non_separable / self.total

    def percent_strings(self) -> dict:
        """Category percentages rendered to two decimals, as in tables."""
        return {
            "equal": f"{100.0 * self.equal_fraction:.2f}",
            "separable": f"{100.0 * self.separable_fraction:.2f}",
            "non_separable": f"{100.0 * self.non_separable_fraction:.2f}",
        }

    def csv_row(self) -> tuple:
        seed = "" if self.sample_seed is None else self.sample_seed
        return (self.k, self.equal, self.separable, self.non_separable,
                self.total, self.mode, seed)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "equal": self.equal,
            "separable": self.separable,
            "non_separable": self.non_separable,
            "total": self.total,
            "mode": self.mode,
            "seed": self.sample_seed,
            "percent": {key: float(val) for key, val in self.percent_strings().items()},
        }


def write_counts_csv(rows, stream: IO[str]) -> None:
    """Write CategoryCounts rows as CSV, one line per depth."""
    writer = csv.writer(stream)
    writer.writerow(COUNTS_CSV_HEADER)
    for counts in rows:
        writer.writerow(counts.csv_row())


def relationship_counts(k: int) -> dict:
    """Exact per-relationship counts over all ordered pairs at depth k.

    Dynamic programming over the difference walk.  State is (cumulative
    difference, been-negative, been-positive); a depth step changes the
    difference by +1 one way (1 vs 0), -1 one way, and 0 two ways (0 vs 0,
    1 vs 1).  Exact at any depth thanks to arbitrary-precision integers.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    states = {(0, False, False): 1}
    for _ in range(k):
        nxt: dict = {}
        for (cumul, been_neg, been_pos), ways in states.items():
            for step, mult in ((1, 1), (-1, 1), (0, 2)):
                c = cumul + step
                key = (c, been_neg or c < 0, been_pos or c > 0)
                nxt[key] = nxt.get(key, 0) + ways * mult
        states = nxt
    counts = dict.fromkeys(Relationship, 0)
    for (_, been_neg, been_pos), ways in states.items():
        counts[CATEGORY_TO_RELATIONSHIP[been_pos + 2 * been_neg]] += ways
    return counts


def enumerate_pairs(k: int) -> CategoryCounts:
    """Exact category counts over all 2^{2k} ordered pairs of length-k SERPs."""
    counts = relationship_counts(k)
    eq = counts[Relationship.EQUAL]
    sep = counts[Relationship.NON_INFERIOR] + counts[Relationship.NON_SUPERIOR]
    xx = counts[Relationship.NON_SEPARABLE]
    return CategoryCounts(k=k, equal=eq, separable=sep, non_separable=xx,
                          total=1 << (2 * k), mode="exact")


def dp_counts(k: int) -> CategoryCounts:
    """Exact category counts by dynamic programming: enumerate_pairs by another name."""
    return enumerate_pairs(k)


def _chunk_bytes(seed: int, chunk_index: int, n: int) -> np.ndarray:
    """The first n bytes of a chunk's stream: Generator.bytes(n), from Philox's raw words."""
    # counter-based generator: each chunk owns a disjoint counter range,
    # so the stream is identical no matter which worker draws it
    words = np.random.Philox(key=seed, counter=chunk_index << 64).random_raw(-(-n // 8))
    return words.astype("<u8", copy=False).view(np.uint8)[:n]


def _sample_chunk(k: int, seed: int, chunk_index: int, size: int) -> np.ndarray:
    """Category tallies for one fixed chunk of the sample stream."""
    raw = _chunk_bytes(seed, chunk_index, (size * 2 * k + 7) // 8)
    tally = np.zeros(4, dtype=np.int64)
    for start in range(0, size, SAMPLE_PIECE):
        rows = min(SAMPLE_PIECE, size - start)
        bits = np.unpackbits(raw[start * k // 4:], count=rows * 2 * k).reshape(rows, 2, k)
        tally += np.bincount(_bits.classify_pair_rows(bits[:, 0, :], bits[:, 1, :]), minlength=4)
    return tally


def sample_pairs(k: int, n_samples: int, seed: int = 0, workers: int = 1) -> CategoryCounts:
    """Monte Carlo category estimate from uniformly random SERP pairs.

    Every position of both SERPs is an independent fair bit.  The sample
    stream is carved into fixed-size chunks keyed by (seed, chunk index),
    so results for a given seed are identical for any worker count.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    sizes = [SAMPLE_CHUNK] * (n_samples // SAMPLE_CHUNK)
    if n_samples % SAMPLE_CHUNK:
        sizes.append(n_samples % SAMPLE_CHUNK)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            tallies = list(pool.map(
                lambda args: _sample_chunk(k, seed, *args),
                list(enumerate(sizes)),
            ))
    else:
        tallies = [_sample_chunk(k, seed, i, size) for i, size in enumerate(sizes)]
    eq, ni, ns, xx = (int(x) for x in np.sum(tallies, axis=0))
    return CategoryCounts(k=k, equal=eq, separable=ni + ns, non_separable=xx,
                          total=n_samples, mode="sampled", sample_seed=seed)


@dataclass(frozen=True)
class RelationshipGrid:
    """All ordered pairs at depth k, arranged by metric-induced orderings.

    Row and column orders list SERP encodings sorted by the respective
    metric's score ascending, ties broken lexicographically; cell [i, j]
    classifies the i-th row SERP against the j-th column SERP.
    """

    k: int
    row_metric: MetricSpec
    col_metric: MetricSpec
    row_order: tuple
    col_order: tuple
    cells: np.ndarray  # uint8 category codes

    def row_bitstrings(self) -> list:
        return [Serp.from_int(c, self.k).bitstring for c in self.row_order]

    def col_bitstrings(self) -> list:
        return [Serp.from_int(c, self.k).bitstring for c in self.col_order]

    def relationship(self, i: int, j: int) -> Relationship:
        return CATEGORY_TO_RELATIONSHIP[int(self.cells[i, j])]

    def category_counts(self) -> dict:
        tallies = np.bincount(self.cells.ravel(), minlength=4)
        return {
            CATEGORY_TO_RELATIONSHIP[code]: int(count)
            for code, count in enumerate(tallies)
        }

    def _code_rows(self):
        """Each row of cells as a list of relationship text codes ("==", "ni", ...)."""
        lut = np.array([CATEGORY_TO_RELATIONSHIP[c].code for c in range(4)], dtype=object)
        # row by row: the whole grid as Python lists would be 2^{2k} references
        return (lut[row].tolist() for row in self.cells)

    def write_csv(self, stream: IO[str]) -> None:
        writer = csv.writer(stream)
        writer.writerow([""] + self.col_bitstrings())
        for label, row in zip(self.row_bitstrings(), self._code_rows()):
            writer.writerow([label] + row)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "row_metric": self.row_metric.label,
            "col_metric": self.col_metric.label,
            "rows": self.row_bitstrings(),
            "cols": self.col_bitstrings(),
            "cells": list(self._code_rows()),
        }


def _metric_order(metric: MetricSpec, k: int, ctx: TopicContext | None) -> np.ndarray:
    scores = score_all(metric, k, ctx)
    # stable sort on score leaves ties in index order = lexicographic order
    return np.argsort(scores, kind="stable")


def build_grid(
    k: int,
    row_metric: MetricSpec,
    col_metric: MetricSpec,
    ctx: TopicContext | None = None,
) -> RelationshipGrid:
    """Relationship grid of all ordered pairs under two metric orderings."""
    if not 1 <= k <= 12:
        raise ValueError(f"build_grid supports 1 <= k <= 12, got {k}")
    rows = _metric_order(row_metric, k, ctx)
    cols = _metric_order(col_metric, k, ctx)
    cells = _bits.category_matrix(k)[np.ix_(rows, cols)]
    cells.setflags(write=False)
    return RelationshipGrid(
        k=k,
        row_metric=row_metric,
        col_metric=col_metric,
        row_order=tuple(int(c) for c in rows),
        col_order=tuple(int(c) for c in cols),
        cells=cells,
    )


@dataclass(frozen=True)
class HasseEdges:
    """Covering relations of the dominance order over all length-k SERPs."""

    k: int
    edges: tuple  # (superior_code, inferior_code) pairs, sorted

    def bitstring_pairs(self) -> list:
        return [
            (Serp.from_int(a, self.k).bitstring, Serp.from_int(b, self.k).bitstring)
            for a, b in self.edges
        ]

    def write_csv(self, stream: IO[str]) -> None:
        # bare "from,to" lines, no header
        for sup, inf in self.bitstring_pairs():
            stream.write(f"{sup},{inf}\n")

    def to_dict(self) -> dict:
        return {"k": self.k, "edges": [list(pair) for pair in self.bitstring_pairs()]}


def hasse_cover(k: int) -> HasseEdges:
    """Transitive reduction of the strict dominance relation at depth k.

    An edge (a, b) survives exactly when a strictly dominates b and no
    third SERP sits between them.
    """
    if not 1 <= k <= 8:
        raise ValueError(f"hasse_cover supports 1 <= k <= 8, got {k}")
    dominates = _bits.category_matrix(k) == _bits.NI
    d8 = dominates.astype(np.uint8)
    implied = (d8 @ d8) > 0
    cover = dominates & ~implied
    edges = tuple((int(a), int(b)) for a, b in np.argwhere(cover))
    return HasseEdges(k=k, edges=edges)


def kendall_tau(
    metric_a: MetricSpec,
    metric_b: MetricSpec,
    k: int,
    ctx: TopicContext | None = None,
) -> float:
    """Tie-aware (tau-b) rank correlation of two metrics over all 2^k SERPs."""
    if not 1 <= k <= 12:
        raise ValueError(f"kendall_tau supports 1 <= k <= 12, got {k}")
    scores_a = score_all(metric_a, k, ctx)
    scores_b = score_all(metric_b, k, ctx)
    if np.array_equal(scores_a, scores_b):
        # identical score vectors correlate exactly; skip the floating-point
        # tie arithmetic, which can land a hair under 1.0
        return 1.0
    return kendall_tau_b(scores_a, scores_b)

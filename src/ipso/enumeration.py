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
from .metrics import MetricSpec, TopicContext, score_all, score_ranks
from .serp import CATEGORY_TO_RELATIONSHIP, Relationship
from .stats import _kendall_tau_b_ranks

#: Largest depth at which tests run _bits.relationship_counts_exact, the
#: bit-parallel cross-check of the exact counts over all 2^{2k} pairs.
EXHAUSTIVE_LIMIT = 15

#: Pairs generated per Monte Carlo chunk; fixed so that results are
#: bit-identical for any worker count.
SAMPLE_CHUNK = 1 << 16

#: Rows cut and folded at a time within a chunk, which bounds each
#: worker's scratch memory.  A multiple of 4, so that every piece (2k
#: bits a row) starts on a byte of the stream, at a group of _cut_index.
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

    Dynamic programming over the difference walk a - b, which a depth step
    moves by +1 one way (1 vs 0), -1 one way and 0 two ways.  It tracks the
    walks at 0 that never left it; up[c], the walks at c that went positive
    but never negative; and the walks that went both ways, 4 continuations
    each, joined by up[0]'s step down and its mirror's step up.  The
    only-negative walks mirror up, so NS = NI.  Exact at any depth.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    zero, up, crossed = 1, [0], 0
    for _ in range(k):
        crossed = 4 * crossed + 2 * up[0]
        up = [plus + 2 * stay + minus for plus, stay, minus
              in zip([0, up[0] + zero, *up[1:]], up + [0], up[1:] + [0, 0])]
        zero *= 2
    return dict(zip(Relationship, (zero, sum(up), sum(up), crossed)))


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


def _cut_index(raw: np.ndarray, k: int, rows: int) -> np.ndarray:
    """(blocks, g, groups) fold indices of the first rows sampled pairs, cut from raw's bytes.

    Row r is bits 2kr to 2kr + 2k - 1 of raw, a side first.  Groups of g = 4 / gcd(k, 4) rows
    start on a byte, so row gq + p ([:, p, q]) sits at one byte offset and shift per side.
    """
    g = 4 // min(k & -k, 4)  # gcd(k, 4) is the lowest set bit of k, at most 4
    blocks, groups = -(-k // 8), -(-rows // g)
    cuts = [divmod(2 * k * p + k * side, 8) for p in range(g) for side in (0, 1)]
    words = np.ndarray((groups, cuts[-1][0] + blocks), ">u2", raw, strides=(g * k // 4, 1))
    words = words.T.astype(np.uint16, order="C")  # one transposing copy: a group's 16-bit words
    index = np.empty((blocks, g, groups), np.uint16)
    for high, (at_a, shift_a), (at_b, shift_b) in zip(index.swapaxes(0, 1), cuts[::2], cuts[1::2]):
        np.left_shift(words[at_a:at_a + blocks], shift_a, out=high)
        high &= 0xFF00
        high |= words[at_b:at_b + blocks] << shift_b >> 8
    index[-1] &= ((0xFF << 8 * blocks - k) & 0xFF) * 0x101  # zero past depth k
    return index


def _sample_chunk(k: int, seed: int, chunk_index: int, size: int) -> np.ndarray:
    """Category tallies for one fixed chunk of the sample stream."""
    raw = _chunk_bytes(seed, chunk_index, (size + 4) * k // 4 + 1)  # _cut_index reads k more
    tally = np.zeros(4, dtype=np.int64)
    for start in range(0, size, SAMPLE_PIECE):
        rows = min(SAMPLE_PIECE, size - start)
        lowest, highest = _bits.fold_blocks(_cut_index(raw[start * k // 4:], k, rows), k)
        neg, pos = (flags.T.reshape(-1)[:rows] for flags in (lowest < 0, highest > 0))
        xx, ni, ns = (np.count_nonzero(f) for f in (neg & pos, pos & ~neg, neg & ~pos))
        tally += (rows - ni - ns - xx, ni, ns, xx)
    return tally


def sample_pairs(k: int, n_samples: int, seed: int = 0, workers: int = 1) -> CategoryCounts:
    """Monte Carlo category estimate from uniformly random SERP pairs.

    Every position of both SERPs is an independent fair bit.  The sample
    stream is carved into fixed-size chunks keyed by (seed, chunk index),
    so results for a given seed are identical for any worker count.  Each
    chunk's bytes are cut into blocks that _bits.fold_blocks walks, so k <= _bits.MAX_WALK_DEPTH.
    """
    if not 1 <= k <= _bits.MAX_WALK_DEPTH:
        raise ValueError(f"k must be between 1 and {_bits.MAX_WALK_DEPTH}, got {k}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    sizes = [min(SAMPLE_CHUNK, n_samples - lo) for lo in range(0, n_samples, SAMPLE_CHUNK)]
    chunks = ([k] * len(sizes), [seed] * len(sizes), range(len(sizes)), sizes)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            tallies = list(pool.map(_sample_chunk, *chunks))
    else:
        tallies = list(map(_sample_chunk, *chunks))
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
        return _bitstrings(self.k, self.row_order)

    def col_bitstrings(self) -> list:
        return _bitstrings(self.k, self.col_order)

    def relationship(self, i: int, j: int) -> Relationship:
        return CATEGORY_TO_RELATIONSHIP[int(self.cells[i, j])]

    def category_counts(self) -> dict:
        tallies = np.bincount(self.cells.ravel(), minlength=4)
        return {
            CATEGORY_TO_RELATIONSHIP[code]: int(count)
            for code, count in enumerate(tallies)
        }

    def write_csv(self, stream: IO[str]) -> None:
        # csv.writer's text ("\r\n" line ends), 256 of the 2^k rows at a time; take's
        # mode="clip" clips nothing here but writes straight into the block
        n, k = len(self.cells), self.k
        codes = np.array([f",{CATEGORY_TO_RELATIONSHIP[c].code}".encode() for c in range(4)])
        block = np.empty((min(n, 256), k + 3 * n + 2), np.uint8)
        block[:, -2:] = np.frombuffer(b"\r\n", np.uint8)
        stream.write(",".join(["", *self.col_bitstrings()]) + "\r\n")
        for lo in range(0, n, len(block)):
            rows = slice(lo, lo + len(block))
            block[:, :k] = _labels(k, self.row_order[rows])
            np.take(codes, self.cells[rows], out=block[:, k:-2].view(codes.dtype), mode="clip")
            stream.write(str(block.data, "ascii"))

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "row_metric": self.row_metric.label,
            "col_metric": self.col_metric.label,
            "rows": self.row_bitstrings(),
            "cols": self.col_bitstrings(),
            # one shared str per code, not one per cell
            "cells": np.array([CATEGORY_TO_RELATIONSHIP[c].code for c in range(4)],
                              dtype=object)[self.cells].tolist(),
        }


def _labels(k: int, codes) -> np.ndarray:
    """(len(codes), k) uint8 ASCII "0"/"1" rows of the given SERP encodings."""
    return (_bits.bit_matrix(k)[np.asarray(codes, dtype=np.intp)] + ord("0")).view(np.uint8)


def _bitstrings(k: int, codes) -> list:
    return _labels(k, codes).view(f"S{k}")[:, 0].astype(str).tolist()


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
        return list(zip(*(_bitstrings(self.k, half) for half in np.reshape(self.edges, (-1, 2)).T)))

    def write_csv(self, stream: IO[str]) -> None:
        # bare "from,to" lines, no header
        sup, inf = (_labels(self.k, half) for half in np.reshape(self.edges, (-1, 2)).T)
        comma, newline = (np.full((len(sup), 1), ord(c), np.uint8) for c in ",\n")
        stream.write(str(np.hstack([sup, comma, inf, newline]).data, "ascii"))

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
    # path counts are at most 2^k <= 256, exact in float32, where BLAS does the product
    d = dominates.astype(np.float32)
    return HasseEdges(k=k, edges=tuple(map(tuple, np.argwhere(dominates & ~(d @ d > 0)).tolist())))


def kendall_tau(
    metric_a: MetricSpec,
    metric_b: MetricSpec,
    k: int,
    ctx: TopicContext | None = None,
) -> float:
    """Tie-aware (tau-b) rank correlation of two metrics over all 2^k SERPs, from score_ranks."""
    if not 1 <= k <= 12:
        raise ValueError(f"kendall_tau supports 1 <= k <= 12, got {k}")
    scores_a = score_all(metric_a, k, ctx)
    scores_b = score_all(metric_b, k, ctx)
    if np.array_equal(scores_a, scores_b):
        # identical score vectors correlate exactly; skip the floating-point
        # tie arithmetic, which can land a hair under 1.0
        return 1.0
    return _kendall_tau_b_ranks(score_ranks(metric_a, k, ctx), score_ranks(metric_b, k, ctx))

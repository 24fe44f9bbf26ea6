"""Effectiveness metrics over binary SERPs, all evaluated at a fixed depth.

Six families: precision, reciprocal rank, success, rank-biased precision,
average precision, and NDCG.  Scores are in [0, 1].  AP and NDCG need the
topic's total number of relevant documents R; in enumeration settings
without judgments, R defaults to the evaluation depth so that every
possible SERP has a well-defined score.  evaluate_rows scores a batch of
SERPs; evaluate and the six family functions score a batch of one.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from . import _bits
from .serp import Serp, SerpLike, as_serp

#: Persistence at which RBP weights satisfy w1 = w2 + w3, making a single
#: early hit worth exactly two later ones.
PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Absolute tolerance for treating two metric scores as tied.
SCORE_TOLERANCE = 1e-12

_FAMILIES = ("P", "RR", "S", "RBP", "AP", "NDCG")


@dataclass(frozen=True)
class MetricSpec:
    """A metric family plus evaluation depth and any family parameters."""

    family: str
    depth: int
    persistence: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown metric family {self.family!r}")
        if self.depth < 1:
            raise ValueError(f"metric depth must be >= 1, got {self.depth}")
        if self.family == "RBP":
            if self.persistence is None:
                raise ValueError("RBP requires a persistence parameter")
            if not 0.0 < self.persistence < 1.0:
                raise ValueError(f"persistence must be in (0,1), got {self.persistence}")
        elif self.persistence is not None:
            raise ValueError(f"{self.family} takes no persistence parameter")

    @property
    def label(self) -> str:
        if self.family == "RBP":
            return f"RBP{self.persistence:g}@{self.depth}"
        return f"{self.family}@{self.depth}"

    def __str__(self) -> str:
        return self.label


_METRIC_RE = re.compile(r"^(P|PREC|RR|S|SUCC|AP|NDCG)@(\d+)$", re.IGNORECASE)
_RBP_RE = re.compile(r"^RBP(\d*\.?\d+)@(\d+)$", re.IGNORECASE)


def parse_metric(text: str) -> MetricSpec:
    """Parse a metric label such as ``P@10``, ``RBP0.5@3``, or ``NDCG@20``."""
    token = text.strip()
    m = _RBP_RE.match(token)
    if m:
        return MetricSpec("RBP", int(m.group(2)), float(m.group(1)))
    m = _METRIC_RE.match(token)
    if m:
        family = m.group(1).upper()
        family = {"PREC": "P", "SUCC": "S"}.get(family, family)
        return MetricSpec(family, int(m.group(2)))
    raise ValueError(f"unrecognised metric {text!r}")


@dataclass(frozen=True)
class TopicContext:
    """Per-topic evaluation context: R, the count of relevant documents."""

    total_relevant: int

    def __post_init__(self):
        if self.total_relevant < 0:
            raise ValueError(f"total_relevant must be >= 0, got {self.total_relevant}")


def evaluate_rows(metric: MetricSpec, bits, total_relevant=None) -> np.ndarray:
    """Scores of the rows of an (n, w) 0/1 matrix under one metric.

    Rows are truncated or zero-padded to the metric depth.  total_relevant
    is R for AP and NDCG, one int or one per row, and defaults to the
    depth; a row with more relevant documents than R is an error.  Sums
    run left to right (cumsum), RBP weights come from repeated
    multiplication and NDCG discounts from math.log2, so a row scores the
    same alone as in any batch.
    """
    d = metric.depth
    bits = np.asarray(bits)
    hits = np.zeros((bits.shape[0], d), dtype=bool)
    hits[:, :bits.shape[1]] = bits[:, :d] != 0
    ones = hits.sum(axis=1)
    if metric.family == "P":
        return ones / d
    if metric.family == "S":
        return (ones > 0) * 1.0
    if metric.family == "RR":
        return np.where(ones > 0, 1.0 / (hits.argmax(axis=1) + 1), 0.0)
    if metric.family == "RBP":
        p = metric.persistence
        return _running_sum(hits, np.cumprod(np.r_[1.0 - p, np.full(d - 1, p)]))
    r = np.broadcast_to(d if total_relevant is None else total_relevant, ones.shape)
    if (r < ones).any():
        i = np.argmax(r < ones)
        raise ValueError(f"total_relevant {r[i]} is smaller than the "
                         f"{ones[i]} relevant documents in the prefix")
    # with R = 0 no row has a hit, so each sum is 0 and any divisor gives 0.0
    if metric.family == "AP":
        precision = np.cumsum(hits, axis=1, dtype=np.int32) / np.arange(1, d + 1)
        return _running_sum(hits, precision) / np.maximum(r, 1)
    discounts = np.array([1.0 / math.log2(i + 2) for i in range(d)])
    ideal = np.cumsum(discounts)[np.clip(r, 1, d) - 1]
    return _running_sum(hits, discounts) / ideal


def _running_sum(hits: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Per row, the terms at hit positions added left to right.

    One depth at a time over all rows: the additions of a cumsum along
    each row, in the same order, without a pass along a short last axis.
    """
    total = np.zeros(hits.shape[0])
    for column in np.where(hits, terms, 0.0).T:
        total += column
    return total


def _one(metric: MetricSpec, serp: SerpLike, total_relevant: int | None = None) -> float:
    bits = np.array(as_serp(serp), dtype=np.int8).reshape(1, -1)
    return float(evaluate_rows(metric, bits, total_relevant)[0])


def precision(serp: SerpLike, k: int) -> float:
    """Fraction of the top k that is relevant."""
    return _one(MetricSpec("P", k), serp)


def success(serp: SerpLike, k: int) -> float:
    """1 if anything relevant appears in the top k, else 0."""
    return _one(MetricSpec("S", k), serp)


def reciprocal_rank(serp: SerpLike, k: int) -> float:
    """1/rank of the first relevant document in the top k, 0 if none."""
    return _one(MetricSpec("RR", k), serp)


def rbp(serp: SerpLike, persistence: float, k: int) -> float:
    """Rank-biased precision with the given persistence, truncated at k."""
    return _one(MetricSpec("RBP", k, persistence), serp)


def average_precision(serp: SerpLike, k: int, total_relevant: int) -> float:
    """AP truncated at k: mean of precision at relevant ranks over R."""
    return _one(MetricSpec("AP", k), serp, total_relevant)


def ndcg(serp: SerpLike, k: int, total_relevant: int) -> float:
    """NDCG at k with 1/log2(rank+1) discounts and an ideal of min(R, k) ones."""
    return _one(MetricSpec("NDCG", k), serp, total_relevant)


def evaluate(metric: MetricSpec, serp: SerpLike, ctx: TopicContext | None = None) -> float:
    """Score one SERP under a metric; pads with 0s if shorter than the depth.

    ctx supplies R for AP and NDCG and is ignored by the other families;
    without a ctx, R defaults to the metric depth.
    """
    return _one(metric, serp, None if ctx is None else ctx.total_relevant)


def ordering_check(
    metric: MetricSpec,
    s1: SerpLike,
    s2: SerpLike,
    ctx: TopicContext | None = None,
    tolerance: float = SCORE_TOLERANCE,
) -> str:
    """Return '<', '=', or '>' for the two SERPs' scores under one metric."""
    delta = evaluate(metric, s1, ctx) - evaluate(metric, s2, ctx)
    if abs(delta) <= tolerance:
        return "="
    return ">" if delta > 0 else "<"


@lru_cache(maxsize=32)
def score_all(metric: MetricSpec, k: int, ctx: TopicContext | None = None) -> np.ndarray:
    """Scores for every length-k SERP, indexed by MSB-first encoding.

    evaluate_rows over bit_matrix(k), so each SERP scores the bits
    evaluate() gives it; without a ctx, R defaults to k.  Cached per
    (metric, k, ctx): every caller shares one array, so it is read-only.
    """
    scores = evaluate_rows(metric, _bits.bit_matrix(k), k if ctx is None else ctx.total_relevant)
    scores.setflags(write=False)
    return scores


@lru_cache(maxsize=32)
def score_ranks(metric: MetricSpec, k: int, ctx: TopicContext | None = None) -> np.ndarray:
    """score_all's dense ranks (np.unique's inverse), cached and read-only like its scores."""
    ranks = np.unique(score_all(metric, k, ctx), return_inverse=True)[1]
    ranks.setflags(write=False)
    return ranks


MetricLike = Union[MetricSpec, Callable[[Serp], float]]


def certify_compliance(
    metric: MetricLike,
    k: int,
    ctx: TopicContext | None = None,
    tolerance: float = SCORE_TOLERANCE,
) -> list:
    """Exhaustively check a metric against the innate ordering at depth k.

    For every ordered pair of length-k SERPs where the first is
    non-inferior (_bits.dominance_pairs), the first's score must not fall
    below the second's (within tolerance).  Equal pairs need no check: a
    SERP equals only itself, a gap of 0 (NaN for a NaN or infinite score).
    Returns the offending (serp, serp) pairs, sorted by encoding — empty
    means the metric complies.  Accepts a MetricSpec or a Serp -> score callable.
    """
    if not 1 <= k <= 12:
        raise ValueError(f"certify_compliance supports 1 <= k <= 12, got {k}")
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    if isinstance(metric, MetricSpec):
        scores = score_all(metric, k, ctx)
    else:
        scores = np.array([float(metric(Serp.from_int(c, k))) for c in range(1 << k)])
    rows, cols = _bits.dominance_pairs(k)
    bad = scores[rows] - scores[cols] < -tolerance
    return [(Serp.from_int(a, k), Serp.from_int(b, k))
            for a, b in zip(rows[bad].tolist(), cols[bad].tolist())]


def metric_suite(k: int, persistences: tuple = (0.5, 0.8)) -> list:
    """The standard palette of MetricSpecs at depth k, one per family."""
    specs = [MetricSpec("P", k), MetricSpec("RR", k), MetricSpec("S", k)]
    specs += [MetricSpec("RBP", k, p) for p in persistences]
    specs += [MetricSpec("AP", k), MetricSpec("NDCG", k)]
    return specs

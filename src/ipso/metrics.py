"""Effectiveness metrics over binary SERPs, all evaluated at a fixed depth.

Six families: precision, reciprocal rank, success, rank-biased precision,
average precision, and NDCG.  Scores are in [0, 1].  AP and NDCG need the
topic's total number of relevant documents R; in enumeration settings
without judgments, R defaults to the evaluation depth so that every
possible SERP has a well-defined score.  evaluate_rows scores a batch of
SERPs, and evaluate, the one scalar view, scores a batch of one.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from . import _bits
from .serp import Serp, SerpLike, as_serp

#: Persistence at which RBP weights satisfy w1 = w2 + w3, making a single
#: early hit worth exactly two later ones.
PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Absolute tolerance for treating two metric scores as tied.
SCORE_TOLERANCE = 1e-12

#: The RBP persistences in metric_suite's palette.
SUITE_PERSISTENCES = (0.5, 0.8)

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


_LABEL_RE = re.compile(r"^(?:(P|PREC|RR|S|SUCC|AP|NDCG)|RBP(\d*\.?\d+))(?:@(\d+))?$",
                       re.IGNORECASE)


def parse_metric(text: str, k: int | None = None) -> MetricSpec:
    """Parse a metric label such as ``P@10``, ``RBP0.5@3``, or ``NDCG@20``: the one metric
    grammar.  A full label keeps its own depth; a bare family (``P``, ``RBP0.8``) takes k."""
    m = _LABEL_RE.match(text.strip())
    if not m:
        raise ValueError(f"unrecognised metric {text!r}")
    name, persistence, depth = m.groups()
    if depth is None and k is None:
        raise ValueError(f"metric {text!r} has no depth: give k or a full label such as P@10")
    family = {"PREC": "P", "SUCC": "S"}.get(name.upper(), name.upper()) if name else "RBP"
    return MetricSpec(family, int(depth or k), persistence and float(persistence))


def resolve_metric(metric: Union[MetricSpec, str], k: int | None = None) -> MetricSpec:
    """A MetricSpec as given, or a label parsed at depth k."""
    return metric if isinstance(metric, MetricSpec) else parse_metric(metric, k)


def read_depth(k_values: Sequence[int], metrics: Iterable[Union[MetricSpec, str]] = ()) -> int:
    """How deep a job reads every run: the largest k, or a deeper metric's depth.  metrics
    holds MetricSpecs or labels; a bare family resolves at max(k_values)."""
    if not k_values or min(k_values) < 1:
        raise ValueError(f"every k must be >= 1, got {list(k_values)}")
    top = max(k_values)
    return max([top, *(resolve_metric(m, top).depth for m in metrics)])


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


def evaluate(metric: MetricSpec, serp: SerpLike, ctx: TopicContext | None = None) -> float:
    """Score one SERP under a metric; pads with 0s if shorter than the depth.

    ctx supplies R for AP and NDCG and is ignored by the other families;
    without a ctx, R defaults to the metric depth.
    """
    bits = np.array(as_serp(serp), dtype=np.int8).reshape(1, -1)
    return float(evaluate_rows(metric, bits, None if ctx is None else ctx.total_relevant)[0])


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

    For every ordered pair of length-k SERPs where the first is non-inferior, the
    first's score must not fall below the second's (within tolerance).  Each such pair
    is a chain of covers (_bits.cover_pairs) and float >= is transitive, so if no cover
    scores lower the metric complies; else (a NaN too) _bits.dominance_pairs is scanned.
    Equal pairs need no check: a SERP equals only itself, a gap of 0 (NaN for a NaN or
    infinite score).  Returns the offending (serp, serp) pairs, sorted by encoding —
    empty means the metric complies.  Accepts a MetricSpec or a Serp -> score callable.
    """
    if not 1 <= k <= 12:
        raise ValueError(f"certify_compliance supports 1 <= k <= 12, got {k}")
    if not tolerance >= 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    if isinstance(metric, MetricSpec):
        scores = score_all(metric, k, ctx)
    else:
        scores = np.array([float(metric(Serp.from_int(c, k))) for c in range(1 << k)])
    if np.greater_equal(*scores[_bits.cover_pairs(k)]).all():  # no cover scores lower
        return []
    rows, cols = _bits.dominance_pairs(k)
    bad = scores[rows] - scores[cols] < -tolerance
    return [(Serp.from_int(a, k), Serp.from_int(b, k))
            for a, b in zip(rows[bad].tolist(), cols[bad].tolist())]


def metric_suite(k: int) -> list:
    """The standard palette of MetricSpecs at depth k, one per family."""
    specs = [MetricSpec("P", k), MetricSpec("RR", k), MetricSpec("S", k)]
    specs += [MetricSpec("RBP", k, p) for p in SUITE_PERSISTENCES]
    specs += [MetricSpec("AP", k), MetricSpec("NDCG", k)]
    return specs

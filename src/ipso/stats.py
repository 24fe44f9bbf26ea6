"""Paired significance tests (exact Sign test, Wilcoxon signed-rank, paired t) and rank statistics.

All tests are two-tailed.  The Sign test and the small-sample Wilcoxon
null distribution are computed exactly with integer arithmetic; larger
Wilcoxon samples fall back to the usual normal approximation with
continuity and tie corrections.  A tie is |difference| <= SCORE_TOLERANCE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.special

from .metrics import SCORE_TOLERANCE


class UndefinedTestError(ValueError):
    """Raised when a test has no defined outcome for the given input."""


@dataclass(frozen=True)
class TestResult:
    """Outcome of one significance test."""

    __test__ = False  # keep pytest from collecting this as a test case

    p_value: float
    statistic: float
    n_effective: int
    method: str  # "exact" or "approximate"
    degenerate: bool = False


def sign_test(n_pos: int, n_neg: int) -> TestResult:
    """Exact two-tailed Sign test on counts of positive vs negative outcomes.

    Under the null both directions are equally likely, so the p-value is
    the doubled smaller binomial tail at probability 1/2, capped at 1.
    Computed with exact integer tail sums, stable for any count size.
    """
    if n_pos < 0 or n_neg < 0:
        raise ValueError("counts must be non-negative")
    n = n_pos + n_neg
    if n == 0:
        raise UndefinedTestError("sign test needs at least one untied observation")
    lo = min(n_pos, n_neg)
    # sum C(n, 0..lo) with a running exact term, C(n, j) = C(n, j-1) (n-j+1) / j
    term = tail = 1
    for j in range(1, lo + 1):
        term = term * (n - j + 1) // j
        tail += term
    p = min(1.0, (2 * tail) / (1 << n))
    return TestResult(p_value=p, statistic=float(lo), n_effective=n, method="exact")


def _untied(diffs: Sequence[float]) -> np.ndarray:
    """The differences as floats, each within SCORE_TOLERANCE of 0 snapped to 0."""
    d = np.asarray(diffs, dtype=np.float64)
    return np.where(np.abs(d) <= SCORE_TOLERANCE, 0.0, d)


def sign_test_diffs(diffs: Sequence[float]) -> TestResult:
    """Sign test over paired differences; zeros are dropped as ties.

    With every difference zero there is nothing to test and the result is
    a degenerate p = 1.
    """
    d = _untied(diffs)
    n_pos, n_neg = int((d > 0).sum()), int((d < 0).sum())
    if n_pos + n_neg == 0:
        return TestResult(p_value=1.0, statistic=0.0, n_effective=0,
                          method="exact", degenerate=True)
    return sign_test(n_pos, n_neg)


def t_test_paired(diffs: Sequence[float]) -> TestResult:
    """Two-tailed paired Student t test on a sequence of differences.

    A sample whose differences all tie has no spread to test against: the
    result is degenerate, with p = 1 for a zero mean and p = 0 otherwise.
    """
    d = _untied(diffs)
    n = d.size
    if n < 2:
        raise UndefinedTestError(f"paired t test needs n >= 2, got {n}")
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if np.ptp(d) <= SCORE_TOLERANCE:
        if mean == 0.0:
            return TestResult(p_value=1.0, statistic=0.0, n_effective=n,
                              method="exact", degenerate=True)
        return TestResult(p_value=0.0, statistic=math.copysign(math.inf, mean),
                          n_effective=n, method="exact", degenerate=True)
    t = mean / (sd / math.sqrt(n))
    p = min(1.0, 2.0 * float(scipy.special.stdtr(n - 1, -abs(t))))
    return TestResult(p_value=p, statistic=t, n_effective=n, method="exact")


def _midranks(values: np.ndarray) -> tuple:
    """Average 1-based ranks of values, and the size of each tie group in sorted order.

    A value within SCORE_TOLERANCE of the next smaller one joins its tie group.
    """
    distinct, inverse = np.unique(values, return_inverse=True)
    group = np.cumsum(np.r_[True, np.diff(distinct) > SCORE_TOLERANCE])[inverse] - 1
    sizes = np.bincount(group)
    return ((2 * np.cumsum(sizes) - sizes + 1) / 2.0)[group], sizes


def _exact_signed_rank_p(ranks: np.ndarray, t_lo: float) -> float:
    """Exact doubled-tail p for the signed-rank statistic via subset sums.

    Works on doubled ranks so that midranks become integers; the null
    distribution is symmetric, so the two-tailed p is twice the lower
    tail at min(T+, T-).
    """
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    dist = np.zeros(total + 1, dtype=np.int64)
    dist[0] = 1
    for r in doubled:  # every doubled rank is >= 2
        dist[r:] = dist[r:] + dist[:-r]
    cut = int(round(2.0 * t_lo))
    tail = int(dist[: cut + 1].sum())
    return min(1.0, (2 * tail) / (1 << len(ranks)))


def wilcoxon_signed_rank(diffs: Sequence[float], exact_cutover: int = 25) -> TestResult:
    """Two-tailed Wilcoxon signed-rank test on paired differences.

    Zero differences are dropped; tied magnitudes receive midranks.  The
    null distribution is exact up to exact_cutover untied observations
    and normal-approximated (continuity and tie corrections) beyond.
    """
    d = _untied(diffs)
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return TestResult(p_value=1.0, statistic=0.0, n_effective=0,
                          method="exact", degenerate=True)
    ranks, tie_sizes = _midranks(np.abs(d))
    t_plus = float(ranks[d > 0].sum())
    t_minus = float(ranks[d < 0].sum())
    statistic = min(t_plus, t_minus)
    if n <= exact_cutover:
        p = _exact_signed_rank_p(ranks, statistic)
        return TestResult(p_value=p, statistic=statistic, n_effective=n, method="exact")
    mean = n * (n + 1) / 4.0
    tie_term = float((tie_sizes.astype(np.float64) ** 3 - tie_sizes).sum()) / 48.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    delta = t_plus - mean
    if delta != 0.0:
        delta -= math.copysign(0.5, delta)  # continuity correction
    z = delta / math.sqrt(var)
    p = min(1.0, 2.0 * float(scipy.special.ndtr(-abs(z))))
    return TestResult(p_value=p, statistic=statistic, n_effective=n,
                      method="approximate")


def _inversions(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j], for non-negative integer ranks.

    Counted one rank bit b at a time, from the top: among positions whose
    ranks agree above b, kept in order by a stable sort, each 1 at b that
    precedes a 0 at b is one inversion.
    """
    total = 0
    for b in reversed(range(int(ranks.max(initial=0)).bit_length())):
        key = ranks[np.argsort(ranks >> (b + 1), kind="stable")] >> b
        high, bit = key >> 1, key & 1
        ones = np.bincount(high[bit == 1], minlength=int(high[-1]) + 1)
        ones_before_run = (np.cumsum(ones) - ones)[high]
        total += int(((np.cumsum(bit) - ones_before_run) * (1 - bit)).sum())
    return total


def kendall_tau_b(x: Sequence[float], y: Sequence[float]) -> float:
    """Kendall's tau-b of two equal-length finite samples; NaN when either is constant.

    Discordant pairs are the inversions of y's dense ranks once the pairs
    are sorted by (x, y) (Knight 1966).  The integer counts and float steps
    are scipy.stats.kendalltau's, so the results are equal.
    """
    if len(x) != len(y):
        raise ValueError(f"samples differ in length: {len(x)} vs {len(y)}")
    _, x = np.unique(np.asarray(x), return_inverse=True)
    _, y = np.unique(np.asarray(y), return_inverse=True)
    pairs = np.sort(x * x.size + y)  # by x, then y
    ntie, xtie, ytie = (int((c * (c - 1) // 2).sum()) for c in (
        np.unique(pairs, return_counts=True)[1], np.bincount(x), np.bincount(y)))
    tot = x.size * (x.size - 1) // 2
    if xtie == tot or ytie == tot:
        return math.nan
    dis = _inversions(pairs % x.size)
    tau = (tot - xtie - ytie + ntie - 2 * dis) / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(np.minimum(1.0, max(-1.0, tau)))

"""Paired significance tests: exact Sign test, Wilcoxon signed-rank, paired t.

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
import scipy.stats

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
    tail = sum(math.comb(n, j) for j in range(lo + 1))
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
    for r in doubled:
        r = int(r)
        shifted = np.zeros_like(dist)
        shifted[r:] = dist[:-r] if r else dist
        dist = dist + shifted
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
    ranks = scipy.stats.rankdata(np.abs(d))
    t_plus = float(ranks[d > 0].sum())
    t_minus = float(ranks[d < 0].sum())
    statistic = min(t_plus, t_minus)
    if n <= exact_cutover:
        p = _exact_signed_rank_p(ranks, statistic)
        return TestResult(p_value=p, statistic=statistic, n_effective=n, method="exact")
    mean = n * (n + 1) / 4.0
    _, tie_sizes = np.unique(ranks, return_counts=True)
    tie_term = float((tie_sizes.astype(np.float64) ** 3 - tie_sizes).sum()) / 48.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    delta = t_plus - mean
    if delta != 0.0:
        delta -= math.copysign(0.5, delta)  # continuity correction
    z = delta / math.sqrt(var)
    p = min(1.0, 2.0 * float(scipy.stats.norm.sf(abs(z))))
    return TestResult(p_value=p, statistic=statistic, n_effective=n,
                      method="approximate")

"""Scalar reference formulas that the batch kernels are held to, bit for bit.

The relation oracle classifies a pair from its prefix one-counts, not from
a walk.  The metric formulas score one SERP term by term.  Every sum is an
explicit left-to-right loop: from Python 3.12 on, the built-in sum() over
floats compensates and can end in a different last bit.  The test
formulas take one sample at a time; the signed-rank midranks come from
np.unique over the sample, not from a sort along rows.  The t and normal
tails are ipso.stats' own, taken one value at a time; tests/test_tails.py
holds them to mpmath and scipy.
"""

from __future__ import annotations

import math

import numpy as np

from ipso.metrics import SCORE_TOLERANCE, MetricSpec
from ipso.serp import CATEGORY_TO_RELATIONSHIP, Relationship, as_serp
from ipso.stats import (TestResult, UndefinedTestError, _exact_signed_rank_p, _normal_tail, _t_tail,
                        sign_test)


def prefix_dominance_oracle(s1, s2, k: int) -> Relationship:
    """Classify a pair from its prefix one-counts; must agree with serp.compare.

    s1 is non-inferior exactly when every prefix of s1 contains at least
    as many relevant documents as the same-length prefix of s2, strictly
    more somewhere.
    """
    a, b = as_serp(s1), as_serp(s2)
    if not 1 <= k <= min(len(a), len(b)):
        raise ValueError(f"depth {k} outside 1..{min(len(a), len(b))}")
    c1 = c2 = 0
    counts1, counts2 = [], []
    for i in range(k):
        c1 += a[i]
        c2 += b[i]
        counts1.append(c1)
        counts2.append(c2)
    ge = all(x >= y for x, y in zip(counts1, counts2))
    le = all(x <= y for x, y in zip(counts1, counts2))
    if ge and le:
        return Relationship.EQUAL
    if ge:
        return Relationship.NON_INFERIOR
    if le:
        return Relationship.NON_SUPERIOR
    return Relationship.NON_SEPARABLE


def _prefix(serp, k: int) -> list:
    bits = [int(v) for v in serp][:k]
    return bits + [0] * (k - len(bits))


def _check_total_relevant(prefix: list, total_relevant: int) -> None:
    if total_relevant < sum(prefix):
        raise ValueError(
            f"total_relevant {total_relevant} is smaller than the "
            f"{sum(prefix)} relevant documents in the prefix"
        )


def precision(serp, k: int) -> float:
    return sum(_prefix(serp, k)) / k


def success(serp, k: int) -> float:
    return 1.0 if any(_prefix(serp, k)) else 0.0


def reciprocal_rank(serp, k: int) -> float:
    for i, v in enumerate(_prefix(serp, k)):
        if v:
            return 1.0 / (i + 1)
    return 0.0


def rbp(serp, persistence: float, k: int) -> float:
    score = 0.0
    weight = 1.0 - persistence
    for v in _prefix(serp, k):
        if v:
            score += weight
        weight *= persistence
    return score


def average_precision(serp, k: int, total_relevant: int) -> float:
    p = _prefix(serp, k)
    _check_total_relevant(p, total_relevant)
    if total_relevant == 0:
        return 0.0
    seen = 0
    acc = 0.0
    for i, v in enumerate(p):
        if v:
            seen += 1
            acc += seen / (i + 1)
    return acc / total_relevant


def ndcg(serp, k: int, total_relevant: int) -> float:
    p = _prefix(serp, k)
    _check_total_relevant(p, total_relevant)
    if total_relevant == 0:
        return 0.0
    dcg = 0.0
    for i, v in enumerate(p):
        dcg += v / math.log2(i + 2)
    ideal = 0.0
    for i in range(min(total_relevant, k)):
        ideal += 1.0 / math.log2(i + 2)
    return dcg / ideal


def evaluate(metric: MetricSpec, serp, total_relevant: int | None = None) -> float:
    k = metric.depth
    if metric.family == "P":
        return precision(serp, k)
    if metric.family == "RR":
        return reciprocal_rank(serp, k)
    if metric.family == "S":
        return success(serp, k)
    if metric.family == "RBP":
        return rbp(serp, metric.persistence, k)
    total_relevant = k if total_relevant is None else total_relevant
    if metric.family == "AP":
        return average_precision(serp, k, total_relevant)
    return ndcg(serp, k, total_relevant)


def _untied(diffs) -> np.ndarray:
    d = np.asarray(diffs, dtype=np.float64)
    return np.where(np.abs(d) <= SCORE_TOLERANCE, 0.0, d)


def sign_test_diffs(diffs) -> TestResult:
    d = _untied(diffs)
    n_pos, n_neg = int((d > 0).sum()), int((d < 0).sum())
    if n_pos + n_neg == 0:
        return TestResult(p_value=1.0, statistic=0.0, n_effective=0,
                          method="exact", degenerate=True)
    return sign_test(n_pos, n_neg)


def t_test_paired(diffs) -> TestResult:
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
    p = min(1.0, float(_t_tail(n - 1, t)[0]))
    return TestResult(p_value=p, statistic=t, n_effective=n, method="exact")


def midranks(values: np.ndarray) -> tuple:
    """Midranks with tolerance ties, and the tie-group sizes in sorted order."""
    distinct, inverse = np.unique(values, return_inverse=True)
    group = np.cumsum(np.r_[True, np.diff(distinct) > SCORE_TOLERANCE])[inverse] - 1
    sizes = np.bincount(group)
    return ((2 * np.cumsum(sizes) - sizes + 1) / 2.0)[group], sizes


def wilcoxon_signed_rank(diffs, exact_cutover: int = 25) -> TestResult:
    d = _untied(diffs)
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return TestResult(p_value=1.0, statistic=0.0, n_effective=0,
                          method="exact", degenerate=True)
    ranks, tie_sizes = midranks(np.abs(d))
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
        delta -= math.copysign(0.5, delta)
    z = delta / math.sqrt(var)
    p = min(1.0, float(_normal_tail(z)))
    return TestResult(p_value=p, statistic=statistic, n_effective=n, method="approximate")


def relationship_counts_dp(k: int) -> dict:
    """Per-relationship counts at depth k by a three-flag dictionary DP.

    State is (cumulative difference, been-negative, been-positive); a
    depth step changes the difference by +1 one way (1 vs 0), -1 one way,
    and 0 two ways (0 vs 0, 1 vs 1).  Keeps every sign history apart, so
    it holds enumeration.relationship_counts' collapsed states to account.
    """
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

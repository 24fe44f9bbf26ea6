"""Paired significance tests (exact Sign test, Wilcoxon signed-rank, paired t) and rank statistics.

All tests are two-tailed, and each runs over the rows of an (m, n) array
of paired differences at once; the one-sample functions are a row of one.
The Sign test and the small-sample Wilcoxon null distribution are
computed exactly with integer arithmetic; larger Wilcoxon samples fall
back to the usual normal approximation with continuity and tie
corrections.  A tie is |difference| <= SCORE_TOLERANCE.

The t and normal tails are computed here, with no scipy.  The normal
tail is math.erfc.  The Student t tail with an integer df is exact in
closed form for 1 and 2 df; beyond, it is a fixed Gauss quadrature of the
incomplete beta integral, within 1e-12 relative of the true tail for
every p >= 1e-300 (tests/test_tails.py holds it to mpmath).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

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


class RowOutcomes(NamedTuple):
    """One test's outcomes for every row of an (m, n) array of paired differences."""

    p_value: np.ndarray
    statistic: np.ndarray
    n_effective: np.ndarray
    exact: np.ndarray  # bool: the p-value is exact, not normal-approximated
    degenerate: np.ndarray

    def result(self, row: int) -> TestResult:
        return TestResult(float(self.p_value[row]), float(self.statistic[row]),
                          int(self.n_effective[row]), "exact" if self.exact[row] else "approximate",
                          bool(self.degenerate[row]))


@lru_cache(maxsize=1024)
def _sign_tails(n: int) -> np.ndarray:
    """The Sign test's exact two-tailed p at n untied observations, for lo = 0 ... n // 2.

    Under the null both directions are equally likely, so the p-value is
    the doubled smaller binomial tail at probability 1/2, capped at 1.
    Computed with exact integer tail sums, stable for any n; read-only.
    """
    # partial sums of C(n, j) with a running exact term, C(n, j) = C(n, j-1) (n-j+1) / j
    term, tails = 1, [1]
    for j in range(1, n // 2 + 1):
        term = term * (n - j + 1) // j
        tails.append(tails[-1] + term)
    row = np.array([min(1.0, (2 * tail) / (1 << n)) for tail in tails])
    row.setflags(write=False)
    return row


def sign_test_counts(n_pos, n_neg) -> RowOutcomes:
    """Exact two-tailed Sign test on each row's counts of positive vs negative outcomes.

    One gather from the _sign_tails tables of the distinct count totals,
    laid end to end.  A row with no untied observation has nothing to
    test: its result is a degenerate p = 1.
    """
    n_pos, n_neg = np.asarray(n_pos, dtype=np.int64), np.asarray(n_neg, dtype=np.int64)
    n, lo = n_pos + n_neg, np.minimum(n_pos, n_neg)
    if (lo < 0).any():
        raise ValueError("counts must be non-negative")
    sizes, which = np.unique(n, return_inverse=True)
    tables = [_sign_tails(size) for size in sizes.tolist()]
    offsets = np.cumsum([0] + [len(table) for table in tables[:-1]])
    p = np.concatenate([np.empty(0), *tables])[offsets[which] + lo]
    return RowOutcomes(p, lo * 1.0, n, np.ones(n.size, dtype=bool), n == 0)


def sign_test(n_pos: int, n_neg: int) -> TestResult:
    """sign_test_counts on one pair of counts; 0 + 0 raises UndefinedTestError."""
    result = sign_test_counts([n_pos], [n_neg]).result(0)
    if result.degenerate:
        raise UndefinedTestError("sign test needs at least one untied observation")
    return result


def _untied(diffs) -> np.ndarray:
    """The differences as floats, each within SCORE_TOLERANCE of 0 snapped to 0."""
    d = np.asarray(diffs, dtype=np.float64)
    return np.where(np.abs(d) <= SCORE_TOLERANCE, 0.0, d)


def sign_test_rows(diffs) -> RowOutcomes:
    """sign_test_counts on each row of paired differences; zeros are dropped as ties."""
    d = _untied(diffs)
    return sign_test_counts((d > 0).sum(axis=1), (d < 0).sum(axis=1))


def sign_test_diffs(diffs: Sequence[float]) -> TestResult:
    """The Sign test of sign_test_rows on one sample of paired differences."""
    return sign_test_rows([diffs]).result(0)


def _gauss_rule(diagonal, off_diagonal, mass: float) -> tuple:
    """Nodes and weights of the Gauss rule with this Jacobi matrix (Golub-Welsch)."""
    jacobi = np.diag(diagonal) + np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1)
    nodes, vectors = np.linalg.eigh(jacobi)
    return nodes, mass * vectors[0] ** 2


@lru_cache(maxsize=64)
def _t_constants(nu: int) -> tuple:
    """_t_tail's constants at nu >= 3, with a = nu/2 and K = 1/(a B(a, 1/2)).

    They are log K; the 32-point Gauss-Laguerre nodes times -1/a, and its
    weights; and the positive half of the 18-point Gauss-Legendre rule, with
    its weights times nu K.  K(1) = 2/pi, K(2) = 1/2 and
    K(nu) = K(nu - 2) (nu - 1)/nu; math.fsum adds the steps' logs exactly, so
    K is good to a few ulp at any nu.
    """
    log_k = math.fsum(np.log1p(-1.0 / np.arange(nu, 2, -2)).tolist())
    log_k += math.log(2.0 / math.pi if nu % 2 else 0.5)
    k = np.arange(1.0, 32.0)
    laguerre_nodes, laguerre_weights = _gauss_rule(2.0 * np.arange(32.0) + 1.0, k, 1.0)
    k = np.arange(1.0, 18.0)
    legendre_nodes, legendre_weights = _gauss_rule(np.zeros(18), k / np.sqrt(4 * k * k - 1), 2.0)
    return (log_k, laguerre_nodes * (-2.0 / nu), laguerre_weights,
            legendre_nodes[9:], legendre_weights[9:] * (nu * math.exp(log_k)))


def _t_tail(nu: int, t) -> np.ndarray:
    """P(|T| >= |t|) for Student's T with an integer nu >= 1 degrees of freedom, over an array.

    1 and 2 df have closed forms.  Beyond, with a = nu/2, x = nu/(nu + t^2)
    and K = 1/(a B(a, 1/2)), the tail is the incomplete beta I_x(a, 1/2)
    (DLMF 8.17), and two fixed Gauss rules evaluate it for all t at once:
    - once a log(1/x) > 2.5, w = x e^(-v/a) turns it into
      K x^a int_0^inf e^-v (1 - x e^(-v/a))^(-1/2) dv: Gauss-Laguerre;
    - nearer t = 0, it is 1 - nu K int_0^theta cos^(nu-1)(phi) dphi, with
      theta = atan(|t|/sqrt(nu)), the integral that A&S 26.7.3-4 sum in
      closed form: Gauss-Legendre.  There p > 0.02, so the difference
      loses no accuracy.
    Each log(1 + .) is a log1p and 1 - x e^(-v/a) an expm1, so x near 1 at
    large nu loses nothing.  From 3 df on, |t| is clipped at 1e150, where
    p < 1e-400.  Each t's tail is computed alone, so its bits do not depend
    on the array around it.
    """
    t = np.abs(np.array(t, dtype=np.float64, ndmin=1))
    if nu == 1:
        return np.arctan2(1.0, t) / (math.pi / 2)
    if nu == 2:  # 2/(s (s + |t|)) with s = sqrt(2 + t^2), in 40 digits: doubles would cost 3 ulp
        import decimal

        with decimal.localcontext() as context:
            context.prec = 40
            tails = [float(2 / (s * (s + v))) for v in map(decimal.Decimal, t.ravel().tolist())
                     for s in [(2 + v * v).sqrt()]]
        return np.array(tails).reshape(t.shape)
    np.minimum(t, 1e150, out=t)
    log_k, laguerre_nodes, laguerre_weights, legendre_nodes, legendre_weights = _t_constants(nu)
    q = t / math.sqrt(nu)
    log_inv_x = np.log1p(q * q)
    # the Laguerre integrand: 1 - x e^(-v/a) = -expm1(-log(1/x) - v/a), to the power -1/2
    g = np.expm1(np.subtract(laguerre_nodes, log_inv_x[..., None]))
    np.negative(g, out=g)
    np.sqrt(g, out=g)
    np.divide(laguerre_weights, g, out=g)
    a_log_inv_x = np.multiply(log_inv_x, nu / 2, out=log_inv_x)  # -log(x^a)
    p = np.exp(log_k - a_log_inv_x)
    p *= np.add.reduce(g, axis=-1)
    # the Legendre integrand: cos^(nu-1) = exp((nu-1)/2 log1p(-sin^2))
    theta = np.arctan(q)
    c = np.sin(theta[..., None] * legendre_nodes)
    c *= c
    np.negative(c, out=c)
    np.log1p(c, out=c)
    c *= (nu - 1) / 2
    np.exp(c, out=c)
    c *= legendre_weights
    near = np.add.reduce(c, axis=-1)
    near *= theta
    np.copyto(p, np.subtract(1.0, near, out=near), where=a_log_inv_x <= 2.5)
    return p


def _normal_tail(z) -> np.ndarray:
    """P(|Z| >= |z|) = erfc(|z|/sqrt(2)) for a standard normal Z, over an array."""
    x = np.abs(np.asarray(z, dtype=np.float64)) * math.sqrt(0.5)
    return np.array([math.erfc(v) for v in x.ravel().tolist()]).reshape(x.shape)


def t_test_rows(diffs) -> RowOutcomes:
    """Two-tailed paired Student t test on each row of paired differences.

    A row whose differences all tie has no spread to test against: its
    result is degenerate, with p = 1 for a zero mean and p = 0 otherwise.
    Rows shorter than 2 raise UndefinedTestError.  Row-wise mean and std
    reduce each contiguous row as numpy reduces a 1-d array, and the tail is
    taken per t, so a row gets the bits it gets alone.
    """
    d = np.ascontiguousarray(_untied(diffs))
    m, n = d.shape
    if n < 2:
        raise UndefinedTestError(f"paired t test needs n >= 2, got {n}")
    # d.mean(axis=1) and d.std(axis=1, ddof=1), step for step, without numpy's wrappers
    mean = np.add.reduce(d, axis=1) / n
    squares = d - mean[:, None]
    squares *= squares
    se = np.sqrt(np.add.reduce(squares, axis=1) / (n - 1)) / math.sqrt(n)
    flat = np.ptp(d, axis=1) <= SCORE_TOLERANCE
    se[flat] = math.inf  # a zero se is a flat row's; its t and p are set below
    t = mean / se
    p = np.minimum(1.0, _t_tail(n - 1, t))
    if flat.any():
        t[flat] = np.where(mean[flat] == 0.0, 0.0, np.copysign(math.inf, mean[flat]))
        p[flat] = mean[flat] == 0.0
    return RowOutcomes(p, t, np.full(m, n), np.ones(m, dtype=bool), flat)


def t_test_paired(diffs: Sequence[float]) -> TestResult:
    """The paired t test of t_test_rows on one sample of differences."""
    return t_test_rows([diffs]).result(0)


def _tie_ranks(values: np.ndarray) -> tuple:
    """Sort along the last axis: the order, and each sorted value's midrank and tie-group size.

    A value within SCORE_TOLERANCE of the next smaller one joins its tie
    group.  Midranks are exact half-integers, so any sum of them is exact.
    """
    order = np.argsort(values, axis=-1)
    ordered = np.take_along_axis(values, order, axis=-1)
    # flattened, every row starts a group, so the groups of all rows are found at once
    starts = (np.diff(ordered, axis=-1, prepend=-math.inf) > SCORE_TOLERANCE).ravel()
    group = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    sizes = np.diff(first, append=starts.size)[group].reshape(values.shape)
    ranks = (first[group] % values.shape[-1]).reshape(values.shape) + (sizes + 1) / 2.0
    return order, ranks, sizes


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


#: Most untied observations for which the Wilcoxon null distribution is exact.
WILCOXON_EXACT_MAX = 25


def wilcoxon_rows(diffs) -> RowOutcomes:
    """Two-tailed Wilcoxon signed-rank test on each row of paired differences.

    Zero differences are dropped; tied magnitudes receive midranks.  The
    null distribution is exact up to WILCOXON_EXACT_MAX untied observations, one
    row at a time, and normal-approximated (continuity and tie corrections)
    beyond.  Sorted by magnitude, a row's zeros come first, in a tie group
    of their own, so its n nonzero differences are the last n and their
    ranks are the midranks less the zero count.
    """
    d = _untied(diffs)
    order, ranks, sizes = _tie_ranks(np.abs(d))
    signs = np.sign(np.take_along_axis(d, order, axis=-1))
    n = np.count_nonzero(signs, axis=1)
    zeros = d.shape[1] - n
    ranks -= zeros[:, None]
    t_plus = np.where(signs > 0, ranks, 0.0).sum(axis=1)
    statistic = np.minimum(t_plus, np.where(signs < 0, ranks, 0.0).sum(axis=1))
    exact = (n <= WILCOXON_EXACT_MAX) | (n == 0)
    p = np.ones(n.size)
    for i in np.flatnonzero(exact & (n > 0)):
        p[i] = _exact_signed_rank_p(ranks[i, zeros[i]:], statistic[i])
    if (approx := ~exact).any():
        m = n[approx]
        # a tie group of size s adds s^2 - 1 once per member, s^3 - s in all
        tie_term = np.where(signs != 0, sizes * sizes - 1, 0).sum(axis=1)[approx] / 48.0
        var = m * (m + 1) * (2 * m + 1) / 24.0 - tie_term
        delta = t_plus[approx] - m * (m + 1) / 4.0
        delta -= np.where(delta != 0.0, np.copysign(0.5, delta), 0.0)  # continuity correction
        p[approx] = np.minimum(1.0, _normal_tail(delta / np.sqrt(var)))
    return RowOutcomes(p, statistic, n, exact, n == 0)


def wilcoxon_signed_rank(diffs: Sequence[float]) -> TestResult:
    """The signed-rank test of wilcoxon_rows on one sample of paired differences."""
    return wilcoxon_rows([diffs]).result(0)


def _inversions(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j], for non-negative integer ranks.

    Counted one rank bit b at a time, from the top: among positions whose
    ranks agree above b, kept in order by a stable sort, each 1 at b that
    precedes a 0 at b is one inversion.
    """
    total, top = 0, int(ranks.max(initial=0))
    ranks = ranks.astype(np.uint16 if top < 1 << 16 else np.intp)  # 16 bits sort by radix
    for b in reversed(range(top.bit_length())):
        key = ranks[np.argsort(ranks >> (b + 1), kind="stable")] >> b
        high, bit = key >> 1, (key & 1).astype(np.intp)  # a uint16 cumsum less int64 is float
        ones = np.bincount(high[bit == 1], minlength=int(high[-1]) + 1)
        ones_before_run = (np.cumsum(ones) - ones)[high]
        total += int(((np.cumsum(bit) - ones_before_run) * (1 - bit)).sum())
    return total


def _kendall_tau_b_ranks(x: np.ndarray, y: np.ndarray) -> float:
    """Kendall's tau-b of two samples' dense ranks (np.unique's inverse); NaN for a constant one.

    Discordant pairs are the inversions of y's dense ranks once the pairs
    are sorted by (x, y) (Knight 1966).  The integer counts and float steps
    are scipy.stats.kendalltau's, so the results are equal.
    """
    pairs = np.sort(x * x.size + y)  # by x, then y
    ntie, xtie, ytie = (int((c * (c - 1) // 2).sum()) for c in (
        np.unique(pairs, return_counts=True)[1], np.bincount(x), np.bincount(y)))
    tot = x.size * (x.size - 1) // 2
    if xtie == tot or ytie == tot:
        return math.nan
    dis = _inversions(pairs % x.size)
    tau = (tot - xtie - ytie + ntie - 2 * dis) / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(np.minimum(1.0, max(-1.0, tau)))

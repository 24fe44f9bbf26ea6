"""Oracle tests: ipso's numpy rank statistics against scipy.stats.

ipso computes midranks, Kendall's tau-b and the Wilcoxon normal tail
without scipy.stats; scipy.stats stays here as the independent reference.
Every comparison is exact equality but the normal tail's: ipso's tail is
math.erfc, not scipy's, so it is held to 1e-12 relative.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from ipso.enumeration import kendall_tau
from ipso.metrics import metric_suite, score_all
from ipso.stats import _inversions, _midranks, kendall_tau_b, wilcoxon_signed_rank


def same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("k", range(1, 13))
def test_tau_equals_scipy_over_metric_suite(k):
    suite = metric_suite(k)
    scores = {m.label: score_all(m, k) for m in suite}
    for a, b in itertools.product(suite, repeat=2):
        want = float(scipy.stats.kendalltau(scores[a.label], scores[b.label]).statistic)
        assert kendall_tau_b(scores[a.label], scores[b.label]) == want, (a.label, b.label)
        if a != b:
            assert kendall_tau(a, b, k) == want, (a.label, b.label)


def test_tau_is_nan_for_a_constant_side():
    constant, varied = np.zeros(16), score_all(metric_suite(4)[0], 4)
    for x, y in ((constant, varied), (varied, constant), (constant, constant)):
        assert math.isnan(kendall_tau_b(x, y))
        assert math.isnan(scipy.stats.kendalltau(x, y).statistic)
    assert math.isnan(kendall_tau_b([1.0], [2.0]))


def test_tau_rejects_samples_of_different_length():
    with pytest.raises(ValueError, match="differ in length"):
        kendall_tau_b([1.0], [1.0, 2.0, 3.0])


@st.composite
def tied_samples(draw, n_min=0, n_max=60):
    """Equal-length int or float samples with many ties.

    Floats are integer multiples of one drawn scale, so distinct values sit
    at least that scale apart and equal multiples are exactly equal.
    """
    n = draw(st.integers(n_min, n_max))
    levels = draw(st.integers(1, 12))
    ints = st.lists(st.integers(-levels, levels), min_size=n, max_size=n)
    x, y = np.array(draw(ints), dtype=np.int64), np.array(draw(ints), dtype=np.int64)
    if draw(st.booleans()):
        x = x * draw(st.floats(1e-6, 1e6))
        y = y * draw(st.floats(1e-6, 1e6))
    return x, y


@settings(max_examples=300, deadline=None)
@given(sample=tied_samples())
def test_tau_equals_scipy_on_tied_samples(sample):
    x, y = sample
    if x.size < 2:
        assert math.isnan(kendall_tau_b(x, y))
        return
    assert same(kendall_tau_b(x, y), float(scipy.stats.kendalltau(x, y).statistic))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(0, 40), max_size=80))
def test_inversions_equal_pair_count(values):
    y = np.array(values, dtype=np.intp)
    want = sum(int(a > b) for a, b in itertools.combinations(values, 2))
    assert _inversions(y) == want


@settings(max_examples=300, deadline=None)
@given(sample=tied_samples(n_min=1))
def test_midranks_equal_rankdata(sample):
    for values in sample:
        ranks, sizes = _midranks(values)
        assert np.array_equal(ranks, scipy.stats.rankdata(values))
        assert sizes.tolist() == np.unique(values, return_counts=True)[1].tolist()


@pytest.mark.parametrize("seed", range(8))
def test_wilcoxon_normal_tail_equals_norm_sf(seed):
    rng = np.random.default_rng(300 + seed)
    d = rng.normal(0.2, 1.0, size=60).round(1)
    d = d[d != 0.0]
    n = d.size
    ranks = scipy.stats.rankdata(np.abs(d))
    t_plus = float(ranks[d > 0].sum())
    _, ties = np.unique(ranks, return_counts=True)
    var = n * (n + 1) * (2 * n + 1) / 24.0 - float((ties.astype(np.float64) ** 3 - ties).sum()) / 48.0
    delta = t_plus - n * (n + 1) / 4.0
    delta -= math.copysign(0.5, delta) if delta else 0.0
    want = min(1.0, 2.0 * float(scipy.stats.norm.sf(abs(delta / math.sqrt(var)))))
    got = wilcoxon_signed_rank(d)
    assert got.method == "approximate"
    assert got.p_value == pytest.approx(want, rel=1e-12, abs=0)

import itertools
import math

import numpy as np
import pytest
import scipy.stats
from numpy.testing import assert_allclose

from ipso import stats
from ipso.metrics import SCORE_TOLERANCE
from ipso.stats import (
    TestResult,
    UndefinedTestError,
    _sign_tails,
    _tie_ranks,
    sign_test,
    sign_test_counts,
    sign_test_diffs,
    t_test_paired,
    wilcoxon_signed_rank,
)


class TestSignTest:
    def test_known_values(self):
        assert sign_test(109, 81).p_value == pytest.approx(0.04985144161687184, abs=1e-15)
        assert 0.0498 < sign_test(109, 81).p_value < 0.0500
        assert sign_test(10, 0).p_value == 0.001953125  # 2/2^10 exactly
        assert sign_test(5, 5).p_value == 1.0
        assert sign_test(3, 1).p_value == 0.625

    def test_result_fields(self):
        r = sign_test(7, 2)
        assert r.statistic == 2.0
        assert r.n_effective == 9
        assert r.method == "exact"
        assert not r.degenerate

    def test_symmetric(self):
        for a, b in [(109, 81), (3, 9), (0, 4), (17, 17)]:
            assert sign_test(a, b).p_value == sign_test(b, a).p_value

    def test_matches_binomial_cdf(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = int(rng.integers(0, 40))
            b = int(rng.integers(0, 40))
            if a + b == 0:
                continue
            expected = min(1.0, 2.0 * scipy.stats.binom.cdf(min(a, b), a + b, 0.5))
            assert sign_test(a, b).p_value == pytest.approx(expected, abs=1e-12)

    def test_large_counts_stay_exact(self):
        # binomial tails at n=2000 still come out of integer arithmetic
        p = sign_test(1100, 900).p_value
        expected = min(1.0, 2.0 * scipy.stats.binom.cdf(900, 2000, 0.5))
        assert p == pytest.approx(expected, rel=1e-10)

    def test_tail_equals_comb_sum(self):
        # the tail table must give the very float the math.comb sum gives, in both orders
        for sizes in (range(301), [2000]):
            lo = np.concatenate([np.arange(n // 2 + 1) for n in sizes])
            hi = np.concatenate([n - np.arange(n // 2 + 1) for n in sizes])
            want = [min(1.0, (2 * tail) / (1 << n)) for n in sizes
                    for tail in itertools.accumulate(math.comb(n, j) for j in range(n // 2 + 1))]
            for n_pos, n_neg in ((lo, hi), (hi, lo)):
                rows = sign_test_counts(n_pos, n_neg)
                assert rows.p_value.tolist() == want
                assert rows.statistic.tolist() == lo.tolist()
                assert rows.n_effective.tolist() == (lo + hi).tolist()

    def test_counts_without_an_untied_observation_are_degenerate(self):
        rows = sign_test_counts([0, 3, 0, 1], [0, 1, 0, 0])
        assert rows.p_value.tolist() == [1.0, 0.625, 1.0, 1.0]
        assert rows.degenerate.tolist() == [True, False, True, False]
        assert rows.n_effective.tolist() == [0, 4, 0, 1]

    def test_tail_tables_are_read_only(self):
        for n in (0, 1, 10, 249):
            row = _sign_tails(n)
            assert row.shape == (n // 2 + 1,) and not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 0.5

    def test_more_imbalance_smaller_p(self):
        ps = [sign_test(20 - j, j).p_value for j in range(10, -1, -1)]
        assert ps == sorted(ps, reverse=True)

    def test_empty_is_undefined(self):
        with pytest.raises(UndefinedTestError):
            sign_test(0, 0)
        with pytest.raises(ValueError):
            sign_test(-1, 3)

    def test_diffs_wrapper(self):
        r = sign_test_diffs([0.4, -0.2, 0.1, 0.0, 0.3])
        assert r.p_value == sign_test(3, 1).p_value
        assert r.n_effective == 4

    def test_diffs_all_zero_degenerate(self):
        r = sign_test_diffs([0.0, 0.0, 0.0])
        assert r.p_value == 1.0
        assert r.degenerate
        assert r.n_effective == 0


def _brute_force_signed_rank_p(diffs):
    """Enumerate every sign assignment of the ranked magnitudes."""
    d = np.asarray([x for x in diffs if x != 0.0], dtype=float)
    n = len(d)
    ranks = 2.0 * scipy.stats.rankdata(np.abs(d))  # doubled: integers even with midranks
    ranks = ranks.round().astype(int)
    t_plus = int(ranks[d > 0].sum())
    t_lo = min(t_plus, int(ranks.sum()) - t_plus)
    tail = 0
    for signs in itertools.product((0, 1), repeat=n):
        t = sum(r for r, s in zip(ranks, signs) if s)
        if t <= t_lo:
            tail += 1
    return min(1.0, 2.0 * tail / (1 << n))


class TestWilcoxon:
    def test_known_values(self):
        r = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0])
        assert r.p_value == 0.0625  # 2/2^5
        assert r.statistic == 0.0
        assert r.method == "exact"
        assert r.n_effective == 5

    def test_balanced_ties(self):
        r = wilcoxon_signed_rank([1.0, -1.0, 2.0, -2.0])
        assert r.p_value == 1.0
        assert r.statistic == 5.0

    def test_zeros_dropped(self):
        with_zeros = wilcoxon_signed_rank([1.0, 0.0, 2.0, 0.0, 3.0])
        without = wilcoxon_signed_rank([1.0, 2.0, 3.0])
        assert with_zeros.p_value == without.p_value
        assert with_zeros.n_effective == 3

    def test_all_zero_degenerate(self):
        r = wilcoxon_signed_rank([0.0, 0.0])
        assert r.p_value == 1.0
        assert r.degenerate

    def test_sign_flip_invariant(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = rng.normal(0.2, 1.0, size=12).round(1)
            a = wilcoxon_signed_rank(d)
            b = wilcoxon_signed_rank(-d)
            assert a.p_value == b.p_value

    @pytest.mark.parametrize("seed", range(12))
    def test_exact_matches_brute_force_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 13))
        # one-decimal rounding forces plenty of tied magnitudes
        d = rng.normal(0.4, 1.0, size=n).round(1)
        d = d[d != 0.0]
        if len(d) == 0:
            return
        r = wilcoxon_signed_rank(d)
        assert r.method == "exact"
        assert r.p_value == pytest.approx(_brute_force_signed_rank_p(d), abs=1e-12)

    def test_exact_matches_scipy_without_ties(self):
        d = np.array([0.3, -0.1, 0.7, 1.2, -0.45, 0.9, 0.21, -1.4, 2.2, 0.05])
        mine = wilcoxon_signed_rank(d)
        ref = scipy.stats.wilcoxon(d, method="exact")
        assert mine.p_value == pytest.approx(float(ref.pvalue), abs=1e-14)
        assert mine.statistic == float(ref.statistic)

    @pytest.mark.parametrize("seed", range(8))
    def test_approximate_matches_scipy(self, seed):
        rng = np.random.default_rng(100 + seed)
        d = rng.normal(0.3, 1.0, size=40).round(1)
        d = d[d != 0.0]
        mine = wilcoxon_signed_rank(d)
        assert mine.method == "approximate"
        ref = scipy.stats.wilcoxon(d, correction=True, method="approx")
        assert mine.p_value == pytest.approx(float(ref.pvalue), abs=1e-9)

    def test_cutover_boundary(self, monkeypatch):
        assert stats.WILCOXON_EXACT_MAX == 25
        d = list(range(1, 26))  # n=25 stays exact
        assert wilcoxon_signed_rank(d).method == "exact"
        d = list(range(1, 27))  # n=26 switches
        assert wilcoxon_signed_rank(d).method == "approximate"
        # the cutover is read at call time
        monkeypatch.setattr(stats, "WILCOXON_EXACT_MAX", 30)
        assert wilcoxon_signed_rank(d).method == "exact"

    def test_exact_and_approx_agree_reasonably(self, monkeypatch):
        rng = np.random.default_rng(77)
        d = rng.normal(0.5, 1.0, size=20)
        exact = wilcoxon_signed_rank(d)
        monkeypatch.setattr(stats, "WILCOXON_EXACT_MAX", 5)
        approx = wilcoxon_signed_rank(d)
        assert (exact.method, approx.method) == ("exact", "approximate")
        assert approx.p_value == pytest.approx(exact.p_value, abs=0.02)


class TestPairedT:
    def test_matches_scipy(self):
        rng = np.random.default_rng(41)
        for n in (2, 5, 30, 200):
            d = rng.normal(0.1, 1.0, size=n)
            mine = t_test_paired(d)
            ref = scipy.stats.ttest_rel(d, np.zeros_like(d))
            assert mine.p_value == pytest.approx(float(ref.pvalue), abs=1e-14)
            assert mine.statistic == pytest.approx(float(ref.statistic), abs=1e-12)
            assert mine.n_effective == n
            # the p-value is the t distribution's own tail, to 1e-12 relative
            assert mine.p_value == pytest.approx(min(1.0, 2.0 * float(
                scipy.stats.t.sf(abs(mine.statistic), n - 1))), rel=1e-12, abs=0)

    def test_constant_nonzero_is_certain(self):
        r = t_test_paired([0.5, 0.5, 0.5])
        assert r.p_value == 0.0
        assert math.isinf(r.statistic)
        assert r.degenerate

    def test_constant_negative_sign(self):
        r = t_test_paired([-0.5, -0.5, -0.5])
        assert r.p_value == 0.0
        assert r.statistic == -math.inf

    def test_all_zero_is_no_evidence(self):
        r = t_test_paired([0.0, 0.0, 0.0])
        assert r.p_value == 1.0
        assert r.statistic == 0.0
        assert r.degenerate

    def test_single_observation_undefined(self):
        with pytest.raises(UndefinedTestError):
            t_test_paired([0.3])
        with pytest.raises(UndefinedTestError):
            t_test_paired([])


class TestTieTolerance:
    """Differences within SCORE_TOLERANCE of 0 are ties for every test."""

    TESTS = (sign_test_diffs, wilcoxon_signed_rank, t_test_paired)

    @pytest.mark.parametrize("test", TESTS)
    def test_noise_is_a_tie(self, test):
        r = test([-5.551115123125783e-17] * 10)
        assert (r.p_value, r.degenerate) == (1.0, True)

    @pytest.mark.parametrize("test", TESTS)
    def test_tolerance_is_inclusive(self, test):
        assert test([SCORE_TOLERANCE, -SCORE_TOLERANCE] * 3).degenerate
        assert not test([2 * SCORE_TOLERANCE] * 5 + [-3 * SCORE_TOLERANCE]).degenerate

    def test_noise_ties_dropped_among_real_differences(self):
        noisy = [0.5, 0.25, -0.125, 1e-17, -1e-17]
        clean = [0.5, 0.25, -0.125, 0.0, 0.0]
        for test in self.TESTS:
            assert test(noisy) == test(clean)

    def test_wilcoxon_noise_ties_share_midranks(self):
        noisy = [.3 - .2, .4 - .3, .5 - .4, .6 - .5, -.1, .2]  # 0.1 give or take 3e-17
        clean = [.1, .1, .1, .1, -.1, .2]
        assert wilcoxon_signed_rank(noisy) == wilcoxon_signed_rank(clean)
        assert wilcoxon_signed_rank(noisy).p_value == 0.1875

    def test_wilcoxon_noise_ties_in_the_normal_tail(self):
        clean = np.repeat([0.1, 0.2, -0.3, 0.4], 8)
        noisy = clean + np.tile([0.0, 2e-13, -3e-13, 4e-13], 8)
        assert wilcoxon_signed_rank(noisy).method == "approximate"
        assert wilcoxon_signed_rank(noisy) == wilcoxon_signed_rank(clean)

    def test_midrank_ties_chain_within_tolerance(self):
        _, ranks, sizes = _tie_ranks(np.array([0.1, 0.1 + 5e-13, 0.1 + 1e-12, 0.3, 0.3 + 3e-12]))
        assert ranks.tolist() == [2.0, 2.0, 2.0, 4.0, 5.0]  # the values are in sorted order
        assert sizes.tolist() == [3, 3, 3, 1, 1]

    def test_noisy_constant_gap_is_degenerate(self):
        r = t_test_paired([0.09999999999999998, 0.10000000000000003, 0.1] * 3)
        assert (r.p_value, r.statistic, r.degenerate) == (0.0, math.inf, True)
        r = t_test_paired([-0.1, -0.1 - 2e-13, -0.1 + 2e-13])
        assert (r.p_value, r.statistic, r.degenerate) == (0.0, -math.inf, True)

    def test_spread_above_tolerance_is_tested(self):
        r = t_test_paired([0.1, 0.1 + 3 * SCORE_TOLERANCE, 0.1 - 3 * SCORE_TOLERANCE])
        assert not r.degenerate
        assert r.p_value < 1e-9


class TestResultType:
    def test_p_values_always_in_unit_interval(self):
        rng = np.random.default_rng(55)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            d = rng.normal(rng.normal(0, 0.5), 1.0, size=n).round(2)
            for fn in (sign_test_diffs, wilcoxon_signed_rank, t_test_paired):
                p = fn(d).p_value
                assert 0.0 <= p <= 1.0

    def test_frozen_fields(self):
        r = TestResult(p_value=0.5, statistic=1.0, n_effective=3, method="exact")
        with pytest.raises(AttributeError):
            r.p_value = 0.1

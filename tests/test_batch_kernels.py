"""Oracle tests: the batch scorer and the row-wise tests against scalar references.

Every comparison is exact (==): a batch must give each row the bits that
the one-at-a-time formula in scalar_reference gives it, so that sweeps,
compare and topics print the same bytes whichever path scored them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from ipso import _bits, stats
from ipso.metrics import (
    PHI,
    SCORE_TOLERANCE,
    MetricSpec,
    TopicContext,
    evaluate,
    evaluate_rows,
    metric_suite,
    score_all,
)
from ipso.serp import Serp
from ipso.stats import (
    UndefinedTestError,
    sign_test_diffs,
    sign_test_rows,
    t_test_paired,
    t_test_rows,
    wilcoxon_rows,
    wilcoxon_signed_rank,
)


def _families(d: int) -> list:
    return metric_suite(d) + [MetricSpec("RBP", d, PHI), MetricSpec("RBP", d, 0.95)]


def _same(got: np.ndarray, metric, rows, total_relevant) -> None:
    r = np.broadcast_to(metric.depth if total_relevant is None else total_relevant, len(rows))
    want = [ref.evaluate(metric, row, int(rr)) for row, rr in zip(rows.tolist(), r)]
    assert got.tolist() == want, metric.label


@pytest.mark.parametrize("k", range(1, 13))
def test_scorer_equals_oracle_on_every_serp(k):
    rows = _bits.bit_matrix(k)
    ones = rows.sum(axis=1)
    # metric depths below, at and above the matrix width
    for d in sorted({max(1, k - 2), k, k + 3}):
        visible = rows[:, :d].sum(axis=1)
        for metric in _families(d):
            pools = (None, d, d + 4, visible, ones + 1)
            # R matters to AP and NDCG only
            for total_relevant in pools if metric.family in ("AP", "NDCG") else (None,):
                got = evaluate_rows(metric, rows, total_relevant)
                _same(got, metric, rows, total_relevant)
            # the census scores with the same bits: R = k without a ctx
            ctxs = (None, TopicContext(k), TopicContext(k + 4))
            for ctx in ctxs if metric.family in ("AP", "NDCG") else (None,):
                r = k if ctx is None else ctx.total_relevant
                _same(score_all(metric, k, ctx), metric, rows, r)


@pytest.mark.parametrize("family", ["AP", "NDCG"])
def test_zero_relevant(family):
    rows = np.zeros((3, 5), dtype=np.int8)
    assert evaluate_rows(MetricSpec(family, 5), rows, 0).tolist() == [0.0] * 3
    assert evaluate_rows(MetricSpec(family, 5), rows, [0, 2, 9]).tolist() == [0.0] * 3


@pytest.mark.parametrize("family", ["AP", "NDCG"])
def test_too_few_relevant_raises_the_oracle_error(family):
    rows = np.array([[1, 0, 0, 0], [1, 1, 0, 1], [0, 0, 1, 1]], dtype=np.int8)
    metric = MetricSpec(family, 3)
    with pytest.raises(ValueError) as want:
        ref.evaluate(metric, rows[1].tolist(), 1)
    with pytest.raises(ValueError) as got:
        evaluate_rows(metric, rows, [1, 1, 1])
    assert str(got.value) == str(want.value)
    # a relevant document below the metric depth does not count against R
    assert evaluate_rows(metric, rows[[0, 2]], [1, 1]).tolist() == [
        ref.evaluate(metric, rows[0].tolist(), 1), ref.evaluate(metric, rows[2].tolist(), 1)]


def test_scalar_views_equal_oracle():
    for code in range(1 << 7):
        serp = Serp.from_int(code, 7)
        for k in (1, 4, 7, 10):
            r = sum(serp[:k]) + 2
            for metric in _families(k):
                assert evaluate(metric, serp, TopicContext(r)) == ref.evaluate(metric, serp, r)
                assert evaluate(metric, serp) == ref.evaluate(metric, serp)


def test_views_keep_their_errors():
    with pytest.raises(ValueError, match="persistence must be in"):
        evaluate(MetricSpec("RBP", 2, 1.5), [1, 0])
    with pytest.raises(ValueError, match="smaller than the 2 relevant"):
        evaluate(MetricSpec("NDCG", 3), "101", TopicContext(1))
    assert evaluate(MetricSpec("P", 3), []) == 0.0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_scorer_equals_oracle_on_random_batches(data):
    n = data.draw(st.integers(0, 40))
    width = data.draw(st.integers(0, 30))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rows = (rng.random((n, width)) < rng.random()).astype(np.int8)
    d = data.draw(st.integers(1, 35))
    metric = data.draw(st.sampled_from(_families(d)))
    floor = rows[:, :d].sum(axis=1)
    r = floor + rng.integers(0, 2 * d + 2, size=n)
    _same(evaluate_rows(metric, rows, r), metric, rows, r)


# ---------------------------------------------------------------- tests

ROW_TESTS = (
    (t_test_rows, ref.t_test_paired, t_test_paired),
    (sign_test_rows, ref.sign_test_diffs, sign_test_diffs),
    (wilcoxon_rows, ref.wilcoxon_signed_rank, wilcoxon_signed_rank),
)


def _check_rows(diffs: np.ndarray) -> None:
    for rows_fn, oracle, scalar in ROW_TESTS:
        try:
            batch = rows_fn(diffs)
        except UndefinedTestError:
            batch = None
        for i, row in enumerate(diffs):
            try:
                want = oracle(row.tolist())
            except UndefinedTestError:
                assert batch is None
                with pytest.raises(UndefinedTestError):
                    scalar(row.tolist())
                continue
            got = batch.result(i)
            # == on p and the statistic; a NaN would fail it, and none is expected
            assert (got.p_value, got.statistic) == (want.p_value, want.statistic), rows_fn
            assert got == want == scalar(row.tolist()), rows_fn


def _sample(rng, m: int, n: int, style: str) -> np.ndarray:
    if style == "normal":
        d = rng.normal(rng.normal(0.0, 0.3), 1.0, size=(m, n))
    else:
        # a few score gaps, each offset by noise within the tie tolerance
        grid = np.array([0.0, 0.1, -0.1, 0.2, 0.25, -1 / 3, 0.5, 1.0 / 7])
        d = rng.choice(grid, size=(m, n)) + rng.choice(
            [0.0, 0.0, 5e-17, -3e-13, 4e-13, SCORE_TOLERANCE], size=(m, n))
    flat = rng.random(m) < 0.25
    d[flat] = d[flat, :1] + rng.choice([0.0, 1e-13, -2e-13], size=(int(flat.sum()), n))
    d[rng.random(m) < 0.1] = 0.0
    return d


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.one_of(st.integers(0, 30), st.sampled_from([127, 128, 129, 249])),
    style=st.sampled_from(["normal", "grid"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_tests_equal_scalar_tests(m, n, style, seed):
    _check_rows(_sample(np.random.default_rng(seed), m, n, style))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 25, 26, 127, 128, 129, 249])
def test_row_tests_on_fixed_sizes(n):
    rng = np.random.default_rng(n)
    for style in ("normal", "grid"):
        _check_rows(_sample(rng, 40, n, style))


def test_every_value_tied():
    for value in (0.0, 0.1, -0.3, 1e-13):
        for n in (1, 2, 5, 30):
            _check_rows(np.full((2, n), value))


def test_t_rows_need_two_columns():
    with pytest.raises(UndefinedTestError, match="got 1"):
        t_test_rows(np.zeros((3, 1)))


def test_wilcoxon_rows_exact_cutover(monkeypatch):
    d = np.random.default_rng(3).normal(0.3, 1.0, size=(4, 30))
    assert not wilcoxon_rows(d).exact.any()
    monkeypatch.setattr(stats, "WILCOXON_EXACT_MAX", 30)
    assert wilcoxon_rows(d).exact.all()
    for i in range(4):
        assert wilcoxon_rows(d).result(i) == ref.wilcoxon_signed_rank(d[i], exact_cutover=30)

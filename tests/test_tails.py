"""Oracle tests for the Student t and normal tails that ipso computes itself.

mpmath at 40 digits is the reference: ipso's t tail is within 1e-12
relative of it for every p >= 1e-300, within 2 ulp of the closed forms at
1 and 2 df, and within 1e-12 of scipy.special.stdtr wherever scipy is
itself within 1e-13 of mpmath.  The grid runs from t = 0 to where p
underflows, and includes both sides of the point where the tail changes
quadrature rule.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from ipso.stats import _normal_tail, _t_tail, t_test_paired

mpmath.mp.dps = 40
NUS = [*range(1, 31), 49, 99, 248, 999, 9_999, 99_999]
SMALLEST_P = mpmath.mpf("1e-300")


def scipy_misses(nu: int, t: float) -> bool:
    """The grid points where scipy's 2 stdtr(nu, -|t|) is more than 1e-13 from mpmath.

    All are at 1 df.  Up to |t| = 1e-7 scipy returns p = 1.0 exactly (at
    t = 1e-9 the tail is 0.99999999936338), at 1e-5 it is 2.6e-13 off, and
    once t^2 overflows (|t| > 1.3e154) it returns 0.
    """
    return nu == 1 and (0 < t <= 1e-5 or t > 1.3e154)


def true_tail(nu: int, t: float) -> mpmath.mpf:
    """P(|T| >= |t|) = I_x(nu/2, 1/2) with x = nu/(nu + t^2), at mpmath's precision."""
    t = mpmath.mpf(abs(t))
    if t == 0:
        return mpmath.mpf(1)
    a, b = mpmath.mpf(nu) / 2, mpmath.mpf(1) / 2
    x = nu / (nu + t * t)
    try:
        return mpmath.betainc(a, b, 0, x, regularized=True)
    except ValueError:  # mpmath's series gives up near x = 1 at large nu: I_x from 2F1 instead
        log_front = a * mpmath.log(x) + b * mpmath.log(1 - x) - mpmath.log(a * mpmath.beta(a, b))
        return mpmath.exp(log_front) * mpmath.hyp2f1(a + b, 1, a + 1, x)


@lru_cache(maxsize=None)
def grid(nu: int) -> tuple:
    """The test points at nu: t values and their true tails, up to where p falls below 1e-300."""
    ts = [0.0, 1e-9, 1e-7, 1e-5, 1e-3, *np.linspace(0.1, 8.0, 80).tolist()]
    if nu >= 3:  # the rule changes where (nu/2) log1p(t^2/nu) = 2.5
        switch = math.sqrt(nu * math.expm1(5.0 / nu))
        ts += [switch * (1 - 1e-9), switch, switch * (1 + 1e-9)]
    ts = sorted(ts)
    points = [(t, true_tail(nu, t)) for t in ts]
    for t in np.geomspace(8.0, 1e300, 120)[1:].tolist():
        p = true_tail(nu, t)
        if p < SMALLEST_P:
            break
        points.append((t, p))
    return tuple(points)


@pytest.mark.parametrize("nu", NUS)
def test_t_tail_within_1e_12_of_mpmath(nu):
    points = grid(nu)
    got = _t_tail(nu, np.array([t for t, _ in points]))
    errors = [float(abs(mpmath.mpf(g) / p - 1)) for g, (_, p) in zip(got, points)]
    worst = int(np.argmax(errors))
    assert errors[worst] <= 1e-12, (nu, points[worst][0], errors[worst])


@pytest.mark.parametrize("nu", NUS)
def test_t_tail_within_1e_12_of_scipy_where_scipy_is_right(nu):
    points = grid(nu)
    ts = np.array([t for t, _ in points])
    ours, scipys = _t_tail(nu, ts), 2.0 * scipy.special.stdtr(nu, -ts)
    misses = set()
    for t, (_, p), mine, theirs in zip(ts.tolist(), points, ours, scipys):
        if abs(mpmath.mpf(float(theirs)) / p - 1) > 1e-13:
            misses.add((nu, t))
        else:
            assert mine == pytest.approx(theirs, rel=1e-12, abs=0), (nu, t)
    assert misses == {(nu, t) for t in ts.tolist() if scipy_misses(nu, t)}


@pytest.mark.parametrize("nu", [1, 2])
def test_closed_forms_within_2_ulp(nu):
    rng = np.random.default_rng(nu)
    ts = np.concatenate([[0.0, 1e-300, 1e-9, 1.0], 10.0 ** rng.uniform(-12, 12, 400),
                         rng.uniform(0, 5, 200)])
    for t, p in zip(ts.tolist(), _t_tail(nu, ts).tolist()):
        t = mpmath.mpf(t)
        exact = 2 / mpmath.pi * mpmath.atan2(1, t) if nu == 1 else 1 - t / mpmath.sqrt(2 + t * t)
        assert abs(mpmath.mpf(p) - exact) <= 2 * math.ulp(float(exact)), (nu, t)


def test_normal_tail_within_1e_13_of_mpmath():
    """erfc(|z|/sqrt(2)) to 1e-13, where the rounding of |z|/sqrt(2) allows it.

    Past |z| = 20 that rounding alone moves erfc by up to z^2 2^-53
    relative (1.9e-13 at |z| = 37), as it does scipy's ndtr; there the test
    holds math.erfc to 1e-13 at the rounded argument, out to underflow.
    """
    zs = np.concatenate([np.linspace(0.0, 20.0, 801), -np.geomspace(1e-12, 20.0, 100)])
    for z, p in zip(zs.tolist(), _normal_tail(zs).tolist()):
        assert abs(p / mpmath.erfc(abs(mpmath.mpf(z)) / mpmath.sqrt(2)) - 1) <= 1e-13, z
    zs = np.linspace(20.0, 36.9, 401)  # erfc(36.9/sqrt(2)) = 1.2e-298
    for z, p in zip(zs.tolist(), _normal_tail(zs).tolist()):
        assert abs(p / mpmath.erfc(mpmath.mpf(z * math.sqrt(0.5))) - 1) <= 1e-13, z
    assert _normal_tail(np.array([0.0, math.inf])).tolist() == [1.0, 0.0]


finite_t = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(nu=st.sampled_from(NUS), t1=finite_t, t2=finite_t)
def test_t_tail_properties(nu, t1, t2):
    """p is in [0, 1], even in t, 1 at t = 0, and does not increase in |t|.

    Where the rule changes, the two rules differ by about 1e-14 relative,
    so |t1| < |t2| a few ulp apart can meet p rising that much: monotony is
    held to the 1e-12 accuracy bound.
    """
    p1, p2, m1, zero = _t_tail(nu, np.array([t1, t2, -t1, 0.0])).tolist()
    assert 0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0
    assert m1 == p1
    assert zero == 1.0
    nearer, farther = (p1, p2) if abs(t1) <= abs(t2) else (p2, p1)
    assert farther <= nearer * (1 + 1e-12)


def test_two_topic_t_test_near_zero_is_not_certainly_one():
    """At 1 df and t about 1e-9 the tail is 1 - 2 atan(t)/pi, which scipy rounds to 1.0."""
    result = t_test_paired([0.5 + 5e-10, -0.5 + 5e-10])
    assert result.n_effective == 2
    assert 0.9e-9 < result.statistic < 1.1e-9
    exact = 1 - 2 / mpmath.pi * mpmath.atan(mpmath.mpf(result.statistic))
    assert result.p_value < 1.0
    assert abs(mpmath.mpf(result.p_value) - exact) <= 2 * math.ulp(result.p_value)
    assert f"{result.p_value:.14f}".startswith("0.99999999936")

"""Sliding-window slope estimation and the ultra-local F estimate."""

import math
import random
import statistics
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

from heatloop.controllers import IpController
from heatloop.engine import default_scenario, run
from oracles import SlopeEstimator, estimate_F


def _filled(values, sample_time=1.0, window_len=None):
    est = SlopeEstimator(window_len or len(values), sample_time)
    for y in values:
        est.push(y)
    return est


def least_squares_slope(values, dt):
    """The oracle: slope of the least-squares line through (i*dt, y_i),
    in exact rational arithmetic."""
    ts = [i * Fraction(dt) for i in range(len(values))]
    ys = [Fraction(y) for y in values]
    t_mean = sum(ts) / len(ts)
    y_mean = sum(ys) / len(ys)
    num = sum((t - t_mean) * (y - y_mean) for t, y in zip(ts, ys))
    den = sum((t - t_mean) ** 2 for t in ts)
    return num / den


def test_config_validation():
    with pytest.raises(ValueError, match="alpha"):
        IpController(alpha=0.0)
    with pytest.raises(ValueError, match="alpha"):
        IpController(alpha=float("inf"))
    with pytest.raises(ValueError, match="window_len"):
        IpController(window_len=1)


def test_warm_up_returns_none():
    est = SlopeEstimator(5, 1.0)
    for y in (3.0, 4.0, 5.0, 6.0):
        assert est.slope is None
        est.push(y)
    assert est.slope is None
    est.push(7.0)
    assert est.slope == approx(1.0)


def test_exact_line():
    assert _filled([1.0, 2.0, 3.0, 4.0, 5.0]).slope == approx(1.0, abs=1e-12)


def test_constant_buffer():
    assert _filled([7.0, 7.0, 7.0, 7.0, 7.0]).slope == approx(0.0, abs=1e-12)


def test_parabola_secant_trend():
    # y = t^2 at t = 0..4: centered sums give
    #   num = sum (t-2)(y-6) = 12 + 5 + 0 + 3 + 20 = 40,  den = 4+1+0+1+4 = 10
    # so the least-squares slope is 4.0
    assert _filled([0.0, 1.0, 4.0, 9.0, 16.0]).slope == approx(4.0, abs=1e-12)


def test_window_two_is_backward_difference():
    est = SlopeEstimator(2, 60.0)
    est.push(20.0)
    est.push(20.6)
    est.push(19.8)
    # only the last two samples are retained: slope = (19.8-20.6)/60
    assert est.slope == approx(-0.8 / 60.0, rel=1e-12)


def test_exact_on_affine_signals_any_window():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 12)
        a = rng.uniform(-2.0, 2.0)
        b = rng.uniform(-50.0, 50.0)
        dt = rng.uniform(0.1, 600.0)
        est = SlopeEstimator(n, dt)
        for i in range(n):
            est.push(a * (i * dt) + b)
        assert est.slope == approx(a, abs=max(1e-12, abs(a) * 1e-12))


def test_offset_invariance():
    rng = random.Random(6)
    ys = [rng.uniform(-1.0, 1.0) for _ in range(5)]
    base = _filled(ys).slope
    shifted = _filled([y + 123.456 for y in ys]).slope
    assert shifted == approx(base, abs=1e-12)


def test_slope_noise_shrinks_with_window():
    # with white measurement noise the fitted slope's spread must drop
    # as the window grows; 1000 trials per window keep sampling error low
    rng = random.Random(17)

    def slope_std(window_len):
        slopes = []
        for _ in range(1000):
            ys = [rng.gauss(0.0, 1.0) for _ in range(window_len)]
            slopes.append(_filled(ys, window_len=window_len).slope)
        return statistics.pstdev(slopes)

    s3, s5, s9 = slope_std(3), slope_std(5), slope_std(9)
    assert s3 > s5 > s9


@st.composite
def wrapped_windows(draw):
    window_len = draw(st.integers(2, 40))
    dt = draw(st.floats(1e-3, 1e4))
    ys = draw(st.lists(st.floats(-1e3, 1e3), min_size=window_len + 1, max_size=window_len + 40))
    return window_len, dt, ys


@settings(deadline=None)
@given(wrapped_windows())
def test_slope_matches_least_squares_oracle(case):
    # more values than the window is long, so the ring has wrapped.  The
    # tolerance is absolute, on the data's scale, since the slope may be
    # ~0; the smallest subnormal allows for a slope that underflows.
    window_len, dt, ys = case
    last = ys[-window_len:]
    exact = least_squares_slope(last, dt)
    slope = _filled(ys, sample_time=dt, window_len=window_len).slope
    tol = 1e-13 * max(abs(y) for y in last) / dt + math.ulp(0.0)
    assert abs(Fraction(slope) - exact) <= Fraction(tol)


def test_huge_window_costs_no_memory():
    # a window far longer than the run must not allocate a weight
    # vector or do per-sample setup work
    sc = default_scenario(horizon=600.0, controller=IpController(window_len=10**7))
    tracemalloc.start()
    try:
        run(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_estimate_F_examples():
    assert estimate_F(0.0, 0.0, 0.5) == 0.0
    # a slope of 1 fully explained by the input: 1 - 0.5*2 = 0
    assert estimate_F(1.0, 2.0, 0.5) == approx(0.0, abs=1e-15)


def test_estimate_F_linear():
    rng = random.Random(8)
    for _ in range(20):
        d1, d2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        u1, u2 = rng.uniform(-100, 100), rng.uniform(-100, 100)
        alpha = rng.choice([-0.3, 0.5, 2.0])
        lhs = estimate_F(d1 + d2, u1 + u2, alpha)
        rhs = estimate_F(d1, u1, alpha) + estimate_F(d2, u2, alpha)
        assert lhs == approx(rhs, abs=1e-12)

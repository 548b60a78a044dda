"""Sliding-window slope estimation and the ultra-local F estimate."""

import random
import statistics

import pytest
from pytest import approx

from heatloop import EstimatorState, IpController, UltraLocalConfig, estimate_F, estimate_derivative


def _filled(values, sample_time=1.0, window_len=None):
    cfg = UltraLocalConfig(window_len=window_len or len(values), sample_time=sample_time)
    est = EstimatorState(cfg)
    for i, y in enumerate(values):
        est.push(i * sample_time, y)
    return est


def test_config_validation():
    with pytest.raises(ValueError, match="alpha"):
        IpController(alpha=0.0)
    with pytest.raises(ValueError, match="alpha"):
        IpController(alpha=float("inf"))
    with pytest.raises(ValueError, match="window_len"):
        UltraLocalConfig(window_len=1)
    with pytest.raises(ValueError, match="sample_time"):
        UltraLocalConfig(sample_time=0.0)


def test_push_enforces_sample_grid():
    est = EstimatorState(UltraLocalConfig(sample_time=60.0))
    est.push(0.0, 20.0)
    est.push(60.0, 20.1)
    with pytest.raises(ValueError, match="sample_time"):
        est.push(90.0, 20.2)


def test_warm_up_returns_none():
    est = EstimatorState(UltraLocalConfig(window_len=5, sample_time=1.0))
    assert estimate_derivative(est) is None
    est.push(0.0, 3.0)
    assert estimate_derivative(est) is None
    est.push(1.0, 4.0)
    assert estimate_derivative(est) == approx(1.0)
    assert not est.is_full
    assert len(est) == 2


def test_exact_line():
    assert estimate_derivative(_filled([1.0, 2.0, 3.0, 4.0, 5.0])) == approx(1.0, abs=1e-12)


def test_constant_buffer():
    assert estimate_derivative(_filled([7.0, 7.0, 7.0, 7.0, 7.0])) == approx(0.0, abs=1e-12)


def test_parabola_secant_trend():
    # y = t^2 at t = 0..4: centered sums give
    #   num = sum (t-2)(y-6) = 12 + 5 + 0 + 3 + 20 = 40,  den = 4+1+0+1+4 = 10
    # so the least-squares slope is 4.0
    assert estimate_derivative(_filled([0.0, 1.0, 4.0, 9.0, 16.0])) == approx(4.0, abs=1e-12)


def test_window_two_is_backward_difference():
    est = EstimatorState(UltraLocalConfig(window_len=2, sample_time=60.0))
    est.push(0.0, 20.0)
    est.push(60.0, 20.6)
    est.push(120.0, 19.8)
    # only the last two samples are retained: slope = (19.8-20.6)/60
    assert estimate_derivative(est) == approx(-0.8 / 60.0, rel=1e-12)


def test_exact_on_affine_signals_any_window():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 12)
        a = rng.uniform(-2.0, 2.0)
        b = rng.uniform(-50.0, 50.0)
        dt = rng.uniform(0.1, 600.0)
        est = EstimatorState(UltraLocalConfig(window_len=n, sample_time=dt))
        for i in range(n):
            est.push(i * dt, a * (i * dt) + b)
        assert estimate_derivative(est) == approx(a, abs=max(1e-12, abs(a) * 1e-12))


def test_offset_invariance():
    rng = random.Random(6)
    ys = [rng.uniform(-1.0, 1.0) for _ in range(5)]
    base = estimate_derivative(_filled(ys))
    shifted = estimate_derivative(_filled([y + 123.456 for y in ys]))
    assert shifted == approx(base, abs=1e-12)


def test_slope_noise_shrinks_with_window():
    # with white measurement noise the fitted slope's spread must drop
    # as the window grows; 1000 trials per window keep sampling error low
    rng = random.Random(17)

    def slope_std(window_len):
        slopes = []
        for _ in range(1000):
            ys = [rng.gauss(0.0, 1.0) for _ in range(window_len)]
            slopes.append(estimate_derivative(_filled(ys, window_len=window_len)))
        return statistics.pstdev(slopes)

    s3, s5, s9 = slope_std(3), slope_std(5), slope_std(9)
    assert s3 > s5 > s9


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

"""Tests for the deterministic noise generator.

The generator is counter based: every draw is a pure function of
(seed, index), so streams can be replayed or sampled out of order.
"""

import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from heatloop.noise import _uniform_column, gaussian_column
from oracles import gaussian, splitmix64, uniform


# Reference outputs for the seed-0 stream, indices 0..2.  These are the
# canonical first three outputs of SplitMix64 published with the original
# algorithm, so any deviation means the bit mixing is wrong.
SEED0_STREAM = (
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
)


def test_splitmix64_seed0_canonical_vector():
    for k, expect in enumerate(SEED0_STREAM):
        assert splitmix64(0, k) == expect


def test_splitmix64_seed42_first_output():
    assert splitmix64(42, 0) == 0xBDD732262FEB6E95


def test_splitmix64_range_and_determinism():
    for seed in (0, 1, 63, 2**63):
        for k in (0, 1, 17, 10_000):
            v = splitmix64(seed, k)
            assert 0 <= v <= 2**64 - 1
            assert splitmix64(seed, k) == v


def test_splitmix64_random_access_matches_sequential():
    # Counter mode: index k alone determines the output, regardless of
    # which indices were evaluated before it.
    forward = [splitmix64(9, k) for k in range(8)]
    backward = [splitmix64(9, k) for k in reversed(range(8))]
    assert forward == list(reversed(backward))


def test_uniform_range_and_known_value():
    assert uniform(0, 0) == pytest.approx(0.8833108082136426, abs=1e-15)
    for k in range(1000):
        u = uniform(63, k)
        assert 0.0 <= u < 1.0


def test_uniform_is_53_bit_grid():
    # Values are multiples of 2^-53 by construction.
    for k in range(100):
        u = uniform(5, k)
        scaled = u * 2.0**53
        assert scaled == int(scaled)


def test_gaussian_known_value():
    assert gaussian(1, 0) == pytest.approx(-0.028249746095854702, abs=1e-15)


def test_gaussian_determinism():
    a = [gaussian(63, k) for k in range(20)]
    b = [gaussian(63, k) for k in range(20)]
    assert a == b


def test_gaussian_moments():
    draws = [gaussian(123, k) for k in range(20_000)]
    mean = statistics.fmean(draws)
    std = statistics.pstdev(draws)
    # Standard error of the mean is ~1/sqrt(20000) ~ 0.007.
    assert abs(mean) < 0.03
    assert abs(std - 1.0) < 0.03


def test_gaussian_tail_mass_is_plausible():
    draws = [gaussian(7, k) for k in range(20_000)]
    frac_in_1sigma = sum(1 for d in draws if abs(d) < 1.0) / len(draws)
    assert abs(frac_in_1sigma - 0.6827) < 0.02


def test_gaussian_consumes_two_uniforms_per_index():
    # Draw k maps to uniforms 2k and 2k+1, leaving odd-index pairs free
    # for other consumers without overlap.
    u0 = uniform(11, 0)
    u1 = uniform(11, 1)
    expect = math.sqrt(-2.0 * math.log(u0)) * math.cos(2.0 * math.pi * u1)
    assert gaussian(11, 0) == pytest.approx(expect, abs=1e-15)

    u4 = uniform(11, 4)
    u5 = uniform(11, 5)
    expect2 = math.sqrt(-2.0 * math.log(u4)) * math.cos(2.0 * math.pi * u5)
    assert gaussian(11, 2) == pytest.approx(expect2, abs=1e-15)


def test_seed_separation():
    # Nearby seeds must not produce correlated streams.
    a = [gaussian(63, k) for k in range(1000)]
    b = [gaussian(64, k) for k in range(1000)]
    assert a != b
    matches = sum(1 for x, y in zip(a, b) if x == y)
    assert matches == 0
    corr = statistics.correlation(a, b)
    assert abs(corr) < 0.1


# ---------------------------------------------------------------------------
# the column form, checked draw for draw against the scalar stream


@pytest.mark.parametrize("seed", [63, 64, 7, 0, 2**63 - 1, 12345678901234567])
def test_uniform_column_matches_scalar(seed):
    assert _uniform_column(seed, 200).tolist() == [uniform(seed, j) for j in range(200)]


def test_gaussian_column_matches_scalar_on_a_full_run():
    assert gaussian_column(63, 2880).tolist() == [gaussian(63, k) for k in range(2880)]


@settings(deadline=None)
@given(st.integers(-(2**80), 2**80), st.integers(0, 300))
@example(-1, 0)
@example(-(2**63), 1)
@example(2**64, 1)
@example(2**64 + 63, 50)
def test_gaussian_column_matches_scalar(seed, n):
    col = gaussian_column(seed, n)
    assert col.dtype == np.float64 and col.shape == (n,)
    assert col.tolist() == [gaussian(seed, k) for k in range(n)]


def test_numpy_cosine_gives_the_bits_of_math_cosine():
    # the column takes np.cos where the one-draw stream takes math.cos: on
    # the angles of seed 63's first million draws, a full run's among them
    angle = (2.0 * math.pi) * _uniform_column(63, 2 * 10**6)[1::2]
    assert np.cos(angle).tobytes() == np.array([math.cos(v) for v in angle.tolist()]).tobytes()

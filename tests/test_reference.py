"""Setpoint schedules and the three reference generators."""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from pytest import approx

from heatloop.reference import MODES, Schedule, fill_reference
from oracles import REFERENCE_GENERATORS, ramp_reference, smooth_reference, step_reference

TWO_STEP = Schedule(segments=((0.0, 16.0), (36000.0, 19.0)), transition_duration=3600.0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(segments=())
    with pytest.raises(ValueError, match="strictly increasing"):
        Schedule(segments=((0.0, 16.0), (0.0, 19.0)))
    with pytest.raises(ValueError, match="finite"):
        Schedule(segments=((0.0, float("nan")),))
    with pytest.raises(ValueError, match="positive"):
        Schedule(segments=((0.0, 16.0),), transition_duration=0.0)
    # the blend window must be strictly smaller than every segment gap
    with pytest.raises(ValueError, match="smaller"):
        Schedule(segments=((0.0, 16.0), (1800.0, 19.0)), transition_duration=1800.0)


def test_schedule_coerces_and_reports():
    sched = Schedule(segments=((0, 16), (36000, 19)))
    assert sched.segments == ((0.0, 16.0), (36000.0, 19.0))
    assert sched.start == 0.0
    setpoints = [sp for _, sp in sched.segments]
    assert (min(setpoints), max(setpoints)) == (16.0, 19.0)


def test_before_schedule_start_rejected():
    for gen in REFERENCE_GENERATORS.values():
        with pytest.raises(ValueError, match="precedes"):
            gen(TWO_STEP, -1.0)


def test_step_reference_examples():
    assert step_reference(TWO_STEP, 100.0) == (16.0, 0.0)
    # the jump takes the new value at its own start time
    assert step_reference(TWO_STEP, 36000.0) == (19.0, 0.0)
    # the last segment extends indefinitely
    assert step_reference(TWO_STEP, 86400.0) == (19.0, 0.0)


def test_smooth_reference_midpoint():
    # quintic at sigma = 1/2: s = 6/32 - 15/16 + 10/8 = 1/2, s' = 15/8
    # so y* = 16 + 3*0.5 = 17.5 and dy* = 3 * (15/8) / 3600 = 1.5625e-3
    y, dy = smooth_reference(TWO_STEP, 36000.0 + 1800.0)
    assert y == approx(17.5, abs=1e-12)
    assert dy == approx(1.5625e-3, abs=1e-12)


def test_smooth_reference_window_ends():
    assert smooth_reference(TWO_STEP, 36000.0) == (16.0, 0.0)
    assert smooth_reference(TWO_STEP, 36000.0 + 3600.0) == (19.0, 0.0)


def test_smooth_derivative_matches_finite_difference():
    h = 1e-3
    for i in range(20):
        t = 36000.0 + 3600.0 * (i + 0.5) / 20.0
        y_plus, _ = smooth_reference(TWO_STEP, t + h)
        y_minus, _ = smooth_reference(TWO_STEP, t - h)
        _, dy = smooth_reference(TWO_STEP, t)
        assert dy == approx((y_plus - y_minus) / (2.0 * h), abs=1e-8)


def test_ramp_reference_examples():
    y, dy = ramp_reference(TWO_STEP, 36000.0 + 1800.0)
    assert (y, dy) == (17.5, approx(3.0 / 3600.0, rel=1e-12))
    assert ramp_reference(TWO_STEP, 36000.0 + 3600.0) == (19.0, 0.0)
    # integral of the constant slope over the window is the setpoint change
    assert (3.0 / 3600.0) * 3600.0 == approx(3.0, abs=1e-9)


def _random_schedule(rng):
    t, segments = 0.0, []
    for _ in range(rng.randint(1, 6)):
        segments.append((t, rng.uniform(10.0, 25.0)))
        t += rng.uniform(5000.0, 40000.0)
    return Schedule(segments=tuple(segments), transition_duration=rng.uniform(600.0, 4000.0))


def test_references_stay_within_setpoint_bounds():
    rng = random.Random(11)
    for _ in range(30):
        sched = _random_schedule(rng)
        setpoints = [sp for _, sp in sched.segments]
        lo, hi = min(setpoints), max(setpoints)
        horizon = sched.segments[-1][0] + 50000.0
        for gen in REFERENCE_GENERATORS.values():
            for i in range(400):
                y, _ = gen(sched, horizon * i / 400.0)
                assert lo - 1e-12 <= y <= hi + 1e-12


def test_smooth_and_ramp_agree_with_step_outside_windows():
    rng = random.Random(12)
    for _ in range(20):
        sched = _random_schedule(rng)
        d = sched.transition_duration
        horizon = sched.segments[-1][0] + 50000.0
        for i in range(500):
            t = horizon * i / 500.0
            in_window = any(
                t0 <= t < t0 + d for t0, _ in sched.segments[1:]
            )
            if in_window:
                continue
            want = step_reference(sched, t)
            assert smooth_reference(sched, t) == want
            assert ramp_reference(sched, t) == want


def test_smooth_reference_is_c2():
    # bound the second central difference across the window boundary; a
    # C2 function at step h has bounded (f(t+h) - 2f(t) + f(t-h)) / h^2
    h = 0.5
    boundary_points = [36000.0, 36000.0 + 3600.0]
    for t0 in boundary_points:
        for k in range(-4, 5):
            t = t0 + k * h
            y0, _ = smooth_reference(TWO_STEP, t - h)
            y1, _ = smooth_reference(TWO_STEP, t)
            y2, _ = smooth_reference(TWO_STEP, t + h)
            curvature = (y2 - 2.0 * y1 + y0) / (h * h)
            # the quintic's peak curvature is |b-a| * 10/sqrt(3)/D^2 ~ 1.3e-6;
            # anything near the finite-difference noise floor is fine,
            # a jump discontinuity would show up as ~|b-a|/h^2 ~ 12
            assert abs(curvature) < 1e-5


def test_no_transition_for_repeated_setpoint():
    sched = Schedule(segments=((0.0, 18.0), (30000.0, 18.0)), transition_duration=3600.0)
    for t in (30000.0, 31000.0, 33599.0):
        assert smooth_reference(sched, t) == (18.0, 0.0)
        assert ramp_reference(sched, t) == (18.0, 0.0)


def test_generator_registry():
    assert set(REFERENCE_GENERATORS) == {"step", "smooth", "ramp"}


def test_every_mode_has_an_oracle():
    assert set(MODES) == set(REFERENCE_GENERATORS)


# ---------------------------------------------------------------------------
# the column form, checked tick for tick against the scalar generators


@st.composite
def schedules_on_a_grid(draw):
    """(schedule, dt, n): starts on and off the tick grid, the first one
    at or before t = 0, setpoints that may repeat."""
    dt = draw(st.floats(0.5, 900.0))
    d = draw(st.floats(1.0, 5000.0))

    def on_or_off_grid(lo, hi):
        return draw(st.floats(lo, hi) | st.integers(math.ceil(lo / dt), math.floor(hi / dt)).map(lambda m: m * dt))

    start = -on_or_off_grid(0.0, 20000.0)
    segments = []
    for _ in range(draw(st.integers(1, 6))):
        segments.append((start, draw(st.sampled_from([16.0, 19.0]) | st.floats(-50.0, 50.0))))
        start += on_or_off_grid(d * (1.0 + 1e-9) + 1e-9, d + 30000.0)
    try:
        sched = Schedule(segments=tuple(segments), transition_duration=d)
    except ValueError:
        assume(False)
    return sched, dt, draw(st.integers(0, 400))


# Window edges where start + d and tau = t - start round to opposite
# sides: start + d rounds below tick 208 (t = 20.8) although its tau is
# below d, so the tick is inside the window; start + d rounds above tick
# 468 (t = 23.4) although its tau reaches d, so that tick is outside.
EDGE_ROUNDED_DOWN = (Schedule(((0.0, 16.0), (15.09941811313136, 19.0)), 5.700581886868641), 0.1, 300)
EDGE_ROUNDED_UP = (Schedule(((-200.0, 16.0), (-60.39200385961945, 19.0)), 83.79200385961946), 0.05, 500)


@settings(deadline=None)
@given(schedules_on_a_grid(), st.sampled_from(sorted(REFERENCE_GENERATORS)))
@example(EDGE_ROUNDED_DOWN, "smooth")
@example(EDGE_ROUNDED_UP, "ramp")
def test_fill_reference_matches_scalar_generator(case, mode):
    sched, dt, n = case
    t = np.arange(n) * dt
    y_star, y_star_dot = np.full(n, np.nan), np.full(n, np.nan)
    fill_reference(sched, mode, t, y_star, y_star_dot)
    want = [REFERENCE_GENERATORS[mode](sched, t_k) for t_k in t.tolist()]
    assert list(zip(y_star.tolist(), y_star_dot.tolist())) == want


def test_fill_reference_rejects_times_before_the_schedule():
    sched = Schedule(segments=((100.0, 16.0),), transition_duration=10.0)
    with pytest.raises(ValueError, match="precedes"):
        fill_reference(sched, "smooth", np.array([0.0, 60.0]), np.empty(2), np.empty(2))

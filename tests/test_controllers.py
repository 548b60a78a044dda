"""Control laws, pole placement, and the actuator clamp."""

import math
import random

import pytest
from pytest import approx

from heatloop.controllers import (
    HEATING_AND_COOLING,
    HEATING_ONLY,
    ActuatorMode,
    IpController,
    PiController,
    flat_feedforward,
    place_flat_p_gain,
    place_flat_pi_gains,
)
from heatloop.plant import NOMINAL, ThermalState, wall_equilibrium
from heatloop.reference import Schedule
from oracles import derivatives, estimate_F, ip_control, pi_control, smooth_reference, step_rk4


def test_ip_gains_validation():
    with pytest.raises(ValueError, match="alpha"):
        IpController(alpha=0.0)
    assert IpController() == IpController(alpha=0.5, k_p=-0.5)


def test_ip_control_perfect_tracking():
    # model term cancelled and zero error: no correction needed
    assert ip_control(1.0e-3, 1.0e-3, 0.0, IpController()) == approx(0.0, abs=1e-15)


def test_ip_control_substitution():
    # u = -(1 - 0 - (-0.5)*2) / 0.5 = -(1 + 1)/0.5 = -4
    assert ip_control(1.0, 0.0, 2.0, IpController(alpha=0.5, k_p=-0.5)) == approx(-4.0, rel=1e-12)


def test_ip_control_inverse_in_alpha():
    u1 = ip_control(0.3, 0.0, -1.2, IpController(alpha=0.5, k_p=-0.5))
    u2 = ip_control(0.3, 0.0, -1.2, IpController(alpha=1.0, k_p=-0.5))
    assert u1 == approx(2.0 * u2, rel=1e-12)


def test_ip_alpha_rescaling_is_a_gauge_freedom():
    # (alpha, u) -> (c*alpha, u/c) with F recomputed from the rescaled pair
    # leaves the physical heat unchanged: alpha only shapes the loop
    rng = random.Random(3)
    for _ in range(30):
        dy = rng.uniform(-1e-2, 1e-2)
        u_prev = rng.uniform(-100.0, 100.0)
        e = rng.uniform(-2.0, 2.0)
        y_dot = rng.uniform(-2e-3, 2e-3)
        c = rng.choice([0.1, 2.0, 40.0])
        alpha = 0.5
        u_a = ip_control(estimate_F(dy, u_prev, alpha), y_dot, e, IpController(alpha=alpha, k_p=-0.5))
        u_b = ip_control(
            estimate_F(dy, u_prev / c, c * alpha), y_dot, e, IpController(alpha=c * alpha, k_p=-0.5)
        )
        assert c * u_b == approx(u_a, rel=1e-9, abs=1e-9)


def test_ip_exact_cancellation_imposes_error_dynamics():
    # with F taken from the plant itself (no estimation) and alpha equal to
    # the plant's true input gain 1/c_a, the loop turns the tracking error
    # into e' = k_p e: from e(0) = 1 K on a constant reference the error
    # must follow exp(k_p t).  k_p is chosen slow so the 60 s discretization
    # stays a small correction over t <= 3/|k_p|.
    k_p = -1e-4
    alpha = 1.0 / NOMINAL.c_a
    gains = IpController(alpha=alpha, k_p=k_p)
    y_star, te, dt = 19.0, 5.0, 60.0
    # the wall starts at its own equilibrium so that the fast wall
    # transient does not pollute the slow commanded error dynamics
    state = ThermalState(y_star + 1.0, wall_equilibrium(y_star + 1.0, te))
    t = 0.0
    while t <= 3.0 / abs(k_p):
        e = state.t_int - y_star
        assert abs(e) == approx(math.exp(k_p * t), rel=0.02)
        # true F: the measured slope minus the input contribution, taken
        # directly from the model with the input zeroed
        f_true = derivatives(state, 0.0, te)[0]
        u = ip_control(f_true, 0.0, e, gains)
        state = step_rk4(state, u, te, dt)
        t += dt


def test_pi_control_examples():
    assert pi_control(0.0, 0.0, PiController()) == 0.0
    # -0.5*2 + -0.01*10 = -1.1
    assert pi_control(2.0, 10.0, PiController(k_p=-0.5, k_i=-0.01)) == approx(-1.1, rel=1e-12)
    # too cold (e < 0) must heat
    assert pi_control(-1.0, -30.0, PiController()) > 0.0


def test_pi_control_linear():
    g = PiController(k_p=-0.5, k_i=-0.01)
    assert pi_control(1.0, 2.0, g) + pi_control(0.3, -1.0, g) == approx(
        pi_control(1.3, 1.0, g), rel=1e-12
    )


def test_flat_feedforward_values():
    assert flat_feedforward(0.0, 0.0, NOMINAL) == 0.0
    # (k_c + k_f) * 20 = 1.404 * 20 = 28.08
    assert flat_feedforward(20.0, 0.0, NOMINAL) == approx(28.08, rel=1e-12)
    # c_a * 1e-3 = 1.4
    assert flat_feedforward(0.0, 1.0e-3, NOMINAL) == approx(1.4, rel=1e-12)


def test_flat_feedforward_tracks_its_own_model():
    # on the simplified air-only model c_a T' = Q* - (k_c+k_f) T the
    # feedforward is exact: integrate from T(0) = y*(0) along a smooth
    # reference and the trajectory must stay glued to it
    sched = Schedule(segments=((0.0, 16.0), (7200.0, 19.0)), transition_duration=3600.0)
    c_a, k = NOMINAL.c_a, NOMINAL.k_c + NOMINAL.k_f

    def deriv(x, time):
        y, dy = smooth_reference(sched, time)
        return (flat_feedforward(y, dy, NOMINAL) - k * x) / c_a

    # classical RK4 on the time-varying scalar model, feedforward
    # evaluated at each stage time (the claim is about the continuous
    # loop, not a sample-and-hold one)
    t, dt, temp = 0.0, 1.0, 16.0
    while t < 14400.0:
        y, _ = smooth_reference(sched, t)
        assert temp == approx(y, abs=1e-6)
        k1 = deriv(temp, t)
        k2 = deriv(temp + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = deriv(temp + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = deriv(temp + dt * k3, t + dt)
        temp += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt


def test_place_flat_p_gain():
    # c_a*pole + (k_c+k_f) = 1400*(-0.01) + 1.404 = -12.596
    assert place_flat_p_gain(-0.01, NOMINAL) == approx(-12.596, rel=1e-12)
    # asking for the open-loop pole needs no feedback at all
    open_loop = -(NOMINAL.k_c + NOMINAL.k_f) / NOMINAL.c_a
    assert place_flat_p_gain(open_loop, NOMINAL) == approx(0.0, abs=1e-12)
    # affine in the pole with slope c_a
    g1 = place_flat_p_gain(-0.01, NOMINAL)
    g2 = place_flat_p_gain(-0.02, NOMINAL)
    assert g2 - g1 == approx(-0.01 * NOMINAL.c_a, rel=1e-12)
    with pytest.raises(ValueError, match="pole"):
        place_flat_p_gain(0.01, NOMINAL)


def test_place_flat_pi_gains():
    # double pole -0.005: k_p = 1.404 + 2*(-0.005)*1400 = -12.596,
    #                     k_i = -1400 * 2.5e-5 = -0.035
    k_p, k_i = place_flat_pi_gains(-0.005, NOMINAL)
    assert k_p == approx(-12.596, rel=1e-12)
    assert k_i == approx(-0.035, rel=1e-12)
    # double pole -0.001: k_p = 1.404 - 2.8 = -1.396, k_i = -0.0014
    k_p, k_i = place_flat_pi_gains(-0.001, NOMINAL)
    assert k_p == approx(-1.396, rel=1e-12)
    assert k_i == approx(-0.0014, rel=1e-12)
    with pytest.raises(ValueError, match="double_pole"):
        place_flat_pi_gains(0.0, NOMINAL)


def test_flat_pi_gains_match_characteristic_polynomial():
    # the placement must reproduce (s - p)^2 = s^2 - 2p s + p^2 exactly:
    # s coefficient (k_c+k_f-k_p)/c_a = -2p, constant -k_i/c_a = p^2
    for p in (-0.005, -0.001, -0.037):
        k_p, k_i = place_flat_pi_gains(p, NOMINAL)
        assert (NOMINAL.k_c + NOMINAL.k_f - k_p) / NOMINAL.c_a == approx(-2.0 * p, abs=1e-9)
        assert -k_i / NOMINAL.c_a == approx(p * p, abs=1e-9)


def test_flat_pi_double_pole_error_envelope():
    # on the approximated model the double pole gives
    # e(t) = (1 + |p| t) exp(p t) from e(0)=1, e'(0)=0: never overshoots
    # and decays slower than the bare exponential exp(p t)
    p = -0.005
    k_p, k_i = place_flat_pi_gains(p, NOMINAL)
    c_a, k = NOMINAL.c_a, NOMINAL.k_c + NOMINAL.k_f
    # simulate c_a e'' = (k_p - k) e' + k_i e as a 2-state RK4 system
    e, de, integ = 1.0, 0.0, 0.0

    def deriv(e_, de_):
        return de_, ((k_p - k) * de_ + k_i * e_) / c_a

    # consistency: with the placed gains this is e'' = 2p e' - p^2 e
    dt, t = 1.0, 0.0
    while t <= 3.0 / abs(p):
        want = (1.0 + abs(p) * t) * math.exp(p * t)
        assert e == approx(want, rel=0.05, abs=1e-6)
        assert 0.0 <= e <= 1.0 + 1e-9            # no overshoot
        assert e >= math.exp(p * t) - 1e-9       # slower than the single pole
        k1 = deriv(e, de)
        k2 = deriv(e + 0.5 * dt * k1[0], de + 0.5 * dt * k1[1])
        k3 = deriv(e + 0.5 * dt * k2[0], de + 0.5 * dt * k2[1])
        k4 = deriv(e + dt * k3[0], de + dt * k3[1])
        e += dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        de += dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        t += dt


def test_actuator_validation():
    with pytest.raises(ValueError, match="mode"):
        ActuatorMode(mode="bang_bang")
    with pytest.raises(ValueError, match="q_max"):
        ActuatorMode(q_max=0.0)


def clamp(q, actuator):
    """The saturation the engine applies: q limited to the actuator's bounds."""
    lo, hi = actuator.bounds
    return min(max(q, lo), hi)


def test_clamp_examples():
    heat = ActuatorMode(mode=HEATING_ONLY, q_max=2000.0)
    both = ActuatorMode(mode=HEATING_AND_COOLING, q_max=2000.0)
    assert heat.bounds == (0.0, 2000.0)
    assert both.bounds == (-2000.0, 2000.0)
    assert clamp(-50.0, heat) == 0.0
    assert clamp(-50.0, both) == -50.0
    assert clamp(5000.0, heat) == 2000.0
    assert clamp(5000.0, both) == 2000.0
    assert clamp(-5000.0, both) == -2000.0


def test_clamp_idempotent_and_in_range():
    rng = random.Random(2)
    for mode in (HEATING_ONLY, HEATING_AND_COOLING):
        act = ActuatorMode(mode=mode, q_max=1500.0)
        lo = 0.0 if mode == HEATING_ONLY else -1500.0
        for _ in range(100):
            q = rng.uniform(-1e4, 1e4)
            out = clamp(q, act)
            assert lo <= out <= 1500.0
            assert clamp(out, act) == out

"""Two-node plant model: derivatives, integrators, equilibria."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

from heatloop.plant import (
    NOMINAL,
    RK4_STABILITY,
    ThermalParams,
    ThermalState,
    fastest_rate,
    rk4_map,
    system_matrices,
    wall_equilibrium,
)
from oracles import derivatives, equilibrium, exact_step, map_step, propagator, step_rk4


def test_params_defaults():
    assert NOMINAL == ThermalParams(c_a=1400.0, c_w=2200.0, k_c=1.4, k_f=0.004, k_ext=0.04)
    assert NOMINAL.wall_denominator_cw is False


@pytest.mark.parametrize("field", ["c_a", "c_w", "k_c", "k_f", "k_ext"])
@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_params_reject_nonpositive(field, bad):
    with pytest.raises(ValueError, match=field):
        ThermalParams(**{field: bad})


def test_params_scaled():
    p = NOMINAL.scaled(2.0)
    assert p == ThermalParams(c_a=2800.0, c_w=4400.0, k_c=2.8, k_f=0.008, k_ext=0.08)
    for factor in (0.0, float("nan"), -1.0):
        with pytest.raises(ValueError):
            NOMINAL.scaled(factor)


def test_derivatives_uniform_equilibrium():
    # uniform temperature, no input: nothing moves
    assert derivatives(ThermalState(10.0, 10.0), 0.0, 10.0) == (0.0, 0.0)


def test_derivatives_heated_room():
    # hand evaluation at state (20, 15), q = 1000, t_ext = 5:
    #   d_int  = 1000/1400 - (1.4/1400)*5 - (0.004/1400)*15 = 0.7092428571...
    #   d_wall = (1.4/2200)*5 - (0.04/1400)*10 = 0.0028961038...
    d_int, d_wall = derivatives(ThermalState(20.0, 15.0), 1000.0, 5.0)
    assert d_int == approx(1000.0 / 1400.0 - 5.0 * 1.4 / 1400.0 - 15.0 * 0.004 / 1400.0, abs=1e-12)
    assert d_int == approx(0.70924286, abs=1e-8)
    assert d_wall == approx(5.0 * 1.4 / 2200.0 - 10.0 * 0.04 / 1400.0, abs=1e-12)
    assert d_wall == approx(0.00289610, abs=1e-8)


def test_derivatives_q_only_enters_air_node():
    # same state without heat: d_int drops by exactly 1000/c_a, d_wall unchanged
    d_int, d_wall = derivatives(ThermalState(20.0, 15.0), 0.0, 5.0)
    assert d_int == approx(-5.0 * 1.4 / 1400.0 - 15.0 * 0.004 / 1400.0, abs=1e-12)
    assert d_int == approx(-0.00504286, abs=1e-8)
    assert d_wall == approx(0.00289610, abs=1e-8)


def test_derivatives_monotone_in_q():
    # slope of d_int in q is exactly 1/c_a
    base, _ = derivatives(ThermalState(18.0, 14.0), 0.0, 3.0)
    plus, _ = derivatives(ThermalState(18.0, 14.0), 700.0, 3.0)
    assert plus - base == approx(700.0 / 1400.0, rel=1e-12)


def test_wall_denominator_flag():
    # with the flag on, the wall's outdoor term divides by c_w instead of c_a
    p_cw = ThermalParams(wall_denominator_cw=True)
    _, d_default = derivatives(ThermalState(20.0, 15.0), 0.0, 5.0)
    _, d_flagged = derivatives(ThermalState(20.0, 15.0), 0.0, 5.0, p_cw)
    # d_wall = (1.4/2200)*5 - (0.04/2200)*10 = 0.0031818... - 0.00018181...
    assert d_flagged == approx(1.4 / 2200.0 * 5.0 - 0.04 / 2200.0 * 10.0, rel=1e-12)
    assert d_flagged != d_default


def test_step_rk4_rejects_bad_dt():
    with pytest.raises(ValueError):
        step_rk4(ThermalState(10.0, 10.0), 0.0, 10.0, 0.0)
    with pytest.raises(ValueError):
        step_rk4(ThermalState(10.0, 10.0), 0.0, 10.0, -60.0)


def test_step_rk4_preserves_fixed_point():
    state = ThermalState(10.0, 10.0)
    for dt in (1.0, 60.0, 3600.0):
        out = step_rk4(state, 0.0, 10.0, dt)
        assert out.t_int == approx(10.0, abs=1e-12)
        assert out.t_wall == approx(10.0, abs=1e-12)


def test_step_rk4_close_to_exact_at_small_dt():
    got = step_rk4(ThermalState(20.0, 15.0), 1000.0, 5.0, 1.0)
    ref = exact_step(ThermalState(20.0, 15.0), 1000.0, 5.0, 1.0)
    assert got.t_int == approx(ref.t_int, abs=1e-8)
    assert got.t_wall == approx(ref.t_wall, abs=1e-8)


def test_step_rk4_fourth_order_halving():
    # halving dt must shrink the single-interval error by at least 2^4
    # (>= 12 leaves headroom for rounding)
    state = ThermalState(20.0, 15.0)
    ref = exact_step(state, 1000.0, 5.0, 60.0)

    def err(dt):
        cur = state
        for _ in range(round(60.0 / dt)):
            cur = step_rk4(cur, 1000.0, 5.0, dt)
        return abs(cur.t_int - ref.t_int) + abs(cur.t_wall - ref.t_wall)

    assert err(60.0) / err(30.0) >= 12.0


def test_exact_step_rejects_negative_dt():
    with pytest.raises(ValueError):
        exact_step(ThermalState(10.0, 10.0), 0.0, 10.0, -1.0)


def test_exact_step_fixed_oracle():
    # frozen against a brute-force RK4 integration at dt = 0.01 s
    # (360000 fine steps over one hour; agreement there was ~1e-11)
    out = exact_step(ThermalState(20.0, 15.0), 1000.0, 5.0, 3600.0)
    assert out.t_int == approx(1263.1741908779, abs=1e-6)
    assert out.t_wall == approx(818.3205269094, abs=1e-6)


def test_exact_step_semigroup():
    rng = random.Random(20)
    for _ in range(50):
        state = ThermalState(rng.uniform(5.0, 25.0), rng.uniform(5.0, 25.0))
        q = rng.uniform(-500.0, 1500.0)
        te = rng.uniform(-10.0, 15.0)
        dt1 = rng.uniform(1.0, 4000.0)
        dt2 = rng.uniform(1.0, 4000.0)
        whole = exact_step(state, q, te, dt1 + dt2)
        parts = exact_step(exact_step(state, q, te, dt1), q, te, dt2)
        assert whole.t_int == approx(parts.t_int, abs=1e-9)
        assert whole.t_wall == approx(parts.t_wall, abs=1e-9)


def test_exact_step_is_linear():
    # superposition of deviations responds as the superposed responses
    base = (ThermalState(15.0, 14.0), 100.0, 5.0)
    d1 = (ThermalState(2.0, -1.0), 300.0, 4.0)
    d2 = (ThermalState(-3.0, 0.5), -150.0, -7.0)

    def run_case(w1, w2):
        st = ThermalState(base[0].t_int + w1 * d1[0].t_int + w2 * d2[0].t_int,
                          base[0].t_wall + w1 * d1[0].t_wall + w2 * d2[0].t_wall)
        q = base[1] + w1 * d1[1] + w2 * d2[1]
        te = base[2] + w1 * d1[2] + w2 * d2[2]
        return exact_step(st, q, te, 1800.0)

    both = run_case(1.0, 1.0)
    origin = run_case(0.0, 0.0)
    only1 = run_case(1.0, 0.0)
    only2 = run_case(0.0, 1.0)
    assert both.t_int == approx(only1.t_int + only2.t_int - origin.t_int, abs=1e-9)
    assert both.t_wall == approx(only1.t_wall + only2.t_wall - origin.t_wall, abs=1e-9)


def test_equilibrium_is_stationary():
    rng = random.Random(7)
    for _ in range(50):
        q = rng.uniform(-200.0, 1200.0)
        te = rng.uniform(-10.0, 15.0)
        eq = equilibrium(q, te)
        d = derivatives(eq, q, te)
        assert abs(d[0]) < 1e-12 and abs(d[1]) < 1e-12
        for dt in (60.0, 7200.0):
            out = exact_step(eq, q, te, dt)
            assert out.t_int == approx(eq.t_int, abs=1e-9)
            assert out.t_wall == approx(eq.t_wall, abs=1e-9)


def test_equilibrium_static_gain():
    # hand derivation of the q -> t_int steady gain at t_ext = 0:
    # wall balance  (1.4/2200)(Ti - Tw) = (0.04/1400) Tw
    #   => Ti - Tw = (0.04*2200)/(1400*1.4) Tw = (11/245) Tw,  Ti = (256/245) Tw
    # air balance   q = 1.4 (Ti - Tw) + 0.004 Ti = (16.424/245) Tw
    #   => q=1: Tw = 245/16.424, Ti = 256/16.424 = 15.5869459...
    eq = equilibrium(1.0, 0.0)
    assert eq.t_int == approx(256.0 / 16.424, rel=1e-12)
    assert eq.t_wall == approx(245.0 / 16.424, rel=1e-12)
    # equivalently: holding t_int one kelvin above t_ext needs
    # q = 16.424/256 = 0.06415625 W
    assert equilibrium(0.06415625, 0.0).t_int == approx(1.0, rel=1e-12)
    # and the gain is linear: 100 W gives 100x
    assert equilibrium(100.0, 0.0).t_int == approx(100.0 * 256.0 / 16.424, rel=1e-12)


def test_wall_equilibrium_matches_full_equilibrium():
    # holding t_int at its equilibrium value must reproduce the wall value
    eq = equilibrium(250.0, 2.0)
    assert wall_equilibrium(eq.t_int, 2.0) == approx(eq.t_wall, rel=1e-12)


def test_system_matrices_reconstruct_derivatives():
    rng = random.Random(99)
    for _ in range(20):
        st = ThermalState(rng.uniform(-5.0, 30.0), rng.uniform(-5.0, 30.0))
        q = rng.uniform(-500.0, 1500.0)
        te = rng.uniform(-15.0, 20.0)
        (a11, a12, a21, a22), (b_q, b_f, b_w) = system_matrices()
        d1 = a11 * st.t_int + a12 * st.t_wall + b_q * q + b_f * te
        d2 = a21 * st.t_int + a22 * st.t_wall + b_w * te
        ref = derivatives(st, q, te)
        assert d1 == approx(ref[0], abs=1e-15)
        assert d2 == approx(ref[1], abs=1e-15)


def test_propagator_against_scipy_expm():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    import numpy as np

    for params in (NOMINAL, NOMINAL.scaled(0.5), NOMINAL.scaled(2.0),
                   ThermalParams(wall_denominator_cw=True)):
        (a11, a12, a21, a22), _ = system_matrices(params)
        a = np.array([[a11, a12], [a21, a22]])
        for dt in (1.0, 60.0, 3600.0, 86400.0):
            want = scipy_linalg.expm(a * dt)
            got = propagator(dt, params)
            assert got[0] == approx(want[0, 0], rel=1e-12, abs=1e-15)
            assert got[1] == approx(want[0, 1], rel=1e-12, abs=1e-15)
            assert got[2] == approx(want[1, 0], rel=1e-12, abs=1e-15)
            assert got[3] == approx(want[1, 1], rel=1e-12, abs=1e-15)


def test_propagator_handles_near_coincident_eigenvalues():
    # craft parameters whose two eigenvalues nearly coincide so the
    # series branch of the difference quotient is exercised
    scipy_linalg = pytest.importorskip("scipy.linalg")
    import numpy as np

    # a11 ~ a22 and tiny coupling: disc = (a11-a22)^2 + 4 a12 a21 stays positive
    p = ThermalParams(c_a=1000.0, c_w=1000.0, k_c=1e-7, k_f=1.0, k_ext=1.0000001)
    (a11, a12, a21, a22), _ = system_matrices(p)
    lam_gap = math.sqrt((a11 - a22) ** 2 + 4 * a12 * a21)
    assert lam_gap < 1e-6  # the regime the series fallback targets
    a = np.array([[a11, a12], [a21, a22]])
    for dt in (1.0, 60.0):
        want = scipy_linalg.expm(a * dt)
        got = propagator(dt, p)
        assert got[0] == approx(want[0, 0], rel=1e-10)
        assert got[3] == approx(want[1, 1], rel=1e-10)


def test_eigenvalues_stable_for_random_positive_params():
    # disc = (a11-a22)^2 + 4 a12 a21 > 0 for positive parameters, so both
    # eigenvalues are real; trace < 0 and det > 0 make them negative
    rng = random.Random(4)
    for _ in range(200):
        p = ThermalParams(
            c_a=rng.uniform(1.0, 1e5),
            c_w=rng.uniform(1.0, 1e5),
            k_c=rng.uniform(1e-3, 100.0),
            k_f=rng.uniform(1e-5, 10.0),
            k_ext=rng.uniform(1e-4, 10.0),
        )
        (a11, a12, a21, a22), _ = system_matrices(p)
        disc = (a11 - a22) ** 2 + 4.0 * a12 * a21
        assert disc > 0.0
        tr = a11 + a22
        lam1 = 0.5 * (tr + math.sqrt(disc))
        lam2 = 0.5 * (tr - math.sqrt(disc))
        assert lam1 < 0.0 and lam2 < 0.0


def test_nominal_eigenvalues_frozen():
    # det(A - lam I) = 0 for the nominal matrix gives the two time scales
    # used throughout: ~1.65e-3 1/s (minutes, air) and ~1.85e-5 1/s (hours,
    # wall); frozen from the quadratic formula
    (a11, a12, a21, a22), _ = system_matrices()
    tr, det = a11 + a22, a11 * a22 - a12 * a21
    s = math.sqrt(tr * tr - 4.0 * det)
    lam_fast, lam_slow = 0.5 * (tr - s), 0.5 * (tr + s)
    assert lam_fast == approx(-1.6493e-3, rel=1e-3)
    assert lam_slow == approx(-1.8475e-5, rel=1e-3)


# ---------------------------------------------------------------------------
# the engine's step, rk4_map's affine map, checked against step_rk4

# log-uniform, so that the coefficients span many magnitudes
positive = st.floats(-7.0, 11.5).map(math.exp)
temperature = st.floats(-1e3, 1e3)


@st.composite
def plant_params(draw):
    return ThermalParams(c_a=draw(positive), c_w=draw(positive), k_c=draw(positive), k_f=draw(positive),
                         k_ext=draw(positive), wall_denominator_cw=draw(st.booleans()))


@st.composite
def stable_steps(draw):
    """A plant and a tick with dt * rho(A) <= 2.7, inside RK4's stability interval."""
    params = draw(plant_params())
    return params, 2.7 / fastest_rate(params) * math.exp(-draw(st.floats(0.0, 16.0)))


@settings(deadline=None, max_examples=500)
@given(stable_steps(), temperature, temperature, st.floats(-1e5, 1e5), temperature)
def test_rk4_map_step_matches_step_rk4(step, t_int, t_wall, q, t_ext):
    # the same polynomial in dt*A as the stage form, rounded in another order
    params, dt = step
    got = map_step(ThermalState(t_int, t_wall), q, t_ext, rk4_map(params, dt))
    want = step_rk4(ThermalState(t_int, t_wall), q, t_ext, dt, params)
    bound = 1e-13 * (abs(t_int) + abs(t_wall) + abs(t_ext) + dt * abs(q) / params.c_a)
    assert abs(got.t_int - want.t_int) <= bound
    assert abs(got.t_wall - want.t_wall) <= bound


@settings(deadline=None, max_examples=500)
@given(stable_steps(), temperature, st.sampled_from([0.0, -0.0]))
def test_rk4_map_keeps_the_rest_point_exactly(step, t, q):
    # a uniform temperature with no heat is where the deviations are zero
    params, dt = step
    assert map_step(ThermalState(t, t), q, t, rk4_map(params, dt)) == ThermalState(t, t)


room = st.floats(-10.0, 40.0)


@settings(deadline=None, max_examples=300)
@given(st.booleans(), st.floats(0.1, 10.0), room, room, st.floats(-2000.0, 2000.0), room)
def test_uniform_scaling_only_divides_the_heater_gain(wall_denominator_cw, factor, t_int, t_wall, q, t_ext):
    # every coefficient of the step is a ratio of two parameters except
    # the heater gain 1/c_a, so sweep's scaled plant is the nominal one
    # driven by q / factor
    p, state = ThermalParams(wall_denominator_cw=wall_denominator_cw), ThermalState(t_int, t_wall)
    scaled = map_step(state, q, t_ext, rk4_map(p.scaled(factor), 60.0))
    nominal = map_step(state, q / factor, t_ext, rk4_map(p, 60.0))
    assert scaled.t_int == approx(nominal.t_int, rel=0.0, abs=1e-12)
    assert scaled.t_wall == approx(nominal.t_wall, rel=0.0, abs=1e-12)


def test_rk4_map_rejects_bad_dt():
    with pytest.raises(ValueError):
        rk4_map(NOMINAL, 0.0)


def test_fastest_rate_is_the_spectral_radius():
    rng = random.Random(21)
    for params in [NOMINAL, ThermalParams(wall_denominator_cw=True)] + [
            ThermalParams(*(math.exp(rng.uniform(-7.0, 11.5)) for _ in range(5))) for _ in range(50)]:
        (a11, a12, a21, a22), _ = system_matrices(params)
        tr, det = a11 + a22, a11 * a22 - a12 * a21
        assert fastest_rate(params) == approx(0.5 * (math.sqrt(tr * tr - 4.0 * det) - tr), rel=1e-9)
    # the nominal plant's fast pole bounds RK4's tick at 1688.76 s
    assert RK4_STABILITY / fastest_rate(NOMINAL) == approx(1688.7556, abs=1e-4)

"""Acceptance suite for the frozen reference scenario.

One test per criterion, A1 through A8.  Each test prints a single
PASS/FAIL line on the real stdout (so the verdicts are visible even
when pytest captures output) and then asserts, so a failed criterion is
also red in the suite.  All runs share the frozen default scenario:
seed 63, 48 h horizon, 60 s ticks, smooth 16/19 schedule, sinusoidal
outdoor temperature, 0.05 K measurement noise.
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from heatloop.cli import write_timeseries_csv
from heatloop.config import parse_scenario, serialize_scenario
from heatloop.controllers import (
    HEATING_AND_COOLING,
    HEATING_ONLY,
    ActuatorMode,
    FlatPController,
    FlatPiController,
    IpController,
    PiController,
    place_flat_p_gain,
    place_flat_pi_gains,
)
from heatloop.engine import (
    ConstantTExt,
    Scenario,
    SinusoidTExt,
    compute_metrics,
    default_scenario,
    run,
    sweep,
    transition_spans,
)
from heatloop.plant import NOMINAL, ThermalParams, ThermalState
from heatloop.reference import Schedule
from oracles import exact_step, step_rk4


def _report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# shared runs (module scope keeps the suite well under the time budget)


@pytest.fixture(scope="module")
def base() -> Scenario:
    return default_scenario()


@pytest.fixture(scope="module")
def ip_cool(base):
    trace = run(base)
    return trace, compute_metrics(trace)


@pytest.fixture(scope="module")
def ip_heat(base):
    trace = run(replace(base, actuator=ActuatorMode(mode=HEATING_ONLY, q_max=base.actuator.q_max)))
    return trace, compute_metrics(trace)


@pytest.fixture(scope="module")
def pi_metrics(base):
    smooth = compute_metrics(run(replace(base, controller=PiController())))
    step = compute_metrics(run(replace(base, controller=PiController(), reference_mode="step")))
    return smooth, step


@pytest.fixture(scope="module")
def flat_pi_metrics(base):
    fast = compute_metrics(run(replace(base, controller=FlatPiController(double_pole=-0.005, model=NOMINAL))))
    slow = compute_metrics(run(replace(base, controller=FlatPiController(double_pole=-0.001, model=NOMINAL))))
    return fast, slow


# ---------------------------------------------------------------------------
# A1: one RK4 tick agrees with the closed-form propagator


def test_a1_plant_oracle_equivalence(capsys):
    rng = random.Random(20260814)
    worst = 0.0
    for _ in range(1000):
        state = ThermalState(rng.uniform(8.0, 26.0), rng.uniform(8.0, 26.0))
        q = rng.uniform(0.0, 5.0)
        te = rng.uniform(-5.0, 15.0)
        a = step_rk4(state, q, te, 60.0)
        b = exact_step(state, q, te, 60.0)
        worst = max(worst, abs(a.t_int - b.t_int), abs(a.t_wall - b.t_wall))

    # observed convergence order: integrate one hour at shrinking dt and
    # fit log(error) against log(dt)
    state, q, te = ThermalState(22.0, 9.0), 3.0, -2.0
    ref = exact_step(state, q, te, 3600.0)
    dts = (120.0, 60.0, 30.0, 15.0)
    errs = []
    for dt in dts:
        s = state
        for _ in range(round(3600.0 / dt)):
            s = step_rk4(s, q, te, dt)
        errs.append(max(abs(s.t_int - ref.t_int), abs(s.t_wall - ref.t_wall)))
    xs = [math.log(dt) for dt in dts]
    ys = [math.log(e) for e in errs]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    order = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)

    ok = worst < 1e-6 and order >= 3.8
    _report(capsys, "A1 plant oracle equivalence", ok,
            f"worst step error {worst:.2e} K, observed order {order:.2f}")
    assert worst < 1e-6
    assert order >= 3.8


# ---------------------------------------------------------------------------
# A2: tracking quality of the adaptive loop, and the heating-only penalty


def test_a2_tracking_and_heating_only_penalty(capsys, base, ip_cool, ip_heat):
    cool, cool_metrics = ip_cool
    heat, _ = ip_heat
    D = base.schedule.transition_duration
    cool_err = np.abs(cool.t_int_true - cool.y_star)
    heat_err = np.abs(heat.t_int_true - heat.y_star)

    # quiescent error: outside 4x transition windows, after 4x startup
    spans = transition_spans(base.schedule, window_mult=4.0)
    quiescent = [
        err
        for t, err in zip(cool.t.tolist(), cool_err.tolist())
        if t >= 4.0 * D and not any(s <= t < e for s, e in spans)
    ]
    q_max_err = max(quiescent)

    heating_only_ok = bool((heat.q_applied >= 0.0).all())

    # cooling-demand periods: maximal runs (>= 10 ticks) where the
    # heating-only controller asks for negative heat it cannot get
    periods, current = [], None
    for i, q_command in enumerate(heat.q_command.tolist()):
        if q_command < 0.0:
            current = (current[0], i) if current else (i, i)
        else:
            if current and current[1] - current[0] + 1 >= 10:
                periods.append(current)
            current = None
    if current and current[1] - current[0] + 1 >= 10:
        periods.append(current)

    peaks = []
    for a, b in periods:
        peaks.append((heat_err[a:b + 1].max(), cool_err[a:b + 1].max()))

    ok = (
        cool_metrics.rmse < 0.15
        and q_max_err < 0.1
        and heating_only_ok
        and len(periods) == 2
        and all(ph > pc for ph, pc in peaks)
    )
    _report(capsys, "A2 iP tracking / heating-only penalty", ok,
            f"rmse {cool_metrics.rmse:.4f} K, quiescent max {q_max_err:.4f} K, "
            + "; ".join(f"ramp-down peak {ph:.2f} vs {pc:.2f} K" for ph, pc in peaks))
    assert cool_metrics.rmse < 0.15
    assert q_max_err < 0.1
    assert heating_only_ok
    assert len(periods) == 2, f"expected 2 sustained cooling-demand periods, found {len(periods)}"
    for ph, pc in peaks:
        assert ph > pc


# ---------------------------------------------------------------------------
# A3: reference shaping, and same-order performance of PI vs iP


def test_a3_pi_step_vs_smooth_and_parity_with_ip(capsys, ip_cool, pi_metrics):
    _, ip_m = ip_cool
    smooth, step = pi_metrics
    shaping_ratio = step.rmse / smooth.rmse
    parity_ratio = smooth.rmse / ip_m.rmse

    # Second clause: smooth-reference PI and iP should land within 50% of
    # each other overall.  On this scenario they do not quite: PI edges
    # out iP between transitions but loses about 2x through every ramp,
    # and that mix pins the overall ratio just above 1.5 for every noise
    # seed tried (1.48 was the minimum over 100 seeds).  The bound is
    # kept strict rather than widened to fit the implementation; the
    # margin it fails by is part of the record.
    ok = shaping_ratio > 1.5 and 0.5 <= parity_ratio <= 1.5
    _report(capsys, "A3 PI reference shaping / parity with iP", ok,
            f"step/smooth rmse ratio {shaping_ratio:.3f}, smooth-PI/iP rmse ratio {parity_ratio:.4f}")
    assert shaping_ratio > 1.5
    assert 0.5 <= parity_ratio <= 1.5, (
        f"smooth-PI/iP rmse ratio {parity_ratio:.4f} outside [0.5, 1.5]"
    )


# ---------------------------------------------------------------------------
# A4: feedforward with P corrector cannot reject an unmeasured load


def test_a4_feedforward_steady_state_offset(capsys, base):
    sc = replace(base, controller=FlatPController(pole=-0.01, model=NOMINAL),
                 t_ext=ConstantTExt(5.0), noise_std=0.0)
    trace = run(sc)
    plateau = (158400.0 <= trace.t) & (trace.t < 165600.0)
    tail = (trace.t_int_true - trace.y_star)[plateau].tolist()
    e_ss = sum(tail) / len(tail)

    # steady-state oracle, solved by hand from the nominal parameters:
    # plant statics T_int = t_ext + g*q, feedforward q_ff = (k_c+k_f)*19,
    # corrector q = q_ff + k_p*e  =>  e = (g*q_ff - (19 - t_ext)) / (1 - g*k_p)
    g = 256.0 / 16.424
    q_ff = (1.4 + 0.004) * 19.0
    k_p = 1400.0 * (-0.01) + (1.4 + 0.004)
    oracle = (g * q_ff - 14.0) / (1.0 - g * k_p)

    ok = abs(e_ss) > 0.2 and abs(e_ss - oracle) < 1e-3
    _report(capsys, "A4 flat+P steady-state offset", ok,
            f"e_ss {e_ss:.4f} K, oracle {oracle:.4f} K, diff {abs(e_ss - oracle):.2e}")
    assert abs(e_ss) > 0.2
    assert abs(e_ss - oracle) < 1e-3


# ---------------------------------------------------------------------------
# A5: iP survives large plant-parameter errors with fixed tuning


def test_a5_ip_parameter_robustness(capsys, base):
    rows = sweep(base)
    worst_factor, worst = max(rows, key=lambda fr: fr[1].rmse)
    ok = all(m.rmse < 0.3 for _, m in rows)
    _report(capsys, "A5 iP parameter robustness", ok,
            f"worst rmse {worst.rmse:.4f} K at factor {worst_factor}")
    for factor, m in rows:
        assert m.rmse < 0.3, f"factor {factor}: rmse {m.rmse:.4f}"


# ---------------------------------------------------------------------------
# A6: model-based correctors pay for measurement noise


def test_a6_noise_sensitivity_of_flat_correctors(capsys, ip_cool, flat_pi_metrics):
    _, ip_m = ip_cool
    fast, slow = flat_pi_metrics
    cv_ratio = fast.control_variation / ip_m.control_variation
    rmse_ratio = slow.rmse / ip_m.rmse
    ok = cv_ratio > 3.0 and rmse_ratio > 2.0
    _report(capsys, "A6 noise sensitivity of flat+PI", ok,
            f"fast-pole actuator churn {cv_ratio:.1f}x iP, slow-pole rmse {rmse_ratio:.1f}x iP")
    assert cv_ratio > 3.0
    assert rmse_ratio > 2.0


# ---------------------------------------------------------------------------
# A7: pole placement does what it claims


def test_a7_pole_placement_correctness(capsys):
    # first-order error model under the placed P gain: simulate it and
    # recover the pole from a log-linear fit
    pole = -0.01
    k = place_flat_p_gain(pole, NOMINAL)
    rate = (k - (1.4 + 0.004)) / 1400.0
    e, dt = 1.0, 10.0
    points = []
    for i in range(60):
        points.append((i * dt, math.log(abs(e))))
        k1 = rate * e
        k2 = rate * (e + 0.5 * dt * k1)
        k3 = rate * (e + 0.5 * dt * k2)
        k4 = rate * (e + dt * k3)
        e += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    mt = sum(t for t, _ in points) / len(points)
    mv = sum(v for _, v in points) / len(points)
    fitted = sum((t - mt) * (v - mv) for t, v in points) / sum((t - mt) ** 2 for t, _ in points)
    pole_rel_err = abs(fitted - pole) / abs(pole)

    # second-order placement: the closed-loop characteristic polynomial
    # must match (s - p)^2 coefficient by coefficient
    p2 = -0.005
    k_p, k_i = place_flat_pi_gains(p2, NOMINAL)
    damping_residual = abs((k_p - (1.4 + 0.004)) / 1400.0 - 2.0 * p2)
    stiffness_residual = abs(-k_i / 1400.0 - p2 * p2)

    ok = pole_rel_err < 0.02 and damping_residual < 1e-9 and stiffness_residual < 1e-9
    _report(capsys, "A7 pole placement correctness", ok,
            f"fitted pole {fitted:.6f} (rel err {pole_rel_err:.2e}), "
            f"polynomial residuals {damping_residual:.1e}/{stiffness_residual:.1e}")
    assert pole_rel_err < 0.02
    assert damping_residual < 1e-9
    assert stiffness_residual < 1e-9


# ---------------------------------------------------------------------------
# A8: determinism and on-disk formats


def _random_scenario(rng: random.Random) -> Scenario:
    dt = rng.choice((30.0, 60.0, 120.0))
    horizon = rng.randrange(200, 2000) * dt
    plant = ThermalParams(
        c_a=rng.uniform(700.0, 2800.0),
        c_w=rng.uniform(1100.0, 4400.0),
        k_c=rng.uniform(0.7, 2.8),
        k_f=rng.uniform(0.002, 0.008),
        k_ext=rng.uniform(0.02, 0.08),
        wall_denominator_cw=rng.random() < 0.5,
    )
    starts, t = [0.0], 0.0
    for _ in range(rng.randrange(0, 3)):
        t += rng.randrange(2, 10) * 3600.0
        starts.append(t)
    segments = tuple((s, rng.uniform(14.0, 22.0)) for s in starts)
    duration = rng.uniform(300.0, 3600.0)
    schedule = Schedule(segments=segments, transition_duration=duration)

    kind = rng.choice(("ip", "pi", "flat_p", "flat_pi"))
    if kind == "ip":
        controller = IpController(alpha=rng.uniform(0.01, 2.0), k_p=-rng.uniform(0.1, 2.0),
                                  window_len=rng.randrange(2, 10))
    elif kind == "pi":
        controller = PiController(k_p=-rng.uniform(0.1, 2.0), k_i=-rng.uniform(0.001, 0.1))
    elif kind == "flat_p":
        controller = FlatPController(pole=-rng.uniform(0.001, 0.05), model=plant.scaled(rng.uniform(0.5, 2.0)))
    else:
        controller = FlatPiController(double_pole=-rng.uniform(0.001, 0.05), model=plant)

    if rng.random() < 0.5:
        t_ext = ConstantTExt(rng.uniform(-10.0, 15.0))
    else:
        t_ext = SinusoidTExt(mean=rng.uniform(-5.0, 10.0), amplitude=rng.uniform(1.0, 8.0),
                             period=rng.uniform(3600.0, 172800.0), phase=rng.uniform(-math.pi, math.pi))

    return Scenario(
        horizon=horizon,
        dt=dt,
        plant=plant,
        initial=ThermalState(rng.uniform(10.0, 22.0), rng.uniform(5.0, 20.0)),
        schedule=schedule,
        reference_mode=rng.choice(("step", "smooth", "ramp")),
        controller=controller,
        actuator=ActuatorMode(mode=rng.choice((HEATING_ONLY, HEATING_AND_COOLING)),
                              q_max=rng.uniform(500.0, 5000.0)),
        t_ext=t_ext,
        noise_std=rng.uniform(0.0, 0.2),
        rng_seed=rng.randrange(0, 2**32),
    )


def test_a8_determinism_and_formats(capsys, tmp_path, base):
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_timeseries_csv(str(path_a), run(base))
    write_timeseries_csv(str(path_b), run(base))
    identical = path_a.read_bytes() == path_b.read_bytes()
    header = path_a.read_text(encoding="utf-8").splitlines()[0]

    rng = random.Random(8)
    round_trip_failures = 0
    for _ in range(20):
        sc = _random_scenario(rng)
        if parse_scenario(serialize_scenario(sc)) != sc:
            round_trip_failures += 1

    header_exact = header == "t,t_int_true,t_int_measured,t_wall,t_ext,y_star,y_star_dot,q_command,q_applied,f_estim"
    ok = identical and header_exact and round_trip_failures == 0
    _report(capsys, "A8 determinism and formats", ok,
            f"byte-identical CSV: {identical}, header exact: {header_exact}, "
            f"config round-trip failures: {round_trip_failures}/20")
    assert identical
    assert header_exact
    assert round_trip_failures == 0

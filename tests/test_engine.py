"""Tests for the closed-loop engine: tick order, determinism, metrics,
transition bookkeeping and the robustness sweep."""

import math
from dataclasses import replace

import pytest

from heatloop.controllers import FlatPController, PiController, clamp
from heatloop.engine import (
    DEFAULT_SWEEP_FACTORS,
    ConstantTExt,
    Metrics,
    Scenario,
    SimRecord,
    SimulationError,
    SinusoidTExt,
    TableTExt,
    compute_metrics,
    default_scenario,
    run,
    sweep,
    transition_spans,
)
from heatloop.plant import NOMINAL, ThermalState, derivatives
from heatloop.reference import Schedule


FLAT_SCHEDULE = Schedule(segments=((0.0, 16.0),), transition_duration=3600.0)


def equilibrium_scenario(**replacements) -> Scenario:
    # Indoor, wall and outdoor all at 16 with a constant 16 setpoint is a
    # true fixed point of the plant under zero heat, so any controller
    # that commands q = 0 there holds the state exactly.
    base = default_scenario(
        schedule=FLAT_SCHEDULE,
        t_ext=ConstantTExt(16.0),
        initial=ThermalState(16.0, 16.0),
        noise_std=0.0,
    )
    return replace(base, **replacements)


# ---------------------------------------------------------------------------
# outdoor temperature profiles


def test_constant_profile():
    prof = ConstantTExt(3.5)
    assert prof.at(0.0) == 3.5
    assert prof.at(1e6) == 3.5


def test_sinusoid_profile_daily_extremes():
    prof = SinusoidTExt()
    # phase -pi puts the minimum at 06:00 and the maximum at 18:00
    assert prof.at(0.0) == pytest.approx(5.0, abs=1e-9)
    assert prof.at(21600.0) == pytest.approx(0.0, abs=1e-9)
    assert prof.at(64800.0) == pytest.approx(10.0, abs=1e-9)
    assert prof.at(86400.0) == pytest.approx(5.0, abs=1e-9)


def test_table_profile_interpolates_and_clamps():
    prof = TableTExt(times=(0.0, 100.0, 300.0), temps=(2.0, 6.0, 0.0))
    assert prof.at(0.0) == pytest.approx(2.0)
    assert prof.at(50.0) == pytest.approx(4.0)
    assert prof.at(200.0) == pytest.approx(3.0)
    assert prof.at(-10.0) == pytest.approx(2.0)   # held before the table
    assert prof.at(1000.0) == pytest.approx(0.0)  # held after the table


def test_table_profile_validation():
    with pytest.raises(ValueError, match="two"):
        TableTExt(times=(0.0,), temps=(1.0,))
    with pytest.raises(ValueError, match="increasing"):
        TableTExt(times=(0.0, 0.0), temps=(1.0, 2.0))
    with pytest.raises(ValueError, match="two"):
        TableTExt(times=(0.0, 1.0), temps=(1.0,))


# ---------------------------------------------------------------------------
# scenario validation


def test_default_scenario_is_valid():
    sc = default_scenario()
    sc.validate()
    assert sc.num_ticks == 2880


@pytest.mark.parametrize(
    "replacements, match",
    [
        ({"horizon": -1.0}, "horizon"),
        ({"horizon": float("nan")}, "horizon"),
        ({"dt": 0.0}, "dt"),
        ({"dt": 7.0}, "divide"),
        ({"noise_std": -0.1}, "noise_std"),
        ({"reference_mode": "cubic"}, "reference_mode"),
        ({"initial": ThermalState(float("nan"), 14.0)}, "initial"),
        ({"rng_seed": 1.5}, "rng_seed"),
    ],
)
def test_scenario_validation_rejects(replacements, match):
    with pytest.raises(ValueError, match=match):
        default_scenario(**replacements).validate()


def test_scenario_rejects_schedule_starting_late():
    sched = Schedule(segments=((100.0, 16.0),), transition_duration=10.0)
    with pytest.raises(ValueError, match="start"):
        default_scenario(schedule=sched).validate()


def test_scenario_rejects_unknown_controller():
    with pytest.raises(ValueError, match="controller"):
        default_scenario(controller=object()).validate()


def test_run_validates_scenario():
    with pytest.raises(ValueError):
        run(default_scenario(dt=-60.0))


# ---------------------------------------------------------------------------
# determinism and causality


def test_runs_are_bit_identical():
    a = run(default_scenario())
    b = run(default_scenario())
    assert a == b


def test_noise_source_overrides_seeded_stream():
    quiet = run(default_scenario(), noise_source=lambda k: 0.0)
    noise_free = run(default_scenario(noise_std=0.0))
    assert quiet == noise_free


def test_measurement_perturbation_is_causal():
    base = run(default_scenario(noise_std=0.0))
    bumped = run(default_scenario(noise_std=0.0), noise_source=lambda k: 1.0 if k == 100 else 0.0)
    assert bumped[:100] == base[:100]
    # the bump enters the measurement at tick 100 but cannot touch the
    # true state until the following step
    assert bumped[100].t_int_true == base[100].t_int_true
    assert bumped[100].t_int_measured == pytest.approx(base[100].t_int_measured + 1.0)
    assert bumped[101].t_int_true != base[101].t_int_true


def test_records_carry_the_tick_grid():
    sc = default_scenario(horizon=600.0)
    recs = run(sc)
    assert len(recs) == 10
    assert [r.t for r in recs] == [60.0 * k for k in range(10)]
    for r in recs:
        assert r.t_ext == pytest.approx(sc.t_ext.at(r.t), abs=1e-12)


def test_non_finite_measurement_aborts_with_tick():
    with pytest.raises(SimulationError, match="tick 3"):
        run(default_scenario(noise_std=0.0), noise_source=lambda k: float("nan") if k == 3 else 0.0)


# ---------------------------------------------------------------------------
# equilibrium behaviour per controller


def test_ip_holds_equilibrium_exactly():
    recs = run(equilibrium_scenario())
    assert all(r.t_int_true == 16.0 for r in recs)
    assert all(r.q_applied == 0.0 for r in recs)


def test_pi_holds_equilibrium_exactly():
    recs = run(equilibrium_scenario(controller=PiController()))
    assert all(r.t_int_true == 16.0 for r in recs)
    assert all(r.q_applied == 0.0 for r in recs)


def test_flat_p_equilibrium_offset_matches_static_analysis():
    # The feedforward keeps pushing (k_c + k_f) * y_star at equilibrium,
    # so the loop settles where the P corrector balances the plant's
    # static response: e_ss = q_ff / (|k_p| + 1/g) with g the K-per-watt
    # static gain.  All three numbers are hand-derived from the nominal
    # parameters.
    recs = run(equilibrium_scenario(controller=FlatPController()))
    q_ff = (1.4 + 0.004) * 16.0
    assert recs[0].q_command == pytest.approx(q_ff, abs=1e-12)

    g = 256.0 / 16.424                      # Cramer elimination of the wall node
    k_mag = 1400.0 * 0.01 - (1.4 + 0.004)   # magnitude of the placed gain
    e_ss = q_ff / (k_mag + 1.0 / g)
    last = recs[-1]
    assert last.t_int_true - 16.0 == pytest.approx(e_ss, abs=1e-9)
    assert last.q_applied == pytest.approx(e_ss / g, abs=1e-9)
    assert abs(e_ss) > 0.2                  # the offset is not a rounding artifact


# ---------------------------------------------------------------------------
# tracking quality of the frozen reference scenario


def test_noise_free_tracking_metrics():
    m = compute_metrics(run(default_scenario(noise_std=0.0)))
    assert m.rmse == pytest.approx(0.0455292104, abs=1e-6)
    assert m.max_abs_error == pytest.approx(0.2549653230, abs=1e-6)
    assert m.cooling_energy > 0.0       # default actuator may cool
    assert m.saturation_fraction == 0.0  # +/-2000 W limits never bind here


def test_settling_stays_inside_transition_windows():
    sc = default_scenario()
    recs = run(sc)
    spans = transition_spans(sc.schedule)
    boundaries = [start for start, _ in spans] + [sc.horizon]
    D = sc.schedule.transition_duration
    mults = []
    for i, (t1, _) in enumerate(spans):
        seg = [r for r in recs if t1 <= r.t < boundaries[i + 1]]
        late = [r.t for r in seg if abs(r.t_int_true - r.y_star) >= 0.1]
        mults.append((late[-1] - t1) / D + sc.dt / D if late else 0.0)
    assert len(mults) == 4
    assert max(mults) < 4.0
    # regression pin on the slowest transition (second evening ramp-down)
    assert max(mults) == pytest.approx(1.98, abs=0.3)


def test_f_estimate_tracks_the_true_disturbance():
    # Noise free, F_true at tick k is the true indoor derivative under
    # the previously applied heat minus alpha * u_prev; the residual is
    # then just the lag of the windowed slope fit.
    recs = run(default_scenario(noise_std=0.0))
    worst = 0.0
    for k, (prev, rec) in enumerate(zip(recs, recs[1:]), start=1):
        if k < 10:
            continue    # skip estimator warm-up
        assert rec.f_estim is not None
        state = ThermalState(rec.t_int_true, rec.t_wall)
        f_true = derivatives(state, prev.q_applied, rec.t_ext)[0] - 0.5 * prev.q_applied
        worst = max(worst, abs(rec.f_estim - f_true))
    assert worst < 5e-4     # measured 1.59e-4 on the frozen scenario


def test_f_estim_warm_up_and_absence():
    recs = run(default_scenario(horizon=600.0))
    assert [r.f_estim for r in recs[:4]] == [0.0, 0.0, 0.0, 0.0]
    assert all(r.f_estim != 0.0 for r in recs[4:])
    pi_recs = run(default_scenario(horizon=600.0, controller=PiController()))
    assert all(r.f_estim is None for r in pi_recs)


# ---------------------------------------------------------------------------
# metrics


def synthetic_records(qs, e=0.0, q_cmds=None, dt=60.0):
    if q_cmds is None:
        q_cmds = qs
    return [
        SimRecord(t=k * dt, t_int_true=16.0 + e, t_int_measured=16.0 + e, t_wall=14.0,
                  t_ext=5.0, y_star=16.0, y_star_dot=0.0, q_command=qc, q_applied=q,
                  f_estim=None)
        for k, (q, qc) in enumerate(zip(qs, q_cmds))
    ]


def test_metrics_constant_error():
    m = compute_metrics(synthetic_records([0.0] * 10, e=0.5))
    assert m.rmse == pytest.approx(0.5, abs=1e-12)
    assert m.max_abs_error == pytest.approx(0.5, abs=1e-12)


def test_metrics_energy_rectangle_rule():
    # 100 W held for one hour on a 60 s grid
    m = compute_metrics(synthetic_records([100.0] * 60))
    assert m.energy == pytest.approx(360000.0, abs=1e-9)
    assert m.cooling_energy == 0.0
    assert m.control_variation == 0.0
    assert m.saturation_fraction == 0.0


def test_metrics_split_heating_and_cooling():
    qs = [100.0, -100.0] * 5
    m = compute_metrics(synthetic_records(qs))
    assert m.energy == pytest.approx(60.0 * 500.0, abs=1e-9)
    assert m.cooling_energy == pytest.approx(60.0 * 500.0, abs=1e-9)
    assert m.control_variation == pytest.approx(9 * 200.0, abs=1e-9)


def test_metrics_saturation_fraction():
    qs = [0.0, 0.0, 0.0, 0.0]
    cmds = [0.0, -5.0, -5.0, 0.0]
    m = compute_metrics(synthetic_records(qs, q_cmds=cmds))
    assert m.saturation_fraction == pytest.approx(0.5, abs=1e-12)


def test_metrics_need_two_records():
    with pytest.raises(ValueError, match="two"):
        compute_metrics(synthetic_records([0.0]))


def test_metrics_as_dict_round_trip():
    m = compute_metrics(synthetic_records([100.0] * 60))
    d = m.as_dict()
    assert tuple(d) == Metrics.FIELDS
    assert d["energy"] == m.energy


def test_energy_accounting_identity():
    from heatloop.controllers import HEATING_AND_COOLING, ActuatorMode

    sc = default_scenario(actuator=ActuatorMode(mode=HEATING_AND_COOLING))
    recs = run(sc)
    m = compute_metrics(recs)
    total = sc.dt * sum(abs(r.q_applied) for r in recs)
    assert m.energy + m.cooling_energy == pytest.approx(total, rel=1e-12)
    assert m.cooling_energy > 0.0   # this scenario does cool


def test_heating_only_clamp_consistency():
    from heatloop.controllers import HEATING_ONLY, ActuatorMode

    sc = default_scenario(actuator=ActuatorMode(mode=HEATING_ONLY))
    recs = run(sc)
    assert all(r.q_applied >= 0.0 for r in recs)
    for r in recs:
        assert r.q_applied == clamp(r.q_command, sc.actuator)
    m = compute_metrics(recs)
    clipped = sum(1 for r in recs if r.q_command != r.q_applied)
    assert m.saturation_fraction == pytest.approx(clipped / len(recs), abs=1e-12)
    assert m.saturation_fraction > 0.0  # ramp-downs do ask for cooling


# ---------------------------------------------------------------------------
# transition spans and the robustness sweep


def test_transition_spans_default_schedule():
    spans = transition_spans(default_scenario().schedule)
    assert spans == [
        (25200.0, 28800.0),
        (79200.0, 82800.0),
        (111600.0, 115200.0),
        (165600.0, 169200.0),
    ]


def test_transition_spans_window_multiplier():
    spans = transition_spans(default_scenario().schedule, window_mult=4.0)
    assert spans[0] == (25200.0, 25200.0 + 4.0 * 3600.0)


def test_transition_spans_skip_repeated_setpoint():
    sched = Schedule(segments=((0.0, 16.0), (3600.0, 16.0), (7200.0, 19.0)), transition_duration=600.0)
    assert transition_spans(sched) == [(7200.0, 7800.0)]


def test_sweep_factor_one_reproduces_nominal_run():
    sc = default_scenario(horizon=7200.0)
    rows = sweep(sc, factors=(1.0,))
    assert len(rows) == 1
    factor, metrics = rows[0]
    assert factor == 1.0
    assert metrics == compute_metrics(run(sc))


def test_sweep_covers_default_factor_grid():
    sc = default_scenario(horizon=3600.0)
    rows = sweep(sc)
    assert [f for f, _ in rows] == list(DEFAULT_SWEEP_FACTORS)


def test_sweep_perturbs_plant_but_not_controller_model():
    # The flat controller must keep believing in the nominal parameters
    # while the true plant is scaled; that mismatch is the whole point.
    sc = default_scenario(horizon=43200.0, controller=FlatPController(), noise_std=0.0)
    rows = sweep(sc, factors=(2.0,))
    _, swept = rows[0]
    mismatched = replace(sc, plant=sc.plant.scaled(2.0))
    assert swept == compute_metrics(run(mismatched))
    assert mismatched.controller.model == NOMINAL
    # a controller re-tuned to the scaled plant behaves differently
    retuned = replace(mismatched, controller=FlatPController(model=sc.plant.scaled(2.0)))
    assert compute_metrics(run(retuned)) != swept


def test_sweep_ip_rmse_stays_bounded():
    rows = sweep(default_scenario())
    for factor, metrics in rows:
        assert metrics.rmse < 0.3, f"factor {factor}: rmse {metrics.rmse}"


def test_sweep_flat_p_error_shrinks_with_heavier_plant():
    # Scaling all five parameters up scales the static K-per-watt gain
    # down, and with it the unrejected-load offset that dominates the
    # flat+P error; so, counterintuitively, this controller's rmse falls
    # as the plant drifts heavier.  Frozen endpoints guard the shape.
    rows = sweep(default_scenario(controller=FlatPController()))
    rmses = [m.rmse for _, m in rows]
    assert all(a > b for a, b in zip(rmses, rmses[1:]))
    assert rmses[0] == pytest.approx(1.9616, abs=2e-3)
    assert rmses[-1] == pytest.approx(1.8480, abs=2e-3)

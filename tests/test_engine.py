"""Tests for the closed-loop engine: tick order, determinism, metrics,
transition bookkeeping and the robustness sweep."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from heatloop.controllers import FlatPController, PiController, clamp
from heatloop.engine import (
    DEFAULT_SWEEP_FACTORS,
    ConstantTExt,
    Metrics,
    Scenario,
    SimulationError,
    SinusoidTExt,
    TableTExt,
    Trace,
    compute_metrics,
    default_scenario,
    run,
    sweep,
    transition_spans,
)
from heatloop.plant import NOMINAL, ThermalState, derivatives
from heatloop.reference import Schedule


FLAT_SCHEDULE = Schedule(segments=((0.0, 16.0),), transition_duration=3600.0)


def same_columns(a: Trace, b: Trace, ticks: slice = slice(None)) -> bool:
    """Every column equal over ``ticks``, f_estim both None or equal."""
    return all(
        (x is None and y is None) or (x is not None and y is not None and np.array_equal(x[ticks], y[ticks]))
        for x, y in zip(a, b)
    )


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
        ({"horizon": 60.0}, "at least 2"),
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
    assert same_columns(a, b)


def test_noise_source_overrides_seeded_stream():
    quiet = run(default_scenario(), noise_source=np.zeros(default_scenario().num_ticks))
    noise_free = run(default_scenario(noise_std=0.0))
    assert same_columns(quiet, noise_free)


def test_measurement_perturbation_is_causal():
    base = run(default_scenario(noise_std=0.0))
    bump = np.zeros(default_scenario().num_ticks)
    bump[100] = 1.0
    bumped = run(default_scenario(noise_std=0.0), noise_source=bump)
    assert same_columns(bumped, base, slice(100))
    # the bump enters the measurement at tick 100 but cannot touch the
    # true state until the following step
    assert bumped.t_int_true[100] == base.t_int_true[100]
    assert bumped.t_int_measured[100] == pytest.approx(base.t_int_measured[100] + 1.0)
    assert bumped.t_int_true[101] != base.t_int_true[101]


def test_records_carry_the_tick_grid():
    sc = default_scenario(horizon=600.0)
    trace = run(sc)
    assert len(trace.t) == 10
    assert trace.t.tolist() == [60.0 * k for k in range(10)]
    for t, t_ext in zip(trace.t.tolist(), trace.t_ext.tolist()):
        assert t_ext == pytest.approx(sc.t_ext.at(t), abs=1e-12)


def test_non_finite_measurement_aborts_with_tick():
    noise = np.zeros(default_scenario().num_ticks)
    noise[3] = float("nan")
    with pytest.raises(SimulationError, match="tick 3"):
        run(default_scenario(noise_std=0.0), noise_source=noise)


def test_noise_source_of_the_wrong_length_is_rejected():
    with pytest.raises(ValueError, match=r"noise_source has 2879 values, the run has 2880 ticks"):
        run(default_scenario(), noise_source=np.zeros(2879))


# ---------------------------------------------------------------------------
# equilibrium behaviour per controller


def test_ip_holds_equilibrium_exactly():
    trace = run(equilibrium_scenario())
    assert (trace.t_int_true == 16.0).all()
    assert (trace.q_applied == 0.0).all()


def test_pi_holds_equilibrium_exactly():
    trace = run(equilibrium_scenario(controller=PiController()))
    assert (trace.t_int_true == 16.0).all()
    assert (trace.q_applied == 0.0).all()


def test_flat_p_equilibrium_offset_matches_static_analysis():
    # The feedforward keeps pushing (k_c + k_f) * y_star at equilibrium,
    # so the loop settles where the P corrector balances the plant's
    # static response: e_ss = q_ff / (|k_p| + 1/g) with g the K-per-watt
    # static gain.  All three numbers are hand-derived from the nominal
    # parameters.
    trace = run(equilibrium_scenario(controller=FlatPController()))
    q_ff = (1.4 + 0.004) * 16.0
    assert trace.q_command[0] == pytest.approx(q_ff, abs=1e-12)

    g = 256.0 / 16.424                      # Cramer elimination of the wall node
    k_mag = 1400.0 * 0.01 - (1.4 + 0.004)   # magnitude of the placed gain
    e_ss = q_ff / (k_mag + 1.0 / g)
    assert trace.t_int_true[-1] - 16.0 == pytest.approx(e_ss, abs=1e-9)
    assert trace.q_applied[-1] == pytest.approx(e_ss / g, abs=1e-9)
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
    trace = run(sc)
    spans = transition_spans(sc.schedule)
    boundaries = [start for start, _ in spans] + [sc.horizon]
    D = sc.schedule.transition_duration
    far = np.abs(trace.t_int_true - trace.y_star) >= 0.1
    mults = []
    for i, (t1, _) in enumerate(spans):
        late = trace.t[far & (t1 <= trace.t) & (trace.t < boundaries[i + 1])]
        mults.append((late[-1] - t1) / D + sc.dt / D if len(late) else 0.0)
    assert len(mults) == 4
    assert max(mults) < 4.0
    # regression pin on the slowest transition (second evening ramp-down)
    assert max(mults) == pytest.approx(1.98, abs=0.3)


def test_f_estimate_tracks_the_true_disturbance():
    # Noise free, F_true at tick k is the true indoor derivative under
    # the previously applied heat minus alpha * u_prev; the residual is
    # then just the lag of the windowed slope fit.
    trace = run(default_scenario(noise_std=0.0))
    assert trace.f_estim is not None
    t_int, t_wall, t_ext, q, f_estim = (c.tolist() for c in (
        trace.t_int_true, trace.t_wall, trace.t_ext, trace.q_applied, trace.f_estim))
    worst = 0.0
    for k in range(10, len(t_int)):    # skip estimator warm-up
        f_true = derivatives(ThermalState(t_int[k], t_wall[k]), q[k - 1], t_ext[k])[0] - 0.5 * q[k - 1]
        worst = max(worst, abs(f_estim[k] - f_true))
    assert worst < 5e-4     # measured 1.59e-4 on the frozen scenario


def test_f_estim_warm_up_and_absence():
    trace = run(default_scenario(horizon=600.0))
    assert trace.f_estim[:4].tolist() == [0.0, 0.0, 0.0, 0.0]
    assert (trace.f_estim[4:] != 0.0).all()
    assert run(default_scenario(horizon=600.0, controller=PiController())).f_estim is None


# ---------------------------------------------------------------------------
# metrics


def synthetic_records(qs, e=0.0, q_cmds=None, dt=60.0):
    if q_cmds is None:
        q_cmds = qs
    n = len(qs)
    return Trace(t=dt * np.arange(n), t_int_true=np.full(n, 16.0 + e), t_int_measured=np.full(n, 16.0 + e),
                 t_wall=np.full(n, 14.0), t_ext=np.full(n, 5.0), y_star=np.full(n, 16.0),
                 y_star_dot=np.zeros(n), q_command=np.array(q_cmds, dtype=float),
                 q_applied=np.array(qs, dtype=float), f_estim=None)


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


def test_metrics_that_overflow_are_named_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationError, match="rmse"):
            compute_metrics(synthetic_records([0.0] * 10, e=1e300))


def test_metrics_as_dict_round_trip():
    m = compute_metrics(synthetic_records([100.0] * 60))
    d = m.as_dict()
    assert tuple(d) == Metrics.FIELDS
    assert d["energy"] == m.energy


def test_energy_accounting_identity():
    from heatloop.controllers import HEATING_AND_COOLING, ActuatorMode

    sc = default_scenario(actuator=ActuatorMode(mode=HEATING_AND_COOLING))
    trace = run(sc)
    m = compute_metrics(trace)
    total = sc.dt * sum(abs(q) for q in trace.q_applied.tolist())
    assert m.energy + m.cooling_energy == pytest.approx(total, rel=1e-12)
    assert m.cooling_energy > 0.0   # this scenario does cool


def test_heating_only_clamp_consistency():
    from heatloop.controllers import HEATING_ONLY, ActuatorMode

    sc = default_scenario(actuator=ActuatorMode(mode=HEATING_ONLY))
    trace = run(sc)
    assert (trace.q_applied >= 0.0).all()
    for q_applied, q_command in zip(trace.q_applied.tolist(), trace.q_command.tolist()):
        assert q_applied == clamp(q_command, sc.actuator)
    m = compute_metrics(trace)
    clipped = int(np.sum(trace.q_command != trace.q_applied))
    assert m.saturation_fraction == pytest.approx(clipped / len(trace.t), abs=1e-12)
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

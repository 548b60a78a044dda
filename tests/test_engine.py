"""Tests for the closed-loop engine: tick order, determinism, metrics,
transition bookkeeping and the robustness sweep."""

import math
import os
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatloop.controllers import (
    CONTROLLERS,
    HEATING_AND_COOLING,
    HEATING_ONLY,
    ActuatorMode,
    FlatPController,
    IpController,
    PiController,
    default_controller,
    flat_feedforward,
    ip_control,
    pi_control,
)
from heatloop.engine import (
    DEFAULT_SWEEP_FACTORS,
    ConstantTExt,
    Metrics,
    Scenario,
    SimulationError,
    SinusoidTExt,
    TableTExt,
    Trace,
    _fill_t_ext,
    compute_metrics,
    default_scenario,
    run,
    spread,
    sweep,
    transition_spans,
)
from heatloop.estimation import estimate_F
from heatloop.plant import NOMINAL, ThermalState, rk4_map
from heatloop.reference import Schedule
from oracles import REFERENCE_GENERATORS, SlopeEstimator, derivatives, gaussian, map_step


FLAT_SCHEDULE = Schedule(segments=((0.0, 16.0),), transition_duration=3600.0)


def same_columns(a: Trace, b: Trace, ticks: slice = slice(None)) -> bool:
    """Every column equal over ``ticks``, f_estim both None or equal."""
    return all(
        (x is None and y is None) or (x is not None and y is not None and np.array_equal(x[ticks], y[ticks]))
        for x, y in zip(a, b)
    )


def same_bits(a: Trace, b: Trace) -> bool:
    """Every column equal bit for bit (the sign of zero too), f_estim
    both None or equal."""
    return all(
        (x is None and y is None) or (x is not None and y is not None and x.tobytes() == y.tobytes())
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


@st.composite
def tables_and_times(draw):
    """A table and an ascending grid of times before, inside and after
    it, on its knots and off them."""
    value = st.one_of(st.floats(-20.0, 40.0), st.sampled_from([0.0, -0.0]))
    times = sorted(set(draw(st.lists(st.floats(-1e5, 1e5), min_size=2, max_size=8))))
    if len(times) < 2:
        times = [0.0, 3600.0]
    profile = TableTExt(tuple(times), tuple(draw(value) for _ in times))
    grid = draw(st.lists(st.one_of(
        st.sampled_from(times),
        st.floats(times[0], times[-1]),
        st.floats(-2e5, times[0]),
        st.floats(times[-1], 2e5),
    ), max_size=40))
    return profile, np.array(sorted(grid))


@settings(deadline=None, max_examples=100)
@given(tables_and_times())
def test_table_column_equals_at_every_tick(table_and_times):
    profile, t = table_and_times
    out = np.empty_like(t)
    _fill_t_ext(profile, t, out)
    assert out.tobytes() == np.array([profile.at(x) for x in t.tolist()]).tobytes()


# ---------------------------------------------------------------------------
# scenario validation


def test_default_scenario_is_valid():
    sc = default_scenario()
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
        ({"dt": -60.0}, "dt"),
        # the default plant's fast pole makes RK4 diverge past 1688.76 s
        ({"dt": 1800.0}, r"dt=1800.0 is past the RK4 stability limit of 1688.76 s"),
        ({"plant": replace(NOMINAL, c_a=1e-300)}, "dt=60.0 is past the RK4 stability limit"),
        # k_c / c_a overflows, so the fast rate is infinite
        ({"plant": replace(NOMINAL, c_a=1e-310)}, "dt=60.0 is past the RK4 stability limit"),
    ],
)
def test_scenario_validation_rejects(replacements, match):
    with pytest.raises(ValueError, match=match):
        default_scenario(**replacements)


def test_scenario_rejects_schedule_starting_late():
    sched = Schedule(segments=((100.0, 16.0),), transition_duration=10.0)
    with pytest.raises(ValueError, match="start"):
        default_scenario(schedule=sched)


def test_scenario_rejects_unknown_controller():
    with pytest.raises(ValueError, match="controller"):
        default_scenario(controller=object())


def test_replace_checks_the_scenario_it_builds():
    with pytest.raises(ValueError, match="divide"):
        replace(default_scenario(), dt=7.0)


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
    lo, hi = sc.actuator.bounds
    for q_applied, q_command in zip(trace.q_applied.tolist(), trace.q_command.tolist()):
        assert q_applied == min(max(q_command, lo), hi)
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


# ---------------------------------------------------------------------------
# spreading independent runs over the CPUs


@pytest.fixture
def no_fork(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.parametrize("count", [0, 1, 2, 3, 20])
def test_spread_equals_the_list_comprehension(two_cpus, count, no_child_left):
    items = [float(i) / 3 for i in range(count)]
    assert spread(lambda x: (x, x * x), items) == [(x, x * x) for x in items]
    assert no_child_left()


def test_spread_runs_every_other_item_in_a_child(two_cpus, no_child_left):
    parent = os.getpid()
    pids = spread(lambda x: os.getpid(), range(5))
    assert pids[0::2] == [parent] * 3
    assert len(set(pids[1::2])) == 1 and parent not in pids[1::2]
    assert no_child_left()


@pytest.mark.parametrize("failing, raised", [
    ({3: ValueError, 4: SimulationError}, (ValueError, "item 3")),       # a child's share fails first
    ({2: SimulationError, 5: ValueError}, (SimulationError, "item 2")),  # the caller's share fails first
    ({0: ValueError, 1: SimulationError}, (ValueError, "item 0")),
])
def test_spread_reraises_the_lowest_failing_item(two_cpus, failing, raised, no_child_left):
    def fn(x):
        if x in failing:
            raise failing[x](f"item {x}")
        return x

    with pytest.raises(raised[0], match=f"^{raised[1]}$"):
        spread(fn, range(8))
    assert no_child_left()


def test_spread_names_a_child_that_ends_without_a_result(two_cpus, no_child_left):
    # the child's share is missing, so the caller runs the plain loop
    parent = os.getpid()
    assert spread(lambda x: x if os.getpid() == parent else os._exit(7), range(4)) == [0, 1, 2, 3]
    assert no_child_left()


def test_spread_reports_a_result_that_cannot_be_sent(two_cpus, no_child_left):
    # a closure cannot be pickled, so the child exits 1 and the plain loop runs
    assert [f() for f in spread(lambda x: (lambda: x), range(4))] == [0, 1, 2, 3]
    assert no_child_left()


def test_spread_on_one_cpu_never_forks(monkeypatch, no_fork):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert spread(lambda x: x + 1, range(20)) == list(range(1, 21))


def test_spread_without_affinity_never_forks(monkeypatch, no_fork):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert spread(lambda x: x + 1, range(20)) == list(range(1, 21))


def test_sweep_spread_equals_the_plain_runs(two_cpus, no_child_left):
    sc = default_scenario(horizon=7200.0)
    assert sweep(sc) == [(f, compute_metrics(run(replace(sc, plant=sc.plant.scaled(f))))) for f in DEFAULT_SWEEP_FACTORS]
    assert no_child_left()


# ---------------------------------------------------------------------------
# the tick loop against its per-tick oracle


def reference_run(sc: Scenario) -> Trace:
    """The run composed tick by tick from the scalar pieces: the noise
    draw, ``t_ext.at``, the reference generator, SlopeEstimator with
    estimate_F and ip_control, or flat_feedforward plus pi_control, the
    clamp to ActuatorMode.bounds, the integral frozen while the clamp is
    active, and rk4_map's coefficients applied to a ThermalState."""
    cfg, dt = sc.controller, sc.dt
    ip = isinstance(cfg, IpController)
    if ip:
        est, u_prev = SlopeEstimator(cfg.window_len, dt), 0.0
    else:
        gains = cfg if isinstance(cfg, PiController) else cfg.corrector()
        model, e_integral = getattr(cfg, "model", None), 0.0
    generator = REFERENCE_GENERATORS[sc.reference_mode]
    lo, hi = sc.actuator.bounds
    step = rk4_map(sc.plant, dt)
    state, rows = sc.initial, []
    for k in range(sc.num_ticks):
        t = k * dt
        t_ext = sc.t_ext.at(t)
        y_star, y_star_dot = generator(sc.schedule, t)
        noise = sc.noise_std * gaussian(sc.rng_seed, k) if sc.noise_std > 0.0 else 0.0
        y_meas = state.t_int + noise
        e = y_meas - y_star
        if ip:
            est.push(y_meas)
            f_estim = 0.0 if est.slope is None else estimate_F(est.slope, u_prev, cfg.alpha)
            q_command = ip_control(f_estim, y_star_dot, e, cfg)
        else:
            candidate = e_integral + e * dt
            q_command = pi_control(e, candidate, gains)
            if model is not None:
                q_command = flat_feedforward(y_star, y_star_dot, model) + q_command
            f_estim = None
        q_applied = min(max(q_command, lo), hi)
        if ip:
            u_prev = q_applied
        elif q_applied == q_command:
            e_integral = candidate
        rows.append((t, state.t_int, y_meas, state.t_wall, t_ext, y_star, y_star_dot, q_command, q_applied, f_estim))
        state = map_step(state, q_applied, t_ext, step)
    columns = [np.array(column) for column in zip(*rows)]
    return Trace(*columns[:-1], columns[-1] if ip else None)


@st.composite
def oracle_scenarios(draw):
    n = draw(st.integers(2, 240))
    horizon = 60.0 * n
    # one setpoint change inside the horizon, so the blends are exercised
    change = 60.0 * draw(st.integers(1, n))
    schedule = Schedule(segments=((0.0, draw(st.floats(14.0, 18.0))), (change, draw(st.floats(14.0, 22.0)))),
                        transition_duration=draw(st.floats(60.0, 0.9 * change)) if change > 60.0 else 30.0)
    t_ext = draw(st.sampled_from(["constant", "sinusoid", "table"]))
    if t_ext == "constant":
        t_ext = ConstantTExt(draw(st.floats(-10.0, 20.0)))
    elif t_ext == "sinusoid":
        t_ext = SinusoidTExt(draw(st.floats(-5.0, 15.0)), draw(st.floats(0.0, 10.0)),
                             draw(st.floats(600.0, 2e5)), draw(st.floats(-4.0, 4.0)))
    else:
        times = sorted(set(draw(st.lists(st.floats(-1e4, 2e4), min_size=2, max_size=6))))
        if len(times) < 2:
            times = [0.0, 1e4]
        t_ext = TableTExt(tuple(times), tuple(draw(st.floats(-10.0, 20.0)) for _ in times))
    plant = NOMINAL.scaled(draw(st.sampled_from([0.5, 0.75, 1.0, 1.5, 2.0])))
    kind = draw(st.sampled_from(sorted(CONTROLLERS)))
    if kind == "ip":
        controller = IpController(window_len=draw(st.one_of(st.integers(2, 12), st.just(n + 1))))
    else:
        controller = default_controller(kind, NOMINAL)
    return default_scenario(
        horizon=horizon,
        noise_std=draw(st.sampled_from([0.0, 0.05, 0.5])),
        rng_seed=draw(st.integers(0, 2**64)),
        plant=plant,
        schedule=schedule,
        reference_mode=draw(st.sampled_from(sorted(REFERENCE_GENERATORS))),
        controller=controller,
        actuator=ActuatorMode(mode=draw(st.sampled_from([HEATING_ONLY, HEATING_AND_COOLING]))),
        t_ext=t_ext,
    )


@settings(deadline=None, max_examples=150)
@given(oracle_scenarios())
def test_run_equals_the_per_tick_oracle(sc):
    assert same_bits(run(sc), reference_run(sc))


def test_oracle_covers_the_default_and_equilibrium_scenarios_of_each_kind():
    # at the equilibrium e is exactly 0, so PI commands -0.0 (k_p < 0):
    # the sign of zero shows whether the zero feedforward adds nothing
    for kind in sorted(CONTROLLERS):
        controller = default_controller(kind, NOMINAL)
        for sc in (default_scenario(controller=controller), equilibrium_scenario(controller=controller)):
            assert same_bits(run(sc), reference_run(sc)), (kind, sc.t_ext)


# a run holds its ten Trace rows, and filling the inputs keeps at most two
# more columns alive at once; 280,576 B on the default scenario
PEAK_BOUND = 12 * 8 * default_scenario().num_ticks + 4096


@pytest.mark.parametrize("t_ext", [SinusoidTExt(), ConstantTExt(), TableTExt((0.0, 1e5), (1.0, 9.0))],
                         ids=lambda profile: profile.kind)
@pytest.mark.parametrize("kind", sorted(CONTROLLERS))
def test_run_peak_memory_stays_within_twelve_columns(kind, t_ext):
    sc = default_scenario(controller=default_controller(kind, NOMINAL), t_ext=t_ext)
    run(sc)    # first-call setup is not the run's
    tracemalloc.start()
    try:
        run(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BOUND

"""Tests for the closed-loop engine: tick order, determinism, metrics,
transition bookkeeping and the robustness sweep."""

import math
import os
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatloop import engine
from heatloop.cli import comparison_scenarios
from heatloop.controllers import (
    CONTROLLERS,
    HEATING_AND_COOLING,
    HEATING_ONLY,
    ActuatorMode,
    FlatPController,
    FlatPiController,
    IpController,
    PiController,
    default_controller,
    flat_feedforward,
)
from heatloop.engine import (
    DEFAULT_INITIAL,
    DEFAULT_SWEEP_FACTORS,
    DEFAULT_T_EXT,
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
    measurement_noise,
    run,
    run_variants,
    spread,
    sweep,
    tick_columns,
    transition_spans,
)
from heatloop.plant import NOMINAL, ThermalParams, ThermalState, rk4_map, wall_equilibrium
from heatloop.reference import Schedule
from oracles import (
    REFERENCE_GENERATORS,
    SlopeEstimator,
    derivatives,
    estimate_F,
    gaussian,
    ip_control,
    map_step,
    pi_control,
    t_ext_at,
)


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
    assert t_ext_at(prof, 0.0) == 3.5
    assert t_ext_at(prof, 1e6) == 3.5


def test_sinusoid_profile_daily_extremes():
    prof = SinusoidTExt()
    # phase -pi puts the minimum at 06:00 and the maximum at 18:00
    assert t_ext_at(prof, 0.0) == pytest.approx(5.0, abs=1e-9)
    assert t_ext_at(prof, 21600.0) == pytest.approx(0.0, abs=1e-9)
    assert t_ext_at(prof, 64800.0) == pytest.approx(10.0, abs=1e-9)
    assert t_ext_at(prof, 86400.0) == pytest.approx(5.0, abs=1e-9)


def test_table_profile_interpolates_and_clamps():
    prof = TableTExt(times=(0.0, 100.0, 300.0), temps=(2.0, 6.0, 0.0))
    assert t_ext_at(prof, 0.0) == pytest.approx(2.0)
    assert t_ext_at(prof, 50.0) == pytest.approx(4.0)
    assert t_ext_at(prof, 200.0) == pytest.approx(3.0)
    assert t_ext_at(prof, -10.0) == pytest.approx(2.0)   # held before the table
    assert t_ext_at(prof, 1000.0) == pytest.approx(0.0)  # held after the table


def test_table_profile_validation():
    with pytest.raises(ValueError, match="two"):
        TableTExt(times=(0.0,), temps=(1.0,))
    with pytest.raises(ValueError, match="increasing"):
        TableTExt(times=(0.0, 0.0), temps=(1.0, 2.0))
    with pytest.raises(ValueError, match="two"):
        TableTExt(times=(0.0, 1.0), temps=(1.0,))


@pytest.mark.parametrize("build, message", [
    (lambda: ConstantTExt(math.nan), "ConstantTExt.value must be finite, got nan"),
    (lambda: SinusoidTExt(mean=math.inf), "SinusoidTExt.mean must be finite, got inf"),
    (lambda: SinusoidTExt(amplitude=-math.inf), "SinusoidTExt.amplitude must be finite, got -inf"),
    # an infinite period used to build a constant column
    (lambda: SinusoidTExt(period=math.inf), "SinusoidTExt.period must be finite, got inf"),
    (lambda: SinusoidTExt(phase=math.inf), "SinusoidTExt.phase must be finite, got inf"),
    (lambda: TableTExt((0.0, 3600.0), (5.0, math.nan)), r"TableTExt.temps\[1\] must be finite, got nan"),
    (lambda: TableTExt((math.nan, 3600.0), (5.0, 6.0)), r"TableTExt.times\[0\] must be finite, got nan"),
    (lambda: TableTExt((0.0, math.inf), (5.0, 6.0)), r"TableTExt.times\[1\] must be finite, got inf"),
], ids=["constant", "mean", "amplitude", "period", "phase", "table_temp", "table_nan_time", "table_inf_time"])
def test_profiles_refuse_non_finite_fields(build, message):
    # named when the profile is built, not as a non-finite plant state at tick 0
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


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
    assert out.tobytes() == np.array([t_ext_at(profile, x) for x in t.tolist()]).tobytes()


def test_numpy_sine_gives_the_bits_of_math_sine():
    # the sinusoid column takes np.sin where t_ext_at takes math.sin: on the
    # default grid's phases and on a million arguments spread over [-1e3, 1e3]
    sc = default_scenario()
    t = tick_columns(sc)[0]
    phases = np.multiply(t, 2.0 * math.pi) / sc.t_ext.period + sc.t_ext.phase
    wide = np.random.default_rng(0).uniform(-1e3, 1e3, 10**6)
    for x in (phases, wide):
        assert np.sin(x).tobytes() == np.array([math.sin(v) for v in x.tolist()]).tobytes()
    assert tick_columns(sc)[1].tobytes() == np.array([t_ext_at(sc.t_ext, v) for v in t.tolist()]).tobytes()


def test_default_initial_state_is_the_first_setpoint_over_a_wall_at_rest():
    # the column fill at t = 0 gives the per-instant profile's value, bit for bit
    assert DEFAULT_INITIAL.t_int == 16.0
    assert DEFAULT_INITIAL.t_wall == wall_equilibrium(16.0, t_ext_at(DEFAULT_T_EXT, 0.0))
    assert repr(DEFAULT_INITIAL.t_wall) == "15.527343749999998"


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
        # run's 6 x n float64 buffer would be past sys.maxsize bytes
        ({"horizon": 2.0 ** 58, "dt": 1.0}, r"gives 2\.882303761517117e\+17 ticks, too many to hold in memory"),
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


# look-alikes that a duck-typed check accepted, and values a part's own checks
# cannot read: each is refused with a ValueError naming the field when built
@pytest.mark.parametrize("field, build", [
    ("controller", lambda: default_scenario(controller=SimpleNamespace(kind="pi", k_p=-0.5, k_i=-0.01))),
    ("t_ext", lambda: default_scenario(t_ext=SimpleNamespace(kind="constant", value=5.0))),
    ("actuator", lambda: default_scenario(actuator="x")),
    ("plant", lambda: default_scenario(plant="nominal")),
    ("schedule", lambda: default_scenario(schedule=((0.0, 16.0),))),
    ("initial", lambda: default_scenario(initial=(16.0, 14.0))),
    ("window_len", lambda: IpController(window_len=5.0)),
    ("window_len", lambda: IpController(window_len=2.5)),
])
def test_parts_of_the_wrong_type_are_refused_when_built(field, build):
    with pytest.raises(ValueError, match=field):
        build()


# a float field that holds no number raised TypeError from the first check
# that read it, or built and failed in run
@pytest.mark.parametrize("build, message", [
    (lambda: default_scenario(horizon="600"), "Scenario.horizon must be a number, got '600'"),
    (lambda: default_scenario(noise_std=None), "Scenario.noise_std must be a number, got None"),
    (lambda: default_scenario(dt=[60.0]), r"Scenario.dt must be a number, got \[60.0\]"),
    (lambda: ThermalState("16", 14.0), "ThermalState.t_int must be a number, got '16'"),
    (lambda: ThermalParams(k_ext=None), "ThermalParams.k_ext must be a number, got None"),
    (lambda: ActuatorMode(q_max="1"), "ActuatorMode.q_max must be a number, got '1'"),
    (lambda: IpController(alpha="x"), "IpController.alpha must be a number, got 'x'"),
    (lambda: PiController(k_p="x"), "PiController.k_p must be a number, got 'x'"),
    (lambda: FlatPController(pole="x"), "FlatPController.pole must be a number, got 'x'"),
    (lambda: FlatPiController(double_pole=1j), r"FlatPiController.double_pole must be a number, got 1j"),
    (lambda: ConstantTExt("5"), "ConstantTExt.value must be a number, got '5'"),
], ids=["horizon", "noise_std", "dt", "state", "params", "actuator", "ip", "pi", "flat_p", "flat_pi", "t_ext"])
def test_float_fields_that_hold_no_number_are_refused_when_built(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_replace_checks_the_scenario_it_builds():
    with pytest.raises(ValueError, match="divide"):
        replace(default_scenario(), dt=7.0)


def test_a_scenario_just_inside_numpys_largest_array_builds():
    # built only, never run: its arrays fit numpy, not any machine
    assert Scenario(horizon=2.0 ** 57, dt=1.0).num_ticks == 2 ** 57


_TOO_LONG_FOR_MEMORY = {
    "run": lambda sc: run(sc),
    "run_variants": lambda sc: run_variants([("a", sc)], lambda label, trace: None),
    "sweep": lambda sc: sweep(sc),
}


@pytest.mark.parametrize("noise_std", [0.05, 0.0], ids=["noise", "no_noise"])
@pytest.mark.parametrize("call", _TOO_LONG_FOR_MEMORY.values(), ids=list(_TOO_LONG_FOR_MEMORY))
def test_a_run_too_long_for_memory_raises_memory_error(call, noise_std):
    # 10^17 ticks: the first allocation, the noise draw's 16 B a tick or the
    # columns' 32, is at least 1.39 EiB, past any address space
    sc = Scenario(horizon=1e17, dt=1.0, noise_std=noise_std)
    with pytest.raises(MemoryError):
        call(sc)


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
        assert t_ext == pytest.approx(t_ext_at(sc.t_ext, t), abs=1e-12)


def test_non_finite_measurement_aborts_with_tick():
    noise = np.zeros(default_scenario().num_ticks)
    noise[3] = float("nan")
    with pytest.raises(SimulationError, match="tick 3"):
        run(default_scenario(noise_std=0.0), noise_source=noise)


def test_noise_source_of_the_wrong_length_is_rejected():
    with pytest.raises(ValueError, match=r"noise_source has 2879 values, the run has 2880 ticks"):
        run(default_scenario(), noise_source=np.zeros(2879))
    with pytest.raises(ValueError, match=r"columns have 2879 values, the run has 2880 ticks"):
        run(default_scenario(), columns=tick_columns(default_scenario(horizon=2879 * 60.0)))


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


def fresh_column_metrics(trace: Trace) -> Metrics:
    """compute_metrics as plain numpy expressions, each on fresh columns."""
    dt, q = trace.t[1] - trace.t[0], trace.q_applied
    e = trace.t_int_true - trace.y_star
    return Metrics(
        rmse=float(np.sqrt(np.mean(e * e))),
        max_abs_error=float(np.max(np.abs(e))),
        energy=float(dt * np.sum(np.clip(q, 0.0, None))),
        cooling_energy=float(dt * np.sum(np.clip(-q, 0.0, None))),
        control_variation=float(np.sum(np.abs(np.diff(q)))),
        saturation_fraction=float(np.mean(trace.q_command != q)),
    )


COMPARISON = dict(comparison_scenarios(default_scenario()))


@pytest.mark.parametrize("name", [*COMPARISON, "heating_only", "zero", "negative_zero"])
def test_metrics_have_the_bits_of_fresh_column_expressions(name):
    if name in COMPARISON:
        trace = run(COMPARISON[name])
    else:
        trace = run(default_scenario(actuator=ActuatorMode(mode=HEATING_ONLY)))
        if name != "heating_only":    # all the heat one signed zero
            q = np.full(len(trace.t), 0.0 if name == "zero" else -0.0)
            trace = trace._replace(q_command=q, q_applied=q)
    got, want = compute_metrics(trace), fresh_column_metrics(trace)
    # hex tells the signs of zero apart, so cooling_energy keeps its sign
    assert [v.hex() for v in got.as_dict().values()] == [v.hex() for v in want.as_dict().values()]


# one scratch column and numpy's reduction buffers: 27,744 B on the
# default trace, where two fresh columns alive at once take 46,080 B
METRICS_PEAK_BOUND = 8 * default_scenario().num_ticks + 8192


def test_metrics_hold_one_scratch_column():
    trace = run(default_scenario())
    compute_metrics(trace)    # first-call setup is not the metrics'
    tracemalloc.start()
    try:
        compute_metrics(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= METRICS_PEAK_BOUND


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


def reference_run(sc: Scenario, noise_source: np.ndarray | None = None) -> Trace:
    """The run composed tick by tick from the scalar pieces: the noise
    draw (or ``noise_source``), ``t_ext_at``, the reference generator,
    SlopeEstimator with estimate_F and ip_control, or flat_feedforward
    plus pi_control, the clamp to ActuatorMode.bounds, the integral
    frozen while the clamp is active, and rk4_map's coefficients applied
    to a ThermalState.  Each tick checks the controller's values, then
    the state its step leaves, and raises at the first non-finite one."""
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
        t_ext = t_ext_at(sc.t_ext, t)
        y_star, y_star_dot = generator(sc.schedule, t)
        if noise_source is not None:
            noise = float(noise_source[k])
        else:
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
        if not (math.isfinite(y_meas) and math.isfinite(q_command)):
            raise SimulationError(f"non-finite controller value at tick {k} (t={t})")
        rows.append((t, state.t_int, y_meas, state.t_wall, t_ext, y_star, y_star_dot, q_command, q_applied, f_estim))
        state = map_step(state, q_applied, t_ext, step)
        if not (math.isfinite(state.t_int) and math.isfinite(state.t_wall)):
            raise SimulationError(f"non-finite plant state at tick {k} (t={t})")
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


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the message of the SimulationError it raises."""
    try:
        return fn(*args)
    except SimulationError as exc:
        return str(exc)


def same_outcome(a, b) -> bool:
    return a == b if isinstance(a, str) or isinstance(b, str) else same_bits(a, b)


@st.composite
def diverging_runs(draw):
    """A short scenario pushed towards a non-finite value in one of three
    ways, and the noise it runs on (None for its own draw): an infinity or
    a NaN in the noise at a drawn tick, a huge initial state, or a huge
    uniform state under an iP whose actuator bounds near the float limit
    let a huge command through."""
    sc = draw(oracle_scenarios())
    huge = st.sampled_from([1e300, -1e300, 1e307, 1.7e308, -1.7e308])
    case = draw(st.sampled_from(["noise", "initial", "q_max"]))
    if case == "noise":
        noise = np.zeros(sc.num_ticks)
        noise[draw(st.integers(0, sc.num_ticks - 1))] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
        return sc, noise
    if case == "initial":
        return replace(sc, initial=ThermalState(draw(huge), draw(st.one_of(huge, st.just(16.0))))), None
    # an iP with a positive gain drives the state away from the setpoint, so
    # that the state can overflow while the command is still finite
    controller = IpController(k_p=0.5, window_len=draw(st.integers(2, 12)))
    actuator = ActuatorMode(HEATING_AND_COOLING, draw(st.sampled_from([1e307, 1e308, 1.7976931348623157e308])))
    uniform = draw(st.sampled_from([1e308, 1.7e308, -1.7e308]))
    return replace(sc, controller=controller, actuator=actuator, initial=ThermalState(uniform, uniform)), None


@settings(deadline=None, max_examples=150)
@given(diverging_runs())
def test_the_check_after_the_loop_raises_what_the_per_tick_check_raises(case):
    sc, noise = case
    assert same_outcome(outcome(run, sc, noise), outcome(reference_run, sc, noise))


NON_FINITE_CASES = {
    # a NaN in the measurement is a controller fault and, at the same tick, a
    # plant fault: the controller's message wins
    "nan_noise": (default_scenario(horizon=600.0), 3, math.nan, "non-finite controller value at tick 3 (t=180.0)"),
    "inf_noise_pi": (default_scenario(horizon=600.0, controller=PiController()), 9, -math.inf,
                     "non-finite controller value at tick 9 (t=540.0)"),
    # the state overflows while the command is still finite, then on the
    # last tick, where only the state after the loop shows it
    **{name: (
        default_scenario(horizon=horizon, initial=ThermalState(1.7e308, 1e308), controller=IpController(k_p=0.5),
                         actuator=ActuatorMode(HEATING_AND_COOLING, 1.7976931348623157e308)),
        None, None, "non-finite plant state at tick 3 (t=180.0)",
    ) for name, horizon in (("overflowing_state", 3600.0), ("overflow_on_the_last_tick", 240.0))},
}


@pytest.mark.parametrize("sc, tick, value, message", NON_FINITE_CASES.values(), ids=list(NON_FINITE_CASES))
def test_a_non_finite_run_names_its_first_faulty_tick(sc, tick, value, message):
    noise = None
    if tick is not None:
        noise = np.zeros(sc.num_ticks)
        noise[tick] = value
    assert outcome(run, sc, noise) == message
    assert outcome(reference_run, sc, noise) == message


# ---------------------------------------------------------------------------
# inputs shared between runs


def test_writing_into_a_trace_leaves_the_next_run_alone():
    sc = default_scenario(horizon=3600.0)
    first = run(sc)
    expected = Trace(*(None if column is None else column.copy() for column in first))
    inputs = ("t", "t_ext", "y_star", "y_star_dot")
    for name, column in zip(Trace._fields, first):
        if column is None:
            continue
        if name in inputs:
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1e9
        else:
            column[:] = 1e9
    for column in tick_columns(sc):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1e9
    assert same_bits(run(sc), expected)


def test_one_noise_draw_serves_the_runs_that_share_a_seed(two_cpus, no_child_left):
    sc = default_scenario(horizon=3600.0)
    noise, columns = measurement_noise(sc), tick_columns(sc)
    for kind in sorted(CONTROLLERS):
        shared = replace(sc, controller=default_controller(kind, NOMINAL))
        assert same_bits(run(shared, noise), run(shared))
        trace = run(shared, noise, columns)
        assert same_bits(trace, run(shared))
        assert all(column is given for column, given in zip(trace[:1] + trace[4:7], columns))
    assert measurement_noise(replace(sc, noise_std=0.0)) is None
    # sweep's runs share one draw and one set of columns, in forked children too
    sc = replace(sc, controller=default_controller("flat_pi", NOMINAL), t_ext=TableTExt((0.0, 1e4), (1.0, 9.0)))
    assert sweep(sc) == [(f, compute_metrics(run(replace(sc, plant=sc.plant.scaled(f))))) for f in DEFAULT_SWEEP_FACTORS]
    assert no_child_left()


# a run holds its six state rows and its four input columns, and at most
# two more while the feedforward fills; 280,576 B on the default scenario
PEAK_BOUND = 12 * 8 * default_scenario().num_ticks + 4096
# a run on shared noise and columns holds its six rows and at most two
# columns of the feedforward's; 188,416 B on the default scenario
SHARED_PEAK_BOUND = 8 * 8 * default_scenario().num_ticks + 4096


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


@pytest.mark.parametrize("kind", sorted(CONTROLLERS))
def test_a_run_on_shared_inputs_stays_within_eight_columns(kind):
    sc = default_scenario(controller=default_controller(kind, NOMINAL))
    noise, columns = measurement_noise(sc), tick_columns(sc)
    run(sc, noise, columns)    # first-call setup is not the run's
    tracemalloc.start()
    try:
        run(sc, noise, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SHARED_PEAK_BOUND


def shared_input_variants() -> list[tuple[str, Scenario]]:
    """Two seeds, both reference modes, and two outdoor profiles that
    differ only in the sign of a zero."""
    sc = default_scenario(horizon=3600.0)
    return [
        ("ip_63", sc),
        ("pi_step_63", replace(sc, controller=PiController(), reference_mode="step")),
        ("ip_64", replace(sc, rng_seed=64)),
        ("flat_pi_step_64", replace(sc, rng_seed=64, reference_mode="step",
                                    controller=default_controller("flat_pi", NOMINAL))),
        ("plus_zero_t_ext", replace(sc, t_ext=ConstantTExt(0.0))),
        ("minus_zero_t_ext", replace(sc, t_ext=ConstantTExt(-0.0))),
    ]


def run_variants_against_plain_runs(counted: dict[str, int] | None = None) -> list[Trace]:
    """The variants through run_variants, each checked against a plain
    run of its scenario; their traces, in order.  ``counted``, if given,
    counts the calls made so far: one noise draw per seed and one column
    build per grid."""
    variants = shared_input_variants()
    rows = run_variants(variants, lambda label, trace: (compute_metrics(trace), trace))
    if counted is not None:
        assert counted == {"measurement_noise": 2, "tick_columns": 4}    # one per seed, one per grid
    assert [label for label, _ in rows] == [label for label, _ in variants]
    for (_, sc), (_, (metrics, trace)) in zip(variants, rows):
        plain = run(sc)
        assert metrics == compute_metrics(plain)
        assert same_bits(trace, plain)
    return [trace for _, (_, trace) in rows]


def test_run_variants_share_inputs_within_a_group_only(monkeypatch, no_fork):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    calls = {"measurement_noise": 0, "tick_columns": 0}
    for name in calls:
        def counted(sc, name=name, fn=getattr(engine, name)):
            calls[name] += 1
            return fn(sc)

        monkeypatch.setattr(engine, name, counted)
    ip_63, pi_step_63, ip_64, flat_pi_step_64, plus_zero, minus_zero = run_variants_against_plain_runs(calls)
    inputs = [0, 4, 5, 6]    # t, t_ext, y_star, y_star_dot
    assert all(ip_63[i] is ip_64[i] and pi_step_63[i] is flat_pi_step_64[i] for i in inputs)
    assert ip_63.t_ext is not pi_step_63.t_ext and ip_63.t_ext is not plus_zero.t_ext
    assert plus_zero.t_ext is not minus_zero.t_ext
    assert math.copysign(1.0, minus_zero.t_ext[0]) == -1.0


def test_run_variants_in_forked_workers_equal_the_plain_runs(two_cpus, no_child_left):
    run_variants_against_plain_runs()
    assert no_child_left()

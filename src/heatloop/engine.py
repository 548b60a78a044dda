"""Closed-loop simulation engine.

A run first fills every row that depends only on the tick index, as a
whole column: time, outdoor temperature and reference, made by
:func:`tick_columns` as four read-only rows, then measurement noise and,
for the feedforward-plus-PI law, the feedforward (zero for ``pi``, the
flatness feedforward of the model for ``flat_p`` and ``flat_pi``), kept
in the ``f_estim`` row that these kinds do not return.  Many runs go
through :func:`run_variants` (:func:`sweep`, the CLI's ``compare`` and
``sweep``), which draws the noise and builds the columns once for the
runs that share them and passes them to each; the Traces share them.
One tick loop then serves both control laws and holds only what
depends on the state, with no function call per tick.  Each tick
samples the measured output (true plus noise), computes the heat
command -- the iP law on the least-squares slope over the last
``window_len`` measured values, or feedforward plus PI -- clamps it to
the actuator bounds, integrates the PI error unless the clamp is active,
logs the tick and advances the plant one RK4 step with the applied heat
and the tick's outdoor temperature held constant.  The laws are written
out in the loop, and the step is the affine map
:func:`~heatloop.plant.rk4_map` builds once per run, on the state's
deviation from the outdoor temperature.  Float arithmetic in the loop
cannot raise, so a NaN or an infinity runs on to the end; the logged
rows are checked once after the loop, and SimulationError names the
first tick whose controller value or plant state is not finite.  A
scenario whose tick is past RK4's stability limit for its plant is
refused when it is built.

Runs are deterministic: the measurement noise comes from the seeded
counter-mode stream in :mod:`heatloop.noise`, so identical scenarios
with identical seeds reproduce identical traces bit for bit.  That is
what lets :func:`run_variants` run independent runs through
:func:`spread`, in forked workers on the CPUs the process may use, as a
pure speed-up: if a worker fails or cannot start, the runs are made one
after another instead, with the same results, the same files or the
same error.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Union, get_args

import numpy as np

from .controllers import (
    ActuatorMode,
    ControllerConfig,
    IpController,
    PiController,
    flat_feedforward,
)
from .noise import gaussian_column
from .plant import (
    NOMINAL,
    PARAMETERS,
    RK4_STABILITY,
    ThermalParams,
    ThermalState,
    fastest_rate,
    rk4_map,
    wall_equilibrium,
)
from .reference import MODES, Schedule, fill_reference


class SimulationError(RuntimeError):
    """Raised when a run produces a non-finite value."""


# ---------------------------------------------------------------------------
# outdoor temperature profiles


def _require_finite(profile, values) -> None:
    """ValueError naming the first (field, value) in ``values`` that is not finite."""
    for name, value in values:
        if not math.isfinite(value):
            raise ValueError(f"{type(profile).__name__}.{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ConstantTExt:
    value: float = 5.0

    kind = "constant"

    def __post_init__(self) -> None:
        _require_finite(self, [("value", self.value)])


@dataclass(frozen=True)
class SinusoidTExt:
    """mean + amplitude * sin(2*pi*t/period + phase)."""

    mean: float = 5.0
    amplitude: float = 5.0
    period: float = 86400.0
    phase: float = -math.pi

    kind = "sinusoid"

    def __post_init__(self) -> None:
        _require_finite(self, [(f.name, getattr(self, f.name)) for f in fields(self)])


@dataclass(frozen=True)
class TableTExt:
    """Tabulated profile, linearly interpolated, end values held outside
    the table.  ``source`` keeps the path the table was loaded from so a
    scenario can be written back to a config file."""

    times: tuple[float, ...]
    temps: tuple[float, ...]
    source: str | None = None

    kind = "table"

    def __post_init__(self) -> None:
        if len(self.times) != len(self.temps) or len(self.times) < 2:
            raise ValueError("table profile needs at least two (time, temp) rows")
        _require_finite(self, [(f"{n}[{i}]", v) for n in ("times", "temps") for i, v in enumerate(getattr(self, n))])
        for a, b in zip(self.times, self.times[1:]):
            if not b > a:
                raise ValueError("table times must be strictly increasing")


TExtProfile = Union[ConstantTExt, SinusoidTExt, TableTExt]


def _fill_t_ext(profile: TExtProfile, t: np.ndarray, out: np.ndarray) -> None:
    """Write the profile's outdoor temperature at every time in ``t``,
    which ascends, into ``out``."""
    if isinstance(profile, ConstantTExt):
        out.fill(profile.value)
    elif isinstance(profile, SinusoidTExt):
        # a test holds np.sin to math.sin bit for bit
        out[:] = profile.mean + profile.amplitude * np.sin(2.0 * math.pi * t / profile.period + profile.phase)
    else:
        # linear interpolation over each table segment's slice of ticks,
        # which the ascending grid keeps contiguous: tick k is in segment i
        # when times[i-1] <= t[k] < times[i]; the end values are held outside
        times, temps = profile.times, profile.temps
        edges = np.searchsorted(t, times).tolist()    # the first tick at or after each knot
        out[:edges[0]] = temps[0]
        out[edges[-1]:] = temps[-1]
        for i in range(1, len(times)):
            a, b = edges[i - 1], edges[i]
            w = (t[a:b] - times[i - 1]) / (times[i] - times[i - 1])
            out[a:b] = temps[i - 1] * (1.0 - w) + temps[i] * w


# ---------------------------------------------------------------------------
# scenario

DEFAULT_SCHEDULE = Schedule(
    segments=(
        (0.0, 16.0),
        (25200.0, 19.0),    # 07:00  night -> day
        (79200.0, 16.0),    # 22:00  day -> night
        (111600.0, 19.0),
        (165600.0, 16.0),
    ),
)

DEFAULT_T_EXT = SinusoidTExt()

# the room at the schedule's first setpoint, the wall at rest in the outdoor temperature at t = 0
_t_int_0, _t_ext_0 = DEFAULT_SCHEDULE.segments[0][1], np.empty(1)
_fill_t_ext(DEFAULT_T_EXT, np.zeros(1), _t_ext_0)
DEFAULT_INITIAL = ThermalState(_t_int_0, wall_equilibrium(_t_int_0, float(_t_ext_0[0])))


def _too_many_ticks(sc: Scenario) -> ValueError:
    # .16g writes a count below 1e16 whole and a larger one in a few digits
    ticks = f"{sc.num_ticks:.16g} ticks"
    return ValueError(f"horizon={sc.horizon!r} / dt={sc.dt!r} gives {ticks}, too many to hold in memory")


_PART_TYPES = {"plant": (ThermalParams,), "initial": (ThermalState,), "schedule": (Schedule,),
               "controller": get_args(ControllerConfig), "actuator": (ActuatorMode,), "t_ext": get_args(TExtProfile),
               "rng_seed": (int,)}


@dataclass(frozen=True)
class Scenario:
    """Everything a run needs.  The defaults form the frozen reference
    scenario used throughout the test suite: 48 h horizon, 60 s ticks,
    16/19 degree night/day schedule with two transitions per day, smooth
    3600 s setpoint blends, sinusoidal outdoor temperature (mean 5,
    amplitude 5, period 24 h) and 0.05 K measurement noise.  The seed is
    part of the freeze: metrics quoted in the tests assume this exact
    noise stream.  Construction checks every field and raises ValueError,
    so every Scenario, default_scenario's and replace's too, is valid and
    has arrays numpy can make; a run too long for memory raises MemoryError."""

    horizon: float = 172800.0
    dt: float = 60.0
    noise_std: float = 0.05
    rng_seed: int = 63
    plant: ThermalParams = NOMINAL
    initial: ThermalState = DEFAULT_INITIAL
    schedule: Schedule = DEFAULT_SCHEDULE
    reference_mode: str = "smooth"
    controller: ControllerConfig = IpController()
    actuator: ActuatorMode = ActuatorMode()
    t_ext: TExtProfile = DEFAULT_T_EXT

    @property
    def num_ticks(self) -> int:
        return round(self.horizon / self.dt)

    def __post_init__(self) -> None:
        for name, types in _PART_TYPES.items():    # before any check below reads a part
            if not isinstance(getattr(self, name), types):
                raise ValueError(f"{name} must be {' or '.join(t.__name__ for t in types)}, got {getattr(self, name)!r}")
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        rate = fastest_rate(self.plant)
        if not self.dt * rate <= RK4_STABILITY:
            # past it RK4 amplifies the fast mode every tick and the run diverges;
            # the capacities set how fast that mode is, so the message names them
            capacities = f"plant.c_a = {self.plant.c_a!r}, plant.c_w = {self.plant.c_w!r}"
            if math.isinf(rate):
                raise ValueError(f"dt={self.dt!r} is past the RK4 stability limit for this plant: "
                                 f"its fastest rate rho(A) overflows ({capacities})")
            raise ValueError(f"dt={self.dt!r} is past the RK4 stability limit of {RK4_STABILITY / rate:.6g} s "
                             f"for this plant, whose fastest time constant 1/rho(A) is {1.0 / rate:.6g} s ({capacities})")
        if not math.isfinite(self.horizon / self.dt):
            raise ValueError(f"horizon={self.horizon!r} / dt={self.dt!r} overflows the tick count")
        n = self.num_ticks
        if n < 1 or abs(n * self.dt - self.horizon) > 1e-6 * self.dt:
            raise ValueError(f"dt={self.dt!r} does not divide horizon={self.horizon!r}")
        if n < 2:
            # metrics and plots need the tick length, which one tick does not give
            raise ValueError(f"horizon={self.horizon!r} / dt={self.dt!r} gives {n} tick, a run needs at least 2")
        if n > sys.maxsize // 48:    # run's 6 x n float64 buffer, a run's largest array, is past numpy's
            raise _too_many_ticks(self)
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0.0):
            raise ValueError(f"noise_std must be nonnegative, got {self.noise_std!r}")
        if isinstance(self.t_ext, SinusoidTExt):
            # the phase 2*pi*t/period must stay finite up to t = horizon
            period = self.t_ext.period
            if period == 0.0 or not math.isfinite(2.0 * math.pi * self.horizon / period):
                raise ValueError(f"t_ext.period={period!r} is too short for horizon={self.horizon!r}")
        if self.reference_mode not in MODES:
            raise ValueError(f"unknown reference_mode {self.reference_mode!r}")
        if self.schedule.start > 0.0:
            raise ValueError("schedule must start at or before t = 0")
        if not (math.isfinite(self.initial.t_int) and math.isfinite(self.initial.t_wall)):
            raise ValueError("initial state must be finite")


def default_scenario(**replacements) -> Scenario:
    """The frozen reference scenario, with optional field replacements."""
    return replace(Scenario(), **replacements)


# ---------------------------------------------------------------------------
# running and measuring


class Trace(NamedTuple):
    """The per-tick log of one run: one contiguous float64 column per
    field, one entry per tick.  t, t_ext, y_star and y_star_dot are the
    read-only :func:`tick_columns` the run was given or built, shared by
    the runs given the same ones.  f_estim is None for controllers that
    do not carry an ultra-local estimate."""

    t: np.ndarray
    t_int_true: np.ndarray
    t_int_measured: np.ndarray
    t_wall: np.ndarray
    t_ext: np.ndarray
    y_star: np.ndarray
    y_star_dot: np.ndarray
    q_command: np.ndarray
    q_applied: np.ndarray
    f_estim: np.ndarray | None


def measurement_noise(scenario: Scenario) -> np.ndarray | None:
    """The scenario's measurement noise in K, one value per tick:
    noise_std * gaussian_column(rng_seed, num_ticks), or None without
    noise: :func:`run`'s ``noise_source``.  MemoryError if it does not fit."""
    if scenario.noise_std > 0.0:
        return scenario.noise_std * gaussian_column(scenario.rng_seed, scenario.num_ticks)
    return None


def tick_columns(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The scenario's rows that depend only on the tick index, as the
    read-only rows (t, t_ext, y_star, y_star_dot) of one fresh 4 x n
    array: :func:`run`'s ``columns``.  MemoryError if it does not fit."""
    n, dt = scenario.num_ticks, scenario.dt
    block = np.empty((4, n))
    t, t_ext, y_star, y_star_dot = block
    t[:] = np.arange(n)
    t *= dt
    _fill_t_ext(scenario.t_ext, t, t_ext)
    fill_reference(scenario.schedule, scenario.reference_mode, t, y_star, y_star_dot)
    block.flags.writeable = False
    return tuple(block)    # views made after the flag, so they refuse writes too


def run(scenario: Scenario, noise_source: np.ndarray | None = None, columns: tuple[np.ndarray, ...] | None = None) -> Trace:
    """Simulate one closed-loop run and return its per-tick trace.

    ``noise_source`` is the measurement noise in K, one value per tick,
    by default :func:`measurement_noise`'s; tests pass tailored streams.
    ``columns`` is the scenario's :func:`tick_columns`, by default built
    for this run, and the Trace shares them, not copies.
    :func:`run_variants` passes one of each to the runs that share them.
    """
    sc = scenario
    n, dt, cfg = sc.num_ticks, sc.dt, sc.controller
    if noise_source is not None and len(noise_source) != n:
        raise ValueError(f"noise_source has {len(noise_source)} values, the run has {n} ticks")
    if columns is not None and len(columns[0]) != n:
        raise ValueError(f"columns have {len(columns[0])} values, the run has {n} ticks")
    # noise, then columns, then the buffer: the draw's temporaries are gone before any of the rows exist
    if noise_source is None:
        noise_source = measurement_noise(sc)
    if columns is None:
        columns = tick_columns(sc)
    t, t_ext, y_star, y_star_dot = columns
    buf = np.empty((6, n))    # a row per other field of Trace, so each is contiguous

    # the inputs: every row the loop reads is filled before it starts
    t_int, measured, t_wall, q_cmd, q_app, f_row = buf
    measured[:] = 0.0 if noise_source is None else noise_source
    del noise_source    # the row holds it now; one column fewer alive while the feedforward fills
    ip = isinstance(cfg, IpController)
    if ip:
        w = cfg.window_len
        warm, alpha, k_p = w - 1, cfg.alpha, cfg.k_p
        # the least-squares slope over the measured row: (weight, offset of
        # the newer sample, offset of the older) per mirror pair, in order;
        # a window longer than the run never fills and needs none
        pairs = [(float(w - 1 - 2 * i), i, w - 1 - i) for i in range(w // 2)] if w <= n else []
        # least-squares weights are (j - (w-1)/2) / (dt * w(w^2-1)/12);
        # a mirror pair's offset is (w-1-2i)/2, whose 1/2 is folded in here
        scale = 6.0 / (dt * (w * (w * w - 1)))
    elif isinstance(cfg, PiController):
        k_p, k_i = cfg.k_p, cfg.k_i
        # -0.0 + x == x for every x, sign of zero included, so without a
        # model the command is exactly the PI output
        f_row.fill(-0.0)
    else:
        gains = cfg.corrector()
        k_p, k_i = gains.k_p, gains.k_i
        f_row[:] = flat_feedforward(y_star, y_star_dot, cfg.model)

    # the loop: the control law and the plant state, with no call per tick
    m11, m12, m21, m22, g_i, g_w = rk4_map(sc.plant, dt)
    q_lo, q_hi = sc.actuator.bounds
    # the measured row holds the noise until its tick overwrites it; the
    # last row is f_estim for iP and the feedforward for the other laws
    Y, M, W, QC, QA, F = (memoryview(row) for row in buf)
    TE, YS, YD = memoryview(t_ext), memoryview(y_star), memoryview(y_star_dot)
    ti, tw = sc.initial.t_int, sc.initial.t_wall
    u_prev = e_integral = 0.0
    for k in range(n):
        y_meas = ti + M[k]
        M[k] = y_meas    # the slope window reads the measured row
        e = y_meas - YS[k]
        if ip:
            if k < warm:
                f_estim = 0.0    # warm-up: no slope yet
            else:
                acc = 0.0
                for c, new, old in pairs:
                    acc += c * (M[k - new] - M[k - old])
                f_estim = scale * acc - alpha * u_prev    # F = dy_hat - alpha*u_prev
            F[k] = f_estim
            q_command = -(f_estim - YD[k] - k_p * e) / alpha    # the iP law
        else:
            candidate = e_integral + e * dt    # rectangle rule
            q_command = F[k] + (k_p * e + k_i * candidate)    # feedforward plus PI
        q_applied = q_lo if q_command < q_lo else (q_hi if q_command > q_hi else q_command)
        if ip:
            u_prev = q_applied
        elif q_applied == q_command:
            # conditional integration: the integral freezes while the
            # clamp is active, which is what keeps windup bounded
            e_integral = candidate
        Y[k] = ti
        W[k] = tw
        QC[k] = q_command
        QA[k] = q_applied
        # the RK4 step, in deviations from the tick's outdoor temperature
        te = TE[k]
        di, dw = ti - te, tw - te
        ti += m11 * di + m12 * dw + g_i * q_applied
        tw += m21 * di + m22 * dw + g_w * q_applied
    # tick k checks its controller values measured[k] and q_cmd[k] (row 0) and the state
    # its step leaves (row 1): t_int[k + 1] and t_wall[k + 1], or (ti, tw) at the last tick
    ok = np.zeros((2, n + 1), dtype=bool)    # column n stays False: argmin gives n for a row that holds
    np.logical_and(np.isfinite(measured), np.isfinite(q_cmd), out=ok[0, :n])
    np.logical_and(np.isfinite(t_int[1:]), np.isfinite(t_wall[1:]), out=ok[1, :n - 1])
    ok[1, n - 1] = math.isfinite(ti) and math.isfinite(tw)
    k_controller, k_plant = ok.argmin(axis=1).tolist()
    if k_controller < n and k_controller <= k_plant:
        raise SimulationError(f"non-finite controller value at tick {k_controller} (t={float(t[k_controller])})")
    if k_plant < n:
        raise SimulationError(f"non-finite plant state at tick {k_plant} (t={float(t[k_plant])})")
    return Trace(t, t_int, measured, t_wall, t_ext, y_star, y_star_dot, q_cmd, q_app, f_row if ip else None)


@dataclass(frozen=True)
class Metrics:
    rmse: float
    max_abs_error: float
    energy: float
    cooling_energy: float
    control_variation: float
    saturation_fraction: float

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in Metrics.FIELDS}


Metrics.FIELDS = tuple(f.name for f in fields(Metrics))


def compute_metrics(trace: Trace) -> Metrics:
    """Summary metrics over one run.

    Errors are measured on the true indoor temperature, not the noisy
    measurement.  Integrals use the rectangle rule on the tick grid;
    energy counts positive heat only, cooling_energy the magnitude of
    negative heat.  A metric that overflows raises SimulationError
    naming it.
    """
    if len(trace.t) < 2:
        raise ValueError("need at least two records to infer the tick length")
    dt = trace.t[1] - trace.t[0]
    q = trace.q_applied
    s = np.empty(len(q))    # one scratch column, refilled by each metric in the order below
    with np.errstate(over="ignore", invalid="ignore"):
        metrics = Metrics(
            max_abs_error=float(np.max(np.abs(np.subtract(trace.t_int_true, trace.y_star, out=s), out=s))),
            rmse=float(np.sqrt(np.mean(np.multiply(s, s, out=s)))),    # |e| * |e| is e * e, bit for bit
            energy=float(dt * np.sum(np.clip(q, 0.0, None, out=s))),
            cooling_energy=float(dt * np.sum(np.clip(np.negative(q, out=s), 0.0, None, out=s))),
            control_variation=float(np.sum(np.abs(np.subtract(q[1:], q[:-1], out=s[1:]), out=s[1:]))),
            saturation_fraction=float(np.mean(np.not_equal(trace.q_command, q, out=s))),
        )
    for name, value in metrics.as_dict().items():
        if not math.isfinite(value):
            raise SimulationError(f"metric {name} is not finite ({value!r})")
    return metrics


def transition_spans(sched: Schedule, window_mult: float = 1.0) -> list[tuple[float, float]]:
    """[start, start + window_mult*D] for every setpoint change."""
    spans = []
    for (t0, sp0), (t1, sp1) in zip(sched.segments, sched.segments[1:]):
        if sp1 != sp0:
            spans.append((t1, t1 + window_mult * sched.transition_duration))
    return spans


def spread(fn, items) -> list:
    """``[fn(x) for x in items]``, shared out over the c CPUs this process
    may use: c - 1 forked children each run ``items[i::c]`` and send only
    their result list back through a pipe; the caller runs ``items[0::c]``.
    ``fn`` must be deterministic, and its only side effects may be whole
    files that a rerun writes again byte for byte, such as the CSV and
    SVG that the CLI's ``compare`` writes per run in :func:`run_variants`.
    If the caller's share raises, a child's share does not arrive whole,
    or a pipe or a child cannot be made, the plain loop runs every item
    instead and returns or raises what the serial path does.  No child
    outlives the call."""
    items = list(items)
    c = min(len(items), len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else 1
    if c < 2:
        return [fn(x) for x in items]
    children, sent, mine = [], {}, None
    try:
        for i in range(1, c):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                # the child leaves through os._exit only, with 0 once its share
                # is sent whole: no atexit handler runs, no buffer is flushed twice
                try:
                    with open(w, "wb") as fh:
                        pickle.dump([fn(x) for x in items[i::c]], fh)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            children.append((i, pid, r))
        mine = [fn(x) for x in items[0::c]]
    except Exception:
        pass    # a share is missing: the plain loop below runs instead
    finally:
        # every pipe read to its end and every child reaped, whatever happened above
        for i, pid, r in children:
            with open(r, "rb") as fh:
                data = fh.read()
            if os.waitpid(pid, 0)[1] == 0:
                sent[i] = data
    try:
        results = [None] * len(items)
        results[0::c] = mine
        for i in range(1, c):
            results[i::c] = pickle.loads(sent[i])
        return results
    except Exception:    # a share failed, is missing or cannot be read back
        return [fn(x) for x in items]


DEFAULT_SWEEP_FACTORS = (0.5, 0.75, 1.0, 1.5, 2.0)


def scaled(scenario: Scenario, factor: float) -> Scenario:
    """The scenario on its plant with all five parameters multiplied by
    ``factor``, the controller left as tuned.  That plant is the
    scenario's with its heater gain divided by ``factor`` and the same
    time constants (:meth:`ThermalParams.scaled`).  A product out of
    range raises ValueError naming its config key."""
    try:
        plant = scenario.plant.scaled(factor)
    except ValueError as exc:
        name = next(n for n in PARAMETERS if not 0.0 < getattr(scenario.plant, n) * factor < math.inf)
        raise ValueError(f"plant.{name} = {getattr(scenario.plant, name)!r} times sweep factor {factor!r}: {exc}") from None
    return replace(scenario, plant=plant)


def run_variants(variants, finish) -> list:
    """``[(label, finish(label, run(sc))) for label, sc in variants]``,
    the runs shared out over the CPUs by :func:`spread`, whose terms
    ``finish`` must meet.  Before any run, the noise is drawn once per
    (noise_std, rng_seed, num_ticks) and the :func:`tick_columns` are
    built once per tick grid, outdoor profile, schedule and reference
    mode, keyed by ``repr``: ``ConstantTExt(0.0) == ConstantTExt(-0.0)``,
    but their columns differ in the sign of zero."""
    noises, grids, items = {}, {}, []
    for label, sc in variants:
        noise_key = (sc.noise_std, sc.rng_seed, sc.num_ticks)
        grid_key = repr((sc.num_ticks, sc.dt, sc.t_ext, sc.schedule, sc.reference_mode))
        if noise_key not in noises:
            noises[noise_key] = measurement_noise(sc)
        if grid_key not in grids:
            grids[grid_key] = tick_columns(sc)
        items.append((label, sc, noises[noise_key], grids[grid_key]))

    def one(item):
        label, sc, noise, columns = item
        return label, finish(label, run(sc, noise, columns))

    return spread(one, items)


def sweep(scenario: Scenario, factors: tuple[float, ...] = DEFAULT_SWEEP_FACTORS) -> list[tuple[float, Metrics]]:
    """The metrics of the scenario re-run on its plant :func:`scaled` by
    each factor, through :func:`run_variants`.  Controller tuning is
    deliberately left untouched: the point is to measure how each
    strategy survives a plant it was not tuned for."""
    return run_variants([(f, scaled(scenario, f)) for f in factors], lambda f, trace: compute_metrics(trace))

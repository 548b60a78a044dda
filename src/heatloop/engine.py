"""Closed-loop simulation engine.

A run first fills every row of its :class:`Trace` buffer that depends
only on the tick index, as a whole column: time, outdoor temperature,
reference, measurement noise and, for the feedforward-plus-PI law, the
feedforward (zero for ``pi``, the flatness feedforward of the model for
``flat_p`` and ``flat_pi``), kept in the ``f_estim`` row that these
kinds do not return.  One tick loop then serves both control laws and
holds only what depends on the state.  Each tick samples the measured
output (true plus noise), computes the heat command -- iP from the
least-squares slope over the last ``window_len`` measured values,
feedforward plus PI otherwise -- clamps it to the actuator bounds,
integrates the PI error unless the clamp is active, logs the tick and
advances the plant one RK4 step with the applied heat and the tick's
outdoor temperature held constant.  The step is inlined in the loop as
the affine map :func:`~heatloop.plant.rk4_map` builds once per run, on
the state's deviation from the outdoor temperature.  A scenario whose
tick is past RK4's stability limit for its plant is refused when it is
built.

Runs are deterministic: the measurement noise comes from the seeded
counter-mode stream in :mod:`heatloop.noise`, so identical scenarios
with identical seeds reproduce identical traces bit for bit.  That is
what lets :func:`spread` run independent runs, such as the robustness
sweep's, in forked workers on the CPUs the process may use, as a pure
speed-up: if a worker fails or cannot start, the runs are made one after
another instead, with the same results or the same error.
"""

from __future__ import annotations

import math
import os
import pickle
from bisect import bisect_right
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Union

import numpy as np

from .controllers import (
    CONTROLLERS,
    ActuatorMode,
    ControllerConfig,
    IpController,
    PiController,
    flat_feedforward,
    ip_control,
    pi_control,
)
from .estimation import estimate_F, slope_scale
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


@dataclass(frozen=True)
class ConstantTExt:
    value: float = 5.0

    kind = "constant"

    def at(self, t: float) -> float:
        return self.value


@dataclass(frozen=True)
class SinusoidTExt:
    """mean + amplitude * sin(2*pi*t/period + phase)."""

    mean: float = 5.0
    amplitude: float = 5.0
    period: float = 86400.0
    phase: float = -math.pi

    kind = "sinusoid"

    def at(self, t: float) -> float:
        return self.mean + self.amplitude * math.sin(2.0 * math.pi * t / self.period + self.phase)


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
        for a, b in zip(self.times, self.times[1:]):
            if not b > a:
                raise ValueError("table times must be strictly increasing")

    def at(self, t: float) -> float:
        i = bisect_right(self.times, t)
        if i <= 0:
            return self.temps[0]
        if i >= len(self.times):
            return self.temps[-1]
        t0, t1 = self.times[i - 1], self.times[i]
        w = (t - t0) / (t1 - t0)
        return self.temps[i - 1] * (1.0 - w) + self.temps[i] * w


TExtProfile = Union[ConstantTExt, SinusoidTExt, TableTExt]


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
    transition_duration=3600.0,
)

DEFAULT_T_EXT = SinusoidTExt()

DEFAULT_INITIAL = ThermalState(16.0, wall_equilibrium(16.0, DEFAULT_T_EXT.at(0.0)))


@dataclass(frozen=True)
class Scenario:
    """Everything a run needs.  The defaults form the frozen reference
    scenario used throughout the test suite: 48 h horizon, 60 s ticks,
    16/19 degree night/day schedule with two transitions per day, smooth
    3600 s setpoint blends, sinusoidal outdoor temperature (mean 5,
    amplitude 5, period 24 h) and 0.05 K measurement noise.  The seed is
    part of the freeze: metrics quoted in the tests assume this exact
    noise stream.  Construction checks every field and raises ValueError,
    so every Scenario, default_scenario's and replace's too, is valid."""

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
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        rate = fastest_rate(self.plant)
        if not self.dt * rate <= RK4_STABILITY:
            # past it RK4 amplifies the fast mode every tick and the run diverges
            limit = RK4_STABILITY / rate
            raise ValueError(f"dt={self.dt!r} is past the RK4 stability limit of {limit:.6g} s for this plant")
        if not math.isfinite(self.horizon / self.dt):
            raise ValueError(f"horizon={self.horizon!r} / dt={self.dt!r} overflows the tick count")
        n = self.num_ticks
        if n < 1 or abs(n * self.dt - self.horizon) > 1e-6 * self.dt:
            raise ValueError(f"dt={self.dt!r} does not divide horizon={self.horizon!r}")
        if n < 2:
            # metrics and plots need the tick length, which one tick does not give
            raise ValueError(f"horizon={self.horizon!r} / dt={self.dt!r} gives {n} tick, a run needs at least 2")
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
        if getattr(self.controller, "kind", None) not in CONTROLLERS:
            raise ValueError(f"unknown controller {self.controller!r}")
        if not isinstance(self.rng_seed, int):
            raise ValueError(f"rng_seed must be an integer, got {self.rng_seed!r}")


def default_scenario(**replacements) -> Scenario:
    """The frozen reference scenario, with optional field replacements."""
    return replace(Scenario(), **replacements)


# ---------------------------------------------------------------------------
# running and measuring


class Trace(NamedTuple):
    """The per-tick log of one run: one contiguous float64 column per
    field, one entry per tick.  f_estim is None for controllers that do
    not carry an ultra-local estimate."""

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


def _fill_t_ext(profile: TExtProfile, t: np.ndarray, out: np.ndarray) -> None:
    """Write ``profile.at`` of every time in ``t``, which ascends, into
    ``out``, in place."""
    if isinstance(profile, ConstantTExt):
        out.fill(profile.value)
    elif isinstance(profile, SinusoidTExt):
        # at()'s operations elementwise, in its order; the sine stays on
        # math per value because numpy's differs in the last bit on some builds
        np.multiply(t, 2.0 * math.pi, out=out)
        out /= profile.period
        out += profile.phase
        out[:] = np.fromiter(map(math.sin, memoryview(out)), np.float64, len(out))
        out *= profile.amplitude
        out += profile.mean
    else:
        # at() over each table segment's slice of ticks, which the ascending
        # grid keeps contiguous: tick k is in segment i when
        # times[i-1] <= t[k] < times[i], i.e. when bisect_right gives i
        times, temps = profile.times, profile.temps
        edges = np.searchsorted(t, times).tolist()    # the first tick at or after each knot
        out[:edges[0]] = temps[0]
        out[edges[-1]:] = temps[-1]
        for i in range(1, len(times)):
            a, b = edges[i - 1], edges[i]
            if a < b:
                w = out[a:b]
                np.subtract(t[a:b], times[i - 1], out=w)
                w /= times[i] - times[i - 1]
                upper = w * temps[i]
                np.subtract(1.0, w, out=w)
                w *= temps[i - 1]
                w += upper


def run(scenario: Scenario, noise_source: np.ndarray | None = None) -> Trace:
    """Simulate one closed-loop run and return its per-tick trace.

    ``noise_source`` is the measurement noise in K, one value per tick,
    and exists so tests can inject tailored streams; by default it is
    noise_std * gaussian_column(rng_seed, num_ticks).
    """
    sc = scenario
    n, dt, cfg = sc.num_ticks, sc.dt, sc.controller
    if noise_source is not None and len(noise_source) != n:
        raise ValueError(f"noise_source has {len(noise_source)} values, the run has {n} ticks")
    try:
        if noise_source is None:
            noise_source = sc.noise_std * gaussian_column(sc.rng_seed, n) if sc.noise_std > 0.0 else 0.0
        # row j holds field j of Trace, so each column handed out is contiguous
        buf = np.empty((len(Trace._fields), n))
    except (MemoryError, ValueError):    # numpy raises ValueError past its largest array
        # .16g writes a count below 1e16 whole and a larger one in a few digits
        raise ValueError(f"horizon={sc.horizon!r} / dt={dt!r} gives {n:.16g} ticks, too many to hold in memory") from None

    # the inputs: every row the loop reads is filled before it starts
    t, _, noise, _, t_ext, y_star, y_star_dot, _, _, f_row = buf
    noise[:] = noise_source
    del noise_source    # the row holds it now; one column fewer alive while the others fill
    t[:] = np.arange(n)
    t *= dt
    _fill_t_ext(sc.t_ext, t, t_ext)
    fill_reference(sc.schedule, sc.reference_mode, t, y_star, y_star_dot)
    # the laws as locals, looked up once per run rather than once per tick
    ip_law, pi_law, estimate = ip_control, pi_control, estimate_F
    ip = isinstance(cfg, IpController)
    if ip:
        w = cfg.window_len
        warm, scale, alpha = w - 1, slope_scale(w, dt), cfg.alpha
        # the least-squares slope over the measured row: (weight, offset of
        # the newer sample, offset of the older) per mirror pair, in order;
        # a window longer than the run never fills and needs none
        pairs = [(float(w - 1 - 2 * i), i, w - 1 - i) for i in range(w // 2)] if w <= n else []
    elif isinstance(cfg, PiController):
        gains = cfg
        # -0.0 + x == x for every x, sign of zero included, so without a
        # model the command is exactly the PI output
        f_row.fill(-0.0)
    else:
        gains = cfg.corrector()
        f_row[:] = flat_feedforward(y_star, y_star_dot, cfg.model)

    # the loop: the control law and the plant state
    m11, m12, m21, m22, g_i, g_w = rk4_map(sc.plant, dt)
    q_lo, q_hi = sc.actuator.bounds
    isfinite = math.isfinite
    # the measured row holds the noise until its tick overwrites it; the
    # last row is f_estim for iP and the feedforward for the other laws
    T, Y, M, W, TE, YS, YD, QC, QA, F = (memoryview(row) for row in buf)
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
                f_estim = estimate(scale * acc, u_prev, alpha)
            F[k] = f_estim
            q_command = ip_law(f_estim, YD[k], e, cfg)
        else:
            candidate = e_integral + e * dt    # rectangle rule
            q_command = F[k] + pi_law(e, candidate, gains)
        q_applied = q_lo if q_command < q_lo else (q_hi if q_command > q_hi else q_command)
        if ip:
            u_prev = q_applied
        elif q_applied == q_command:
            # conditional integration: the integral freezes while the
            # clamp is active, which is what keeps windup bounded
            e_integral = candidate
        if not (isfinite(y_meas) and isfinite(q_command)):
            raise SimulationError(f"non-finite controller value at tick {k} (t={T[k]})")
        Y[k] = ti
        W[k] = tw
        QC[k] = q_command
        QA[k] = q_applied
        # the RK4 step, in deviations from the tick's outdoor temperature
        te = TE[k]
        di, dw = ti - te, tw - te
        ti += m11 * di + m12 * dw + g_i * q_applied
        tw += m21 * di + m22 * dw + g_w * q_applied
        if not (isfinite(ti) and isfinite(tw)):
            raise SimulationError(f"non-finite plant state at tick {k} (t={T[k]})")
    return Trace(*buf[:-1], f_row if ip else None)


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
    e = trace.t_int_true - trace.y_star
    q, q_cmd = trace.q_applied, trace.q_command
    with np.errstate(over="ignore", invalid="ignore"):
        metrics = Metrics(
            rmse=float(np.sqrt(np.mean(e * e))),
            max_abs_error=float(np.max(np.abs(e))),
            energy=float(dt * np.sum(np.clip(q, 0.0, None))),
            cooling_energy=float(dt * np.sum(np.clip(-q, 0.0, None))),
            control_variation=float(np.sum(np.abs(np.diff(q)))),
            saturation_fraction=float(np.mean(q_cmd != q)),
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
    ``fn`` must be deterministic and free of side effects, as
    :func:`sweep_point` is: if the caller's share raises, a child's share
    does not arrive whole, or a pipe or a child cannot be made, the plain
    loop runs instead and returns or raises what the serial path does.
    No child outlives the call."""
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


def sweep_point(scenario: Scenario, factor: float) -> Metrics:
    """The metrics of the scenario run on its plant with all five
    parameters multiplied by ``factor``, the controller left as tuned.
    That plant is the scenario's with its heater gain divided by
    ``factor`` and the same time constants (:meth:`ThermalParams.scaled`).
    A product out of range raises ValueError naming its config key."""
    try:
        plant = scenario.plant.scaled(factor)
    except ValueError as exc:
        name = next(n for n in PARAMETERS if not 0.0 < getattr(scenario.plant, n) * factor < math.inf)
        raise ValueError(f"plant.{name} = {getattr(scenario.plant, name)!r} times sweep factor {factor!r}: {exc}") from None
    return compute_metrics(run(replace(scenario, plant=plant)))


def sweep(scenario: Scenario, factors: tuple[float, ...] = DEFAULT_SWEEP_FACTORS) -> list[tuple[float, Metrics]]:
    """Re-run the scenario with all five plant parameters multiplied by
    each factor, the runs spread over the CPUs.  Controller tuning is
    deliberately left untouched: the point is to measure how each
    strategy survives a plant it was not tuned for.  A uniform factor
    changes the input gain only: the plant's heater gain is divided by
    the factor, and its time constants do not change."""
    return list(zip(factors, spread(lambda factor: sweep_point(scenario, factor), factors)))

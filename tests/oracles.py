"""Slow oracles that the tests hold the package's fast paths to.

Each layer's fast path in ``heatloop`` is checked against a plainer
implementation of the same thing, kept here because no command runs it:

* plant: ``step_rk4``, one four-stage RK4 step on a
  :class:`ThermalState`, and ``exact_step``, the closed-form solution of
  the affine LTI model for held inputs through the eigendecomposition of
  its 2x2 system matrix; the step of ``rk4_map``'s affine map must agree
  with ``step_rk4`` to rounding, and both with ``exact_step`` to RK4's
  order.  ``map_step`` applies the map to a :class:`ThermalState` in the
  tick loop's order of operations, so that the loop can be held to a
  per-tick composition bit for bit;
* reference: the per-instant generators ``step_reference``,
  ``smooth_reference`` and ``ramp_reference``, which ``fill_reference``
  must equal at every tick;
* estimation: ``SlopeEstimator``, the least-squares slope over a ring
  of the last W samples, which the tick loop's mirror-pair sum must
  equal;
* noise: ``splitmix64``, ``uniform`` and ``gaussian``, one draw at a
  time, which ``gaussian_column`` must equal bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque

from heatloop.estimation import slope_scale
from heatloop.noise import _GOLDEN, _MASK
from heatloop.plant import NOMINAL, ThermalParams, ThermalState, system_matrices
from heatloop.reference import Schedule, _linear_blend, _quintic_blend


# ---------------------------------------------------------------------------
# the plant


def derivatives(state: ThermalState, q: float, t_ext: float, params: ThermalParams = NOMINAL) -> tuple[float, float]:
    """Right-hand side (dT_int/dt, dT_wall/dt) in K/s."""
    p = params
    wall_den = p.c_w if p.wall_denominator_cw else p.c_a
    d_int = q / p.c_a - (p.k_c / p.c_a) * (state.t_int - state.t_wall) - (p.k_f / p.c_a) * (state.t_int - t_ext)
    d_wall = (p.k_c / p.c_w) * (state.t_int - state.t_wall) - (p.k_ext / wall_den) * (state.t_wall - t_ext)
    return d_int, d_wall


def step_rk4(state: ThermalState, q: float, t_ext: float, dt: float, params: ThermalParams = NOMINAL) -> ThermalState:
    """Advance one step of length ``dt`` with the classical Runge-Kutta scheme.

    ``q`` and ``t_ext`` are held constant over the step (zero-order hold).
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    ti, tw = state.t_int, state.t_wall
    k1 = derivatives(state, q, t_ext, params)
    k2 = derivatives(ThermalState(ti + 0.5 * dt * k1[0], tw + 0.5 * dt * k1[1]), q, t_ext, params)
    k3 = derivatives(ThermalState(ti + 0.5 * dt * k2[0], tw + 0.5 * dt * k2[1]), q, t_ext, params)
    k4 = derivatives(ThermalState(ti + dt * k3[0], tw + dt * k3[1]), q, t_ext, params)
    return ThermalState(
        ti + dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        tw + dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
    )


def map_step(state: ThermalState, q: float, t_ext: float,
             coefficients: tuple[float, float, float, float, float, float]) -> ThermalState:
    """One step of ``rk4_map``'s affine map on a :class:`ThermalState`, in
    the tick loop's order of operations."""
    m11, m12, m21, m22, g_i, g_w = coefficients
    di, dw = state.t_int - t_ext, state.t_wall - t_ext
    return ThermalState(state.t_int + (m11 * di + m12 * dw + g_i * q), state.t_wall + (m21 * di + m22 * dw + g_w * q))


def equilibrium(q: float, t_ext: float, params: ThermalParams = NOMINAL) -> ThermalState:
    """Fixed point of the model for constant inputs (A is always invertible
    for positive parameters, so the fixed point is unique)."""
    (a11, a12, a21, a22), (b_q, b_f, b_w) = system_matrices(params)
    b1 = b_q * q + b_f * t_ext
    b2 = b_w * t_ext
    det = a11 * a22 - a12 * a21
    # x_eq = -A^-1 b via Cramer's rule.
    return ThermalState((-a22 * b1 + a12 * b2) / det, (a21 * b1 - a11 * b2) / det)


def _phi1(z: float) -> float:
    """(exp(z) - 1) / z, series-expanded near z = 0."""
    if abs(z) < 1e-5:
        return 1.0 + z * (0.5 + z * (1.0 / 6.0 + z * (1.0 / 24.0 + z / 120.0)))
    return math.expm1(z) / z


def propagator(dt: float, params: ThermalParams = NOMINAL) -> tuple[float, float, float, float]:
    """exp(A*dt) for the system matrix A, in row-major order.

    Computed from the eigenvalues of A.  For positive parameters the
    discriminant (a11 - a22)^2 + 4*a12*a21 is strictly positive, so the
    eigenvalues are real; the near-coincident case is handled by a series
    expansion rather than the difference quotient.
    """
    (a11, a12, a21, a22), _ = system_matrices(params)
    tr = a11 + a22
    disc = (a11 - a22) * (a11 - a22) + 4.0 * a12 * a21
    s = math.sqrt(max(disc, 0.0))
    lam1 = 0.5 * (tr + s)
    lam2 = 0.5 * (tr - s)
    e1 = math.exp(lam1 * dt)
    # exp(A t) = e^(lam1 t) I + r (A - lam1 I),  r = (e^(lam1 t) - e^(lam2 t)) / (lam1 - lam2)
    r = dt * e1 * _phi1((lam2 - lam1) * dt)
    return (
        e1 + r * (a11 - lam1),
        r * a12,
        r * a21,
        e1 + r * (a22 - lam1),
    )


def exact_step(state: ThermalState, q: float, t_ext: float, dt: float, params: ThermalParams = NOMINAL) -> ThermalState:
    """Closed-form solution after ``dt`` seconds of constant q and t_ext.

    x(dt) = x_eq + exp(A dt) (x(0) - x_eq).  Used as the reference route
    when validating ``step_rk4``; also fine for plain simulation when the
    inputs are piecewise constant.
    """
    if dt < 0.0:
        raise ValueError(f"dt must be nonnegative, got {dt!r}")
    eq = equilibrium(q, t_ext, params)
    e11, e12, e21, e22 = propagator(dt, params)
    dx1 = state.t_int - eq.t_int
    dx2 = state.t_wall - eq.t_wall
    return ThermalState(
        eq.t_int + e11 * dx1 + e12 * dx2,
        eq.t_wall + e21 * dx1 + e22 * dx2,
    )


# ---------------------------------------------------------------------------
# reference generators


def _segment_context(sched: Schedule, t: float) -> tuple[float, float, float]:
    """(previous setpoint, active setpoint, time since active segment start)."""
    if t < sched.start:
        raise ValueError(f"t={t!r} precedes the first segment start {sched.start!r}")
    starts = [s for s, _ in sched.segments]
    i = bisect_right(starts, t) - 1
    prev_sp = sched.segments[i - 1][1] if i > 0 else sched.segments[i][1]
    return prev_sp, sched.segments[i][1], t - starts[i]


def _blended(blend, sched: Schedule, t: float) -> tuple[float, float]:
    prev, cur, tau = _segment_context(sched, t)
    d = sched.transition_duration
    if prev == cur or tau >= d:
        return cur, 0.0
    return blend(prev, cur, tau, d)


def step_reference(sched: Schedule, t: float) -> tuple[float, float]:
    """Piecewise-constant reference: the active setpoint, slope 0."""
    _, cur, _ = _segment_context(sched, t)
    return cur, 0.0


def smooth_reference(sched: Schedule, t: float) -> tuple[float, float]:
    """Quintic blend a -> b over [start, start + D).

    With sigma = tau/D the blend is s = 6 sigma^5 - 15 sigma^4 + 10 sigma^3,
    whose first and second derivatives vanish at both ends.
    """
    return _blended(_quintic_blend, sched, t)


def ramp_reference(sched: Schedule, t: float) -> tuple[float, float]:
    """Linear blend a -> b over [start, start + D); slope (b-a)/D inside."""
    return _blended(_linear_blend, sched, t)


REFERENCE_GENERATORS = {
    "step": step_reference,
    "smooth": smooth_reference,
    "ramp": ramp_reference,
}


# ---------------------------------------------------------------------------
# the slope estimator


class SlopeEstimator:
    """Least-squares slope of the last ``window_len`` values pushed, one
    ``dt`` apart (``window_len`` 2 is a backward difference)."""

    def __init__(self, window_len: int, dt: float):
        # the deque allocates as it fills, and the scale is closed-form,
        # so a huge window costs nothing until samples arrive
        self._ring = deque(maxlen=window_len)
        self._scale = slope_scale(window_len, dt)

    def push(self, y: float) -> None:
        self._ring.append(y)

    @property
    def slope(self) -> float | None:
        """None until the window is full (warm-up).

        Mirror samples are subtracted before weighting, so a constant
        window gives exactly 0.
        """
        ring = self._ring
        w = len(ring)
        if w < ring.maxlen:
            return None
        acc = 0.0
        for i in range(w // 2):
            acc += (w - 1 - 2 * i) * (ring[-1 - i] - ring[i])
        return self._scale * acc


# ---------------------------------------------------------------------------
# the noise stream


def _mix64(x: int) -> int:
    z = x & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def splitmix64(seed: int, k: int) -> int:
    """k-th 64-bit output of SplitMix64 seeded with ``seed`` (k >= 0)."""
    if k < 0:
        raise ValueError(f"stream index must be nonnegative, got {k!r}")
    return _mix64((seed + (k + 1) * _GOLDEN) & _MASK)


def uniform(seed: int, k: int) -> float:
    """k-th uniform draw in [0, 1), 53-bit resolution."""
    return (splitmix64(seed, k) >> 11) * 2.0 ** -53


def gaussian(seed: int, k: int) -> float:
    """k-th standard normal draw (Box-Muller, cosine branch)."""
    u1 = uniform(seed, 2 * k)
    u2 = uniform(seed, 2 * k + 1)
    if u1 <= 0.0:
        u1 = 2.0 ** -53
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

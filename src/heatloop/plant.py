"""Two-node thermal model of a heated room.

The indoor air node receives the heat input directly and exchanges heat
with a lumped wall node and, through a small leakage path, with the
outdoor air.  The wall exchanges heat with the indoor air on one side
and with the outdoor air on the other:

    dT_int/dt  = q/c_a - (k_c/c_a)*(T_int - T_wall) - (k_f/c_a)*(T_int - T_ext)
    dT_wall/dt = (k_c/c_w)*(T_int - T_wall) - (k_ext/c_a)*(T_wall - T_ext)

Note the denominator of the wall's outdoor-coupling term: it is c_a by
default, which is what this model deliberately reproduces.  Set
``wall_denominator_cw=True`` on :class:`ThermalParams` to use c_w there
instead; everything downstream (integrators, equilibria) follows the
flag automatically.

For piecewise-constant q and t_ext the model is affine LTI, so each
hold interval has a closed-form solution.  ``exact_step`` evaluates it
through the eigendecomposition of the 2x2 system matrix and serves as
an independent reference for the ``step_rk4`` integrator.  The engine
steps with :func:`rk4_stepper`, the same integrator on bare floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class ThermalParams:
    """Lumped capacities (J/K) and conductances (W/K) of the model."""

    c_a: float = 1400.0
    c_w: float = 2200.0
    k_c: float = 1.4
    k_f: float = 0.004
    k_ext: float = 0.04
    wall_denominator_cw: bool = False

    def __post_init__(self) -> None:
        for name in ("c_a", "c_w", "k_c", "k_f", "k_ext"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
                raise ValueError(f"ThermalParams.{name} must be a positive finite number, got {value!r}")

    def scaled(self, factor: float) -> "ThermalParams":
        """All five parameters multiplied by ``factor`` (flag preserved)."""
        if not factor > 0.0:
            raise ValueError(f"scale factor must be positive, got {factor!r}")
        return ThermalParams(
            c_a=self.c_a * factor,
            c_w=self.c_w * factor,
            k_c=self.k_c * factor,
            k_f=self.k_f * factor,
            k_ext=self.k_ext * factor,
            wall_denominator_cw=self.wall_denominator_cw,
        )


NOMINAL = ThermalParams()


@dataclass(frozen=True)
class ThermalState:
    """Indoor air and wall temperatures (degrees C)."""

    t_int: float
    t_wall: float


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


def rk4_stepper(params: ThermalParams, dt: float) -> Callable[[float, float, float, float], tuple[float, float]]:
    """``step(t_int, t_wall, q, t_ext) -> (t_int, t_wall)``: the ``step_rk4``
    of ``params`` and ``dt`` on bare floats.

    The coefficient quotients and step fractions are computed once; every
    other operation is the one ``step_rk4`` does, in its order, so the two
    agree bit for bit.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    p = params
    c_a = p.c_a
    a_ic, a_if = p.k_c / c_a, p.k_f / c_a
    a_wc, a_we = p.k_c / p.c_w, p.k_ext / (p.c_w if p.wall_denominator_cw else c_a)
    half, sixth = 0.5 * dt, dt / 6.0

    def step(ti: float, tw: float, q: float, te: float) -> tuple[float, float]:
        q_a = q / c_a
        d1 = q_a - a_ic * (ti - tw) - a_if * (ti - te)
        w1 = a_wc * (ti - tw) - a_we * (tw - te)
        i2, x2 = ti + half * d1, tw + half * w1
        d2 = q_a - a_ic * (i2 - x2) - a_if * (i2 - te)
        w2 = a_wc * (i2 - x2) - a_we * (x2 - te)
        i3, x3 = ti + half * d2, tw + half * w2
        d3 = q_a - a_ic * (i3 - x3) - a_if * (i3 - te)
        w3 = a_wc * (i3 - x3) - a_we * (x3 - te)
        i4, x4 = ti + dt * d3, tw + dt * w3
        d4 = q_a - a_ic * (i4 - x4) - a_if * (i4 - te)
        w4 = a_wc * (i4 - x4) - a_we * (x4 - te)
        return ti + sixth * (d1 + 2.0 * d2 + 2.0 * d3 + d4), tw + sixth * (w1 + 2.0 * w2 + 2.0 * w3 + w4)

    return step


def system_matrices(params: ThermalParams = NOMINAL) -> tuple[tuple[float, float, float, float], tuple[float, float, float]]:
    """Affine form of the model: x' = A x + b with x = (T_int, T_wall).

    Returns ``(a11, a12, a21, a22)`` and the input map ``(b_q, b_f, b_w)``
    such that b = (b_q * q + b_f * t_ext, b_w * t_ext).
    """
    p = params
    wall_den = p.c_w if p.wall_denominator_cw else p.c_a
    a11 = -(p.k_c + p.k_f) / p.c_a
    a12 = p.k_c / p.c_a
    a21 = p.k_c / p.c_w
    a22 = -(p.k_c / p.c_w + p.k_ext / wall_den)
    return (a11, a12, a21, a22), (1.0 / p.c_a, p.k_f / p.c_a, p.k_ext / wall_den)


def equilibrium(q: float, t_ext: float, params: ThermalParams = NOMINAL) -> ThermalState:
    """Fixed point of the model for constant inputs (A is always invertible
    for positive parameters, so the fixed point is unique)."""
    (a11, a12, a21, a22), (b_q, b_f, b_w) = system_matrices(params)
    b1 = b_q * q + b_f * t_ext
    b2 = b_w * t_ext
    det = a11 * a22 - a12 * a21
    # x_eq = -A^-1 b via Cramer's rule.
    return ThermalState((-a22 * b1 + a12 * b2) / det, (a21 * b1 - a11 * b2) / det)


def wall_equilibrium(t_int: float, t_ext: float, params: ThermalParams = NOMINAL) -> float:
    """Wall temperature at rest for a held indoor temperature."""
    (_, _, a21, a22), (_, _, b_w) = system_matrices(params)
    # 0 = a21*t_int + a22*t_wall + b_w*t_ext
    return -(a21 * t_int + b_w * t_ext) / a22


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

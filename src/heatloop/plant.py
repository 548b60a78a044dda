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

The engine steps the model with :func:`rk4_stepper`, classical RK4 on
bare floats with q and t_ext held over the step.  For piecewise-constant
inputs the model is affine LTI (:func:`system_matrices`), so each hold
interval also has a closed-form solution; the tests keep it as the
oracle that the integrator is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

PARAMETERS = ("c_a", "c_w", "k_c", "k_f", "k_ext")    # the five physical parameters


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
        for name in PARAMETERS:
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
                raise ValueError(f"ThermalParams.{name} must be a positive finite number, got {value!r}")

    def scaled(self, factor: float) -> "ThermalParams":
        """All five parameters multiplied by ``factor`` (flag preserved).

        Every coefficient of the model is a ratio of two parameters except
        the heater gain 1/c_a, so this is the same plant with its heater
        gain divided by ``factor``: its time constants do not change.
        """
        return replace(self, **{name: getattr(self, name) * factor for name in PARAMETERS})


NOMINAL = ThermalParams()


@dataclass(frozen=True)
class ThermalState:
    """Indoor air and wall temperatures (degrees C)."""

    t_int: float
    t_wall: float


def rk4_stepper(params: ThermalParams, dt: float) -> Callable[[float, float, float, float], tuple[float, float]]:
    """``step(t_int, t_wall, q, t_ext) -> (t_int, t_wall)``: one classical
    Runge-Kutta step of length ``dt`` of the model with ``params``, with
    ``q`` and ``t_ext`` held constant over the step (zero-order hold).

    The coefficient quotients and step fractions are computed once per
    stepper; the tests hold each step bit for bit to the same scheme
    written on :class:`ThermalState`.
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


def wall_equilibrium(t_int: float, t_ext: float, params: ThermalParams = NOMINAL) -> float:
    """Wall temperature at rest for a held indoor temperature."""
    (_, _, a21, a22), (_, _, b_w) = system_matrices(params)
    # 0 = a21*t_int + a22*t_wall + b_w*t_ext
    return -(a21 * t_int + b_w * t_ext) / a22



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

:func:`system_matrices` is the one statement of the model: x' = A x + b,
affine LTI for inputs held over a tick.  The engine steps it with
classical RK4, q and t_ext held over the step, which on this model is
the affine map :func:`rk4_map` builds once per run from A: six
multiplies on bare floats per tick.  RK4 is stable only while
``dt * fastest_rate(params) <= RK4_STABILITY``.  Each hold interval also
has a closed-form solution; the tests keep it, with the four-stage form
of RK4, as the oracles that the map is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
        """All five parameters multiplied by ``factor`` (flag preserved),
        the plant of a robustness-sweep run (:func:`heatloop.engine.scaled`).

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


# RK4 is stable for dt*lambda on [-RK4_STABILITY, 0], where R(z) = 1 + z + z²/2 + z³/6 + z⁴/24 is at most 1
RK4_STABILITY = 2.785293563405282


def fastest_rate(params: ThermalParams) -> float:
    """The spectral radius of the system matrix A in 1/s: the magnitude of
    the model's faster eigenvalue.  RK4 stays stable on this model for
    ``dt * fastest_rate(params) <= RK4_STABILITY``."""
    (a11, a12, a21, a22), _ = system_matrices(params)
    # a12*a21 > 0, so both eigenvalues are real, and both are negative: the
    # faster is (tr - sqrt(disc)) / 2, its root split so that it cannot overflow
    return 0.5 * (math.hypot(a11 - a22, 2.0 * math.sqrt(a12) * math.sqrt(a21)) - (a11 + a22))


def rk4_map(params: ThermalParams, dt: float) -> tuple[float, float, float, float, float, float]:
    """``(m11, m12, m21, m22, g_i, g_w)``: one classical Runge-Kutta step of
    length ``dt`` of the model with ``params``, with ``q`` and ``t_ext``
    held constant over the step (zero-order hold), as the affine map that
    RK4 is on this linear model.  In deviations from the outdoor
    temperature, ``di = t_int - t_ext`` and ``dw = t_wall - t_ext``, the
    step is

        t_int  += m11*di + m12*dw + g_i*q
        t_wall += m21*di + m22*dw + g_w*q

    with M = R(Z) - I = Z + Z²/2 + Z³/6 + Z⁴/24 and (g_i, g_w) the first
    column of dt S(Z) b_q, S(Z) = I + Z/2 + Z²/6 + Z³/24, for Z = dt A.
    t_ext drops out because A (1, 1) = -(b_f, b_w): a uniform temperature
    with no heat is the model's rest point, and the step keeps it bit for
    bit.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    (a11, a12, a21, a22), (b_q, _, _) = system_matrices(params)
    z11, z12, z21, z22 = dt * a11, dt * a12, dt * a21, dt * a22
    # Z², Z³ and Z⁴, one row-major 2x2 product at a time
    y11, y12, y21, y22 = z11 * z11 + z12 * z21, z11 * z12 + z12 * z22, z21 * z11 + z22 * z21, z21 * z12 + z22 * z22
    x11, x12, x21, x22 = y11 * z11 + y12 * z21, y11 * z12 + y12 * z22, y21 * z11 + y22 * z21, y21 * z12 + y22 * z22
    w11, w12, w21, w22 = x11 * z11 + x12 * z21, x11 * z12 + x12 * z22, x21 * z11 + x22 * z21, x21 * z12 + x22 * z22
    h = dt * b_q
    return (
        z11 + y11 / 2.0 + x11 / 6.0 + w11 / 24.0,
        z12 + y12 / 2.0 + x12 / 6.0 + w12 / 24.0,
        z21 + y21 / 2.0 + x21 / 6.0 + w21 / 24.0,
        z22 + y22 / 2.0 + x22 / 6.0 + w22 / 24.0,
        h * (1.0 + z11 / 2.0 + y11 / 6.0 + x11 / 24.0),
        h * (z21 / 2.0 + y21 / 6.0 + x21 / 24.0),
    )


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



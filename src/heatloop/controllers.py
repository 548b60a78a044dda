"""Controller configurations: their gains, defaults and pole placement.

Four controller kinds share two laws.  ``ip`` is the model-free
intelligent-P law,

    u = -(F_estim - y_star_dot - k_p*e) / alpha.

The other three are one law, a feedforward plus a PI corrector,

    q = q_star + (k_p*e + k_i*integral(e)):

``pi`` has no feedforward, while ``flat_p`` and ``flat_pi`` add the
flatness feedforward of their plant model (:func:`flat_feedforward`)
and place the corrector gains from a requested closed-loop pole
(``flat_p`` with k_i = 0).  Both laws are written out in the engine's
tick loop, with the integrator and estimator state; the tests hold the
loop to the laws as plain functions, kept in their oracles.

All controllers share the error convention e = y - y_star, so the usual
gains come out negative (too cold means e < 0 and the heat command must
rise).  Each controller default is written once, in its dataclass below;
:func:`default_controller` hands the same defaults to config parsing,
the CLI and the sweep.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

from .plant import NOMINAL, ThermalParams

HEATING_ONLY = "heating_only"
HEATING_AND_COOLING = "heating_and_cooling"


@dataclass(frozen=True)
class IpController:
    """Ultra-local input gain alpha, proportional gain k_p (1/s) and the
    slope-fit window in samples.

    The ultra-local model y' = F + alpha*u lumps into F all the law does
    not know.  Each tick F = dy_hat - alpha*u_prev, u_prev the input
    already applied (which keeps the estimate causal), dy_hat the
    least-squares slope over the last window_len measured values: on the
    uniform tick grid, a fixed FIR filter (first-derivative Savitzky-Golay).

    alpha is a loop-shaping knob, not a physical parameter: rescaling
    (alpha, u) to (c*alpha, u/c) leaves the applied physical heat
    unchanged when F_estim is recomputed consistently.
    """

    alpha: float = 0.5
    k_p: float = -0.5
    window_len: int = 5

    kind = "ip"

    def __post_init__(self) -> None:
        if self.alpha == 0.0 or not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be a finite nonzero number, got {self.alpha!r}")
        if not (isinstance(self.window_len, int) and 2 <= self.window_len <= sys.maxsize):
            raise ValueError(f"window_len must be an integer between 2 and {sys.maxsize}, got {self.window_len!r}")


@dataclass(frozen=True)
class PiController:
    """q = k_p*e + k_i*integral(e); also the corrector of the flat kinds."""

    k_p: float = -0.5
    k_i: float = -0.01

    kind = "pi"


@dataclass(frozen=True)
class FlatPController:
    """Feedforward plus P corrector.  ``model`` is the parameter set the
    controller believes in; it stays fixed when the true plant is
    perturbed (see :func:`heatloop.engine.sweep`)."""

    pole: float = -0.01
    model: ThermalParams = NOMINAL

    kind = "flat_p"

    def __post_init__(self) -> None:
        self.corrector()    # the placement checks the pole

    def corrector(self) -> PiController:
        return PiController(k_p=place_flat_p_gain(self.pole, self.model), k_i=0.0)


@dataclass(frozen=True)
class FlatPiController:
    """Feedforward plus PI corrector with a double closed-loop pole."""

    double_pole: float = -0.005
    model: ThermalParams = NOMINAL

    kind = "flat_pi"

    def __post_init__(self) -> None:
        self.corrector()    # the placement checks the pole

    def corrector(self) -> PiController:
        k_p, k_i = place_flat_pi_gains(self.double_pole, self.model)
        return PiController(k_p=k_p, k_i=k_i)


ControllerConfig = Union[IpController, PiController, FlatPController, FlatPiController]

CONTROLLERS = {cls.kind: cls for cls in (IpController, PiController, FlatPController, FlatPiController)}


def default_controller(kind: str, plant: ThermalParams) -> ControllerConfig:
    """The default controller of ``kind``; a flat controller models ``plant``."""
    cls = CONTROLLERS[kind]
    return cls(model=plant) if "model" in cls.__dataclass_fields__ else cls()


def flat_feedforward(y_star: float, y_star_dot: float, params: ThermalParams) -> float:
    """Nominal heat that tracks y_star on the simplified air-node model
    c_a*T' = q - (k_c + k_f)*T (wall and outdoor terms dropped):

        q_star = c_a*y_star_dot + (k_c + k_f)*y_star

    Takes floats or whole columns; a column costs one temporary besides
    the result.
    """
    q_star = params.c_a * y_star_dot
    q_star += (params.k_c + params.k_f) * y_star
    return q_star


def place_flat_p_gain(pole: float, params: ThermalParams) -> float:
    """Corrector gain putting the simplified closed loop's pole at ``pole``.

    With q = q_star + k_p*e the error obeys c_a*e' = (k_p - (k_c + k_f))*e,
    so k_p = c_a*pole + (k_c + k_f).
    """
    if not pole < 0.0:
        raise ValueError(f"pole must have negative real part, got {pole!r}")
    return params.c_a * pole + (params.k_c + params.k_f)


def place_flat_pi_gains(double_pole: float, params: ThermalParams) -> tuple[float, float]:
    """PI corrector gains for a double closed-loop pole at ``double_pole``.

    The error model c_a*e'' = (k_p - (k_c + k_f))*e' + k_i*e has the
    characteristic polynomial s^2 + ((k_c + k_f - k_p)/c_a)*s - k_i/c_a;
    matching (s - p)^2 gives

        k_p = (k_c + k_f) + 2*p*c_a,    k_i = -c_a*p^2.
    """
    if not double_pole < 0.0:
        raise ValueError(f"double_pole must have negative real part, got {double_pole!r}")
    k_p = (params.k_c + params.k_f) + 2.0 * double_pole * params.c_a
    k_i = -params.c_a * double_pole * double_pole
    return k_p, k_i


@dataclass(frozen=True)
class ActuatorMode:
    """Saturation limits of the heat actuator.

    heating_only clamps to [0, q_max]; heating_and_cooling to
    [-q_max, q_max].
    """

    mode: str = HEATING_AND_COOLING
    q_max: float = 2000.0

    def __post_init__(self) -> None:
        if self.mode not in (HEATING_ONLY, HEATING_AND_COOLING):
            raise ValueError(f"unknown actuator mode {self.mode!r}")
        if not (math.isfinite(self.q_max) and self.q_max > 0.0):
            raise ValueError(f"q_max must be positive, got {self.q_max!r}")

    @property
    def bounds(self) -> tuple[float, float]:
        """(lowest, highest) heat the actuator applies."""
        return (0.0 if self.mode == HEATING_ONLY else -self.q_max), self.q_max


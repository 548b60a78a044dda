"""heatloop: closed-loop simulation toolkit for room heating control.

A two-node thermal plant (indoor air plus lumped wall) is driven by one
of four control strategies: a model-free intelligent-P loop built on an
ultra-local model, a classic PI loop, and a flatness-based feedforward
with either P or PI correction.  The engine runs the whole loop on a
fixed tick grid and produces per-tick logs, summary metrics, parameter
sweeps and file outputs for side-by-side comparison.
"""

from .controllers import (
    HEATING_AND_COOLING,
    HEATING_ONLY,
    ActuatorMode,
    FlatPController,
    FlatPiController,
    IpController,
    PiController,
    clamp,
    flat_feedforward,
    ip_control,
    pi_control,
    place_flat_p_gain,
    place_flat_pi_gains,
)
from .config import ConfigError, load_scenario, parse_scenario, save_scenario, serialize_scenario
from .engine import (
    ConstantTExt,
    DEFAULT_SWEEP_FACTORS,
    Metrics,
    Scenario,
    SimRecord,
    SimulationError,
    SinusoidTExt,
    TableTExt,
    compute_metrics,
    default_scenario,
    run,
    sweep,
    transition_spans,
)
from .estimation import EstimatorState, UltraLocalConfig, estimate_derivative, estimate_F
from .plant import (
    NOMINAL,
    ThermalParams,
    ThermalState,
    derivatives,
    equilibrium,
    exact_step,
    propagator,
    step_rk4,
    system_matrices,
    wall_equilibrium,
)
from .reference import REFERENCE_GENERATORS, Schedule, ramp_reference, smooth_reference, step_reference

__version__ = "0.1.0"

__all__ = [
    "ActuatorMode",
    "ConfigError",
    "ConstantTExt",
    "DEFAULT_SWEEP_FACTORS",
    "EstimatorState",
    "FlatPController",
    "FlatPiController",
    "HEATING_AND_COOLING",
    "HEATING_ONLY",
    "IpController",
    "Metrics",
    "NOMINAL",
    "PiController",
    "REFERENCE_GENERATORS",
    "Scenario",
    "Schedule",
    "SimRecord",
    "SimulationError",
    "SinusoidTExt",
    "TableTExt",
    "ThermalParams",
    "ThermalState",
    "UltraLocalConfig",
    "clamp",
    "compute_metrics",
    "default_scenario",
    "derivatives",
    "equilibrium",
    "estimate_F",
    "estimate_derivative",
    "exact_step",
    "flat_feedforward",
    "ip_control",
    "load_scenario",
    "parse_scenario",
    "pi_control",
    "place_flat_p_gain",
    "place_flat_pi_gains",
    "propagator",
    "ramp_reference",
    "run",
    "save_scenario",
    "serialize_scenario",
    "smooth_reference",
    "step_reference",
    "step_rk4",
    "sweep",
    "system_matrices",
    "transition_spans",
    "wall_equilibrium",
]

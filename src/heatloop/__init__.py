"""heatloop: closed-loop simulation toolkit for room heating control.

A two-node thermal plant (indoor air plus lumped wall) is driven by one
of four control strategies: a model-free intelligent-P loop built on an
ultra-local model, a classic PI loop, and a flatness-based feedforward
with either P or PI correction.  The engine runs the whole loop on a
fixed tick grid and produces per-tick logs, summary metrics, parameter
sweeps and file outputs for side-by-side comparison.
"""

from .controllers import FlatPController, FlatPiController, IpController, PiController
from .engine import ConstantTExt, compute_metrics, default_scenario, run, sweep
from .plant import NOMINAL

__version__ = "0.1.0"

__all__ = [
    "ConstantTExt",
    "FlatPController",
    "FlatPiController",
    "IpController",
    "NOMINAL",
    "PiController",
    "compute_metrics",
    "default_scenario",
    "run",
    "sweep",
]

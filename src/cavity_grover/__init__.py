"""Two-qubit Grover search on Rydberg atoms colliding in a detuned cavity.

The logical layer (gates) runs the ideal five-step sequence; the
physical layer (cavity, experiment) replays it with resonant and
Stark pulses interleaved with two cavity-assisted collisions, under
either the exact coupling Hamiltonian or its dispersive approximation.
The package root exports what the command line uses; everything else
is imported from its module.
"""

from .experiment import (
    ConfigError,
    ExperimentConfig,
    feasibility_report,
    run_physical,
    sweep_detuning,
    sweep_error,
)
from .gates import run_ideal
from .linalg import NumericalError

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "NumericalError",
    "feasibility_report",
    "run_ideal",
    "run_physical",
    "sweep_detuning",
    "sweep_error",
]

__version__ = "0.1.0"

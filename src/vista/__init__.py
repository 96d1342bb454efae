"""Variational estimation of Hamiltonian parameters with noisy GHZ probes.

A GHZ probe evolves under collective-rotation dynamics with optional
dephasing or amplitude-damping noise.  A parameterized twin state is compared
to the probe through a sampled swap test, and the resulting loss is minimized
with ADAM to recover the rotation angle (and, in the noisy modes, the decay
rate through a matched disentangling angle).  Closed forms of the GHZ state
from its phase and each qubit's (p, kappa) (in ``vista.dynamics``), a dense
Lindblad integrator, Fisher-information bounds, a cascaded scaling protocol,
and a Fourier-spectrum baseline round out the toolkit.
"""

from .config import RunConfig, from_dict, load_config
from .dynamics import ChannelSpec, HamiltonianSpec, lindblad_rk4_oracle
from .errors import (
    CalibrationError,
    ConfigError,
    DimensionError,
    DomainError,
    NoPeakError,
    NumericsError,
    UnsupportedModelError,
    VistaError,
)
from .measurement import loss, parity_probability
from .protocols import run_baseline_fft, run_from_config
from .results import RunResult, persist

__version__ = "0.1.0"

__all__ = [
    "CalibrationError",
    "ChannelSpec",
    "ConfigError",
    "DimensionError",
    "DomainError",
    "HamiltonianSpec",
    "NoPeakError",
    "NumericsError",
    "RunConfig",
    "RunResult",
    "UnsupportedModelError",
    "VistaError",
    "from_dict",
    "lindblad_rk4_oracle",
    "load_config",
    "loss",
    "parity_probability",
    "persist",
    "run_baseline_fft",
    "run_from_config",
    "__version__",
]

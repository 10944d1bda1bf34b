"""rechip: photon-level simulator for a reconfigurable two-qubit waveguide chip.

The package models a six-waveguide circuit carrying two dual-rail photonic
qubits through a postselected CNOT, with eight thermo-optic phase shifters
as the control surface.  It provides two cross-validating models (gate-level
algebra and full two-photon waveguide simulation), a stochastic noise layer,
heater calibration fits, maximum-likelihood state tomography, and experiment
drivers (random-configuration benchmark, Bell states, CHSH manifold, mixed
single-qubit states, HOM dip).
"""

import math

from .chip import (
    PhaseConfig,
    CoincidenceProbs,
    h_prime,
    u_prep,
    u_cnot,
    two_qubit_unitary,
    default_netlist,
    verify_cnot,
    coincidence_probs,
)
from .noise import NoiseModel, CountRecord, SpectralModel
from .optics import Coupler, Phase, Netlist

__version__ = "0.1.0"

# Report schema, defaults and input caps that the command-line parser states;
# they live here so that the parser reads them without importing the drivers.
SCHEMA = 1  # version of every report document
DEFAULT_MANIFOLD_STEP = 2.0 * math.pi / 15.0
MAX_MANIFOLD_SIDE = 1001  # grid points per axis: a step of at least 2*pi/1000
MAX_BENCHMARK_N = 10**6  # benchmark rows: they run in blocks, so memory stays flat
MAX_SUITE_TARGETS = 10**4  # mixed-suite targets, drawn or given: all of them share one batch
MAX_MC_TRIALS = 10**3  # Poisson resamples per error bar: one batch per target or grid point
MAX_HOM_POINTS = 10**5  # delays in one HOM scan: every report holds each of them

__all__ = [
    "PhaseConfig",
    "CoincidenceProbs",
    "NoiseModel",
    "CountRecord",
    "SpectralModel",
    "Coupler",
    "Phase",
    "Netlist",
    "h_prime",
    "u_prep",
    "u_cnot",
    "two_qubit_unitary",
    "default_netlist",
    "verify_cnot",
    "coincidence_probs",
    "__version__",
]

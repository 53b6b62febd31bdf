"""Numerical laboratory for the partial-data Calderon problem on the unit disk.

Modules:
  geometry    - conformal disk domains, triangulations, quadrature
  forward     - P1 finite-element Schrodinger solves and boundary traces
  holo        - holomorphic Morse phases real on the inaccessible arc
  cgo         - complex-geometric-optics solutions and remainder hierarchy
  carleman    - numerical verification of the Carleman inequality
  reconstruct - recovery of potential differences at interior and boundary points
  cli         - scenario-driven command-line front end
"""

from .geometry import ConfigurationError, DiskDomain, Mesh, build_disk_mesh
from .forward import SchrodingerOperator, boundary_pairing, operator
from .holo import HoloFunction, build_amplitude, build_morse_phase, cauchy_transform, find_critical_points
from .cgo import CGO, residual_scaling_report
from .carleman import CarlemanWeight, build_carleman_weight, carleman_sweep
from .reconstruct import (
    StationaryPhaseModel,
    boundary_scan,
    difference_map,
    pointwise_difference,
    stationary_phase_constant,
)
from .scenarios import Scenario, load_scenario
from .cli import main, run_scenario

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DiskDomain",
    "Mesh",
    "build_disk_mesh",
    "SchrodingerOperator",
    "boundary_pairing",
    "operator",
    "HoloFunction",
    "build_amplitude",
    "build_morse_phase",
    "cauchy_transform",
    "find_critical_points",
    "CGO",
    "residual_scaling_report",
    "CarlemanWeight",
    "build_carleman_weight",
    "carleman_sweep",
    "StationaryPhaseModel",
    "boundary_scan",
    "difference_map",
    "pointwise_difference",
    "stationary_phase_constant",
    "Scenario",
    "load_scenario",
    "main",
    "run_scenario",
    "__version__",
]

"""Space-domain ecological CACC: fuel-optimal platoon planning on rolling terrain.

The package plans platoon trajectories over a spatial grid (state: arrival
time and slowness per vehicle) with a constrained differential-dynamic-
programming solver, compares them against a constant-time-gap CACC baseline,
meters fuel with a log-polynomial consumption model, and verifies string
stability empirically.
"""

from .baseline import CaccGains, baseline_step, simulate_baseline
from .constraints import ALState
from .costs import CostBreakdown, CostWeights
from .errors import (
    BackwardPassError,
    ConfigError,
    EcoPlatoonError,
    IntegrationError,
    StallError,
)
from .fuel import FuelModel, equivalent_traction_accel, fuel_rate, trajectory_fuel
from .platoon import (
    ControlTrajectory,
    PlatoonConfig,
    PlatoonState,
    VehicleParams,
    resimulate_time_domain,
)
from .scenario import Scenario, load_scenario
from .solver import SolveReport, SolverOptions, receding_horizon_run, solve
from .stability import PerturbationSpec, StabilityReport, following_errors, run_perturbation
from .terrain import SlopeProfile, build_preset, grade_at, load_profile

__version__ = "0.1.0"

__all__ = [
    "ALState",
    "BackwardPassError",
    "CaccGains",
    "ConfigError",
    "ControlTrajectory",
    "CostBreakdown",
    "CostWeights",
    "EcoPlatoonError",
    "FuelModel",
    "IntegrationError",
    "PerturbationSpec",
    "PlatoonConfig",
    "PlatoonState",
    "Scenario",
    "SlopeProfile",
    "SolveReport",
    "SolverOptions",
    "StabilityReport",
    "StallError",
    "VehicleParams",
    "baseline_step",
    "build_preset",
    "equivalent_traction_accel",
    "following_errors",
    "fuel_rate",
    "grade_at",
    "load_profile",
    "load_scenario",
    "receding_horizon_run",
    "resimulate_time_domain",
    "run_perturbation",
    "simulate_baseline",
    "trajectory_fuel",
    "solve",
]

"""Empirical string-stability verification.

Stability is checked the way it is defined: perturb the platoon leader's
speed, re-plan, and compare acceleration responses down the platoon. The
deviation signal per vehicle is the difference in equivalent traction
acceleration between the perturbed and unperturbed runs, sampled on the
spatial grid; transfer ratios are discrete L2-norm quotients. A platoon is
string stable when no adjacent pair amplifies: max_j ||da_j|| / ||da_{j-1}||
<= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import solver as solver_mod
from .costs import CostWeights
from .errors import ConfigError
from .fuel import equivalent_accel_grid
from .platoon import PlatoonConfig, PlatoonState
from .terrain import SlopeProfile

_NORM_EPS = 1e-12


@dataclass(frozen=True)
class PerturbationSpec:
    """Leader-speed perturbation: a step at entry or a pulse mid-route."""

    magnitude: float  # m/s, nonzero
    shape: str = "step"  # "step" | "pulse"
    onset_position: float = 0.0  # m
    duration: float = 0.0  # m, pulse only

    def __post_init__(self):
        if self.magnitude == 0.0:
            raise ConfigError("perturbation magnitude must be nonzero")
        if self.shape not in ("step", "pulse"):
            raise ConfigError(f"unknown perturbation shape {self.shape!r}")
        if self.shape == "pulse" and self.duration <= 0.0:
            raise ConfigError("pulse perturbations need a positive duration")


@dataclass
class StabilityReport:
    """Transfer ratios down the platoon plus the raw deviation signals."""

    gamma: dict  # j -> ||da_j|| / ||da_{j-1}||, j in 2..N (1-based)
    gamma_vs_leader: dict  # j -> ||da_j|| / ||da_1||
    stable: bool
    deviation_norms: np.ndarray  # (N,)
    deviations: np.ndarray  # (N, K) equivalent-traction-accel deviations
    defined: bool  # False when the reference signals vanished (0/0 guard)


def following_errors(state: PlatoonState, config: PlatoonConfig) -> np.ndarray:
    """Longitudinal following errors t_1 - t_i - (i-1)h over all steps, (N, K+1).

    Row 0 (the leader) is identically zero.
    """
    t = state.arrival_times
    n = config.n_vehicles
    offsets = np.arange(n) * config.headway
    return t[0][None, :] - t - offsets[:, None]


def run_perturbation(
    config: PlatoonConfig,
    weights: CostWeights,
    profile: SlopeProfile,
    spec: PerturbationSpec,
    options: solver_mod.SolverOptions = solver_mod.SolverOptions(),
    baseline_report=None,
) -> StabilityReport:
    """Solve unperturbed and perturbed plans and measure the transfer ratios.

    The unperturbed plan starts the platoon at the target speed with exact
    spacing; a precomputed ``baseline_report`` for that configuration may be
    passed to amortize sweeps. Step perturbations shift the leader's entry
    speed by the magnitude; pulse perturbations inject the shift at the onset
    position (and remove it after ``duration`` meters) during a
    receding-horizon execution.
    """
    n = config.n_vehicles
    v0 = config.target_speed
    t0 = -np.arange(n) * config.headway
    pi0 = np.full(n, 1.0 / v0)

    if spec.shape == "step":
        if baseline_report is None:
            baseline_report = solver_mod.solve(config, weights, profile, t0, pi0, options)
        pi0_pert = pi0.copy()
        pi0_pert[0] = 1.0 / (v0 + spec.magnitude)
        perturbed = solver_mod.solve(
            config,
            weights,
            profile,
            t0,
            pi0_pert,
            options,
            targets=baseline_report.targets,
            initial_controls=baseline_report.controls.accels,
        )
        base_accel = equivalent_accel_grid(
            baseline_report.states, baseline_report.controls, profile, config
        )
        pert_accel = equivalent_accel_grid(
            perturbed.states, perturbed.controls, profile, config
        )
    else:
        window = max(40.0 * config.ds, 40.0)
        replan = window / 4.0

        def make_hook():
            fired_on = {"v": False}
            fired_off = {"v": False}

            def hook(s0, t_cur, pi_cur):
                if not fired_on["v"] and s0 >= spec.onset_position:
                    v = 1.0 / pi_cur[0] + spec.magnitude
                    pi_cur = pi_cur.copy()
                    pi_cur[0] = 1.0 / v
                    fired_on["v"] = True
                elif (
                    fired_on["v"]
                    and not fired_off["v"]
                    and s0 >= spec.onset_position + spec.duration
                ):
                    v = max(1.0 / pi_cur[0] - spec.magnitude, config.speed_floor)
                    pi_cur = pi_cur.copy()
                    pi_cur[0] = 1.0 / v
                    fired_off["v"] = True
                return t_cur, pi_cur

            return hook

        if baseline_report is None:
            baseline_report = solver_mod.receding_horizon_run(
                config, weights, profile, t0, pi0, options, window, replan
            )
        perturbed = solver_mod.receding_horizon_run(
            config, weights, profile, t0, pi0, options, window, replan,
            state_hook=make_hook(),
        )
        base_accel = equivalent_accel_grid(
            baseline_report.states, baseline_report.controls, profile, config
        )
        pert_accel = equivalent_accel_grid(
            perturbed.states, perturbed.controls, profile, config
        )

    k_steps = min(base_accel.shape[1], pert_accel.shape[1])
    deviations = pert_accel[:, :k_steps] - base_accel[:, :k_steps]
    norms = np.sqrt(np.sum(deviations**2, axis=1) * config.ds)

    defined = bool(np.all(norms[:-1] > _NORM_EPS))
    gamma = {}
    gamma_vs_leader = {}
    for j in range(1, n):
        gamma[j + 1] = float(norms[j] / norms[j - 1]) if norms[j - 1] > _NORM_EPS else float("nan")
        gamma_vs_leader[j + 1] = (
            float(norms[j] / norms[0]) if norms[0] > _NORM_EPS else float("nan")
        )
    finite = [g for g in gamma.values() if np.isfinite(g)]
    stable = defined and all(g <= 1.0 + 1e-6 for g in finite)
    return StabilityReport(
        gamma=gamma,
        gamma_vs_leader=gamma_vs_leader,
        stable=stable,
        deviation_norms=norms,
        deviations=deviations,
        defined=defined,
    )

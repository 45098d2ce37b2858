"""End-to-end experiment pipelines shared by the CLI and the test suite.

Each runner takes a resolved :class:`~ecoplatoon.scenario.Scenario` and
returns plain result objects; no file I/O happens here, so timings measured
inside cover computation only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import solver as solver_mod
from .baseline import simulate_baseline
from .errors import ConfigError
from .fuel import equivalent_accel_grid, platoon_fuel, segment_fuel_deltas
from .platoon import resimulate_time_domain
from .scenario import Scenario, override_ds
from .stability import StabilityReport, following_errors, run_perturbation

RESIM_DT = 0.005  # s, time step of the plan's time-domain resimulation


@dataclass
class BaselineResult:
    """A platoon's time-domain traces plus their metered fuel."""

    traces: list
    fuel_total: float
    fuel_per_vehicle: list
    fuel_series: list  # (positions, cumulative) per vehicle


@dataclass
class EcoResult(BaselineResult):
    """Planner output, its time-domain resimulation and its metered fuel."""

    report: object  # SolveReport (one-shot) or RecedingRun
    equiv_accels: np.ndarray  # (N, K) on the spatial grid

    @property
    def max_violation(self) -> float:
        return self.report.max_violation


@dataclass
class CompareResult:
    eco: EcoResult
    base: BaselineResult
    savings_pct: float
    segment_deltas: list  # (lo, hi, grade, baseline - eco liters)


def _metered(scenario: Scenario, traces) -> dict:
    """The :class:`BaselineResult` fields of ``traces``: the traces and their fuel."""
    total, per_vehicle, series = platoon_fuel(scenario.fuel_model, traces, scenario.config)
    return dict(traces=traces, fuel_total=total, fuel_per_vehicle=per_vehicle, fuel_series=series)


def run_eco(scenario: Scenario) -> EcoResult:
    """Plan the scenario and meter the plan's fuel through the time domain."""
    cfg = scenario.config
    t0, pi0, targets = scenario.initial_state()
    args = (cfg, scenario.weights, scenario.profile, t0, pi0, scenario.solver_options)
    if scenario.horizon_mode == "receding":
        report = solver_mod.receding_horizon_run(*args, scenario.window_m, scenario.replan_m)
    else:
        report = solver_mod.solve(*args, targets=targets)
    states, controls = report.states, report.controls
    traces = resimulate_time_domain(states, controls, scenario.profile, cfg.ds, dt=RESIM_DT)
    return EcoResult(
        report=report,
        equiv_accels=equivalent_accel_grid(states, controls, scenario.profile, cfg),
        **_metered(scenario, traces),
    )


def run_baseline(scenario: Scenario) -> BaselineResult:
    traces = simulate_baseline(
        scenario.config,
        scenario.gains,
        scenario.profile,
        dt=scenario.baseline_dt,
        initial_speed=scenario.initial_speed,
    )
    return BaselineResult(**_metered(scenario, traces))


def run_compare(scenario: Scenario) -> CompareResult:
    eco = run_eco(scenario)
    base = run_baseline(scenario)
    savings = 100.0 * (base.fuel_total - eco.fuel_total) / base.fuel_total
    deltas = segment_fuel_deltas(base.fuel_series, eco.fuel_series, scenario.profile)
    return CompareResult(eco=eco, base=base, savings_pct=savings, segment_deltas=deltas)


@dataclass
class StabilityResult:
    report: StabilityReport
    errors: np.ndarray  # (N, K+1) following errors of the unperturbed plan


def run_stability(scenario: Scenario) -> StabilityResult:
    if scenario.perturbation is None:
        raise ConfigError("scenario has no perturbation section")
    report = run_perturbation(
        scenario.config,
        scenario.weights,
        scenario.profile,
        scenario.perturbation,
        scenario.solver_options,
        window_m=scenario.window_m,
        replan_m=scenario.replan_m,
    )
    # Following errors from the scenario's own (error-seeded) plan.
    t0, pi0, targets = scenario.initial_state()
    plan = solver_mod.solve(
        scenario.config,
        scenario.weights,
        scenario.profile,
        t0,
        pi0,
        scenario.solver_options,
        targets=targets,
    )
    errors = following_errors(plan.states, scenario.config)
    return StabilityResult(report=report, errors=errors)


@dataclass
class BenchRow:
    """One (ds, window) cell of the timing sweep; the fields are the output columns."""

    ds_m: float
    window_m: float
    executions: int
    mean_s: float
    max_s: float


def run_bench(scenario: Scenario, ds_values, windows, max_executions: int) -> list:
    """Receding-horizon timing sweep; single-threaded, computation time only.

    Every window replans every ``scenario.replan_m``, as ``simulate`` and
    ``stability`` do.
    """
    rows = []
    for ds in ds_values:
        scen = override_ds(scenario, ds)
        cfg = scen.config
        t0, pi0, _ = scen.initial_state()
        for window in windows:
            run = solver_mod.receding_horizon_run(
                cfg,
                scen.weights,
                scen.profile,
                t0,
                pi0,
                scen.solver_options,
                window_m=window,
                replan_m=scen.replan_m,
                max_executions=max_executions,
            )
            times = np.asarray(run.exec_times)
            rows.append(
                BenchRow(
                    ds_m=ds,
                    window_m=window,
                    executions=times.size,
                    mean_s=float(times.mean()),
                    max_s=float(times.max()),
                )
            )
    return rows

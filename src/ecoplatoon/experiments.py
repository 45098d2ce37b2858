"""End-to-end experiment pipelines shared by the CLI and the test suite.

Each runner takes a resolved :class:`~ecoplatoon.scenario.Scenario` and
returns plain result objects; no file I/O happens here, so timings measured
inside cover computation only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import constraints as cons
from . import solver as solver_mod
from .baseline import simulate_baseline
from .fuel import equivalent_accel_grid, platoon_fuel, segment_fuel_deltas
from .platoon import resimulate_time_domain
from .scenario import Scenario, override_ds
from .stability import StabilityReport, following_errors, run_perturbation


@dataclass
class EcoResult:
    """Planner output plus its metered fuel."""

    report: object  # SolveReport (one-shot) or RecedingRun
    traces: list
    fuel_total: float
    fuel_per_vehicle: list
    fuel_series: list  # (positions, cumulative) per vehicle
    equiv_accels: np.ndarray  # (N, K) on the spatial grid
    converged: bool
    wall_time: float
    exec_times: list  # receding mode only
    max_violation: float = 0.0


@dataclass
class BaselineResult:
    traces: list
    fuel_total: float
    fuel_per_vehicle: list
    fuel_series: list


@dataclass
class CompareResult:
    eco: EcoResult
    base: BaselineResult
    savings_pct: float
    segment_deltas: list  # (lo, hi, grade, baseline - eco liters)


def run_eco(scenario: Scenario, resim_dt: float = 0.005) -> EcoResult:
    """Plan the scenario and meter the plan's fuel through the time domain."""
    cfg = scenario.config
    t0, pi0, targets = scenario.initial_state()
    if scenario.horizon_mode == "receding":
        run = solver_mod.receding_horizon_run(
            cfg,
            scenario.weights,
            scenario.profile,
            t0,
            pi0,
            scenario.solver_options,
            scenario.window_m,
            scenario.replan_m,
        )
        states, controls = run.states, run.controls
        converged = run.all_converged
        wall = float(sum(run.exec_times))
        exec_times = run.exec_times
        report = run
        # post-hoc constraint scan over the stitched, executed trajectory
        cset = cons.ConstraintSet.from_config(cfg)
        violation = cons.max_violation(
            cons.evaluate(cset, states.slownesses[:, :-1], controls.accels)
        )
    else:
        report = solver_mod.solve(
            cfg,
            scenario.weights,
            scenario.profile,
            t0,
            pi0,
            scenario.solver_options,
            targets=targets,
        )
        states, controls = report.states, report.controls
        converged = report.converged
        wall = report.wall_time
        exec_times = []
        violation = report.max_violation
    traces = resimulate_time_domain(states, controls, scenario.profile, cfg.ds, dt=resim_dt)
    total, per_vehicle, series = platoon_fuel(scenario.fuel_model, traces, cfg)
    return EcoResult(
        report=report,
        traces=traces,
        fuel_total=total,
        fuel_per_vehicle=per_vehicle,
        fuel_series=series,
        equiv_accels=equivalent_accel_grid(states, controls, scenario.profile, cfg),
        converged=converged,
        wall_time=wall,
        exec_times=exec_times,
        max_violation=violation,
    )


def run_baseline(scenario: Scenario) -> BaselineResult:
    traces = simulate_baseline(
        scenario.config,
        scenario.gains,
        scenario.profile,
        dt=scenario.baseline_dt,
        initial_speed=scenario.initial_speed,
    )
    total, per_vehicle, series = platoon_fuel(scenario.fuel_model, traces, scenario.config)
    return BaselineResult(
        traces=traces, fuel_total=total, fuel_per_vehicle=per_vehicle, fuel_series=series
    )


def run_compare(scenario: Scenario, resim_dt: float = 0.005) -> CompareResult:
    eco = run_eco(scenario, resim_dt=resim_dt)
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
        raise ValueError("scenario has no perturbation section")
    report = run_perturbation(
        scenario.config,
        scenario.weights,
        scenario.profile,
        scenario.perturbation,
        scenario.solver_options,
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
    ds: float
    window: float
    executions: int
    mean_time: float
    max_time: float


def run_bench(
    scenario: Scenario,
    ds_values=(0.05, 0.1, 1.0),
    windows=(20.0, 30.0, 40.0),
    max_executions: int = 30,
) -> list:
    """Receding-horizon timing sweep; single-threaded, computation time only."""
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
                replan_m=min(scen.replan_m, window / 2.0),
                max_executions=max_executions,
            )
            times = np.asarray(run.exec_times)
            rows.append(
                BenchRow(
                    ds=ds,
                    window=window,
                    executions=times.size,
                    mean_time=float(times.mean()),
                    max_time=float(times.max()),
                )
            )
    return rows

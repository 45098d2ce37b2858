"""The benchmark's workloads: fixed inputs, one timed pass, output checks.

Each workload has three steps. ``build(workdir)`` makes the inputs
(set-up, timed separately). ``run(state)`` is one pass, the timed part.
``check(state, result)`` verifies the pass's outputs against the acceptance
gates and returns the values it checked, so numeric drift stays visible.

Every call into the package goes through a module attribute
(``solver.solve``, ``stability.run_perturbation``, ...), never through a
name bound at import, so the wrappers in ``tracing`` see it.

All three run the shipped collector preset and ignore the benchmark's seed.
The solver's path is chaotic in the initial time errors: drawing the
followers' errors in +-0.5 s moves the one-shot solve between 7 and 13
accepted iterations (8.5 to 17 s), and even +-0.05 s around the preset's
errors gives 8 or 12; across seeds the receding run's median window latency
moves by up to 15% on top of the machine's own drift. A seeded run would
time its inputs rather than the code.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from ecoplatoon import cli, experiments, scenario, solver, stability

PRESET = "collector"


def load_preset():
    return scenario.load_scenario(scenario.resolve_scenario_path(PRESET))


def _finite_plan(states) -> bool:
    return bool(
        np.all(np.isfinite(states.arrival_times))
        and np.all(np.isfinite(states.slownesses))
        and np.all(states.slownesses > 0.0)
    )


class OneshotCollector:
    """``ecoplatoon compare --scenario collector`` in-process, through ``cli.main``."""

    name = "oneshot_collector"

    def build(self, workdir: Path):
        load_preset()  # the scenario load, timed as set-up; ``compare`` repeats it
        out = workdir / self.name
        return {"argv": ["compare", "--scenario", PRESET, "--out", str(out)], "out": out}

    def run(self, state):
        return cli.main(state["argv"])

    def check(self, state, exit_code):
        summary = json.loads((state["out"] / "summary.json").read_text())
        savings = summary["savings_pct"]
        values = {
            "exit_code": exit_code,
            "converged": summary["converged"],
            "savings_pct": savings,
            "fuel_eco_L": summary["fuel_total_L"]["eco"],
            "fuel_baseline_L": summary["fuel_total_L"]["baseline"],
            "max_violation": summary["max_violation"],
        }
        ok = exit_code == 0 and summary["converged"] and 15.0 <= savings <= 55.0
        return ok, values


class RecedingComfort:
    """Receding-horizon run of the collector road inside a comfort envelope."""

    name = "receding_comfort"
    window_m = 40.0
    replan_m = 10.0
    a_min = -1.5
    a_max = 1.0
    windows = 77  # (800 m - 40 m) / 10 m + 1

    def build(self, workdir: Path):
        preset = load_preset()
        cfg = preset.config
        vehicles = tuple(
            dataclasses.replace(v, a_min=self.a_min, a_max=self.a_max) for v in cfg.vehicles
        )
        return dataclasses.replace(
            preset,
            config=dataclasses.replace(cfg, vehicles=vehicles),
            horizon_mode="receding",
            window_m=self.window_m,
            replan_m=self.replan_m,
        )

    def run(self, scen):
        return experiments.run_eco(scen)

    def check(self, scen, eco):
        run = eco.report
        values = {
            "windows": len(run.exec_times),
            "max_violation": eco.max_violation,
            "fuel_eco_L": eco.fuel_total,
        }
        ok = (
            len(run.exec_times) == self.windows
            and _finite_plan(run.states)
            and math.isfinite(eco.fuel_total)
            and eco.fuel_total > 0.0
            and math.isfinite(eco.max_violation)
        )
        return ok, values


class StabilityN5:
    """The N = 5 row of the acceptance stability sweep, from exact spacing."""

    name = "stability_n5"
    n_vehicles = 5
    deltas = (0.25, 0.5, 1.0)

    def build(self, workdir: Path):
        preset = load_preset()
        base = preset.config
        cfg = dataclasses.replace(
            base, vehicles=tuple(base.vehicles[0] for _ in range(self.n_vehicles))
        )
        t0 = -np.arange(self.n_vehicles) * cfg.headway
        pi0 = np.full(self.n_vehicles, 1.0 / cfg.target_speed)
        return {"scenario": preset, "config": cfg, "t0": t0, "pi0": pi0}

    def run(self, state):
        scen, cfg = state["scenario"], state["config"]
        cold = solver.solve(
            cfg, scen.weights, scen.profile, state["t0"], state["pi0"], scen.solver_options
        )
        reports = [
            stability.run_perturbation(
                cfg,
                scen.weights,
                scen.profile,
                stability.PerturbationSpec(magnitude=delta),
                scen.solver_options,
                baseline_report=cold,
            )
            for delta in self.deltas
        ]
        return cold, reports

    def check(self, state, result):
        cold, reports = result
        gammas = [g for rep in reports for g in rep.gamma.values()]
        max_gamma = max(gammas)
        values = {
            "cold_converged": bool(cold.converged),
            "defined": all(rep.defined for rep in reports),
            "max_gamma": max_gamma,
            "gamma": [[rep.gamma[j] for j in sorted(rep.gamma)] for rep in reports],
        }
        ok = (
            cold.converged
            and values["defined"]
            and all(math.isfinite(g) and g <= 1.0 + 1e-6 for g in gammas)
        )
        return ok, values


WORKLOADS = {w.name: w for w in (OneshotCollector(), RecedingComfort(), StabilityN5())}

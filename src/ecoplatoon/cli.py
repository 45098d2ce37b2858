"""Batch command-line front end.

    ecoplatoon simulate|compare|stability|bench --scenario <path> --out <dir>
               [--ds <m>] [--window <m>] [--ilqr]

Scenario paths may name a shipped preset (``collector``, ``major_arterial``);
ECOPLATOON_PRESET_DIR overrides the preset search path. All outputs are
written atomically (write-then-rename) by :func:`atomic_write`, which streams
each file's rows into the temporary file, with fixed column orders, so
repeated runs of the same scenario produce byte-identical files. ``simulate`` and
``compare`` write a plan's ``trajectories.csv``, ``fuel_series.csv`` and
``summary.json`` through one writer, :func:`_write_plan`. The CLI renders no
graphics. ``--ds`` and ``--window`` must be finite and positive, as the
scenario's own ``window_m`` and every ``bench`` sweep value must;
``--max-executions`` must be at least 1.

Exit codes: 0 success, 2 configuration error, 3 non-convergence, 4 runtime
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import experiments
from .errors import ConfigError, EcoPlatoonError, finite_float, integer_at_least
from .fuel import cumulative_at, equivalent_traction_accel
from .scenario import load_scenario, override_ds, resolve_scenario_path
from .solver import RecedingRun

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_RUNTIME = 4


def atomic_write(path: Path, chunks) -> None:
    """Write the strings of ``chunks`` to ``path`` through a temporary file
    beside it, renamed over ``path`` once the last chunk is written; on any
    error the temporary file is removed and ``path`` is left as it was."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: Path, header: list, columns) -> None:
    """Write equal-length columns under ``header``, one row per element.

    Integer (and boolean) columns print as integers, every other column as
    ``%.12g`` of its float value. Rows are formatted as they are written.
    """
    columns = [np.asarray(col) for col in columns]
    row_format = ",".join("%d" if col.dtype.kind in "biu" else "%.12g" for col in columns)
    rows = map((row_format + "\n").__mod__, zip(*(col.tolist() for col in columns)))
    atomic_write(path, itertools.chain([",".join(header) + "\n"], rows))


def write_json(path: Path, obj) -> None:
    atomic_write(path, [json.dumps(obj, indent=2, sort_keys=True) + "\n"])


def _write_trajectories(out: Path, scenario, states, controls, equiv):
    cfg = scenario.config
    k_total = controls.accels.shape[1]
    steps = np.arange(k_total + 1)
    # controls hold their last value on the terminal row
    held = np.minimum(steps, k_total - 1)
    header = ["step", "s_m"]
    cols = [steps, steps * cfg.ds]
    for i in range(cfg.n_vehicles):
        header += [f"t{i + 1}_s", f"v{i + 1}_mps", f"a{i + 1}_mps2", f"aeq{i + 1}_mps2"]
        cols += [
            states.arrival_times[i],
            1.0 / states.slownesses[i],
            controls.accels[i, held],
            equiv[i, held],
        ]
    write_csv(out / "trajectories.csv", header, cols)


def _write_fuel_series(out: Path, scenario, sides):
    """Cumulative fuel per vehicle and in total on the spatial grid.

    ``sides`` holds each run's per-vehicle (positions, cumulative) series:
    the plan's, then the baseline's when there is one.
    """
    cfg = scenario.config
    grid = cfg.ds * np.arange(cfg.horizon_steps + 1)
    header, cols = ["s_m"], [grid]
    for prefix, series in zip(("eco", "base"), sides):
        per_vehicle = cumulative_at(series, grid)
        names = [f"v{i + 1}" for i in range(len(per_vehicle))] + ["total"]
        header += [f"{prefix}_{name}_L" for name in names]
        cols += list(per_vehicle) + [per_vehicle.sum(axis=0)]
    write_csv(out / "fuel_series.csv", header, cols)


def _solve_stats(report):
    """Solve timings plus, for a one-shot plan, its iteration counts and violation."""
    stats = {"wall_time_s": report.wall_time}
    if isinstance(report, RecedingRun):
        times = np.asarray(report.exec_times)
        stats["exec_mean_s"] = float(times.mean())
        stats["exec_max_s"] = float(times.max())
    else:
        stats["iterations"] = len(report.iterations)
        stats["coarse_iterations"] = report.coarse_iterations
        stats["max_violation"] = report.max_violation
    return stats


def _write_plan(out: Path, scenario, eco, compared=None, details="summary.json") -> int:
    """Write ``trajectories.csv``, ``fuel_series.csv`` and ``summary.json`` for a
    planned run, with the baseline beside the plan when ``compared`` (a
    :class:`~ecoplatoon.experiments.CompareResult`) is given.

    Returns EXIT_OK, or EXIT_NO_CONVERGENCE after pointing stderr at ``details``.
    """
    report = eco.report
    _write_trajectories(out, scenario, report.states, report.controls, eco.equiv_accels)
    runs = {"eco": eco} if compared is None else {"eco": eco, "baseline": compared.base}
    _write_fuel_series(out, scenario, [run.fuel_series for run in runs.values()])
    summary = {
        "scenario": scenario.name,
        "converged": bool(report.converged),
        "fuel_total_L": {side: run.fuel_total for side, run in runs.items()},
        "fuel_per_vehicle_L": {side: run.fuel_per_vehicle for side, run in runs.items()},
        "savings_pct": None if compared is None else compared.savings_pct,
        "max_violation": eco.max_violation,
        "solve": _solve_stats(report),
    }
    write_json(out / "summary.json", summary)
    if report.converged:
        return EXIT_OK
    print(f"solver did not converge; see {details}", file=sys.stderr)
    return EXIT_NO_CONVERGENCE


def cmd_simulate(scenario, out: Path) -> int:
    """Plan the scenario; a one-shot plan also gets ``solve_report.json``."""
    eco = experiments.run_eco(scenario)
    report = eco.report
    if isinstance(report, RecedingRun):
        return _write_plan(out, scenario, eco)
    write_json(
        out / "solve_report.json",
        {
            "converged": bool(report.converged),
            "max_violation": report.max_violation,
            "cost": report.cost.as_dict(),
            "iterations": [dataclasses.asdict(it) for it in report.iterations],
            "coarse_iterations": report.coarse_iterations,
            "wall_time_s": report.wall_time,
        },
    )
    return _write_plan(out, scenario, eco, details="solve_report.json")


def _write_speed_series(out: Path, scenario, eco, base):
    """Both runs' speeds and equivalent accelerations on the spatial grid."""
    cfg = scenario.config
    grid = cfg.ds * np.arange(eco.report.controls.accels.shape[1])
    base_v, base_aeq = [], []
    for tr, vehicle in zip(base.traces, cfg.vehicles):
        a_eq = equivalent_traction_accel(tr["accel"], tr["speed"], tr["grade"], vehicle.mass, cfg)
        base_v.append(np.interp(grid, tr["position"], tr["speed"]))
        base_aeq.append(np.interp(grid, tr["position"], a_eq))
    header = ["s_m"] + [
        f"{side}_{quantity}{i + 1}_{unit}"
        for side in ("eco", "base")
        for quantity, unit in (("v", "mps"), ("aeq", "mps2"))
        for i in range(cfg.n_vehicles)
    ]
    eco_v = list(1.0 / eco.report.states.slownesses[:, : grid.size])
    cols = [grid] + eco_v + list(eco.equiv_accels) + base_v + base_aeq
    write_csv(out / "speed_series.csv", header, cols)


def cmd_compare(scenario, out: Path) -> int:
    """Plan the scenario and run the CACC baseline beside it; adds
    ``segment_deltas.csv`` and ``speed_series.csv`` to the plan's outputs."""
    compared = experiments.run_compare(scenario)
    exit_code = _write_plan(out, scenario, compared.eco, compared)
    write_csv(
        out / "segment_deltas.csv",
        ["seg_start_m", "seg_end_m", "grade_rad", "saving_L"],
        list(zip(*compared.segment_deltas)),
    )
    _write_speed_series(out, scenario, compared.eco, compared.base)
    return exit_code


def cmd_stability(scenario, out: Path) -> int:
    result = experiments.run_stability(scenario)
    report = result.report
    vehicles = sorted(report.gamma)
    write_csv(
        out / "gamma.csv",
        ["vehicle", "gamma_adjacent", "gamma_vs_leader"],
        [
            vehicles,
            [report.gamma[j] for j in vehicles],
            [report.gamma_vs_leader[j] for j in vehicles],
        ],
    )
    cfg = scenario.config
    n, ksteps = report.deviations.shape
    write_csv(
        out / "deviations.csv",
        ["s_m"] + [f"daeq{i + 1}_mps2" for i in range(n)],
        [np.arange(ksteps) * cfg.ds] + list(report.deviations),
    )
    err = result.errors
    steps = np.arange(err.shape[1])
    write_csv(
        out / "following_errors.csv",
        ["step", "s_m"] + [f"err{i + 1}_s" for i in range(err.shape[0])],
        [steps, steps * cfg.ds] + list(err),
    )
    write_json(
        out / "stability.json",
        {
            "scenario": scenario.name,
            "stable": bool(report.stable),
            "defined": bool(report.defined),
            "gamma_adjacent": {str(j): report.gamma[j] for j in report.gamma},
            "gamma_vs_leader": {
                str(j): report.gamma_vs_leader[j] for j in report.gamma_vs_leader
            },
            "deviation_norms": list(map(float, report.deviation_norms)),
        },
    )
    return EXIT_OK


def cmd_bench(scenario, out: Path, ds_values, windows, max_executions: int) -> int:
    for flag, values in (("--ds-sweep", ds_values), ("--window-sweep", windows)):
        for value in values:
            finite_float(value, flag, positive=True)
    integer_at_least(max_executions, "--max-executions", 1)
    rows = experiments.run_bench(
        scenario, ds_values=ds_values, windows=windows, max_executions=max_executions
    )
    names = [field.name for field in dataclasses.fields(experiments.BenchRow)]
    write_csv(out / "timings.csv", names, list(zip(*map(dataclasses.astuple, rows))))
    write_json(out / "timings.json", list(map(dataclasses.asdict, rows)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecoplatoon",
        description="Fuel-optimal platoon planning experiments on rolling terrain",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "compare", "stability", "bench"):
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="scenario file or preset name")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--ds", type=float, default=None, help="override spatial step (m)")
        p.add_argument("--window", type=float, default=None, help="override window length (m)")
        p.add_argument("--ilqr", action="store_true", help="drop second-order dynamics terms")
    bench = sub.choices["bench"]
    bench.add_argument(
        "--ds-sweep", type=float, nargs="+", default=[0.05, 0.1, 1.0], help="step sizes to sweep"
    )
    bench.add_argument(
        "--window-sweep", type=float, nargs="+", default=[20.0, 30.0, 40.0]
    )
    bench.add_argument("--max-executions", type=int, default=30)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(resolve_scenario_path(args.scenario))
        if args.ds is not None:
            scenario = override_ds(scenario, finite_float(args.ds, "--ds", positive=True))
        if args.window is not None:
            window_m = finite_float(args.window, "--window", positive=True)
            scenario = dataclasses.replace(scenario, window_m=window_m)
        if args.ilqr:
            scenario = dataclasses.replace(
                scenario,
                solver_options=dataclasses.replace(
                    scenario.solver_options, use_second_order=False
                ),
            )
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(scenario, out)
        if args.command == "compare":
            return cmd_compare(scenario, out)
        if args.command == "stability":
            return cmd_stability(scenario, out)
        return cmd_bench(
            scenario, out, args.ds_sweep, args.window_sweep, args.max_executions
        )
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EcoPlatoonError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

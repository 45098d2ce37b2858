#!/usr/bin/env python3
"""Planner benchmark: one workload per run, end to end or layer by layer.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout: the package is imported from
``src/``, nothing is installed. Workloads are described in
``benchmarks/README.md``; their inputs are fixed, so ``--seed`` is only
recorded. A run repeats whole passes of one workload, in one
single-threaded process, for at most about ``--seconds`` seconds (at least
one pass).

``--trace 0`` reports the end-to-end metrics with only call counters
installed, while ``reference.Pacer`` samples a fixed reference kernel
through every pass: pass and solve times are reported in units of that
kernel's time at the same moments (``*_ref``), which a slow phase of the
host does not move. ``--trace 1`` alternates an untraced pass with a
traced one and reports the per-layer metrics from the traced passes, plus
the tracing overhead (traced minus untraced pass time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
is the full record of the run -- environment, calibration loop timings,
per-pass times, solver counts and checked output values -- which is also
written to ``.bench_out/results/``; traced runs write their spans to
``.bench_out/spans/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("oneshot_collector", "receding_comfort", "stability_n5")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up samples taken before and after the passes, so they span the run.
SETUP_SAMPLES = (10, 10)
CALIBRATION_SWEEPS = 30

# Solver counts that identify the program's path; they must repeat exactly.
COUNT_KEYS = {
    "solves": "solver.solve.calls",
    "iterations": "solver.iterations",
    "backward_passes": "solver.backward_pass.calls",
    "backward_failures": "solver.backward_pass.raised",
    "forward_trials": "solver.forward_pass.calls",
    "forward_rejected": "solver.forward_pass.rejected",
    "al_updates": "constraints.update_multipliers.calls",
    "unconverged": "solver.solve.unconverged",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- environment -----------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the package sources, identifying the code under test."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ecoplatoon").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(np) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
    }


# -- measurement -------------------------------------------------------------


def _fresh_setup(workload: str, workdir: Path) -> None:
    """Import the package and the workloads anew, load the scenario, build the workload.

    ``ecoplatoon`` and ``workloads`` leave ``sys.modules`` first, so their
    module bodies run again as in a new interpreter; numpy stays loaded, as
    its import is not the program's set-up. The original modules go back
    afterwards: the passes and the wrappers keep using them.
    """
    def owned():
        return [m for m in sys.modules if m == "workloads" or m.split(".")[0] == "ecoplatoon"]

    saved = {m: sys.modules.pop(m) for m in owned()}
    try:
        importlib.import_module("workloads").WORKLOADS[workload].build(workdir)
    finally:
        for m in owned():
            del sys.modules[m]
        sys.modules.update(saved)


def setup_samples(workload: str, workdir: Path, count: int, pacer) -> list:
    """Set-up lengths in sweeps, each paced by the samples taken while it ran."""
    samples = []
    pacer.start()
    try:
        for _ in range(count):
            tic = pacer.clock()
            _fresh_setup(workload, workdir)
            elapsed = pacer.clock() - tic
            samples.append(elapsed * pacer.pace(tic, tic + elapsed))
    finally:
        pacer.stop()
    return samples


def one_pass(workload, state, tracer, pacer=None) -> dict:
    """One timed pass; with a ``pacer`` the reference kernel is sampled through it."""
    counts_before = dict(tracer.counts)
    solves_before = len(tracer.solves)
    saved = tracer.install()
    error = None
    try:
        with tracer.region("pass"):
            root = len(tracer.spans) - 1
            if pacer is not None:
                pacer.start()
            try:
                tic = tracer.clock()
                try:
                    result = workload.run(state)
                except Exception:
                    result, error = None, traceback.format_exc()
                wall = tracer.clock() - tic
            finally:
                if pacer is not None:
                    pacer.stop()
    finally:
        tracer.uninstall(saved)
    ok, values = False, {}
    if error is None:
        try:
            ok, values = workload.check(state, result)
        except Exception:
            error = traceback.format_exc()
    counters = {k: v - counts_before.get(k, 0) for k, v in tracer.counts.items()}
    counts = {key: counters.get(name, 0) for key, name in COUNT_KEYS.items()}
    solves = tracer.solves[solves_before:]
    paced = {}
    if pacer is not None:
        paced = {
            "sweeps": len(pacer.samples),
            "sweep_s": sum(pacer.samples),
            "pace": pacer.pace(),
            "solve_ref": [s.wall_s * pacer.pace(s.start_s, s.start_s + s.wall_s) for s in solves],
        }
    return {
        "traced": tracer.tracing,
        "wall_s": wall,
        **paced,
        "ok": bool(ok),
        "error": error,
        "values": values,
        "counts": counts,
        "counters": counters,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solve_wall_s": [s.wall_s for s in solves],
        "unconverged_solves": [
            {"index": i, "iterations": s.iterations, "max_violation": s.max_violation}
            for i, s in enumerate(solves)
            if not s.converged
        ],
        "root_span": root if tracer.tracing else None,
    }


def run_passes(workload, state, tracers, seconds: float, pacer=None) -> list:
    """Rounds of whole passes, one per tracer, within about ``seconds``.

    The first round always runs; another starts only while it is expected
    to end within ``seconds``, so a slow phase of the machine shortens the
    run instead of lengthening it.
    """
    passes = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for tracer in tracers:
            passes.append(one_pass(workload, state, tracer, pacer))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            return passes


def check_counts(passes, store: Path, digest: str) -> list:
    """Exact-count check across passes and against earlier runs of this code."""
    problems = []
    first = passes[0]["counts"]
    for i, p in enumerate(passes[1:], start=1):
        if p["counts"] != first:
            problems.append(f"pass {i} counts {p['counts']} differ from pass 0 {first}")
    if store.is_file():
        earlier = json.loads(store.read_text())
        if earlier["src_sha256"] == digest and earlier["counts"] != first:
            problems.append(f"counts {first} differ from an earlier run's {earlier['counts']}")
    if not problems:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps({"src_sha256": digest, "counts": first}) + "\n")
    return problems


def end_to_end(passes, setup, attempted, failed_hard, unconverged) -> dict:
    import numpy as np

    import reference

    walls = [p["wall_s"] * p["pace"] for p in passes]
    solves = [r for p in passes for r in p["solve_ref"]]
    return {
        "wall_ref": (statistics.median(walls), "ref"),
        "exec_p50_ref": (float(np.percentile(solves, 50)), "ref"),
        "exec_p85_ref": (float(np.percentile(solves, 85)), "ref"),
        # in seconds at the nominal pace, so that the contract's unit holds
        "setup_s": (statistics.median(setup) / reference.NOMINAL_PACE, "s"),
        # after the first pass: later passes can grow the heap by fragmentation,
        # and how many passes fit in a run depends on the machine's speed
        "peak_rss_mb": (passes[0]["peak_rss_mb"], "MB"),
        "solve_success_rate": ((attempted - failed_hard - unconverged) / attempted, "ratio"),
    }


def per_layer(traced, untraced, spans) -> dict:
    import tracing

    n = len(traced)
    total_wall = sum(p["wall_s"] for p in traced)
    roots = [p["root_span"] for p in traced]
    inclusive, self_time, completed, covered = tracing.layer_times(spans, roots)
    counts = traced[0]["counts"]
    loads = [s.end - s.start for s in spans if s.layer == "scenario.load_scenario"]
    bp_steps = sum(p["counters"]["solver.backward_pass.steps"] for p in traced)
    fp_steps = sum(p["counters"]["solver.forward_pass.steps"] for p in traced)

    def per_pass(table, layer):
        return table[layer] / n

    def share(table, layer):
        return 100.0 * table[layer] / total_wall

    return {
        "solver.solve.calls": (counts["solves"], "count"),
        "solver.iterations": (counts["iterations"], "count"),
        "solver.backward_pass.calls": (counts["backward_passes"], "count"),
        "solver.backward_pass.failures": (counts["backward_failures"], "count"),
        "solver.backward_pass.s": (per_pass(inclusive, "solver.backward_pass"), "s"),
        "solver.backward_pass.us_per_step": (
            1e6 * completed["solver.backward_pass"] / bp_steps,
            "us",
        ),
        "solver.forward_pass.calls": (counts["forward_trials"], "count"),
        "solver.forward_pass.rejected": (counts["forward_rejected"], "count"),
        "solver.forward_pass.s": (per_pass(inclusive, "solver.forward_pass"), "s"),
        "solver.forward_pass.us_per_step": (
            1e6 * completed["solver.forward_pass"] / fp_steps,
            "us",
        ),
        "solver.trials_per_iteration": (
            counts["forward_trials"] / max(counts["iterations"], 1),
            "ratio",
        ),
        "constraints.update_multipliers.calls": (counts["al_updates"], "count"),
        "solver.solve.self_s": (per_pass(self_time, "solver.solve"), "s"),
        "costs.stage_derivatives_batch.s": (per_pass(inclusive, "costs.stage_derivatives_batch"), "s"),
        "constraints.al_derivative_batch.s": (
            per_pass(inclusive, "constraints.al_derivative_batch"),
            "s",
        ),
        "costs.trajectory_cost.calls": (traced[0]["counters"]["costs.trajectory_cost.calls"], "count"),
        "costs.trajectory_cost.s": (per_pass(inclusive, "costs.trajectory_cost"), "s"),
        "constraints.evaluate.s": (per_pass(inclusive, "constraints.evaluate"), "s"),
        "solver.receding_horizon_run.self_pct": (
            share(self_time, "solver.receding_horizon_run"),
            "%",
        ),
        "platoon.resimulate_time_domain.pct": (share(inclusive, "platoon.resimulate_time_domain"), "%"),
        "baseline.simulate_baseline.pct": (share(inclusive, "baseline.simulate_baseline"), "%"),
        "fuel.platoon_fuel.pct": (share(inclusive, "fuel.platoon_fuel"), "%"),
        "cli.write_csv.pct": (share(inclusive, "cli.write_csv"), "%"),
        "cli.write_csv.bytes": (traced[0]["counters"].get("cli.write_csv.bytes", 0), "bytes"),
        "stability.run_perturbation.self_pct": (share(self_time, "stability.run_perturbation"), "%"),
        "scenario.load_scenario.s": (statistics.median(loads), "s"),
        "trace.coverage_pct": (100.0 * covered / total_wall, "%"),
        "trace.overhead_s": (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] for p in untraced),
            "s",
        ),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ecoplatoon" / "__init__.py").is_file():
        print(f"run.py: no ecoplatoon sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import numpy as np

    import reference
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = OUT / "work"
    tag = f"{args.workload}-seed{args.seed}"
    env = environment(np)

    pacer = None if args.trace else reference.Pacer()
    counting = tracing.Tracer(spans=False, clock=pacer.clock if pacer else time.perf_counter)
    tracer = tracing.Tracer(spans=True)
    if args.trace:
        setup = []
        saved = tracer.install()
        try:
            with tracer.region("setup"):
                state = workload.build(workdir)
        finally:
            tracer.uninstall(saved)
    else:
        state = workload.build(workdir)
        setup = setup_samples(args.workload, workdir, SETUP_SAMPLES[0], pacer)

    calib_before = reference.timed_sweeps(CALIBRATION_SWEEPS)
    tracers = [counting, tracer] if args.trace else [counting]
    passes = run_passes(workload, state, tracers, args.seconds, pacer)
    calib_after = reference.timed_sweeps(CALIBRATION_SWEEPS)
    if not args.trace:
        setup += setup_samples(args.workload, workdir, SETUP_SAMPLES[1], pacer)

    problems = check_counts(passes, OUT / "counts" / f"{args.workload}.json", env["src_sha256"])

    attempted = failed_hard = unconverged = 0
    for p in passes:
        n_solves = max(p["counts"]["solves"], 1)
        attempted += n_solves
        if p["ok"]:
            unconverged += p["counts"]["unconverged"]
        else:
            failed_hard += n_solves
    correct = all(p["ok"] for p in passes) and not problems

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    if args.trace:
        metrics = per_layer(traced, untraced, tracer.spans)
    else:
        metrics = end_to_end(untraced, setup, attempted, failed_hard, unconverged)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "calibration_s": {"before": calib_before, "after": calib_after},
        "setup_s": setup,
        "passes": [{k: v for k, v in p.items() if k != "root_span"} for p in passes],
        "count_problems": problems,
        "attempted": attempted,
        "failed": failed_hard,
        "unconverged": unconverged,
        "fail_rate": (failed_hard + unconverged) / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        with open(spans_dir / f"{tag}.jsonl", "w") as fh:
            for i, s in enumerate(tracer.spans):
                span = dict(id=i, name=s.layer, start=s.start, end=s.end, parent=s.parent)
                fh.write(json.dumps(dict(span, status=s.status)) + "\n")

    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed_hard,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

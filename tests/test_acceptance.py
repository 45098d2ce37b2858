"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. The expensive pipelines (full-resolution comparisons, the
stability sweep, the timing bench) are session fixtures shared across
criteria, mirroring how the experiments reuse each other's runs.
"""

import dataclasses
import time

import numpy as np
import pytest

from conftest import one_step_cost, one_step_rollout, one_step_stage_blocks
from ecoplatoon import constraints as cons
from ecoplatoon import solver as solver_mod
from ecoplatoon.cli import main as cli_main
from ecoplatoon.costs import CostWeights
from ecoplatoon.experiments import run_bench, run_compare
from ecoplatoon.platoon import (
    PlatoonConfig,
    VehicleParams,
    dynamics_derivatives,
    resimulate_time_domain,
    rollout,
)
from ecoplatoon.scenario import load_scenario, override_ds, resolve_scenario_path
from ecoplatoon.solver import SolverOptions, solve
from ecoplatoon.stability import PerturbationSpec, following_errors, run_perturbation
from ecoplatoon.terrain import SlopeProfile


def report(num, name, ok, detail=""):
    print(f"[acceptance {num}] {name}: {'PASS' if ok else 'FAIL'}  {detail}", flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="session")
def comparisons():
    """Full-resolution eco-vs-baseline comparison on both shipped presets."""
    out = {}
    tic = time.perf_counter()
    for name in ("collector", "major_arterial"):
        scen = load_scenario(resolve_scenario_path(name))
        out[name] = (scen, run_compare(scen))
    out["elapsed"] = time.perf_counter() - tic
    return out


@pytest.fixture(scope="session")
def stability_sweep():
    """Transfer ratios for platoon sizes 3..5 and three perturbation sizes."""
    scen = load_scenario(resolve_scenario_path("collector"))
    base_cfg = scen.config
    results = {}
    tic = time.perf_counter()
    for n in (3, 4, 5):
        cfg = dataclasses.replace(
            base_cfg, vehicles=tuple(base_cfg.vehicles[0] for _ in range(n))
        )
        # one unperturbed solve per platoon size, shared across perturbation sizes
        t0 = -np.arange(n) * cfg.headway
        pi0 = np.full(n, 1.0 / cfg.target_speed)
        unperturbed = solve(cfg, scen.weights, scen.profile, t0, pi0, scen.solver_options)
        assert unperturbed.converged
        for delta in (0.25, 0.5, 1.0):
            results[(n, delta)] = run_perturbation(
                cfg,
                scen.weights,
                scen.profile,
                PerturbationSpec(magnitude=delta),
                scen.solver_options,
                baseline_report=unperturbed,
            )
    elapsed = time.perf_counter() - tic
    return results, elapsed


class TestCriterion1FuelSaving:
    def test_fuel_saving_bands(self, comparisons):
        coll = comparisons["collector"][1]
        art = comparisons["major_arterial"][1]
        detail = (
            f"collector {coll.savings_pct:.2f}% (eco {coll.eco.fuel_total:.4f} L vs "
            f"base {coll.base.fuel_total:.4f} L), arterial {art.savings_pct:.2f}% "
            f"(eco {art.eco.fuel_total:.4f} L vs base {art.base.fuel_total:.4f} L), "
            f"runtime {comparisons['elapsed']:.1f} s"
        )
        ok = (
            coll.eco.fuel_total < coll.base.fuel_total
            and art.eco.fuel_total < art.base.fuel_total
            and coll.savings_pct > art.savings_pct
            and 15.0 <= coll.savings_pct <= 55.0
            and 5.0 <= art.savings_pct <= 30.0
            and coll.eco.report.converged
            and art.eco.report.converged
            and comparisons["elapsed"] < 120.0
        )
        report(1, "fuel-saving reproduction", ok, detail)


    def test_savings_flat_in_ds(self, comparisons):
        # each space step is the exact arc of its held control, so ds sets
        # the resolution only: a tenth of the steps meters the same saving
        details, ok = [], True
        for name in ("collector", "major_arterial"):
            scen, fine = comparisons[name]
            coarse = run_compare(override_ds(scen, 1.0))
            gap = abs(coarse.savings_pct - fine.savings_pct)
            ok = ok and gap <= 0.01
            details.append(
                f"{name} {coarse.savings_pct:.3f}% at ds=1.0 vs {fine.savings_pct:.3f}% at ds=0.1"
            )
        report(1, "savings flat in ds", ok, "; ".join(details))


class TestCriterion2UphillDominance:
    def test_uphill_deltas_dominate(self, comparisons):
        coll = comparisons["collector"][1]
        up = sum(d for _, _, th, d in coll.segment_deltas if th > 0)
        down = sum(d for _, _, th, d in coll.segment_deltas if th < 0)
        report(
            2,
            "uphill-dominant savings",
            up > down,
            f"uphill delta {up:.4f} L vs downhill delta {down:.4f} L (collector)",
        )


class TestCriterion3StringStability:
    def test_all_pairwise_ratios_bounded(self, stability_sweep):
        results, elapsed = stability_sweep
        worst = -np.inf
        for (n, delta), rep in results.items():
            finite = [g for g in rep.gamma.values() if np.isfinite(g)]
            assert rep.defined, f"N={n} delta={delta}: deviations vanished"
            worst = max(worst, max(finite))
        ok = worst <= 1.0 + 1e-6 and elapsed < 300.0
        report(
            3,
            "string stability",
            ok,
            f"max pairwise transfer ratio {worst:.8f}, sweep {elapsed:.0f} s",
        )

    def test_leader_ratio_trends_down_with_size(self, stability_sweep):
        results, _ = stability_sweep
        by_n = {
            n: np.mean([results[(n, d)].gamma_vs_leader[2] for d in (0.25, 0.5, 1.0)])
            for n in (3, 4, 5)
        }
        ok = by_n[3] > by_n[4] > by_n[5]
        report(
            3,
            "leader-ratio trend with platoon size",
            ok,
            f"mean leader ratios: N=3 {by_n[3]:.3f}, N=4 {by_n[4]:.3f}, N=5 {by_n[5]:.3f}",
        )
        # the printed ratios, pinned: a change to the solver's path that
        # moves one moves the sweep's plans
        assert {n: round(ratio, 3) for n, ratio in by_n.items()} == {3: 0.341, 4: 0.248, 5: 0.195}


class TestCriterion4FollowingErrorDecay:
    def test_errors_diminish_on_both_presets(self, comparisons):
        details = []
        ok = True
        for name in ("collector", "major_arterial"):
            scen, cmp_result = comparisons[name]
            states = cmp_result.eco.report.states
            errors = following_errors(states, scen.config)
            k_total = errors.shape[1]
            quarter = k_total // 4
            first = np.abs(errors[:, :quarter]).max()
            last = np.abs(errors[:, -quarter:]).max()
            ok = ok and last <= first
            details.append(f"{name}: first-quarter {first:.4f} s vs last {last:.6f} s")
        report(4, "following-error decay", ok, "; ".join(details))


class TestCriterion5SolverProperties:
    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(11)
        scen = load_scenario(resolve_scenario_path("collector"))
        cfg, w = scen.config, scen.weights

        def fd4(f, x, p, h):
            # fourth-order central stencil keeps the oracle's own noise well
            # below the 1e-5 tolerance being certified
            d = np.zeros_like(x)
            d[p] = h
            return (-f(x + 2 * d) + 8 * f(x + d) - 8 * f(x - d) + f(x - 2 * d)) / (12 * h)

        worst = 0.0
        for _ in range(100):
            t = rng.normal(scale=2.0, size=3)
            pi = rng.uniform(0.03, 0.1, size=3)
            a = rng.uniform(-3.0, 3.0, size=3)
            theta = rng.uniform(-0.15, 0.15)
            t_pi, t_a, g, fu, _ = dynamics_derivatives(pi[:, None], a[:, None], cfg.ds)
            lx, lu, *_ = one_step_stage_blocks(t, pi, a, theta, cfg, w)
            h = 3e-5
            for p in range(3):
                # each step output (t' is row 0, pi' row 1) by pi, then by a;
                # t' - t does not depend on t, so t' is stepped from t = 0,
                # where rounding at the scale of t does not swamp the stencil
                for row, by_pi, by_a in ((0, t_pi, t_a), (1, g, fu)):
                    t_row = t if row else np.zeros(3)

                    def stepped(x_pi, x_a, row=row, t_row=t_row):
                        return one_step_rollout(t_row, x_pi, x_a, cfg.ds)[row][p]

                    fd = fd4(lambda x: stepped(x, a), pi.copy(), p, h)
                    worst = max(worst, abs(by_pi[0, p] - fd) / max(abs(fd), 1e-12))
                    fd = fd4(lambda x: stepped(pi, x), a.copy(), p, h)
                    worst = max(worst, abs(by_a[0, p] - fd) / max(abs(fd), 1e-12))
                fd = fd4(lambda x: one_step_cost(t, x, a, theta, cfg, w)[0], pi.copy(), p, h)
                worst = max(worst, abs(lx[2 * p + 1] - fd) / max(abs(fd), 1e-6))
                fd = fd4(lambda x: one_step_cost(t, pi, x, theta, cfg, w)[0], a.copy(), p, h)
                worst = max(worst, abs(lu[p] - fd) / max(abs(fd), 1e-6))
        report(
            5,
            "analytic derivatives vs finite differences",
            worst < 1e-5,
            f"worst relative error {worst:.2e} over 100 random points",
        )

    def test_monotone_descent_and_feasibility(self, comparisons, monkeypatch):
        # The full-resolution phase takes a single iteration from a cold
        # start, so the comparisons' solves are repeated with every level of
        # the grid hierarchy recorded, and each level must descend.
        levels = []
        inner = solver_mod._solve

        def spy(*args, **kwargs):
            level = inner(*args, **kwargs)
            levels.append((level.controls.accels.shape[1], level))
            return level

        monkeypatch.setattr(solver_mod, "_solve", spy)
        ok = True
        details = []
        for name in ("collector", "major_arterial"):
            scen, comp = comparisons[name]
            rep = comp.eco.report
            t0, pi0, targets = scen.initial_state()
            levels.clear()
            again = solver_mod.solve(
                scen.config, scen.weights, scen.profile, t0, pi0, scen.solver_options,
                targets=targets,
            )
            same = levels[-1][1].iterations is again.iterations and np.array_equal(
                again.controls.accels, rep.controls.accels
            )
            monotone = True
            counts = []
            for k_steps, level in levels:
                augs = [it.aug_cost for it in level.iterations]
                monotone = monotone and all(
                    b <= a + 1e-9 * max(1, abs(a)) for a, b in zip(augs, augs[1:])
                )
                counts.append(f"{len(augs)} at K={k_steps}")
            ok = ok and same and monotone and rep.converged and rep.max_violation <= 1e-3
            details.append(
                f"{name}: iterations {', '.join(counts)}, max violation {rep.max_violation:.2e}"
            )
        report(5, "monotone descent and constraint satisfaction", ok, "; ".join(details))

    def test_interior_gradient_small(self):
        cfg = PlatoonConfig(
            vehicles=(VehicleParams(1400.0, -50.0, 50.0),) * 2,
            headway=1.0,
            target_speed=20.1168,
            speed_limit=3000.0,
            ds=1.0,
            horizon_steps=50,
            speed_floor=1e-6,
        )
        w = CostWeights(q1=500.0, q2=0.0, q3=5000.0, r1=20.0, qv=0.0)
        flat = SlopeProfile(breakpoints=[0.0, 5000.0], grades=[0.0])
        t0 = np.array([0.0, -0.6])
        pi0 = np.full(2, 1.0 / cfg.target_speed)
        rep = solve(cfg, w, flat, t0, pi0, SolverOptions(tol_cost_rel=1e-13, max_inner=200))
        accels = rep.controls.accels

        def cost_of(flat_controls):
            from ecoplatoon.costs import trajectory_cost

            a = flat_controls.reshape(accels.shape)
            state = rollout(t0, pi0, a, cfg.ds)
            total, _ = trajectory_cost(
                state.arrival_times, state.slownesses, a, np.zeros(50), cfg, w, rep.targets
            )
            return total

        eps = 1e-6
        base = accels.ravel().copy()
        grad = np.empty(base.size)
        for p in range(base.size):
            d = np.zeros(base.size)
            d[p] = eps
            grad[p] = (cost_of(base + d) - cost_of(base - d)) / (2 * eps)
        g_inf = float(np.max(np.abs(grad)))
        report(
            5,
            "interior stationarity",
            rep.converged and g_inf <= 1e-4,
            f"|grad|_inf = {g_inf:.2e} by finite differences",
        )

    def test_space_time_consistency_within_ten_time_steps(self):
        # Each space step is the exact arc of its held control, so the plan's
        # own clock carries no discretization error in ds; what is left is
        # the time-domain resimulation's own Euler step and its control
        # lookup, a few dt. The gap is bounded by 10 dt at both resolutions.
        scen0 = load_scenario(resolve_scenario_path("collector"))
        dt = 0.0005
        discrepancy = {}
        for ds in (0.2, 0.1):
            scen = override_ds(scen0, ds)
            t0, pi0, targets = scen.initial_state()
            rep = solve(
                scen.config, scen.weights, scen.profile, t0, pi0,
                scen.solver_options, targets=targets,
            )
            assert rep.converged
            traces = resimulate_time_domain(rep.states, rep.controls, scen.profile, ds, dt=dt)
            worst = 0.0
            for i, tr in enumerate(traces):
                t_end = float(np.interp(800.0, tr["position"], tr["time"]))
                worst = max(worst, abs(t_end - rep.states.arrival_times[i, -1]))
            discrepancy[ds] = worst
        ok = max(discrepancy.values()) <= 10 * dt
        report(
            5,
            "space/time-domain consistency",
            ok,
            f"arrival discrepancy {discrepancy[0.2]:.4f} s at ds=0.2 and "
            f"{discrepancy[0.1]:.4f} s at ds=0.1 (bound {10 * dt:.3f} s)",
        )

    def test_equilibrium_fixed_point(self):
        scen = load_scenario(resolve_scenario_path("collector"))
        cfg = scen.config
        w = dataclasses.replace(scen.weights, q2=0.0, qv=0.0, power_floor=None)
        flat = SlopeProfile(breakpoints=[0.0, 900.0], grades=[0.0])
        t0 = -np.arange(3) * cfg.headway
        pi0 = np.full(3, 1.0 / cfg.target_speed)
        rep = solve(cfg, w, flat, t0, pi0, scen.solver_options)
        max_a = float(np.max(np.abs(rep.controls.accels)))
        ok = rep.converged and len(rep.iterations) <= 2 and max_a <= 1e-4
        report(
            5,
            "equilibrium fixed point",
            ok,
            f"{len(rep.iterations)} iterations, max |a| = {max_a:.2e} m/s^2",
        )


class TestCriterion6Timing:
    # The ds = 1 m windows take a few ms each, so host noise alone can
    # reorder the means of one sweep; the sweep is repeated and each window
    # length's best mean is ordered.
    COARSE_SWEEPS = 5

    def test_receding_horizon_execution_times(self):
        scen = load_scenario(resolve_scenario_path("collector"))
        windows = (20.0, 30.0, 40.0)
        fine = run_bench(scen, ds_values=(0.1,), windows=windows, max_executions=12)
        sweeps = [
            run_bench(scen, ds_values=(1.0,), windows=windows, max_executions=12)
            for _ in range(self.COARSE_SWEEPS)
        ]
        coarse = [min(runs, key=lambda r: r.mean_s) for runs in zip(*sweeps)]
        ok = (
            all(r.max_s <= 0.5 for sweep in sweeps for r in sweep)
            and all(r.max_s <= 2.0 for r in fine)
            and coarse[0].mean_s < coarse[1].mean_s < coarse[2].mean_s
            and all(f.mean_s > c.mean_s for f, c in zip(fine, coarse))
        )
        detail = f"ds=1.0 best of {self.COARSE_SWEEPS} sweeps, " + ", ".join(
            f"ds={r.ds_m} w={r.window_m:.0f}: mean {r.mean_s * 1e3:.1f} ms max {r.max_s * 1e3:.1f} ms"
            for r in coarse + fine
        )
        report(6, "timing", ok, detail)


class TestCriterion7Determinism:
    def test_cli_outputs_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        scenario = str(resolve_scenario_path("collector"))
        args = ["simulate", "--scenario", scenario, "--ds", "1.0"]
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        csvs = sorted(p.name for p in out1.glob("*.csv"))
        identical = all(
            (out1 / name).read_bytes() == (out2 / name).read_bytes() for name in csvs
        )
        report(
            7,
            "deterministic outputs",
            identical and len(csvs) >= 2,
            f"{len(csvs)} CSV files byte-identical across reruns",
        )

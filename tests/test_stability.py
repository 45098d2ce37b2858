"""String-stability harness: following errors and perturbation transfer ratios."""

import dataclasses

import numpy as np
import pytest

from conftest import make_config
from ecoplatoon import solver as solver_mod
from ecoplatoon.costs import CostWeights
from ecoplatoon.errors import ConfigError
from ecoplatoon.platoon import PlatoonState, rollout
from ecoplatoon.scenario import load_scenario, override_ds, resolve_scenario_path
from ecoplatoon.solver import SolverOptions
from ecoplatoon.stability import PerturbationSpec, following_errors, run_perturbation
from ecoplatoon.terrain import build_preset

CAL_WEIGHTS = CostWeights(
    q1=500.0, q2=0.01, q3=5e4, r1=60.0, qv=2e5, power_floor=0.0
)


def test_spec_validation():
    with pytest.raises(ConfigError):
        PerturbationSpec(magnitude=0.0)
    with pytest.raises(ConfigError):
        PerturbationSpec(magnitude=0.5, shape="ramp")
    with pytest.raises(ConfigError):
        PerturbationSpec(magnitude=0.5, shape="pulse", duration=0.0)


@pytest.mark.parametrize("name", ["magnitude", "onset_position", "duration"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_spec_rejects_non_finite_fields(name, value):
    fields = {"magnitude": 0.5, "shape": "pulse", "duration": 10.0, name: value}
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        PerturbationSpec(**fields)


@pytest.mark.parametrize("name", ["onset_position", "duration"])
def test_step_spec_rejects_onset_and_duration(name):
    # a step acts at entry, so run_perturbation never reads these fields
    with pytest.raises(ConfigError, match="step perturbation acts at entry"):
        PerturbationSpec(magnitude=0.5, shape="step", **{name: 30.0})


class TestFollowingErrors:
    def test_perfect_spacing_gives_zeros(self):
        cfg = make_config(n=3)
        t0 = -np.arange(3) * cfg.headway
        accels = np.zeros((3, 50))
        state = rollout(t0, [0.05] * 3, accels, cfg.ds)
        errors = following_errors(state, cfg)
        assert np.allclose(errors, 0.0, atol=1e-12)

    def test_matches_direct_recomputation(self, rng):
        cfg = make_config(n=4, headway=0.8)
        t = rng.normal(size=(4, 30))
        pi = rng.uniform(0.03, 0.08, size=(4, 30))
        state = PlatoonState(arrival_times=t, slownesses=pi)
        errors = following_errors(state, cfg)
        for i in range(4):
            for k in range(0, 30, 7):
                assert errors[i, k] == pytest.approx(t[0, k] - t[i, k] - i * 0.8)
        assert np.allclose(errors[0], 0.0)


class TestRunPerturbation:
    def _coarse_config(self, n=3):
        return make_config(n=n, ds=1.0, horizon_steps=800)

    def test_step_ratios_bounded_by_one(self):
        cfg = self._coarse_config()
        report = run_perturbation(
            cfg, CAL_WEIGHTS, build_preset("collector"),
            PerturbationSpec(magnitude=0.5), SolverOptions(),
        )
        assert report.defined
        assert report.stable
        finite = [g for g in report.gamma.values() if np.isfinite(g)]
        assert all(g <= 1.0 + 1e-6 for g in finite)
        # the leader absorbs most of its own perturbation
        assert report.gamma_vs_leader[2] < 1.0

    def test_vanishing_perturbation_is_guarded(self):
        # a perturbation far below solver tolerance produces deviations that
        # vanish; ratios are then reported as undefined instead of noise
        cfg = self._coarse_config(n=2)
        report = run_perturbation(
            cfg, CAL_WEIGHTS, build_preset("collector"),
            PerturbationSpec(magnitude=1e-13), SolverOptions(),
        )
        if not report.defined:
            assert any(np.isnan(g) for g in report.gamma.values())
        else:
            # deviations may survive roundoff; they must still be tiny
            assert report.deviation_norms.max() < 1e-4

    def test_followers_respond_identically(self):
        # the gap cost couples every follower to the leader the same way, so
        # follower deviations agree to near machine precision
        cfg = self._coarse_config()
        report = run_perturbation(
            cfg, CAL_WEIGHTS, build_preset("collector"),
            PerturbationSpec(magnitude=0.5), SolverOptions(),
        )
        assert report.deviation_norms[1] == pytest.approx(
            report.deviation_norms[2], rel=1e-6
        )

    def test_identical_followers_tie(self):
        # five copies of one vehicle: every follower's gap cost ties it to the
        # leader the same way, so only the first follower damps the leader's
        # response and the ratios past it tie at 1; criterion 3's printout
        # of the adjacent ratios rests on this tie
        scen = override_ds(load_scenario(resolve_scenario_path("collector")), 1.0)
        cfg = dataclasses.replace(scen.config, vehicles=(scen.config.vehicles[0],) * 5)
        report = run_perturbation(
            cfg, scen.weights, scen.profile, PerturbationSpec(magnitude=0.25),
            scen.solver_options,
        )
        assert report.gamma[2] < 1.0
        for j in (3, 4, 5):
            assert report.gamma[j] == pytest.approx(1.0, abs=1e-9)

    def test_trend_down_with_platoon_size(self):
        gammas = {}
        for n in (3, 4):
            cfg = self._coarse_config(n=n)
            report = run_perturbation(
                cfg, CAL_WEIGHTS, build_preset("collector"),
                PerturbationSpec(magnitude=0.5), SolverOptions(),
            )
            gammas[n] = report.gamma_vs_leader[2]
        assert gammas[4] < gammas[3]

    def test_pulse_shape_runs_receding(self):
        cfg = make_config(n=2, ds=1.0, horizon_steps=200)
        spec = PerturbationSpec(
            magnitude=0.5, shape="pulse", onset_position=50.0, duration=30.0
        )
        report = run_perturbation(
            cfg, CAL_WEIGHTS, build_preset("collector"), spec, SolverOptions()
        )
        assert report.deviations.shape[0] == 2
        # the jolt leaves a measurable signature
        assert report.deviation_norms[0] > 1e-6

    def test_step_replan_matches_tightly_converged_replan(self):
        # the step re-plan lands on the converged response: a re-plan warm-
        # started from the unperturbed plan stopped next to it and read the
        # leader ratio 3.5e-3 low
        cfg = self._coarse_config()
        spec = PerturbationSpec(magnitude=0.25)
        prof = build_preset("collector")
        default = run_perturbation(cfg, CAL_WEIGHTS, prof, spec, SolverOptions())
        tight = run_perturbation(
            cfg, CAL_WEIGHTS, prof, spec, SolverOptions(tol_cost_rel=1e-10)
        )
        assert default.gamma_vs_leader[2] == pytest.approx(
            tight.gamma_vs_leader[2], rel=5e-4
        )

    def test_step_replan_starts_cold(self, monkeypatch):
        cfg = self._coarse_config(n=2)
        prof = build_preset("collector")
        t0 = -np.arange(2) * cfg.headway
        pi0 = np.full(2, 1.0 / cfg.target_speed)
        baseline = solver_mod.solve(cfg, CAL_WEIGHTS, prof, t0, pi0, SolverOptions())
        calls = []
        inner = solver_mod.solve

        def spy(*args, **kwargs):
            report = inner(*args, **kwargs)
            calls.append((args, kwargs, report))
            return report

        monkeypatch.setattr(solver_mod, "solve", spy)
        run_perturbation(
            cfg, CAL_WEIGHTS, prof, PerturbationSpec(magnitude=0.5), SolverOptions(),
            baseline_report=baseline,
        )
        assert len(calls) == 1
        args, kwargs, report = calls[0]
        # initial_controls is solve's eighth parameter: absent either way
        assert "initial_controls" not in kwargs and len(args) < 8
        assert kwargs["targets"] is baseline.targets
        assert report.coarse_iterations > 0

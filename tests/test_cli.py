"""Command-line front end: outputs, exit codes, determinism."""

import hashlib
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import ON_HASHED_NUMPY
from ecoplatoon import cli
from ecoplatoon import solver as solver_mod
from ecoplatoon.cli import EXIT_CONFIG, EXIT_NO_CONVERGENCE, EXIT_OK, main, write_csv
from ecoplatoon.errors import BackwardPassError
from ecoplatoon.scenario import resolve_scenario_path


@pytest.fixture
def fast_scenario(tmp_path):
    """Collector-style scenario coarsened for test speed."""
    raw = {
        "name": "fast",
        "road": {"preset": "collector"},
        "platoon": {
            "n_vehicles": 3,
            "target_speed": {"value": 45, "units": "mph"},
            "speed_limit": {"value": 75, "units": "mph"},
            "ds_m": 1.0,
            "route_length_m": 800.0,
        },
        "weights": {
            "q1": 500, "q2": 0.01, "q3": 50000, "r1": 60, "qv": 200000,
            "power_floor": 0.0,
        },
        "baseline": {"dt_s": 0.05},
        "initial_time_errors_s": [0.0, 0.4, -0.3],
        "perturbation": {"magnitude_mps": 0.5, "shape": "step"},
    }
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(raw))
    return path


def read_bytes_map(outdir: Path):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir()) if p.is_file()}


class TestSimulate:
    def test_writes_expected_files(self, fast_scenario, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario", str(fast_scenario), "--out", str(out)])
        assert rc == EXIT_OK
        for name in ("trajectories.csv", "fuel_series.csv", "summary.json",
                     "solve_report.json"):
            assert (out / name).exists(), name
        assert not (out / "plot_results.py").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["fuel_total_L"]["eco"] > 0
        assert "max_violation" in summary
        assert "wall_time" not in summary
        # a cold one-shot solve reports its coarse phase apart from its iterations
        report = json.loads((out / "solve_report.json").read_text())
        assert report["coarse_iterations"] > 0
        assert summary["solve"]["coarse_iterations"] == report["coarse_iterations"]
        assert summary["solve"]["iterations"] == len(report["iterations"])
        assert summary["solve"]["wall_time_s"] == report["wall_time_s"]
        header = (out / "trajectories.csv").read_text().splitlines()[0]
        assert header.startswith("step,s_m,t1_s,v1_mps,a1_mps2,aeq1_mps2")
        n_rows = len((out / "trajectories.csv").read_text().splitlines()) - 1
        assert n_rows == 801  # one row per spatial step

    def test_missing_scenario_exits_config(self, tmp_path, capsys):
        rc = main(["simulate", "--scenario", str(tmp_path / "gone.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "gone.json" in capsys.readouterr().err

    def test_nan_weight_exits_config(self, fast_scenario, tmp_path, capsys):
        raw = json.loads(fast_scenario.read_text())
        raw["weights"]["q1"] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(raw))
        assert '"q1": NaN' in bad.read_text()
        rc = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "q1" in capsys.readouterr().err

    def test_nan_gravity_exits_config(self, fast_scenario, tmp_path, capsys):
        raw = json.loads(fast_scenario.read_text())
        raw["platoon"]["gravity"] = float("nan")
        bad = tmp_path / "nan_gravity.json"
        bad.write_text(json.dumps(raw))
        assert '"gravity": NaN' in bad.read_text()
        rc = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "gravity" in capsys.readouterr().err

    def test_infinite_mass_exits_config(self, fast_scenario, tmp_path, capsys):
        # an inf-blind mass check let this plan run, exit 3 and write a summary
        raw = json.loads(fast_scenario.read_text())
        raw["platoon"]["mass_kg"] = math.inf
        bad = tmp_path / "inf_mass.json"
        bad.write_text(json.dumps(raw))
        assert '"mass_kg": Infinity' in bad.read_text()
        out = tmp_path / "o"
        rc = main(["simulate", "--scenario", str(bad), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "mass" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "grades", [[math.nan] * 8, [15.0] * 7 + [math.inf], [True] + [15.0] * 7]
    )
    def test_non_finite_profile_exits_config(self, fast_scenario, tmp_path, capsys, grades):
        (tmp_path / "road.json").write_text(json.dumps({
            "breakpoints_m": [100.0 * j for j in range(9)], "percent_grades": grades,
        }))
        raw = json.loads(fast_scenario.read_text())
        raw["road"] = {"profile_file": "road.json"}
        bad = tmp_path / "bad_road.json"
        bad.write_text(json.dumps(raw))
        rc = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "road.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [("weights", "q1", "heavy"), ("solver", "max_outer", True)],
    )
    def test_malformed_field_exits_config(
        self, fast_scenario, tmp_path, capsys, section, key, value
    ):
        raw = json.loads(fast_scenario.read_text())
        raw.setdefault(section, {})[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        rc = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, unknown",
        [
            ("weights", "q_3", "unknown weights key 'q_3'"),
            ("solver", "max_iter", "unknown solver option 'max_iter'"),
            ("baseline", "kp_gapp", "unknown baseline key 'kp_gapp'"),
            ("platoon", "gravty", "unknown platoon key 'gravty'"),
            ("road", "presets", "unknown road key 'presets'"),
            ("horizon", "windw_m", "unknown horizon key 'windw_m'"),
            ("perturbation", "magnitude", "unknown perturbation key 'magnitude'"),
            (None, "weight", "unknown top-level key 'weight'"),
        ],
        ids=["weights", "solver", "baseline", "platoon", "road", "horizon", "perturbation", "top"],
    )
    def test_misspelled_key_exits_config(
        self, fast_scenario, tmp_path, capsys, section, key, unknown
    ):
        # a misspelled key used to load with the field's default: another experiment
        raw = json.loads(fast_scenario.read_text())
        (raw if section is None else raw.setdefault(section, {}))[key] = 1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        rc = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert f"bad.json: {unknown}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, fields, message",
        [
            ("solver", {"tol_cost_rel": 0}, "solver.tol_cost_rel must be positive and finite"),
            (
                "perturbation",
                {"magnitude_mps": 0.5, "shape": "pulse"},
                "perturbation.duration must be positive for a pulse",
            ),
        ],
        ids=["solver", "perturbation"],
    )
    def test_section_error_names_file_and_section(
        self, fast_scenario, tmp_path, capsys, section, fields, message
    ):
        # these two sections' errors used to name neither the file nor the section
        raw = json.loads(fast_scenario.read_text())
        raw[section] = fields
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        rc = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert f"bad.json: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--ds", "0"), ("--ds", "-1"), ("--ds", "nan"), ("--ds", "inf"),
         ("--window", "0"), ("--window", "-5"), ("--window", "nan"), ("--window", "inf")],
    )
    def test_bad_override_exits_config(self, fast_scenario, tmp_path, capsys, flag, value):
        # the overrides obey the loader's rule for window_m: finite and > 0
        raw = json.loads(fast_scenario.read_text())
        raw["horizon"] = {"mode": "receding", "window_m": 40.0, "replan_m": 10.0}
        receding = tmp_path / "receding.json"
        receding.write_text(json.dumps(raw))
        rc = main(["simulate", "--scenario", str(receding), "--out", str(tmp_path / "o"),
                   flag, value])
        assert rc == EXIT_CONFIG
        message = f"{flag} must be positive and finite, got {float(value)}"
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--window", "25.5"],
             "--window 25.5 m is not a whole number of steps of ds 1.0 m (25.5 steps)"),
            # the window is checked against the step --ds sets
            (["--ds", "2", "--window", "25"],
             "--window 25.0 m is not a whole number of steps of ds 2.0 m (12.5 steps)"),
        ],
        ids=["window", "window_at_new_ds"],
    )
    def test_window_off_the_step_grid_exits_config(
        self, fast_scenario, tmp_path, monkeypatch, capsys, flags, message
    ):
        monkeypatch.setattr(cli, "cmd_simulate", lambda scenario, out: EXIT_OK)
        rc = main(["simulate", "--scenario", str(fast_scenario), "--out", str(tmp_path / "o"),
                   *flags])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    @pytest.mark.parametrize(
        "flags, check",
        [
            (["--window", "25"], lambda s: s.window_m == 25.0),
            (["--ilqr"], lambda s: s.solver_options.use_second_order is False),
        ],
        ids=["window", "ilqr"],
    )
    def test_override_reaches_the_scenario(self, fast_scenario, tmp_path, monkeypatch, flags,
                                           check):
        seen = []
        # stands in for the solve: the test needs only the scenario it is given
        monkeypatch.setattr(
            cli, "cmd_simulate", lambda scenario, out: seen.append(scenario) or EXIT_OK
        )
        rc = main(["simulate", "--scenario", str(fast_scenario), "--out", str(tmp_path / "o"),
                   *flags])
        assert rc == EXIT_OK
        assert check(seen[0])

    @pytest.mark.parametrize(
        "matrix, row, value, message",
        [
            ("positive_accel", 1, [0.02799, "0.0068", -7.722e-4, 8.38e-6],
             r"positive_accel\[1\]\[1\] must be a number"),
            ("negative_accel", 3, [1.08e-6, 2.47e-7, 4.87e-8],
             "'negative_accel' must be a 4x4 list of numbers"),
            ("positive_accel", 0, [math.nan, 0.2295, -5.61e-3, 9.773e-5],
             r"positive_accel\[0\]\[0\] must be finite"),
        ],
        ids=["string", "ragged", "nan"],
    )
    def test_malformed_fuel_model_exits_config(
        self, fast_scenario, tmp_path, capsys, matrix, row, value, message
    ):
        # a string or a ragged row raised ValueError (exit 1), and NaN wrote a NaN fuel total
        fuel = json.loads(
            (Path(cli.__file__).parent / "data" / "vt_micro_ldv.json").read_text()
        )
        fuel[matrix][row] = value
        (tmp_path / "fuel.json").write_text(json.dumps(fuel))
        raw = json.loads(fast_scenario.read_text())
        raw["fuel_model"] = "fuel.json"
        bad = tmp_path / "bad_fuel.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "o"
        rc = main(["simulate", "--scenario", str(bad), "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "fuel.json: " in err
        assert re.search(message, err)
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "solver",
        [{"use_second_order": "false"}, {"use_second_order": None}, {"use_second_order": 0}],
    )
    def test_bad_ilqr_key_exits_config(self, fast_scenario, tmp_path, capsys, solver):
        raw = json.loads(fast_scenario.read_text())
        raw["solver"] = solver
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        rc = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "use_second_order" in capsys.readouterr().err
        assert not (tmp_path / "o" / "summary.json").exists()

    @pytest.mark.parametrize(
        "field, value",
        [("profile_file", 5), ("fuel_model", 5), ("fuel_model", [1])],
    )
    def test_non_string_path_field_exits_config(
        self, fast_scenario, tmp_path, capsys, field, value
    ):
        # a number or list joined onto the scenario's directory raised TypeError (exit 1)
        raw = json.loads(fast_scenario.read_text())
        if field == "profile_file":
            raw["road"] = {"profile_file": value}
        else:
            raw[field] = value
        bad = tmp_path / "bad_path.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "o"
        rc = main(["simulate", "--scenario", str(bad), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert field in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("field", ["profile_file", "fuel_model"])
    def test_directory_path_field_exits_config(self, fast_scenario, tmp_path, capsys, field):
        # "." names the scenario's own directory; open() raises
        # IsADirectoryError on it, an OSError that is not FileNotFoundError
        raw = json.loads(fast_scenario.read_text())
        if field == "profile_file":
            raw["road"] = {"profile_file": "."}
        else:
            raw[field] = "."
        bad = tmp_path / "dir_path.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "o"
        rc = main(["simulate", "--scenario", str(bad), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "cannot read" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("ds", [0, -0.1])
    def test_bad_scenario_ds_exits_config(self, fast_scenario, tmp_path, capsys, ds):
        raw = json.loads(fast_scenario.read_text())
        raw["platoon"]["ds_m"] = ds
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        rc = main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert f"{bad}: platoon.ds_m must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("ds, steps", [("0.3", "2666.67"), ("1.5", "533.333")])
    def test_ds_that_does_not_divide_the_route_exits_config(
        self, fast_scenario, tmp_path, capsys, ds, steps
    ):
        # --ds keeps the route length, so a step that does not divide it is refused
        out = tmp_path / "o"
        rc = main(["simulate", "--scenario", str(fast_scenario), "--out", str(out), "--ds", ds])
        assert rc == EXIT_CONFIG
        message = (
            f"route length 800.0 m is not a whole number of steps of ds {ds} m ({steps} steps)"
        )
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    def test_ds_override_is_silent(self, fast_scenario, tmp_path, capsys):
        # ds sets the resolution only, so overriding it warns about nothing
        rc = main(["simulate", "--scenario", str(fast_scenario), "--out", str(tmp_path / "o"),
                   "--ds", "1.0"])
        assert rc == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_non_convergence_exit_code(self, fast_scenario, tmp_path):
        raw = json.loads(fast_scenario.read_text())
        raw["solver"] = {"max_inner": 1, "max_outer": 1}
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps(raw))
        rc = main(["simulate", "--scenario", str(strict), "--out", str(tmp_path / "o2")])
        assert rc == EXIT_NO_CONVERGENCE

    def test_compare_non_convergence_exit_code(self, fast_scenario, tmp_path, capsys):
        raw = json.loads(fast_scenario.read_text())
        raw["solver"] = {"max_inner": 1, "max_outer": 1}
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps(raw))
        out = tmp_path / "o"
        rc = main(["compare", "--scenario", str(strict), "--out", str(out)])
        assert rc == EXIT_NO_CONVERGENCE
        assert "see summary.json" in capsys.readouterr().err
        assert json.loads((out / "summary.json").read_text())["converged"] is False

    def test_receding_non_convergence_points_at_summary(self, fast_scenario, tmp_path, capsys):
        # a receding run writes no solve_report.json for the message to name
        raw = json.loads(fast_scenario.read_text())
        raw["solver"] = {"max_inner": 1, "max_outer": 1}
        raw["horizon"] = {"mode": "receding", "window_m": 40.0, "replan_m": 10.0}
        strict = tmp_path / "strict_receding.json"
        strict.write_text(json.dumps(raw))
        out = tmp_path / "o3"
        rc = main(["simulate", "--scenario", str(strict), "--out", str(out)])
        assert rc == EXIT_NO_CONVERGENCE
        assert not (out / "solve_report.json").exists()
        assert "see summary.json" in capsys.readouterr().err

    def test_reruns_byte_identical(self, fast_scenario, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--scenario", str(fast_scenario), "--out", str(out1)]) == 0
        assert main(["simulate", "--scenario", str(fast_scenario), "--out", str(out2)]) == 0
        m1, m2 = read_bytes_map(out1), read_bytes_map(out2)
        assert m1.keys() == m2.keys()
        for name in m1:
            if name.endswith(".csv"):
                assert m1[name] == m2[name], name

    def test_overwrite_is_atomic_and_clean(self, fast_scenario, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(fast_scenario), "--out", str(out)]) == 0
        first = read_bytes_map(out)
        assert main(["simulate", "--scenario", str(fast_scenario), "--out", str(out)]) == 0
        second = read_bytes_map(out)
        assert first.keys() == second.keys()
        assert not list(out.glob("*.tmp"))


class TestCompare:
    def test_savings_reported(self, fast_scenario, tmp_path):
        out = tmp_path / "cmp"
        rc = main(["compare", "--scenario", str(fast_scenario), "--out", str(out)])
        assert rc == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["fuel_total_L"]["baseline"] > 0
        assert summary["savings_pct"] is not None
        assert (out / "segment_deltas.csv").exists()
        assert (out / "speed_series.csv").exists()
        lines = (out / "segment_deltas.csv").read_text().splitlines()
        assert len(lines) == 9  # header + 8 terrain segments

    def test_ecology_ablation_near_zero_savings(self, fast_scenario, tmp_path):
        raw = json.loads(fast_scenario.read_text())
        raw["weights"]["q2"] = 0.0
        ablated = tmp_path / "ablated.json"
        ablated.write_text(json.dumps(raw))
        out = tmp_path / "abl"
        assert main(["compare", "--scenario", str(ablated), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["savings_pct"]) < 3.0


# Each shipped preset's `compare` run: the sha256 of its four CSVs, in the
# order of PINNED_CSVS, the backward passes and rollouts it takes, and per
# grid level, coarsest first, (K, accepted iterations, backward passes,
# failed backward passes, rollouts), its summary's iteration counts and its
# saving. The hashes were recorded on numpy 2.4; another numpy may round a
# last bit differently, so there only the counts and the saving are held.
PRESET_FINGERPRINTS = {
    "collector": {
        "csv_sha256": (
            "1425eff50c2284379a13d88adc685baeef8a555e14fafd62c038dd22814d60e7",
            "026e1d7ccee3b1000105045e9da76d03eba9969aa807aca18c9ba58abcf1b241",
            "6538a41425fc6b326b1f87248b7672a88bfc8dd3059541c73b8e492283f26e67",
            "8a77c787e40b811bb42c43ebe47a56b8edb50d821d769deb7d29fdb9d2d3f758",
        ),
        "calls": {"backward_pass": 14, "forward_pass": 24},
        "levels": [(320, 10, 10, 0, 20), (1600, 2, 3, 0, 4), (8000, 0, 1, 0, 0)],
        "solve": {"iterations": 0, "coarse_iterations": 12},
        "savings_pct": 50.48,
    },
    "major_arterial": {
        "csv_sha256": (
            "8e5fbd8a1ba976e66cacf5afe5b6152a917c478bce1f93b253f2b5ed37d0374b",
            "a5e4eef07dd0d0eaf72e8682bb581a7c0f73cf5a47f4238c6f7ceadaf6aba993",
            "871aa1bbdf83dd19348893f846d9538fa3fa8243925e4c8a3c941c5527474f3b",
            "2b50ada9954acb91c4ba9489add86632512828dcbfd68d3c6a17138894805a00",
        ),
        "calls": {"backward_pass": 27, "forward_pass": 69},
        "levels": [(320, 23, 24, 0, 68), (1600, 1, 2, 0, 1), (8000, 0, 1, 0, 0)],
        "solve": {"iterations": 0, "coarse_iterations": 24},
        "savings_pct": 23.80,
    },
}
PINNED_CSVS = ("trajectories.csv", "fuel_series.csv", "speed_series.csv", "segment_deltas.csv")
# The sha256 of each CSV of `stability --scenario collector --ds 1.0`.
STABILITY_SHA256 = {
    "gamma.csv": "c7bec6c460e2115848e8e494eebd0d80c86159c4d890bd7bd14f80849f55ddc2",
    "deviations.csv": "bf0268a1899283a1374cd917d5e36d06959a55199acb03904ff0b9c1deb70b19",
    "following_errors.csv": "5cfbb562d2d8b1230e8c9f885abf342f830a18fe11a9750557c9847d83e495c6",
}


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPresetFingerprints:
    @pytest.mark.parametrize("preset", sorted(PRESET_FINGERPRINTS))
    def test_compare_outputs_pinned(self, preset, tmp_path, monkeypatch):
        want = PRESET_FINGERPRINTS[preset]
        calls = Counter()
        for name in want["calls"]:
            def spy(*args, _name=name, _inner=getattr(solver_mod, name), **kwargs):
                calls[_name] += 1
                try:
                    return _inner(*args, **kwargs)
                except BackwardPassError:
                    calls["raised"] += 1
                    raise

            monkeypatch.setattr(solver_mod, name, spy)
        levels = []
        inner_solve = solver_mod._solve

        def level_spy(*args, **kwargs):
            before = calls.copy()
            level = inner_solve(*args, **kwargs)
            took = calls - before
            levels.append((
                level.controls.accels.shape[1], len(level.iterations), took["backward_pass"],
                took["raised"], took["forward_pass"],
            ))
            return level

        monkeypatch.setattr(solver_mod, "_solve", level_spy)
        out = tmp_path / preset
        assert main(["compare", "--scenario", preset, "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert {name: calls[name] for name in want["calls"]} == want["calls"]
        assert levels == want["levels"]
        assert {key: summary["solve"][key] for key in want["solve"]} == want["solve"]
        assert round(summary["savings_pct"], 2) == want["savings_pct"]
        if ON_HASHED_NUMPY:
            assert tuple(sha256_of(out / name) for name in PINNED_CSVS) == want["csv_sha256"]

    def test_stability_outputs_pinned(self, tmp_path):
        out = tmp_path / "stability"
        args = ["stability", "--scenario", "collector", "--ds", "1.0", "--out", str(out)]
        assert main(args) == EXIT_OK
        if ON_HASHED_NUMPY:
            assert {name: sha256_of(out / name) for name in STABILITY_SHA256} == STABILITY_SHA256


class TestStability:
    def test_gamma_table_written(self, fast_scenario, tmp_path):
        out = tmp_path / "stab"
        rc = main(["stability", "--scenario", str(fast_scenario), "--out", str(out)])
        assert rc == EXIT_OK
        stab = json.loads((out / "stability.json").read_text())
        assert stab["stable"] is True
        assert (out / "gamma.csv").exists()
        assert (out / "following_errors.csv").exists()
        assert (out / "deviations.csv").exists()

    @pytest.fixture
    def pulse_scenario(self, tmp_path):
        """The collector preset at ds_m 1.0 with a pulse perturbation."""
        raw = json.loads(resolve_scenario_path("collector").read_text())
        raw["platoon"]["ds_m"] = 1.0
        raw["perturbation"] = {
            "magnitude_mps": 0.5, "shape": "pulse", "onset_m": 100.0, "duration_m": 50.0
        }
        path = tmp_path / "pulse.json"
        path.write_text(json.dumps(raw))
        return path

    def test_pulse_replans_in_the_scenario_window(self, pulse_scenario, tmp_path):
        # a pulse is measured in receding windows of window_m, which --window sets
        outputs = {}
        for window in ("20", "40", None):
            out = tmp_path / f"window_{window}"
            flags = [] if window is None else ["--window", window]
            args = ["stability", "--scenario", str(pulse_scenario), "--out", str(out), *flags]
            assert main(args) == EXIT_OK
            outputs[window] = [(out / name).read_bytes() for name in ("gamma.csv", "deviations.csv")]
        assert outputs["40"] == outputs[None]  # the scenario's own window_m is 40 m
        assert all(a != b for a, b in zip(outputs["20"], outputs["40"]))

    def test_window_shorter_than_replan_interval_names_both(
        self, pulse_scenario, tmp_path, capsys
    ):
        # the default replan_m is 10 m, so a 5 m window cannot hold one replan
        args = ["stability", "--scenario", str(pulse_scenario), "--out", str(tmp_path / "o")]
        assert main([*args, "--window", "5"]) == EXIT_CONFIG
        assert "replan_m must be at most window_m (5.0), got 10.0" in capsys.readouterr().err

    def test_missing_perturbation_is_config_error(self, fast_scenario, tmp_path):
        raw = json.loads(fast_scenario.read_text())
        del raw["perturbation"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(raw))
        rc = main(["stability", "--scenario", str(bare), "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG


class TestBench:
    def test_timing_table(self, fast_scenario, tmp_path):
        out = tmp_path / "bench"
        rc = main([
            "bench", "--scenario", str(fast_scenario), "--out", str(out),
            "--ds-sweep", "1.0", "--window-sweep", "20", "40",
            "--max-executions", "5",
        ])
        assert rc == EXIT_OK
        rows = json.loads((out / "timings.json").read_text())
        assert len(rows) == 2
        # one row per sweep point, under the same five names in both files
        lines = (out / "timings.csv").read_text().splitlines()
        assert lines[0] == "ds_m,window_m,executions,mean_s,max_s"
        assert [line.split(",")[:3] for line in lines[1:]] == [["1", "20", "5"], ["1", "40", "5"]]
        assert all(sorted(r) == sorted(lines[0].split(",")) for r in rows)
        assert all(r["mean_s"] > 0 and r["max_s"] >= r["mean_s"] for r in rows)
        # larger window never solves faster on average
        assert rows[1]["mean_s"] >= rows[0]["mean_s"] * 0.8

    @pytest.mark.parametrize(
        "flag, values",
        [("--ds-sweep", "1.0 nan"), ("--window-sweep", "20 nan"), ("--window-sweep", "inf"),
         ("--window-sweep", "0"), ("--window-sweep", "-20"),
         ("--max-executions", "0"), ("--max-executions", "-1")],
    )
    def test_bad_sweep_exits_config(self, fast_scenario, tmp_path, capsys, flag, values):
        out = tmp_path / "bench"
        rc = main([
            "bench", "--scenario", str(fast_scenario), "--out", str(out),
            "--ds-sweep", "1.0", "--max-executions", "1", flag, *values.split(),
        ])
        assert rc == EXIT_CONFIG
        assert flag.lstrip("-") in capsys.readouterr().err
        assert not (out / "timings.csv").exists()

    def test_window_shorter_than_replan_interval_names_both(
        self, fast_scenario, tmp_path, capsys
    ):
        # every window replans at the scenario's replan_m, 10 m by default,
        # as simulate and stability do, so a 5 m window cannot hold one replan
        out = tmp_path / "bench"
        rc = main([
            "bench", "--scenario", str(fast_scenario), "--out", str(out),
            "--ds-sweep", "1.0", "--window-sweep", "5",
        ])
        assert rc == EXIT_CONFIG
        assert "replan_m must be at most window_m (5.0), got 10.0" in capsys.readouterr().err
        assert not (out / "timings.csv").exists()


class TestWriteCsv:
    def test_matches_per_cell_formatting(self, tmp_path):
        # integer columns print as integers, every other column as %.12g of
        # its float value, byte for byte what per-cell formatting gives
        ints = np.array([0, -3, 7, 2**40, -(2**53), 12])
        floats = np.array(
            [-0.0, math.inf, -math.inf, math.nan, 1e-300, 0.1 + 0.2]
        )
        rounding = np.array(
            [123456789012.5, 1.0000000000005, 9.9999999999995, 2.5e15, 1 / 3, 5e-324]
        )
        int_like_floats = np.array([0.0, 1.0, -2.0, 1e12, 1e13, 3.0])
        path = tmp_path / "t.csv"
        cols = [ints, floats, rounding, int_like_floats, list(range(6))]
        write_csv(path, ["i", "f", "r", "g", "n"], cols)
        expected = ["i,f,r,g,n"]
        for k in range(6):
            cells = [str(int(ints[k]))]
            cells += [format(float(c[k]), ".12g") for c in (floats, rounding, int_like_floats)]
            cells.append(str(k))
            expected.append(",".join(cells))
        assert path.read_text() == "\n".join(expected) + "\n"
        lines = path.read_text().splitlines()
        assert lines[1] == "0,-0,123456789012,0,0"
        assert lines[2] == "-3,inf,1,1,1"
        assert lines[3] == "7,-inf,10,-2,2"
        assert lines[4] == f"{2**40},nan,2.5e+15,1e+12,3"
        assert lines[5] == f"{-(2**53)},1e-300,0.333333333333,1e+13,4"
        assert lines[6] == "12,0.3,4.94065645841e-324,3,5"

    def test_failed_write_leaves_target_and_no_temporary(self, tmp_path):
        # the last row cannot be formatted; by then earlier rows have reached
        # the temporary file, which the failure removes
        path = tmp_path / "t.csv"
        write_csv(path, ["a"], [np.arange(3.0)])
        before = path.read_bytes()
        bad = np.array([*range(20000), None], dtype=object)
        with pytest.raises(TypeError):
            write_csv(path, ["a"], [bad])
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []

    def test_empty_columns_write_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        write_csv(path, ["a", "b"], [np.arange(0), np.zeros(0)])
        assert path.read_text() == "a,b\n"

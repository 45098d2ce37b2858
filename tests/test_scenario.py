"""Scenario file parsing, presets, and unit policy."""

import json
import re

import numpy as np
import pytest

from ecoplatoon.errors import ConfigError
from ecoplatoon.fuel import FuelModel
from ecoplatoon.scenario import (
    load_scenario,
    override_ds,
    preset_dir_candidates,
    resolve_scenario_path,
)
from ecoplatoon.terrain import load_profile

MPH = 0.44704


class TestPresets:
    @pytest.mark.parametrize(
        "name,target_mph", [("collector", 45.0), ("major_arterial", 65.0)]
    )
    def test_shipped_presets_load(self, name, target_mph):
        scen = load_scenario(resolve_scenario_path(name))
        cfg = scen.config
        assert cfg.n_vehicles == 3
        assert cfg.target_speed == pytest.approx(target_mph * MPH)
        assert cfg.speed_limit == pytest.approx(75 * MPH)
        assert cfg.ds == 0.1
        assert cfg.horizon_steps == 8000
        assert cfg.headway == 1.0
        assert cfg.vehicles[0].mass == 1400.0
        assert cfg.vehicles[0].a_max == 3.0
        assert cfg.vehicles[0].a_min == -5.0
        assert cfg.gravity == 9.8
        assert cfg.rolling_coeff == 0.015
        assert cfg.drag_coeff == 0.000024
        assert scen.weights.q1 == 500.0
        assert scen.profile.total_length == 800.0
        assert scen.perturbation is not None

    def test_initial_state_entry_anchored(self):
        scen = load_scenario(resolve_scenario_path("collector"))
        t0, pi0, targets = scen.initial_state()
        ideal = -np.arange(3) * scen.config.headway
        assert np.allclose(t0, ideal + scen.initial_time_errors)
        assert np.allclose(pi0, 1.0 / scen.config.target_speed)
        assert np.allclose(
            targets, ideal + scen.config.route_length / scen.config.target_speed
        )

    def test_env_var_overrides_search_path(self, tmp_path, monkeypatch):
        custom = tmp_path / "presets"
        custom.mkdir()
        src = resolve_scenario_path("collector")
        alt = json.loads(src.read_text())
        alt["name"] = "customized"
        (custom / "collector.json").write_text(json.dumps(alt))
        monkeypatch.setenv("ECOPLATOON_PRESET_DIR", str(custom))
        assert preset_dir_candidates()[0] == custom
        scen = load_scenario(resolve_scenario_path("collector"))
        assert scen.name == "customized"

    def test_missing_scenario_names_path(self):
        with pytest.raises(ConfigError, match="no_such_scenario"):
            resolve_scenario_path("no_such_scenario")


class TestLoading:
    def _minimal(self, tmp_path, **overrides):
        raw = {
            "name": "mini",
            "road": {"preset": "collector"},
            "platoon": {
                "n_vehicles": 2,
                "target_speed": {"value": 45, "units": "mph"},
                "speed_limit": {"value": 75, "units": "mph"},
                "ds_m": 1.0,
                "route_length_m": 800.0,
            },
        }
        raw.update(overrides)
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(raw))
        return path

    def test_minimal_scenario_defaults(self, tmp_path):
        scen = load_scenario(self._minimal(tmp_path))
        assert scen.config.n_vehicles == 2
        assert scen.horizon_mode == "one_shot"
        assert scen.perturbation is None
        assert scen.fuel_model.idle_rate > 0

    def test_unread_tire_radius_still_loads(self, tmp_path):
        # older files carry baseline.tire_radius_m; nothing reads it
        path = self._minimal(tmp_path, baseline={"tire_radius_m": 0.3, "dt_s": 0.02})
        assert load_scenario(path).baseline_dt == 0.02

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_speed_rejected(self, tmp_path, value):
        # zero and negative entry speeds: test_platoon's TestSlowness
        path = self._minimal(tmp_path)
        raw = json.loads(path.read_text())
        raw["platoon"]["initial_speed"] = {"value": value, "units": "m/s"}
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="initial_speed: speed must be positive and finite"):
            load_scenario(path)

    def test_speed_requires_unit_tag(self, tmp_path):
        path = self._minimal(tmp_path)
        raw = json.loads(path.read_text())
        raw["platoon"]["target_speed"] = 45.0
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="unit"):
            load_scenario(path)

    def test_unknown_speed_unit_rejected(self, tmp_path):
        path = self._minimal(tmp_path)
        raw = json.loads(path.read_text())
        raw["platoon"]["target_speed"] = {"value": 45, "units": "knots"}
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="knots"):
            load_scenario(path)

    def test_bad_json_line_diagnostics(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "name": oops\n}')
        with pytest.raises(ConfigError, match=r"bad\.json:2:"):
            load_scenario(path)

    def test_unknown_solver_option_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="frobnicate"):
            load_scenario(self._minimal(tmp_path, solver={"frobnicate": 1}))

    @pytest.mark.parametrize(
        "key",
        [
            "tol_violation",
            "reg_init",
            "reg_factor",
            "reg_max",
            "alpha_min",
            "armijo_c",
            "backtrack_factor",
            "rho_init",
            "rho_factor",
            "ilqr",
        ],
    )
    def test_fixed_schedule_key_is_unknown(self, tmp_path, key):
        # the solver's Levenberg, line-search and AL constants are not options,
        # and use_second_order is the one name of the iLQR switch
        with pytest.raises(ConfigError, match=f"unknown solver option '{key}'"):
            load_scenario(self._minimal(tmp_path, solver={key: True}))

    def test_route_longer_than_profile_rejected(self, tmp_path):
        path = self._minimal(tmp_path)
        raw = json.loads(path.read_text())
        raw["platoon"]["route_length_m"] = 900.0
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="exceeds"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "key, value",
        [("ds_m", 0), ("ds_m", -0.1), ("route_length_m", -5), ("route_length_m", float("inf"))],
    )
    def test_step_and_route_checked_before_dividing(self, tmp_path, key, value):
        # the message names the file and the key, as for every platoon key
        path = self._minimal(tmp_path)
        raw = json.loads(path.read_text())
        raw["platoon"][key] = value
        path.write_text(json.dumps(raw))
        message = f"{path}: platoon.{key} must be positive and finite, got {float(value)}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "ds, route, steps",
        [(0.3, 800.0, "2666.67"), (1.5, 800.0, "533.333"), (1000.0, 800.0, "0.8")],
    )
    def test_step_that_does_not_divide_the_route_rejected(self, tmp_path, ds, route, steps):
        # round(L / ds) steps would plan 800.1 m, 799.5 m or no road at all
        path = self._minimal(tmp_path)
        raw = json.loads(path.read_text())
        raw["platoon"].update(ds_m=ds, route_length_m=route)
        path.write_text(json.dumps(raw))
        message = (
            f"{path}: platoon: route length {route} m is not a whole number of steps "
            f"of ds {ds} m ({steps} steps)"
        )
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_scenario(path)

    @pytest.mark.parametrize("ds, steps", [(0.25, 3200), (0.2, 4000), (0.05, 16000)])
    def test_step_that_divides_the_route_plans_it_whole(self, tmp_path, ds, steps):
        path = self._minimal(tmp_path)
        raw = json.loads(path.read_text())
        raw["platoon"]["ds_m"] = ds
        path.write_text(json.dumps(raw))
        config = load_scenario(path).config
        assert config.horizon_steps == steps
        assert config.route_length == pytest.approx(800.0, rel=1e-12)

    def test_wrong_error_vector_length(self, tmp_path):
        with pytest.raises(ConfigError, match="initial_time_errors_s"):
            load_scenario(self._minimal(tmp_path, initial_time_errors_s=[0.0]))

    @pytest.mark.parametrize(
        "errors, message",
        [
            ([0.0, float("nan")], "must be finite"),
            ([0.0, float("-inf")], "must be finite"),
            ([0.0, "late"], "must be a number"),
            (0.5, "must have 2 entries"),
        ],
    )
    def test_bad_time_errors_rejected(self, tmp_path, errors, message):
        # a bad entry is named by its index, a bad list as a whole
        with pytest.raises(ConfigError, match=rf"initial_time_errors_s(\[1\])? {message}"):
            load_scenario(self._minimal(tmp_path, initial_time_errors_s=errors))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("gravity", float("nan")),
            ("gravity", 0.0),
            ("gravity", float("inf")),
            ("rolling_coeff", float("nan")),
            ("rolling_coeff", -0.01),
            ("drag_coeff", float("inf")),
            ("drag_coeff", -1e-5),
        ],
    )
    def test_non_physical_platoon_constant_rejected(self, tmp_path, key, value):
        path = self._minimal(tmp_path)
        raw = json.loads(path.read_text())
        raw["platoon"][key] = value
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=key):
            load_scenario(path)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("weights", "q1", "heavy"),
            ("weights", "power_floor", "low"),
            ("weights", "r1", [50.0]),
            ("baseline", "kp_gap", "x"),
            ("baseline", "kd_gap", float("nan")),
            ("baseline", "dt_s", 0.0),
            ("horizon", "window_m", "far"),
            ("horizon", "window_m", -40.0),
            ("horizon", "replan_m", float("inf")),
            ("perturbation", "magnitude_mps", "big"),
            ("perturbation", "onset_m", "x"),
            ("perturbation", "duration_m", float("nan")),
        ],
    )
    def test_malformed_section_field_rejected(self, tmp_path, section, key, value):
        fields = {"magnitude_mps": 0.5} if section == "perturbation" else {}
        fields[key] = value
        with pytest.raises(ConfigError, match=rf"{section}\.{key} must be"):
            load_scenario(self._minimal(tmp_path, **{section: fields}))

    @pytest.mark.parametrize(
        "section", ["weights", "solver", "baseline", "horizon", "perturbation"]
    )
    def test_section_must_be_an_object(self, tmp_path, section):
        with pytest.raises(ConfigError, match=f"{section} must be a JSON object"):
            load_scenario(self._minimal(tmp_path, **{section: [1.0]}))

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            (("weights", "q1"), True, r"weights\.q1 must be a number"),
            (("weights", "power_floor"), True, r"weights\.power_floor must be a number"),
            (("platoon", "mass_kg"), True, r"platoon\.mass_kg must be a number"),
            (("platoon", "mass_kg"), [1400.0, "1400"], r"platoon\.mass_kg\[1\] must be a number"),
            (("platoon", "headway_s"), "1.0", r"platoon\.headway_s must be a number"),
            (("platoon", "ds_m"), True, r"platoon\.ds_m must be a number"),
            (("platoon", "target_speed", "value"), True, "target_speed: speed must be a number"),
            (("platoon", "n_vehicles"), "3", r"platoon\.n_vehicles must be an integer >= 2"),
            (("platoon", "n_vehicles"), 2.7, r"platoon\.n_vehicles must be an integer >= 2"),
            (("platoon", "n_vehicles"), True, r"platoon\.n_vehicles must be an integer >= 2"),
            (("platoon", "n_vehicles"), 1, r"platoon\.n_vehicles must be an integer >= 2"),
            (("baseline", "dt_s"), True, r"baseline\.dt_s must be a number"),
            (("horizon", "window_m"), True, r"horizon\.window_m must be a number"),
            (("perturbation", "magnitude_mps"), True, r"perturbation\.magnitude_mps must be a"),
            (("initial_time_errors_s",), [True, False], r"initial_time_errors_s\[0\] must be a"),
        ],
        ids=[
            "q1", "power_floor", "mass", "mass_entry", "headway", "ds", "speed_value",
            "n_text", "n_fraction", "n_bool", "n_one", "dt_s", "window_m", "magnitude",
            "time_errors",
        ],
    )
    def test_booleans_and_strings_are_not_numbers(self, tmp_path, keys, value, message):
        # float() read true as 1.0 and "3" as 3, and int() cut 2.7 vehicles to 2
        path = self._minimal(tmp_path, perturbation={"magnitude_mps": 0.5})
        raw = json.loads(path.read_text())
        node = raw
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = value
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=message):
            load_scenario(path)

    def test_perturbation_needs_magnitude(self, tmp_path):
        with pytest.raises(ConfigError, match="magnitude_mps"):
            load_scenario(self._minimal(tmp_path, perturbation={"shape": "step"}))

    @pytest.mark.parametrize(
        "options, name",
        [
            ({"tol_cost_rel": 0.0}, "tol_cost_rel"),
            ({"max_inner": "ten"}, "max_inner"),
            ({"max_outer": True}, "max_outer"),
        ],
    )
    def test_bad_solver_option_value_rejected(self, tmp_path, options, name):
        with pytest.raises(ConfigError, match=rf"solver\.{name} must be"):
            load_scenario(self._minimal(tmp_path, solver=options))

    def test_sections_read_when_well_formed(self, tmp_path):
        scen = load_scenario(
            self._minimal(
                tmp_path,
                weights={"q1": 250, "power_floor": 0},
                baseline={"kp_gap": 0.5, "dt_s": 0.02},
                horizon={"mode": "receding", "window_m": 30, "replan_m": 5},
                perturbation={"magnitude_mps": -0.5, "shape": "pulse", "duration_m": 20},
            )
        )
        assert scen.weights.q1 == 250.0 and scen.weights.power_floor == 0.0
        assert scen.gains.kp_gap == 0.5 and scen.baseline_dt == 0.02
        assert (scen.horizon_mode, scen.window_m, scen.replan_m) == ("receding", 30.0, 5.0)
        assert scen.perturbation.duration == 20.0

    @pytest.mark.parametrize(
        "ds, key, value, steps",
        [(0.1, "window_m", 25.05, "250.5"), (0.1, "window_m", 0.04, "0.4"),
         (1.0, "replan_m", 2.5, "2.5"), (0.25, "window_m", 40.1, "160.4")],
    )
    def test_horizon_off_the_step_grid_rejected(self, tmp_path, ds, key, value, steps):
        # rounded, 25.05 m ran 25.0 m windows and 0.04 m ran 0.1 m windows
        path = self._minimal(tmp_path, horizon={"mode": "receding", key: value})
        raw = json.loads(path.read_text())
        raw["platoon"]["ds_m"] = ds
        path.write_text(json.dumps(raw))
        message = (
            f"{path}: horizon.{key} {value} m is not a whole number of steps "
            f"of ds {ds} m ({steps} steps)"
        )
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_scenario(path)

    def test_ilqr_flag_maps_to_second_order(self, tmp_path):
        # use_second_order is the scenario's iLQR switch
        scen = load_scenario(self._minimal(tmp_path, solver={"use_second_order": False}))
        assert scen.solver_options.use_second_order is False
        scen = load_scenario(self._minimal(tmp_path, solver={"use_second_order": True}))
        assert scen.solver_options.use_second_order is True

    @pytest.mark.parametrize("value", ["false", "no", "true", None, 0, 1, [], [True]])
    def test_ilqr_flag_must_be_a_boolean(self, tmp_path, value):
        # strings, null, numbers and lists are not JSON booleans
        with pytest.raises(ConfigError, match=r"solver\.use_second_order must be a bool"):
            load_scenario(self._minimal(tmp_path, solver={"use_second_order": value}))

    def test_profile_file_road(self, tmp_path):
        prof_path = tmp_path / "prof.json"
        prof_path.write_text(
            json.dumps({"breakpoints_m": [0.0, 400.0, 800.0], "percent_grades": [2.0, -2.0]})
        )
        path = self._minimal(tmp_path, road={"profile_file": "prof.json"})
        scen = load_scenario(path)
        assert scen.profile.total_length == 800.0
        assert np.tan(scen.profile.grades[0]) == pytest.approx(0.02)


@pytest.mark.parametrize("ds", [0.0, -0.1, float("nan"), float("inf")])
def test_override_ds_rejects_a_bad_step(ds):
    scen = load_scenario(resolve_scenario_path("collector"))
    with pytest.raises(ConfigError, match="ds must be positive and finite"):
        override_ds(scen, ds)


@pytest.mark.parametrize("ds", [0.3, 1.5, 0.7])
def test_override_ds_rejects_a_step_that_does_not_divide_the_route(ds):
    # the collector's 800 m route: rounding the step count would change it
    scen = load_scenario(resolve_scenario_path("collector"))
    with pytest.raises(ConfigError, match=rf"route length 800\.0 m .* ds {ds} m"):
        override_ds(scen, ds)


def test_override_ds_keeps_route_length():
    scen = load_scenario(resolve_scenario_path("collector"))
    coarse = override_ds(scen, 1.0)
    assert coarse.config.ds == 1.0
    assert coarse.config.horizon_steps == 800
    assert coarse.config.route_length == pytest.approx(800.0)


@pytest.mark.parametrize(
    "load, what",
    [(load_profile, "profile"), (FuelModel.load, "fuel model"), (load_scenario, "scenario")],
)
def test_unreadable_file_rejected_naming_it(tmp_path, load, what):
    # a directory is an OSError other than FileNotFoundError; it escaped
    # as IsADirectoryError
    with pytest.raises(ConfigError, match=f"cannot read {what} file") as err:
        load(tmp_path)
    assert str(err.value).startswith(f"{tmp_path}: ")

"""Scenario file parsing, presets, and unit policy."""

import json

import numpy as np
import pytest

from ecoplatoon.errors import ConfigError
from ecoplatoon.scenario import (
    load_scenario,
    override_ds,
    preset_dir_candidates,
    resolve_scenario_path,
)

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

    def test_route_longer_than_profile_rejected(self, tmp_path):
        path = self._minimal(tmp_path)
        raw = json.loads(path.read_text())
        raw["platoon"]["route_length_m"] = 900.0
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match="exceeds"):
            load_scenario(path)

    def test_wrong_error_vector_length(self, tmp_path):
        with pytest.raises(ConfigError, match="initial_time_errors_s"):
            load_scenario(self._minimal(tmp_path, initial_time_errors_s=[0.0]))

    @pytest.mark.parametrize(
        "errors, message",
        [
            ([0.0, float("nan")], "must be finite"),
            ([0.0, float("-inf")], "must be finite"),
            ([0.0, "late"], "malformed"),
            (0.5, "must have 2 entries"),
        ],
    )
    def test_bad_time_errors_rejected(self, tmp_path, errors, message):
        with pytest.raises(ConfigError, match="initial_time_errors_s " + message):
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

    def test_ilqr_flag_maps_to_second_order(self, tmp_path):
        scen = load_scenario(self._minimal(tmp_path, solver={"ilqr": True}))
        assert scen.solver_options.use_second_order is False

    def test_profile_file_road(self, tmp_path):
        prof_path = tmp_path / "prof.json"
        prof_path.write_text(
            json.dumps({"breakpoints_m": [0.0, 400.0, 800.0], "percent_grades": [2.0, -2.0]})
        )
        path = self._minimal(tmp_path, road={"profile_file": "prof.json"})
        scen = load_scenario(path)
        assert scen.profile.total_length == 800.0
        assert np.tan(scen.profile.grades[0]) == pytest.approx(0.02)


def test_override_ds_keeps_route_length():
    scen = load_scenario(resolve_scenario_path("collector"))
    coarse = override_ds(scen, 1.0)
    assert coarse.config.ds == 1.0
    assert coarse.config.horizon_steps == 800
    assert coarse.config.route_length == pytest.approx(800.0)

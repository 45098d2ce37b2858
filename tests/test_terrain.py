"""Terrain profile construction, queries, and file round-trips."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ecoplatoon.errors import ConfigError
from ecoplatoon.terrain import SlopeProfile, build_preset, grade_at, load_profile


def test_flat_profile_returns_zero():
    prof = SlopeProfile(breakpoints=[0.0, 400.0, 800.0], grades=[0.0, 0.0])
    assert grade_at(prof, 123.0) == 0.0


def test_two_segment_membership():
    up = math.atan(0.06)
    prof = SlopeProfile(breakpoints=[0.0, 400.0, 800.0], grades=[up, -up])
    assert grade_at(prof, 399.9) == pytest.approx(up)
    # right-continuity: the breakpoint belongs to the segment that starts there
    assert grade_at(prof, 400.0) == pytest.approx(-up)
    assert grade_at(prof, 800.0) == pytest.approx(-up)


def test_out_of_range_query_rejected():
    prof = build_preset("collector")
    with pytest.raises(ConfigError):
        grade_at(prof, -0.1)
    with pytest.raises(ConfigError):
        grade_at(prof, 800.1)


@pytest.mark.parametrize("s", [np.nan, [10.0, np.nan], np.inf])
def test_non_finite_query_rejected(s):
    prof = build_preset("collector")
    with pytest.raises(ConfigError, match="position out of range"):
        grade_at(prof, s)


@pytest.mark.parametrize(
    "kind,peak", [("major_arterial", 0.06), ("collector", 0.15)]
)
def test_preset_peak_and_length(kind, peak):
    prof = build_preset(kind)
    assert prof.total_length == 800.0
    assert np.tan(np.abs(prof.grades)).max() == pytest.approx(peak)


@pytest.mark.parametrize("kind", ["major_arterial", "collector"])
def test_preset_sign_pattern_by_scan(kind):
    # direct scan every 0.1 m: four complete up-then-down undulations
    prof = build_preset(kind)
    s = np.arange(0.0, 800.0, 0.1)
    signs = np.sign(grade_at(prof, s))
    assert set(signs) == {1.0, -1.0}
    flips = np.flatnonzero(np.diff(signs))
    down_flips = [i for i in flips if signs[i] > 0 > signs[i + 1]]
    assert len(down_flips) == 4
    # the mid-route segments match the drive story: 200-300 up, 300-400 down
    assert grade_at(prof, 250.0) > 0
    assert grade_at(prof, 350.0) < 0
    assert grade_at(prof, 450.0) > 0


@pytest.mark.parametrize("kind", ["major_arterial", "collector"])
def test_preset_zero_net_elevation(kind):
    prof = build_preset(kind)
    # independent check: integrate tan(theta) over a fine grid
    s = np.linspace(0.0, 800.0, 160001)
    mid = 0.5 * (s[:-1] + s[1:])
    rise = float(np.sum(np.tan(grade_at(prof, mid)) * np.diff(s)))
    assert abs(rise) < 1e-9
    # and segment by segment: sum of tan(theta) times segment length
    by_segment = float(np.sum(np.tan(prof.grades) * np.diff(prof.breakpoints)))
    assert by_segment == pytest.approx(0.0, abs=1e-12)


@given(st.floats(min_value=0.0, max_value=800.0))
def test_grade_query_deterministic_and_piecewise(s):
    prof = build_preset("collector")
    first = grade_at(prof, s)
    assert grade_at(prof, s) == first
    assert any(np.isclose(first, g) for g in prof.grades)


def test_profile_validation():
    with pytest.raises(ConfigError):
        SlopeProfile(breakpoints=[1.0, 800.0], grades=[0.0])  # first not 0
    with pytest.raises(ConfigError):
        SlopeProfile(breakpoints=[0.0, 400.0, 400.0], grades=[0.0, 0.0])
    with pytest.raises(ConfigError):
        SlopeProfile(breakpoints=[0.0, 800.0], grades=[math.pi / 2])
    with pytest.raises(ConfigError):
        SlopeProfile(breakpoints=[0.0, 400.0, 800.0], grades=[0.0])
    with pytest.raises(ConfigError, match=r"grades\[0\]"):
        SlopeProfile(breakpoints=[0.0, 400.0, 800.0], grades=[math.nan, 0.0])
    with pytest.raises(ConfigError, match=r"breakpoints\[2\]"):
        SlopeProfile(breakpoints=[0.0, 400.0, math.inf], grades=[0.0, 0.0])
    with pytest.raises(ConfigError, match=r"breakpoints\[1\]"):
        SlopeProfile(breakpoints=[0.0, math.nan, 800.0], grades=[0.0, 0.0])


def test_profile_json_round_trip(tmp_path):
    prof = build_preset("major_arterial")
    path = tmp_path / "prof.json"
    path.write_text(json.dumps({
        "breakpoints_m": [float(b) for b in prof.breakpoints],
        "percent_grades": [100.0 * math.tan(g) for g in prof.grades],
    }))
    loaded = load_profile(path)
    assert np.allclose(loaded.breakpoints, prof.breakpoints)
    assert np.allclose(loaded.grades, prof.grades)


def test_loader_diagnostics(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match=r"bad\.json:1:"):
        load_profile(path)
    path.write_text(json.dumps({"breakpoints_m": [0, 800]}))
    with pytest.raises(ConfigError, match="percent_grades"):
        load_profile(path)
    path.write_text(json.dumps({"breakpoints_m": [0, 400, 300], "percent_grades": [1, 2]}))
    with pytest.raises(ConfigError, match="increasing"):
        load_profile(path)
    with pytest.raises(ConfigError, match="not found"):
        load_profile(tmp_path / "missing.json")


@pytest.mark.parametrize(
    "raw, field",
    [
        ({"breakpoints_m": [0, 100, 200], "percent_grades": [math.nan, 3]}, "grades"),
        ({"breakpoints_m": [0, 100, 200], "percent_grades": [3, -math.inf]}, "grades"),
        ({"breakpoints_m": [0, 100, math.inf], "percent_grades": [1, 2]}, "breakpoints"),
        ({"breakpoints_m": [0, math.nan, 200], "percent_grades": [1, 2]}, "breakpoints"),
        ({"breakpoints_m": [0, 100, 200], "percent_grades": [True, 3]}, "percent_grades"),
        ({"breakpoints_m": [0, False, 200], "percent_grades": [1, 3]}, "breakpoints_m"),
    ],
)
def test_loader_rejects_non_finite_and_boolean_values(tmp_path, raw, field):
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match=field):
        load_profile(path)

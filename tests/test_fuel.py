"""Fuel model: coefficient transcription, rate behavior, trajectory metering."""

import math

import numpy as np
import pytest

from conftest import make_config
from ecoplatoon.fuel import (
    FuelModel,
    equivalent_accel_grid,
    equivalent_traction_accel,
    fuel_rate,
    platoon_fuel,
    trajectory_fuel,
)
from ecoplatoon.baseline import torque_of
from ecoplatoon.errors import ConfigError, StallError
from ecoplatoon.platoon import ControlTrajectory, rollout, resimulate_time_domain
from ecoplatoon.terrain import SlopeProfile

# Pinned transcription of the shipped light-duty coefficient tables
# (speed km/h, acceleration km/h/s, rate L/s). The test re-derives rates
# through an explicit double loop so a transposition or sign slip in either
# the data file or the evaluator cannot cancel out.
LDV_POSITIVE = [
    [-7.735, 0.2295, -5.61e-3, 9.773e-5],
    [0.02799, 0.0068, -7.722e-4, 8.38e-6],
    [-2.228e-4, -4.402e-5, 7.90e-7, 8.17e-7],
    [1.09e-6, 4.80e-8, 3.27e-8, -7.79e-9],
]
LDV_NEGATIVE = [
    [-7.735, -0.01799, -4.27e-3, 1.8829e-4],
    [0.02804, 0.007720, 8.375e-4, 3.387e-5],
    [-2.199e-4, -5.219e-5, -7.44e-6, 2.77e-7],
    [1.08e-6, 2.47e-7, 4.87e-8, 3.79e-10],
]


def reference_rate(v_mps, a_mps2):
    """Independent log-polynomial evaluation with explicit loops."""
    v = v_mps * 3.6
    a = a_mps2 * 3.6
    table = LDV_POSITIVE if a >= 0 else LDV_NEGATIVE
    log_rate = 0.0
    for i in range(4):
        for j in range(4):
            log_rate += table[i][j] * v**i * a**j
    return max(math.exp(log_rate), math.exp(table[0][0]))


@pytest.fixture(scope="module")
def model():
    return FuelModel.default()


class TestModelData:
    def test_shipped_tables_match_pinned_transcription(self, model):
        np.testing.assert_allclose(model.positive_accel, LDV_POSITIVE)
        np.testing.assert_allclose(model.negative_accel, LDV_NEGATIVE)

    def test_idle_rate_is_constant_term(self, model):
        assert model.idle_rate == pytest.approx(math.exp(-7.735), rel=1e-12)
        assert fuel_rate(model, 0.0, 0.0) == pytest.approx(math.exp(-7.735), rel=1e-12)

    def test_cruise_consumption_plausible(self, model):
        # 100 km/h steady cruise should land in normal passenger-car range
        rate = fuel_rate(model, 100 / 3.6, 0.3)
        per_100km = rate * 3600 / 100 * 100
        assert 4.0 < per_100km < 15.0

    def test_bad_shape_rejected(self):
        with pytest.raises(ConfigError):
            FuelModel(positive_accel=np.zeros((3, 4)), negative_accel=np.zeros((4, 4)), units={})


class TestFuelRate:
    def test_matches_independent_evaluation(self, model, rng):
        for _ in range(300):
            v = rng.uniform(0.0, 33.0)
            a = rng.uniform(-8.0, 3.0)
            assert fuel_rate(model, v, a) == pytest.approx(reference_rate(v, a), rel=1e-12)

    def test_strictly_increasing_in_accel(self, model):
        # scan the calibrated envelope: rates rise with demanded traction
        for v in np.linspace(1.0, 100 / 3.6, 12):
            a_grid = np.linspace(0.0, 3.0, 61)
            rates = fuel_rate(model, np.full_like(a_grid, v), a_grid)
            assert np.all(np.diff(rates) > 0.0), f"not monotone at v={v}"

    def test_braking_floors_at_idle(self, model):
        assert fuel_rate(model, 15.0, -5.0) >= model.idle_rate
        assert fuel_rate(model, 2.0, -8.0) == pytest.approx(model.idle_rate)

    def test_vectorized_matches_scalar(self, model, rng):
        v = rng.uniform(0.0, 30.0, size=40)
        a = rng.uniform(-6.0, 3.0, size=40)
        vec = fuel_rate(model, v, a)
        for i in range(40):
            assert vec[i] == pytest.approx(fuel_rate(model, v[i], a[i]), rel=1e-12)


class TestEquivalentTractionAccel:
    def test_no_resistance_reduces_to_accel(self, make=make_config):
        cfg = make(rolling_coeff=0.0, drag_coeff=0.0)
        a_eq = equivalent_traction_accel(1.2, 20.0, 0.0, cfg.vehicles[0], cfg)
        assert a_eq == pytest.approx(1.2)

    def test_coasting_downhill_negative(self):
        cfg = make_config(rolling_coeff=0.001, drag_coeff=0.0)
        a_eq = equivalent_traction_accel(0.0, 20.0, -0.05, cfg.vehicles[0], cfg)
        assert a_eq < 0.0

    def test_equals_torque_over_mass_radius(self, rng):
        # cross-module identity: the traction acceleration is the torque
        # divided by mass times tire radius
        cfg = make_config()
        veh = cfg.vehicles[0]
        for _ in range(50):
            a = rng.uniform(-4.0, 3.0)
            v = rng.uniform(0.5, 33.0)
            theta = rng.uniform(-0.15, 0.15)
            radius = rng.uniform(0.25, 0.4)
            a_eq = equivalent_traction_accel(a, v, theta, veh, cfg)
            torque = torque_of(a, v, theta, veh, cfg, radius)
            assert a_eq == pytest.approx(torque / (veh.mass * radius), rel=1e-12)

    def test_grid_applies_step_grades_and_speeds(self, rng):
        # per step and vehicle, the grid helper is the scalar formula at
        # that step's grade and the speed at the step's start; steps past
        # the profile's end take its last grade
        cfg = make_config(n=2, ds=2.0, horizon_steps=6)
        profile = SlopeProfile(breakpoints=[0.0, 4.0, 9.0], grades=[0.03, -0.02])
        accels = rng.uniform(-1.0, 1.0, (2, 6))
        states = rollout([0.0, -1.0], [0.05, 0.055], accels, cfg.ds)
        got = equivalent_accel_grid(states, ControlTrajectory(accels=accels), profile, cfg)
        grades = [0.03, 0.03, -0.02, -0.02, -0.02, -0.02]
        for i in range(2):
            for k in range(6):
                want = equivalent_traction_accel(
                    accels[i, k], 1.0 / states.slownesses[i, k], grades[k], cfg.vehicles[i], cfg
                )
                assert got[i, k] == pytest.approx(want, rel=1e-12)


class TestTrajectoryFuel:
    def _flat(self):
        return SlopeProfile(breakpoints=[0.0, 2000.0], grades=[0.0])

    def test_zero_length_trajectory(self, model):
        cfg = make_config()
        trace = {
            "time": np.array([0.0]),
            "position": np.array([0.0]),
            "speed": np.array([20.0]),
            "accel": np.array([0.0]),
            "grade": np.array([0.0]),
        }
        total, _, _ = trajectory_fuel(model, trace, cfg.vehicles[0], cfg, 0.0)
        assert total == 0.0

    def test_constant_speed_is_rate_times_duration(self, model):
        cfg = make_config(rolling_coeff=0.015, drag_coeff=0.000024)
        v = 20.0
        route = 400.0
        times = np.arange(0.0, route / v + 1e-9, 0.01)
        trace = {
            "time": times,
            "position": v * times,
            "speed": np.full_like(times, v),
            "accel": np.zeros_like(times),
            "grade": np.zeros_like(times),
        }
        a_eq = equivalent_traction_accel(0.0, v, 0.0, cfg.vehicles[0], cfg)
        expected = fuel_rate(model, v, a_eq) * route / v
        total, positions, cumulative = trajectory_fuel(model, trace, cfg.vehicles[0], cfg, route)
        assert total == pytest.approx(expected, rel=1e-3)
        assert np.all(np.diff(cumulative) >= 0)

    def test_truncated_trace_rejected(self, model):
        cfg = make_config()
        trace = {
            "time": np.array([0.0, 1.0]),
            "position": np.array([0.0, 20.0]),
            "speed": np.full(2, 20.0),
            "accel": np.zeros(2),
            "grade": np.zeros(2),
        }
        with pytest.raises(StallError):
            trajectory_fuel(model, trace, cfg.vehicles[0], cfg, 100.0)

    def test_platoon_fuel_additivity(self, model):
        cfg = make_config(n=3, ds=0.5, horizon_steps=400)
        accels = np.zeros((3, 400))
        state = rollout([0.0, -1.0, -2.0], [0.05] * 3, accels, 0.5)
        traces = resimulate_time_domain(
            state, ControlTrajectory(accels=accels), self._flat(), 0.5, dt=0.005
        )
        total, per_vehicle, _ = platoon_fuel(model, traces, cfg)
        assert total == pytest.approx(sum(per_vehicle), rel=1e-12)
        assert all(f > 0 for f in per_vehicle)

    def test_fuel_monotone_in_position(self, model):
        cfg = make_config(n=2, ds=0.5, horizon_steps=400)
        rng = np.random.default_rng(3)
        accels = np.clip(np.cumsum(rng.uniform(-0.02, 0.02, (2, 400)), axis=1), -1, 1)
        state = rollout([0.0, -1.0], [0.05] * 2, accels, 0.5)
        traces = resimulate_time_domain(
            state, ControlTrajectory(accels=accels), self._flat(), 0.5, dt=0.005
        )
        _, _, series = platoon_fuel(model, traces, cfg)
        for positions, cumulative in series:
            assert np.all(np.diff(cumulative) >= 0)
            assert np.all(cumulative >= 0)

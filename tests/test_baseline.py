"""Constant-time-gap baseline controller behavior."""

import dataclasses

import numpy as np
import pytest

from conftest import make_config
from ecoplatoon.baseline import CaccGains, baseline_step, simulate_baseline
from ecoplatoon.errors import ConfigError, StallError
from ecoplatoon.fuel import equivalent_traction_accel
from ecoplatoon.scenario import load_scenario, resolve_scenario_path
from ecoplatoon.terrain import SlopeProfile, build_preset, grade_at

MPH = 0.44704


def test_gains_validated():
    with pytest.raises(ConfigError):
        CaccGains(kp_gap=0.0)


@pytest.mark.parametrize("name", ["kp_gap", "kd_gap", "kp_speed"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.1])
def test_non_finite_or_negative_gain_rejected(name, value):
    # a NaN gain used to pass and surface later as a NaN position
    with pytest.raises(ConfigError, match=f"{name} must be positive and finite"):
        CaccGains(**{name: value})


class TestBaselineStep:
    def test_equilibrium_commands_zero(self):
        cfg = make_config(n=3)
        gains = CaccGains()
        v = cfg.target_speed
        pos = np.array([0.0, -cfg.headway * v, -2 * cfg.headway * v])
        cmd = baseline_step(pos, np.full(3, v), cfg, gains, 0.05)
        assert np.allclose(cmd, 0.0, atol=1e-12)

    def test_slow_leader_accelerates(self):
        # the front vehicle pushes back toward the target speed (it holds
        # speed on grades rather than trading it)
        cfg = make_config(n=2)
        gains = CaccGains()
        v = 0.9 * cfg.target_speed
        pos = np.array([0.0, -cfg.headway * v])
        cmd = baseline_step(pos, np.full(2, v), cfg, gains, 0.05)
        assert cmd[0] > 0.0

    def test_commands_clamped_to_envelope(self):
        cfg = make_config(n=2, a_min=-5.0, a_max=3.0)
        gains = CaccGains(kp_gap=0.45, kd_gap=1.2, kp_speed=10.0)
        pos = np.array([0.0, -5.0])
        cmd = baseline_step(pos, np.array([1.0, 40.0]), cfg, gains, 0.05)
        assert np.all(cmd <= 3.0) and np.all(cmd >= -5.0)


class TestTorque:
    """The traction the low-level torque loop must deliver, per unit mass."""

    def test_free_rolling_zero(self):
        cfg = make_config(rolling_coeff=0.0, drag_coeff=0.0)
        assert equivalent_traction_accel(0.0, 10.0, 0.0, cfg.vehicles[0].mass, cfg) == 0.0

    def test_direct_substitution(self):
        # independent spreadsheet evaluation of the traction expression
        cfg = make_config(mass=1400.0, rolling_coeff=0.015, drag_coeff=0.000024)
        expected = 1.0 + 0.147 + 0.000024 * 400.0 / 1400.0
        got = equivalent_traction_accel(1.0, 20.0, 0.0, cfg.vehicles[0].mass, cfg)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_grade(self):
        cfg = make_config()
        thetas = np.linspace(0.0, 0.3, 20)
        demands = equivalent_traction_accel(1.0, 20.0, thetas, cfg.vehicles[0].mass, cfg)
        assert np.all(np.diff(demands) > 0.0)


def textbook_simulation(config, gains, profile, dt, initial_speed):
    """The baseline platoon stepped by ``baseline_step`` every period.

    The oracle for ``simulate_baseline``: the same traces, built from a
    call of the public step law per control period.
    """
    v0 = config.target_speed if initial_speed is None else float(initial_speed)
    n = config.n_vehicles
    pos = -np.arange(n) * config.headway * v0
    vel = np.full(n, v0)
    t = 0.0
    hist_t, hist_s, hist_v, hist_a = [], [], [], []
    max_time = 50.0 * config.route_length / max(config.speed_floor, 0.5) + 1000.0
    while pos[-1] < config.route_length:
        acc = baseline_step(pos, vel, config, gains, dt)
        hist_t.append(t)
        hist_s.append(pos.copy())
        hist_v.append(vel.copy())
        hist_a.append(acc)
        pos = pos + vel * dt
        vel = np.maximum(vel + acc * dt, 1e-9)
        t += dt
        if t > max_time:
            raise StallError("baseline platoon failed to clear the route")
    hist_t.append(t)
    hist_s.append(pos)
    hist_v.append(vel)
    hist_a.append(baseline_step(pos, vel, config, gains, dt))
    s_arr, v_arr, a_arr = (np.array(h).T for h in (hist_s, hist_v, hist_a))
    return [
        {
            "time": np.array(hist_t),
            "position": s_arr[i],
            "speed": v_arr[i],
            "accel": a_arr[i],
            "grade": grade_at(profile, np.clip(s_arr[i], 0.0, profile.total_length)),
        }
        for i in range(n)
    ]


def comfort_collector():
    """The collector preset with every vehicle's envelope narrowed to [-1.5, 1.0] m/s^2."""
    scen = load_scenario(resolve_scenario_path("collector"))
    vehicles = tuple(
        dataclasses.replace(v, a_min=-1.5, a_max=1.0) for v in scen.config.vehicles
    )
    return dataclasses.replace(
        scen, config=dataclasses.replace(scen.config, vehicles=vehicles)
    )


class TestSimulation:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"dt": float("nan")}, "dt"),
            ({"dt": 0.0}, "dt"),  # t never grew, so the loop never ended
            ({"dt": -0.05}, "dt"),
            ({"dt": "0.05"}, "dt"),
            ({"initial_speed": -3.0}, "initial_speed"),  # the platoon drove backward
            ({"initial_speed": 0.0}, "initial_speed"),
            ({"initial_speed": float("inf")}, "initial_speed"),
        ],
    )
    def test_malformed_steps_rejected(self, kwargs, field):
        cfg = make_config(n=2, ds=1.0, horizon_steps=100)
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            simulate_baseline(cfg, CaccGains(), build_preset("collector"), **kwargs)

    def test_settles_within_200m_from_speed_offset(self):
        cfg = make_config(n=3, ds=0.1, horizon_steps=8000)
        profile = SlopeProfile(breakpoints=[0.0, 900.0], grades=[0.0])
        traces = simulate_baseline(
            cfg, CaccGains(), profile, dt=0.01, initial_speed=0.9 * cfg.target_speed
        )
        for tr in traces:
            past = tr["position"] >= 200.0
            v_tail = tr["speed"][past]
            assert np.all(np.abs(v_tail - cfg.target_speed) <= 0.02 * cfg.target_speed)

    def test_two_vehicle_gap_error_decays_monotonically(self):
        # step response: start with a stretched gap and watch it close
        cfg = make_config(n=2, ds=0.1, horizon_steps=8000)
        profile = SlopeProfile(breakpoints=[0.0, 2000.0], grades=[0.0])
        gains = CaccGains()
        v0 = cfg.target_speed
        pos = np.array([0.0, -cfg.headway * v0 - 8.0])
        vel = np.full(2, v0)
        dt = 0.02
        errs = []
        for _ in range(3000):
            cmd = baseline_step(pos, vel, cfg, gains, dt)
            pos = pos + vel * dt
            vel = vel + cmd * dt
            errs.append((pos[0] - pos[1]) - cfg.headway * vel[1])
        errs = np.array(errs)
        # sample the envelope every second; tolerate sub-resolution wiggle
        env = np.abs(errs[::50])
        assert np.all(np.diff(env) <= 1e-3)
        assert abs(errs[-1]) < 0.05 * abs(errs[0])

    def test_holds_speed_on_rolling_terrain(self):
        # commanded kinematic acceleration is slope-compensated by the
        # torque loop, so the speed trace barely moves on hills
        cfg = make_config(n=3, ds=0.1, horizon_steps=8000)
        traces = simulate_baseline(cfg, CaccGains(), build_preset("collector"), dt=0.02)
        for tr in traces:
            inside = (tr["position"] >= 0) & (tr["position"] <= 800.0)
            assert np.std(tr["speed"][inside]) < 0.05

    @pytest.mark.parametrize("case", ["collector", "comfort", "two_vehicle"])
    def test_bit_identical_to_textbook_loop(self, case):
        # The collector pipeline, whose platoon enters in equilibrium; the
        # collector in a comfort envelope, entered at 0.8 of the target
        # speed; and a two-vehicle platoon entering at 12 m/s in a narrow
        # envelope. The leader's commands hit the envelope for seconds in the
        # last two.
        if case == "two_vehicle":
            cfg = make_config(n=2, ds=0.1, horizon_steps=3000, a_min=-0.8, a_max=0.6)
            args = (cfg, CaccGains(kp_speed=2.0), build_preset("collector"), 0.02, 12.0)
        elif case == "comfort":
            scen = comfort_collector()
            v0 = 0.8 * scen.config.target_speed
            args = (scen.config, scen.gains, scen.profile, scen.baseline_dt, v0)
        else:
            scen = load_scenario(resolve_scenario_path("collector"))
            args = (scen.config, scen.gains, scen.profile, scen.baseline_dt, scen.initial_speed)
        cfg, gains, profile, dt, v0 = args
        got = simulate_baseline(cfg, gains, profile, dt=dt, initial_speed=v0)
        want = textbook_simulation(*args)
        assert len(got) == len(want) == cfg.n_vehicles
        for g, w in zip(got, want):
            assert g.keys() == w.keys()
            for field in w:
                assert np.array_equal(g[field], w[field]), field

"""Space-domain vehicle model: dynamics, derivatives, and cross-integrator checks."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_config, one_step_rollout, receding_grid
from ecoplatoon.errors import ConfigError, IntegrationError, StallError
from ecoplatoon.platoon import (
    ControlTrajectory,
    PlatoonConfig,
    PlatoonState,
    VehicleParams,
    dynamics_derivatives,
    resimulate_time_domain,
    rollout,
)
from ecoplatoon.scenario import load_scenario, resolve_scenario_path
from ecoplatoon.solver import receding_horizon_run, solve
from ecoplatoon.terrain import SlopeProfile, grade_at

MPH = 0.44704


def diff_state(state, k, config):
    """Leader-relative difference vector at step k, length 2(N-1).

    Entries are [t1-t2-h, pi1-pi2, ..., t1-tN-(N-1)h, pi1-piN]: the gap
    errors of the CACC cost and the slowness differences that drive them.
    """
    t = state.arrival_times[:, k]
    pi = state.slownesses[:, k]
    out = np.empty(2 * (config.n_vehicles - 1))
    out[0::2] = t[0] - t[1:] - np.arange(1, config.n_vehicles) * config.headway
    out[1::2] = pi[0] - pi[1:]
    return out


def entry_slowness(tmp_path, value, units="m/s"):
    """Entry slownesses of a scenario whose platoon enters at ``value`` ``units``."""
    raw = {
        "road": {"preset": "collector"},
        "platoon": {
            "n_vehicles": 2,
            "target_speed": {"value": 45, "units": "mph"},
            "speed_limit": {"value": 75, "units": "mph"},
            "ds_m": 1.0,
            "initial_speed": {"value": value, "units": units},
        },
    }
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(raw))
    _, pi0, _ = load_scenario(path).initial_state()
    return pi0


class TestSlowness:
    """A plan's entry slowness is the reciprocal of the scenario's entry speed."""

    def test_identity(self, tmp_path):
        assert np.all(entry_slowness(tmp_path, 1.0) == 1.0)

    def test_arithmetic(self, tmp_path):
        assert entry_slowness(tmp_path, 20.0) == pytest.approx([0.05, 0.05])

    def test_mph_conversion(self, tmp_path):
        # independent oracle: unit conversion then reciprocal
        pi0 = entry_slowness(tmp_path, 65.0, "mph")
        assert pi0 == pytest.approx(np.full(2, 1.0 / 29.0576), rel=1e-6)
        assert pi0 == pytest.approx(np.full(2, 0.0344144), rel=1e-5)

    def test_standstill_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            entry_slowness(tmp_path, 0.0)
        with pytest.raises(ConfigError):
            entry_slowness(tmp_path, -3.0)


class TestPlatoonConfig:
    @pytest.mark.parametrize("vehicles", [[1, 2], (VehicleParams(1400.0),), "ab", None])
    def test_vehicles_must_be_two_or_more_vehicle_params(self, vehicles):
        with pytest.raises(ConfigError, match="vehicles must be two or more VehicleParams"):
            PlatoonConfig(vehicles=vehicles, headway=1.0, target_speed=20.0, speed_limit=30.0)

    def test_zero_resistance_allowed(self):
        cfg = make_config(rolling_coeff=0.0, drag_coeff=0.0)
        assert cfg.rolling_coeff == 0.0 and cfg.drag_coeff == 0.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -9.8])
    def test_non_physical_gravity_rejected(self, value):
        with pytest.raises(ConfigError, match="gravity"):
            make_config(gravity=value)

    @pytest.mark.parametrize("name", ["rolling_coeff", "drag_coeff"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-6])
    def test_non_physical_resistance_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            make_config(**{name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -0.1])
    def test_non_finite_or_non_positive_ds_rejected(self, value):
        with pytest.raises(ConfigError, match="ds must be positive and finite"):
            make_config(ds=value)

    @pytest.mark.parametrize("value", [2.5, True, 0, -3])
    def test_horizon_steps_must_be_a_positive_integer(self, value):
        # 2.5 steps gave a 0.25 m route and True a 0.1 m one
        with pytest.raises(ConfigError, match="horizon_steps must be an integer >= 1"):
            make_config(horizon_steps=value)

    def test_numpy_integer_horizon_accepted(self):
        assert make_config(horizon_steps=np.int64(40)).route_length == pytest.approx(4.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"mass": float("inf")},
            {"a_min": -float("inf")},
            {"a_max": float("inf")},
            {"headway": float("inf")},
            {"speed_limit": float("inf")},
            {"target_speed": float("inf"), "speed_limit": float("inf")},
        ],
    )
    def test_infinite_parameters_rejected(self, overrides):
        # each of these passed an inf-blind check before
        with pytest.raises(ConfigError, match="finite|< inf"):
            make_config(**overrides)


class TestDiffState:
    def test_equilibrium_zero(self):
        cfg = make_config(n=3, headway=1.0)
        # the gap expression vanishes when each follower's entry time sits
        # one headway earlier per rank
        t0 = np.array([5.0, 4.0, 3.0])
        pi0 = np.full(3, 0.05)
        state = PlatoonState(arrival_times=t0[:, None], slownesses=pi0[:, None])
        assert np.allclose(diff_state(state, 0, cfg), 0.0)

    def test_direct_substitution(self):
        cfg = make_config(n=2, headway=1.0)
        state = PlatoonState(
            arrival_times=np.array([[10.0], [11.2]]),
            slownesses=np.array([[0.05], [0.04]]),
        )
        assert diff_state(state, 0, cfg) == pytest.approx([-2.2, 0.01])

    def test_matches_bruteforce(self, rng):
        cfg = make_config(n=3, headway=1.3)
        t = rng.normal(size=(3, 5))
        pi = rng.uniform(0.03, 0.08, size=(3, 5))
        state = PlatoonState(arrival_times=t, slownesses=pi)
        for k in range(5):
            got = diff_state(state, k, cfg)
            expected = []
            for i in range(1, 3):
                expected.append(t[0, k] - t[i, k] - i * 1.3)
                expected.append(pi[0, k] - pi[i, k])
            assert got == pytest.approx(expected)


class TestStepDynamics:
    def test_zero_control(self):
        t, pi = one_step_rollout([0.0], [0.05], [0.0], 0.1)
        assert pi[0] == 0.05
        assert t[0] == pytest.approx(0.005)

    def test_substitution(self):
        _, pi = one_step_rollout([0.0], [0.05], [2.0], 0.1)
        assert pi[0] == pytest.approx(0.049975)

    def test_blowup_detected(self):
        # enormous deceleration pushes slowness negative within one step
        with pytest.raises(IntegrationError):
            one_step_rollout([0.0], [0.5], [100.0], 1.0)

    def test_constant_accel_matches_kinematics(self):
        # closed-form oracle: v dv = a ds  =>  v' = sqrt(v0^2 + 2 a s)
        ds, steps, a, v0 = 0.1, 100, 1.5, 20.0
        accels = np.full((1, steps), a)
        state = rollout([0.0], [1.0 / v0], accels, ds)
        v_final = 1.0 / state.slownesses[0, -1]
        v_exact = np.sqrt(v0**2 + 2 * a * ds * steps)
        per_step_truncation = 1.5 * a**2 * (1 / v0) ** 4 * ds**2
        assert abs(v_final - v_exact) / v_exact < 3 * steps * per_step_truncation

    def test_difference_coordinates_reproduce_linear_transition(self, rng):
        # One per-vehicle step followed by the difference map must equal the
        # block-linear transition applied to the difference vector directly.
        cfg = make_config(n=3, headway=1.0, ds=0.1)
        n, ds = 3, 0.1
        t = rng.normal(size=3)
        pi = rng.uniform(0.03, 0.09, size=3)
        a = rng.uniform(-2.0, 2.0, size=3)
        t2, pi2 = one_step_rollout(t, pi, a, ds)
        state = PlatoonState(
            arrival_times=np.column_stack([t, t2]), slownesses=np.column_stack([pi, pi2])
        )
        x0 = diff_state(state, 0, cfg)
        x1 = diff_state(state, 1, cfg)
        dim = 2 * (n - 1)
        a_mat = np.zeros((dim, dim))
        for b in range(n - 1):
            a_mat[2 * b, 2 * b + 1] = 1.0
        b_mat = np.zeros((dim, n))
        for b, i in enumerate(range(1, n)):
            b_mat[2 * b + 1, 0] = -pi[0] ** 3
            b_mat[2 * b + 1, i] = pi[i] ** 3
        x1_linear = (a_mat * ds + np.eye(dim)) @ x0 + (b_mat * ds) @ a
        assert np.max(np.abs(x1 - x1_linear)) <= 1e-12


def step_jacobians(pi, a, ds):
    """Flat-state step derivatives (f_x, f_u, f_xx, f_ux) at one step.

    The slowness rows come from ``dynamics_derivatives`` at K = 1; the
    arrival-time rows are the constant structure the backward pass assumes
    (d t'/d t = 1, d t'/d pi = ds). f_xx[m, p, q] = d^2 f_m / dx_p dx_q;
    f_uu is zero.
    """
    pi = np.asarray(pi, dtype=float)
    coeffs = dynamics_derivatives(pi[:, None], np.asarray(a)[:, None], ds)
    g, fu, cxx, cux = (c[0] for c in coeffs)
    n = pi.size
    dim = 2 * n
    ai = np.arange(n)
    ti = 2 * ai
    pj = ti + 1
    f_x = np.zeros((dim, dim))
    f_u = np.zeros((dim, n))
    f_xx = np.zeros((dim, dim, dim))
    f_ux = np.zeros((dim, n, dim))
    f_x[ti, ti] = 1.0
    f_x[ti, pj] = ds
    f_x[pj, pj] = g
    f_u[pj, ai] = fu
    f_xx[pj, pj, pj] = cxx
    f_ux[pj, ai, pj] = cux
    return f_x, f_u, f_xx, f_ux


class TestJacobians:
    def test_zero_control(self):
        g, fu, cxx, cux = dynamics_derivatives(np.array([[0.05]]), np.array([[0.0]]), 0.1)
        assert g[0, 0] == 1.0
        assert cxx[0, 0] == 0.0

    def test_control_sensitivity_substitution(self):
        _, fu, *_ = dynamics_derivatives(np.array([[0.05]]), np.array([[2.0]]), 0.1)
        assert fu[0, 0] == pytest.approx(-1.25e-5)

    def test_trajectory_layout(self, rng):
        # (N, K) inputs give (K, N) outputs, step k from column k alone
        pi = rng.uniform(0.02, 0.2, size=(3, 7))
        a = rng.uniform(-3.0, 3.0, size=(3, 7))
        whole = dynamics_derivatives(pi, a, 0.1)
        for k in range(7):
            one = dynamics_derivatives(pi[:, k : k + 1], a[:, k : k + 1], 0.1)
            for got, want in zip(whole, one):
                assert got.shape == (7, 3)
                assert np.array_equal(got[k], want[0])

    def test_matches_finite_differences(self, rng):
        ds = 0.1
        for _ in range(100):
            n = int(rng.integers(1, 4))
            t = rng.normal(size=n)
            pi = rng.uniform(0.02, 0.2, size=n)
            a = rng.uniform(-3.0, 3.0, size=n)
            f_x, f_u, f_xx, f_ux = step_jacobians(pi, a, ds)

            def step_flat(x_flat, u):
                tt, pp = one_step_rollout(x_flat[0::2], x_flat[1::2], u, ds)
                out = np.empty(2 * n)
                out[0::2] = tt
                out[1::2] = pp
                return out

            x = np.empty(2 * n)
            x[0::2] = t
            x[1::2] = pi
            eps = 1e-6

            for p in range(2 * n):
                dx = np.zeros(2 * n)
                dx[p] = eps
                fd = (step_flat(x + dx, a) - step_flat(x - dx, a)) / (2 * eps)
                np.testing.assert_allclose(f_x[:, p], fd, rtol=1e-6, atol=1e-9)
            for p in range(n):
                du = np.zeros(n)
                du[p] = eps
                fd = (step_flat(x, a + du) - step_flat(x, a - du)) / (2 * eps)
                np.testing.assert_allclose(f_u[:, p], fd, rtol=1e-6, atol=1e-9)
            # second derivatives, spot-checked through jacobian differences
            for p in range(n):
                dx = np.zeros(2 * n)
                dx[2 * p + 1] = eps
                jp = step_jacobians(pi + eps * np.eye(n)[p], a, ds)
                jm = step_jacobians(pi - eps * np.eye(n)[p], a, ds)
                fd_xx = (jp[0][:, 2 * p + 1] - jm[0][:, 2 * p + 1]) / (2 * eps)
                np.testing.assert_allclose(
                    f_xx[:, 2 * p + 1, 2 * p + 1], fd_xx, rtol=1e-5, atol=1e-8
                )
                fd_ux = (jp[1][:, p] - jm[1][:, p]) / (2 * eps)
                np.testing.assert_allclose(
                    f_ux[:, p, 2 * p + 1], fd_ux, rtol=1e-5, atol=1e-8
                )


@settings(max_examples=30, deadline=None)
@given(
    v0=st.floats(min_value=5.0, max_value=30.0),
    a=st.floats(min_value=-1.0, max_value=1.0),
)
def test_rollout_keeps_time_monotone(v0, a):
    accels = np.full((2, 50), a)
    state = rollout([0.0, -1.0], [1.0 / v0] * 2, accels, 0.1)
    assert np.all(np.diff(state.arrival_times, axis=1) > 0)
    assert np.all(state.slownesses > 0)


def step_recurrence(t, pi, a, ds):
    """One space step of the model, t' = t + pi ds and pi' = pi - a pi^3 ds.

    The per-step oracle that ``rollout`` must match bit for bit.
    """
    return t + pi * ds, pi - a * pi**3 * ds


class TestRollout:
    def test_matches_repeated_steps_bitwise(self, rng):
        accels = rng.uniform(-1.0, 1.0, size=(3, 300))
        t = np.array([0.0, -1.1, -1.9])
        pi = 1.0 / rng.uniform(15.0, 25.0, size=3)
        state = rollout(t, pi, accels, 0.5)
        for k in range(300):
            assert np.array_equal(state.arrival_times[:, k], t)
            assert np.array_equal(state.slownesses[:, k], pi)
            t, pi = step_recurrence(t, pi, accels[:, k], 0.5)
        assert np.array_equal(state.arrival_times[:, -1], t)
        assert np.array_equal(state.slownesses[:, -1], pi)

    @pytest.mark.parametrize("leaves", [False, True])
    @pytest.mark.parametrize("receding", [False, True])
    @pytest.mark.parametrize("k_steps", [40, 1100])
    @pytest.mark.parametrize("n", [2, 5])
    def test_matches_textbook_loop(self, rng, n, k_steps, receding, leaves):
        # step k is 0.5 m times grid[k]; a leaving input drives one slowness
        # negative at step K/2, and both loops must reject it. Alternating
        # accelerations at 5-8 m/s make the cubic term large enough that a
        # reordered product changes last bits on the 2.5 m steps.
        grid = receding_grid(k_steps) if receding else None
        lengths = 0.5 * (np.ones(k_steps) if grid is None else grid.astype(float))
        sign = (-1.0) ** np.arange(k_steps)
        accels = rng.uniform(1.0, 2.0, size=(n, 1)) * sign
        accels += rng.uniform(-0.05, 0.05, size=(n, k_steps))
        if leaves:
            accels[n - 1, k_steps // 2] = 1e4
        t0 = -np.arange(n) * 1.1
        pi0 = 1.0 / rng.uniform(5.0, 8.0, size=n)
        t, pi = t0, pi0
        times, slows = [t], [pi]
        with np.errstate(over="ignore", invalid="ignore"):  # past the exit
            for k in range(k_steps):
                t, pi = step_recurrence(t, pi, accels[:, k], lengths[k])
                times.append(t)
                slows.append(pi)
        in_domain = bool(np.all(np.isfinite(slows)) and np.all(np.array(slows) > 0.0))
        assert in_domain is not leaves
        if leaves:
            with pytest.raises(IntegrationError):
                rollout(t0, pi0, accels, 0.5, grid)
            return
        state = rollout(t0, pi0, accels, 0.5, grid)
        assert np.array_equal(state.arrival_times, np.array(times).T)
        assert np.array_equal(state.slownesses, np.array(slows).T)

    @pytest.mark.parametrize("accel", [1e4, np.nan])
    def test_blowup_mid_horizon_raises(self, accel):
        accels = np.zeros((2, 40))
        accels[1, 25] = accel
        with pytest.raises(IntegrationError):
            rollout([0.0, -1.0], [0.05, 0.05], accels, 1.0)

    def test_nonpositive_initial_slowness_raises(self):
        with pytest.raises(IntegrationError):
            rollout([0.0, -1.0], [0.05, 0.0], np.zeros((2, 5)), 1.0)


def textbook_resimulation(state, controls, profile, ds, dt):
    """Step-by-step time-domain re-integration: the oracle for ``resimulate_time_domain``.

    Reads each control as ``float(accels[i, j])`` at the step under the
    vehicle's position and raises the same StallErrors.
    """
    accels = controls.accels
    n, k_steps = accels.shape
    route_end = k_steps * ds
    max_steps = int(np.ceil(route_end / (min(1.0, ds) * dt))) * 100 + 10_000
    traces = []
    for i in range(n):
        t = float(state.arrival_times[i, 0])
        s = 0.0
        v = 1.0 / float(state.slownesses[i, 0])
        ts, ss, vs, accs = [t], [s], [v], [float(accels[i, 0])]
        steps = 0
        while s < route_end:
            a = float(accels[i, min(int(s / ds), k_steps - 1)])
            s += v * dt
            v += a * dt
            t += dt
            if v <= 0.0:
                raise StallError(
                    f"vehicle {i} stalled at position {s:.2f} m during resimulation"
                )
            steps += 1
            if steps > max_steps:
                raise StallError(
                    f"vehicle {i} failed to reach {route_end} m within the step budget"
                )
            ts.append(t)
            ss.append(s)
            vs.append(v)
            accs.append(a)
        position = np.array(ss)
        traces.append(
            {
                "time": np.array(ts),
                "position": position,
                "speed": np.array(vs),
                "accel": np.array(accs),
                "grade": grade_at(profile, np.clip(position, 0.0, profile.total_length)),
            }
        )
    return traces


@pytest.fixture(scope="module")
def collector_plans():
    """Plans to resimulate, by name: (state, controls, profile, ds).

    The solved collector plan (K = 8000, cold), the stitched plan of the
    first six 40 m / 10 m receding windows on the collector, and a random
    two-vehicle plan on a flat road.
    """
    scen = load_scenario(resolve_scenario_path("collector"))
    cfg = scen.config
    t0, pi0, targets = scen.initial_state()
    args = (cfg, scen.weights, scen.profile, t0, pi0, scen.solver_options)
    plans = {}
    report = solve(*args, targets=targets)
    plans["collector"] = (report.states, report.controls, scen.profile, cfg.ds)
    run = receding_horizon_run(*args, 40.0, 10.0, max_executions=6)
    # the stitched plan covers the executed 60 m at ds
    plans["receding"] = (run.states, run.controls, scen.profile, cfg.ds)
    rng = np.random.default_rng(11)
    accels = np.clip(np.cumsum(rng.uniform(-0.05, 0.05, size=(2, 500)), axis=1), -1.0, 1.0)
    state = rollout([0.0, -1.0], [0.05, 0.05], accels, 0.1)
    flat = SlopeProfile(breakpoints=[0.0, 1000.0], grades=[0.0])
    plans["random"] = (state, ControlTrajectory(accels=accels), flat, 0.1)
    return plans


class TestResimulate:
    def _flat_profile(self):
        return SlopeProfile(breakpoints=[0.0, 1000.0], grades=[0.0])

    def test_zero_controls_constant_speed(self):
        accels = np.zeros((1, 100))
        state = rollout([0.0], [1.0 / 20.0], accels, 0.1)
        traces = resimulate_time_domain(
            state, ControlTrajectory(accels=accels), self._flat_profile(), 0.1, dt=0.001
        )
        tr = traces[0]
        assert np.allclose(np.diff(tr["speed"]), 0.0)
        # position grows linearly at 20 m/s
        slope = np.polyfit(tr["time"], tr["position"], 1)[0]
        assert slope == pytest.approx(20.0, rel=1e-9)

    def test_constant_accel_matches_closed_form(self):
        ds, steps, a, v0 = 0.1, 200, 0.8, 15.0
        accels = np.full((1, steps), a)
        state = rollout([0.0], [1.0 / v0], accels, ds)
        traces = resimulate_time_domain(
            state, ControlTrajectory(accels=accels), self._flat_profile(), ds, dt=0.0005
        )
        tr = traces[0]
        v_exact = np.sqrt(v0**2 + 2 * a * np.clip(tr["position"], 0, ds * steps))
        assert np.max(np.abs(tr["speed"] - v_exact)) < 5e-3

    def test_stall_detected(self):
        # a plan that brakes to a crawl stalls once re-integrated in time
        # (the time-domain integrator crosses v = 0 inside a spatial step)
        ds, steps = 1.0, 46
        accels = np.full((1, steps), -0.6)
        state = rollout([0.0], [1.0 / 7.0], accels, ds)
        with pytest.raises(StallError):
            resimulate_time_domain(
                state, ControlTrajectory(accels=accels), self._flat_profile(), ds, dt=0.01
            )

    def test_arrival_time_consistency(self):
        # the two integrators agree within the spatial-truncation budget
        ds, steps = 0.1, 500
        rng = np.random.default_rng(7)
        accels = np.cumsum(rng.uniform(-0.05, 0.05, size=(2, steps)), axis=1)
        accels = np.clip(accels, -1.0, 1.0)
        state = rollout([0.0, -1.0], [0.05, 0.05], accels, ds)
        traces = resimulate_time_domain(
            state, ControlTrajectory(accels=accels), self._flat_profile(), ds, dt=0.0002
        )
        dpi_ds = np.abs(np.diff(state.slownesses, axis=1)).max() / ds
        tol = 10 * ds * max(dpi_ds, 1e-6) + 1e-3
        for i, tr in enumerate(traces):
            t_end = np.interp(ds * steps, tr["position"], tr["time"])
            assert abs(t_end - state.arrival_times[i, -1]) < tol

    # the collector pipeline's 5 ms step, and a finer 2 ms one
    @pytest.mark.parametrize("dt", [0.005, 0.002])
    @pytest.mark.parametrize("plan", ["collector", "receding", "random"])
    def test_bit_identical_to_textbook_loop(self, collector_plans, plan, dt):
        state, controls, profile, ds = collector_plans[plan]
        got = resimulate_time_domain(state, controls, profile, ds, dt=dt)
        want = textbook_resimulation(state, controls, profile, ds, dt)
        assert len(got) == len(want) == controls.accels.shape[0]
        for g, w in zip(got, want):
            assert g.keys() == w.keys()
            for field in w:
                assert np.array_equal(g[field], w[field]), field

    def test_stall_message_matches_textbook_loop(self):
        ds, steps = 1.0, 46
        accels = np.full((1, steps), -0.6)
        state = rollout([0.0], [1.0 / 7.0], accels, ds)
        controls = ControlTrajectory(accels=accels)
        with pytest.raises(StallError) as want:
            textbook_resimulation(state, controls, self._flat_profile(), ds, 0.01)
        with pytest.raises(StallError, match="vehicle 0 stalled at position") as got:
            resimulate_time_domain(state, controls, self._flat_profile(), ds, dt=0.01)
        assert str(got.value) == str(want.value)

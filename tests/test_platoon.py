"""Space-domain vehicle model: dynamics, derivatives, and cross-integrator checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_config
from ecoplatoon.errors import ConfigError, IntegrationError
from ecoplatoon.platoon import (
    ControlTrajectory,
    PlatoonState,
    diff_state,
    dynamics_jacobians,
    resimulate_time_domain,
    rollout,
    slowness,
    step_dynamics,
)
from ecoplatoon.terrain import SlopeProfile

MPH = 0.44704


class TestSlowness:
    def test_identity(self):
        assert slowness(1.0) == 1.0

    def test_arithmetic(self):
        assert slowness(20.0) == pytest.approx(0.05)

    def test_mph_conversion(self):
        # independent oracle: unit conversion then reciprocal
        v = 65 * MPH
        assert slowness(v) == pytest.approx(1.0 / 29.0576, rel=1e-6)
        assert slowness(v) == pytest.approx(0.0344144, rel=1e-5)

    def test_standstill_rejected(self):
        with pytest.raises(ConfigError):
            slowness(0.0)
        with pytest.raises(ConfigError):
            slowness(-3.0)


class TestPlatoonConfig:
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
        t, pi = step_dynamics([0.0], [0.05], [0.0], 0.1)
        assert pi[0] == 0.05
        assert t[0] == pytest.approx(0.005)

    def test_substitution(self):
        _, pi = step_dynamics([0.0], [0.05], [2.0], 0.1)
        assert pi[0] == pytest.approx(0.049975)

    def test_blowup_detected(self):
        # enormous deceleration pushes slowness negative within one step
        with pytest.raises(IntegrationError):
            step_dynamics([0.0], [0.5], [100.0], 1.0)

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
        t2, pi2 = step_dynamics(t, pi, a, ds)
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


class TestJacobians:
    def test_zero_control(self):
        f_x, f_u, f_xx, f_uu, f_ux = dynamics_jacobians([0.0], [0.05], [0.0], 0.1)
        assert f_x[1, 1] == 1.0
        assert f_xx[1, 1, 1] == 0.0

    def test_control_sensitivity_substitution(self):
        _, f_u, *_ = dynamics_jacobians([0.0], [0.05], [2.0], 0.1)
        assert f_u[1, 0] == pytest.approx(-1.25e-5)

    def test_matches_finite_differences(self, rng):
        ds = 0.1
        for _ in range(100):
            n = int(rng.integers(1, 4))
            t = rng.normal(size=n)
            pi = rng.uniform(0.02, 0.2, size=n)
            a = rng.uniform(-3.0, 3.0, size=n)
            f_x, f_u, f_xx, f_uu, f_ux = dynamics_jacobians(t, pi, a, ds)

            def step_flat(x_flat, u):
                tt, pp = step_dynamics(x_flat[0::2], x_flat[1::2], u, ds)
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
                jp = dynamics_jacobians(t, pi + eps * np.eye(n)[p], a, ds)
                jm = dynamics_jacobians(t, pi - eps * np.eye(n)[p], a, ds)
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


class TestRollout:
    def test_matches_repeated_steps_bitwise(self, rng):
        accels = rng.uniform(-1.0, 1.0, size=(3, 300))
        t = np.array([0.0, -1.1, -1.9])
        pi = 1.0 / rng.uniform(15.0, 25.0, size=3)
        state = rollout(t, pi, accels, 0.5)
        for k in range(300):
            assert np.array_equal(state.arrival_times[:, k], t)
            assert np.array_equal(state.slownesses[:, k], pi)
            t, pi = step_dynamics(t, pi, accels[:, k], 0.5)
        assert np.array_equal(state.arrival_times[:, -1], t)
        assert np.array_equal(state.slownesses[:, -1], pi)

    @pytest.mark.parametrize("accel", [1e4, np.nan])
    def test_blowup_mid_horizon_raises(self, accel):
        accels = np.zeros((2, 40))
        accels[1, 25] = accel
        with pytest.raises(IntegrationError):
            rollout([0.0, -1.0], [0.05, 0.05], accels, 1.0)

    def test_nonpositive_initial_slowness_raises(self):
        with pytest.raises(IntegrationError):
            rollout([0.0, -1.0], [0.05, 0.0], np.zeros((2, 5)), 1.0)


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
        from ecoplatoon.errors import StallError

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

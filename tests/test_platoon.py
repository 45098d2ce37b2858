"""Space-domain vehicle model: dynamics, derivatives, and cross-integrator checks."""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import make_config, one_step_rollout, receding_grid
from ecoplatoon import platoon as platoon_mod
from ecoplatoon.errors import ConfigError, IntegrationError, StallError
from ecoplatoon.platoon import (
    ControlTrajectory,
    PlatoonConfig,
    PlatoonState,
    VehicleParams,
    dynamics_derivatives,
    resimulate_time_domain,
    rollout,
    rollout_steps,
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

    def test_per_vehicle_arrays_built_once_and_read_only(self):
        # the solver reads masses twice per derivative batch and the
        # baseline reads the bounds every control period
        cfg = make_config(n=3, mass=1500.0, a_min=-1.5, a_max=1.0)
        assert cfg.masses is cfg.masses and cfg.accel_bounds is cfg.accel_bounds
        for array in (cfg.masses, *cfg.accel_bounds):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        np.testing.assert_array_equal(cfg.masses, [1500.0] * 3)
        np.testing.assert_array_equal(cfg.accel_bounds, [[-1.5] * 3, [1.0] * 3])
        # a replaced config builds its own arrays
        heavy = tuple(dataclasses.replace(v, mass=2000.0, a_max=2.0) for v in cfg.vehicles)
        other = dataclasses.replace(cfg, vehicles=heavy)
        np.testing.assert_array_equal(other.masses, [2000.0] * 3)
        np.testing.assert_array_equal(other.accel_bounds[1], [2.0] * 3)
        np.testing.assert_array_equal(cfg.masses, [1500.0] * 3)

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
        # braking that stops the vehicle within the step: v'^2 = 4 - 200 < 0
        with pytest.raises(IntegrationError):
            one_step_rollout([0.0], [0.5], [-100.0], 1.0)

    def test_braking_to_a_stop_at_the_step_end_leaves_the_domain(self):
        # v'^2 = 4 - 2 * 2 * 1 = 0 exactly: the slowness would be infinite
        with pytest.raises(IntegrationError):
            one_step_rollout([0.0], [0.5], [-2.0], 1.0)

    def test_constant_accel_matches_kinematics(self):
        # closed-form oracle: v dv = a ds  =>  v' = sqrt(v0^2 + 2 a s), and
        # t' = 2 s / (v0 + v'): each step is the exact arc, so only rounding
        # separates K steps from the closed form
        ds, steps, a, v0 = 0.1, 100, 1.5, 20.0
        accels = np.full((1, steps), a)
        state = rollout([0.0], [1.0 / v0], accels, ds)
        v_exact = np.sqrt(v0**2 + 2 * a * ds * steps)
        assert 1.0 / state.slownesses[0, -1] == pytest.approx(v_exact, rel=1e-13)
        t_exact = 2 * ds * steps / (v0 + v_exact)
        assert state.arrival_times[0, -1] == pytest.approx(t_exact, rel=1e-12)

    def test_difference_coordinates_reproduce_linear_transition(self, rng):
        # One per-vehicle step followed by the difference map must equal the
        # block-linear coasting transition applied to the difference vector
        # directly, plus each vehicle's closed-form arc offset from coasting:
        # v' = sqrt(v^2 + 2 a h), t' - t = 2 h / (v + v'). At zero control
        # the offsets vanish and the transition is linear.
        cfg = make_config(n=3, headway=1.0, ds=0.1)
        n, ds = 3, 0.1
        t = rng.normal(size=3)
        pi = rng.uniform(0.03, 0.09, size=3)
        dim = 2 * (n - 1)
        a_mat = np.zeros((dim, dim))
        for b in range(n - 1):
            a_mat[2 * b, 2 * b + 1] = 1.0
        for a in (np.zeros(3), rng.uniform(-2.0, 2.0, size=3)):
            t2, pi2 = one_step_rollout(t, pi, a, ds)
            state = PlatoonState(
                arrival_times=np.column_stack([t, t2]), slownesses=np.column_stack([pi, pi2])
            )
            x0 = diff_state(state, 0, cfg)
            x1 = diff_state(state, 1, cfg)
            v = 1.0 / pi
            v2 = np.sqrt(v**2 + 2.0 * a * ds)
            offset = np.empty((2, n))  # each vehicle's (t, pi) step minus its coasting step
            offset[0] = 2.0 * ds / (v + v2) - pi * ds
            offset[1] = 1.0 / v2 - pi
            b_vec = np.empty(dim)
            b_vec[0::2] = offset[0, 0] - offset[0, 1:]
            b_vec[1::2] = offset[1, 0] - offset[1, 1:]
            x1_linear = (a_mat * ds + np.eye(dim)) @ x0 + b_vec
            assert np.max(np.abs(x1 - x1_linear)) <= 1e-12
            if not a.any():
                assert np.max(np.abs(b_vec)) <= 1e-15  # coasting: rounding only


def step_jacobians(pi, a, ds):
    """Flat-state step derivatives (f_x, f_u, f_xx, f_ux, f_uu) at one step.

    Every entry comes from ``dynamics_derivatives`` at K = 1, except
    d t'/d t = 1. f_xx[m, p, q] = d^2 f_m / dx_p dx_q, f_ux[m, j, p] =
    d^2 f_m / du_j dx_p and f_uu[m, j, l] = d^2 f_m / du_j du_l; each
    vehicle's second derivatives sit on its own (pi, a) entries.
    """
    pi = np.asarray(pi, dtype=float)
    t_pi, t_a, g, fu, curv = dynamics_derivatives(pi[:, None], np.asarray(a)[:, None], ds)
    n = pi.size
    dim = 2 * n
    ai = np.arange(n)
    ti = 2 * ai
    pj = ti + 1
    f_x = np.zeros((dim, dim))
    f_u = np.zeros((dim, n))
    f_xx = np.zeros((dim, dim, dim))
    f_ux = np.zeros((dim, n, dim))
    f_uu = np.zeros((dim, n, n))
    f_x[ti, ti] = 1.0
    f_x[ti, pj] = t_pi[0]
    f_x[pj, pj] = g[0]
    f_u[ti, ai] = t_a[0]
    f_u[pj, ai] = fu[0]
    for rows, column in ((ti, 0), (pj, 1)):
        f_xx[rows, pj, pj] = curv[0, column, 0]
        f_ux[rows, ai, pj] = curv[1, column, 0]
        f_uu[rows, ai, ai] = curv[2, column, 0]
    return f_x, f_u, f_xx, f_ux, f_uu


class TestJacobians:
    def test_zero_control(self):
        # at a = 0 the arc is a coast: t' = t + pi h, pi' = pi
        t_pi, t_a, g, fu, curv = dynamics_derivatives(
            np.array([[0.05]]), np.array([[0.0]]), 0.1
        )
        assert g[0, 0] == 1.0
        assert t_pi[0, 0] == pytest.approx(0.1, rel=1e-15)
        assert t_a[0, 0] == pytest.approx(-0.5 * 0.1**2 * 0.05**3, rel=1e-14)
        # the (pi, pi) row is 2 a / pi times the (a, pi) row
        assert curv[0, 0, 0, 0] == 0.0 and curv[0, 1, 0, 0] == 0.0

    def test_control_sensitivity_substitution(self):
        # -h pi^3 / s^3 with s^2 = 1 + 2 a h pi^2 = 1.001
        _, _, _, fu, _ = dynamics_derivatives(np.array([[0.05]]), np.array([[2.0]]), 0.1)
        assert fu[0, 0] == pytest.approx(-1.25e-5 / 1.001**1.5, rel=1e-14)

    def test_trajectory_layout(self, rng):
        # (N, K) inputs give (K, N) outputs (the curvature (3, 2, K, N)),
        # step k from column k alone
        pi = rng.uniform(0.02, 0.2, size=(3, 7))
        a = rng.uniform(-3.0, 3.0, size=(3, 7))
        whole = dynamics_derivatives(pi, a, 0.1)
        for k in range(7):
            one = dynamics_derivatives(pi[:, k : k + 1], a[:, k : k + 1], 0.1)
            for got, want in zip(whole[:4], one[:4]):
                assert got.shape == (7, 3)
                assert np.array_equal(got[k], want[0])
            assert whole[4].shape == (3, 2, 7, 3)
            assert np.array_equal(whole[4][:, :, k], one[4][:, :, 0])

    def test_matches_finite_differences(self, rng):
        ds = 0.1
        for _ in range(100):
            n = int(rng.integers(1, 4))
            t = rng.normal(size=n)
            pi = rng.uniform(0.02, 0.2, size=n)
            a = rng.uniform(-3.0, 3.0, size=n)
            f_x, f_u, f_xx, f_ux, f_uu = step_jacobians(pi, a, ds)

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
                up = step_jacobians(pi, a + eps * np.eye(n)[p], ds)
                dn = step_jacobians(pi, a - eps * np.eye(n)[p], ds)
                fd_uu = (up[1][:, p] - dn[1][:, p]) / (2 * eps)
                np.testing.assert_allclose(
                    f_uu[:, p, p], fd_uu, rtol=1e-5, atol=1e-8
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    v0=st.floats(min_value=3.0, max_value=35.0),
    a=st.floats(min_value=-3.0, max_value=3.0),
    h=st.floats(min_value=0.05, max_value=2.5),
    m=st.integers(min_value=1, max_value=60),
)
def test_m_held_steps_are_one_step_of_m_h(v0, a, h, m):
    # the arc is exact for a held control, so m steps of h and one step of
    # m h end in the same state up to rounding: a coarse plan held at the
    # fine resolution rolls out to the coarse plan's states
    assume(v0 * v0 + 2.0 * a * h * m >= 1.0)  # no stop within the span
    fine = rollout([1.5], [1.0 / v0], np.full((1, m), a), h)
    coarse = rollout([1.5], [1.0 / v0], [[a]], h * m)
    assert fine.arrival_times[0, -1] == pytest.approx(coarse.arrival_times[0, -1], rel=1e-12)
    assert fine.slownesses[0, -1] == pytest.approx(coarse.slownesses[0, -1], rel=1e-12)


def test_held_coarse_plan_rolls_out_to_the_coarse_states(rng):
    # a plan on a grid of 25 ds steps, held at ds, passes through the coarse
    # plan's states at every coarse step boundary
    ds, n = 0.1, 3
    grid = np.array([25] * 31 + [5])
    accels = rng.uniform(-1.0, 1.0, size=(n, grid.size))
    t0, pi0 = np.array([0.0, -1.1, -2.0]), 1.0 / rng.uniform(18.0, 24.0, size=n)
    coarse = rollout(t0, pi0, accels, ds, grid)
    fine = rollout(t0, pi0, np.repeat(accels, grid, axis=1), ds)
    ends = np.concatenate([[0], np.cumsum(grid)])
    np.testing.assert_allclose(fine.arrival_times[:, ends], coarse.arrival_times, rtol=1e-12)
    np.testing.assert_allclose(fine.slownesses[:, ends], coarse.slownesses, rtol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=1, max_value=5),
    k_steps=st.integers(min_value=1, max_value=200),
    receding=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_each_step_adds_2_a_h_to_the_squared_speed(n, k_steps, receding, seed):
    # v'^2 - v^2 = 2 a h on every step, and the step's time is its length
    # over the mean of its end speeds, as under any constant acceleration
    rng = np.random.default_rng(seed)
    grid = receding_grid(k_steps) if receding and k_steps >= 4 else None
    lengths = 0.5 * (np.ones(k_steps) if grid is None else grid.astype(float))
    accels = rng.uniform(-0.5, 0.5, size=(n, k_steps))
    state = rollout(-1.1 * np.arange(n), 1.0 / rng.uniform(15.0, 25.0, size=n), accels, 0.5, grid)
    speeds = 1.0 / state.slownesses
    squares = speeds**2
    np.testing.assert_allclose(
        np.diff(squares, axis=1), 2.0 * accels * lengths, rtol=0, atol=1e-12 * squares.max()
    )
    np.testing.assert_allclose(
        np.diff(state.arrival_times, axis=1),
        2.0 * lengths / (speeds[:, :-1] + speeds[:, 1:]),
        rtol=1e-13,
    )


def fd4(f, x, eps):
    """Fourth-order central difference of ``f`` at the scalar ``x``."""
    return (-f(x + 2 * eps) + 8 * f(x + eps) - 8 * f(x - eps) + f(x - 2 * eps)) / (12 * eps)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    v=st.floats(min_value=3.0, max_value=35.0),
    a=st.floats(min_value=-3.0, max_value=3.0),
    h=st.floats(min_value=0.05, max_value=2.5),
)
def test_arc_derivatives_match_fourth_order_differences(v, a, h):
    # the step's first derivatives against differences of the closed-form
    # step, and its second derivatives against differences of the first
    assume(v * v + 2.0 * a * h >= 1.0)
    pi = 1.0 / v

    def step(p, u):  # (t' - t, pi') of the closed form
        s = np.sqrt(1.0 + 2.0 * u * h * p * p)
        return np.array([2.0 * h * p / (1.0 + s), p / s])

    def derivs(p, u):
        t_pi, t_a, g, fu, curv = dynamics_derivatives(np.array([[p]]), np.array([[u]]), h)
        return np.array([[t_pi[0, 0], g[0, 0]], [t_a[0, 0], fu[0, 0]]]), curv[:, :, 0, 0]

    first, curv = derivs(pi, a)
    e_pi, e_a = 1e-3 * pi, 1e-3 * min(1.0, (v * v + 2.0 * a * h) / (4.0 * h))
    # rows: by pi, by a; columns: t', pi'
    np.testing.assert_allclose(first[0], fd4(lambda p: step(p, a), pi, e_pi), rtol=1e-8)
    np.testing.assert_allclose(first[1], fd4(lambda u: step(pi, u), a, e_a), rtol=1e-8)
    # the (pi, pi) row is exactly zero at a = 0, where the stencil leaves noise
    close = dict(rtol=1e-7, atol=1e-9 * np.abs(curv).max())
    np.testing.assert_allclose(curv[0], fd4(lambda p: derivs(p, a)[0][0], pi, e_pi), **close)
    np.testing.assert_allclose(curv[1], fd4(lambda u: derivs(pi, u)[0][0], a, e_a), **close)
    np.testing.assert_allclose(curv[1], fd4(lambda p: derivs(p, a)[0][1], pi, e_pi), **close)
    np.testing.assert_allclose(curv[2], fd4(lambda u: derivs(pi, u)[0][1], a, e_a), **close)


def arc_recurrence(t0, pi0, accels, lengths):
    """The exact constant-acceleration arcs, one step at a time, carried in speed.

    From v = 1 / pi0 and its square, step k of length h under control a is
    v'^2 = v^2 + 2 h a, v' = sqrt(v'^2), pi' = 1 / v' and
    t' = t + 2 h / (v + v'). The per-step oracle that ``rollout`` must match
    bit for bit. Returns the (N, K+1) times and slownesses.
    """
    t, v = t0, 1.0 / pi0
    square = v * v
    times, slows = [t], [pi0]
    with np.errstate(invalid="ignore", divide="ignore"):  # past the exit
        for a, h in zip(np.asarray(accels).T, lengths):
            square = square + 2.0 * h * a
            v_next = np.sqrt(square)
            t = t + 2.0 * h / (v + v_next)
            v = v_next
            times.append(t)
            slows.append(1.0 / v)
    return np.array(times).T, np.array(slows).T


def zero_law(n, k_steps):
    """A feedback law that adds nothing: zero reference, gains and feedforward.

    Under it ``rollout_steps`` steps its per-step loop on the given controls,
    the oracle for the open-loop prefix sums.
    """
    zeros = np.zeros((n, k_steps + 1))
    reference = SimpleNamespace(arrival_times=zeros, slownesses=zeros)
    return reference, np.zeros((k_steps, n, 2 * n)), np.zeros((k_steps, n))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=1, max_value=6),
    k_steps=st.integers(min_value=1, max_value=600),
    grid_kind=st.sampled_from(["uniform", "random", "receding"]),
    ds=st.sampled_from([0.1, 0.5, 1.0]),
    boxed=st.booleans(),
    spoil=st.sampled_from([None, "braking", "nan"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_open_loop_is_the_stepped_loop_bit_for_bit(n, k_steps, grid_kind, ds, boxed, spoil, seed):
    # the open loop's two prefix sums against the per-step loop under a law
    # that adds nothing: the same times and slownesses to the last bit, or
    # None from both. A tenth of the controls are +0.0 or -0.0; a braking
    # input stops a vehicle within its step unless the box clamps it
    rng = np.random.default_rng(seed)
    grid = {
        "uniform": None,
        "random": rng.integers(1, 6, size=k_steps),
        "receding": receding_grid(k_steps) if k_steps >= 4 else None,
    }[grid_kind]
    accels = rng.uniform(-1.5, 1.5, size=(n, k_steps))
    zero = rng.random((n, k_steps)) < 0.1
    accels[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    if spoil is not None:
        accels[rng.integers(n), rng.integers(k_steps)] = -1e4 if spoil == "braking" else np.nan
    box = (-rng.uniform(0.2, 2.0, size=n), rng.uniform(0.2, 2.0, size=n)) if boxed else None
    t0 = rng.uniform(-5.0, 5.0, size=n)
    pi0 = 1.0 / rng.uniform(3.0, 30.0, size=n)
    with np.errstate(invalid="raise", divide="raise", over="raise"):  # silenced inside
        got = rollout_steps(t0, pi0, accels, ds, grid, box=box)
        want = rollout_steps(t0, pi0, accels, ds, grid, law=zero_law(n, k_steps), box=box)
    assert (got is None) == (want is None)
    if spoil == "nan" or (spoil == "braking" and not boxed):
        assert got is None
    if got is None:
        return
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    assert np.array_equal(got[2], want[2])  # the law's + 0.0 may flip a -0.0
    assert all(a.flags.c_contiguous for a in got)


class TestRollout:
    @pytest.mark.parametrize("receding", [False, True])
    def test_box_clamps_each_control_before_its_step(self, rng, receding):
        # open loop, a box is the rollout of the clipped controls bit for bit
        grid = receding_grid(200) if receding else None
        accels = rng.uniform(-2.0, 2.0, size=(3, 200))
        box = (np.array([-1.0, -0.5, -1.5]), np.array([0.5, 1.0, 0.2]))
        t0, pi0 = np.array([0.0, -1.1, -1.9]), np.full(3, 0.05)
        got = rollout_steps(t0, pi0, accels, 0.5, grid, box=box)
        clipped = np.clip(accels, box[0][:, None], box[1][:, None])
        want = rollout_steps(t0, pi0, clipped, 0.5, grid)
        assert np.any(clipped != accels)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("box", [None, (np.full(5, -0.3), np.full(5, 0.3))])
    def test_open_loop_never_steps(self, monkeypatch, rng, box):
        # an open-loop rollout is two prefix sums: it never enters the
        # per-step loop, even at K = 8000 and with a box that clamps
        def stepped(*args):
            raise AssertionError("an open-loop rollout entered _roll")

        monkeypatch.setattr(platoon_mod, "_roll", stepped)
        accels = rng.uniform(-0.5, 0.5, size=(5, 8000))
        plan = rollout_steps(-1.1 * np.arange(5), np.full(5, 0.05), accels, 0.1, box=box)
        assert plan is not None and plan[1].shape == (5, 8001)

    def test_matches_repeated_steps_bitwise(self, rng):
        accels = rng.uniform(-1.0, 1.0, size=(3, 300))
        t = np.array([0.0, -1.1, -1.9])
        pi = 1.0 / rng.uniform(15.0, 25.0, size=3)
        state = rollout(t, pi, accels, 0.5)
        times, slows = arc_recurrence(t, pi, accels, np.full(300, 0.5))
        assert np.array_equal(state.arrival_times, times)
        assert np.array_equal(state.slownesses, slows)

    @pytest.mark.parametrize("leaves", [False, True])
    @pytest.mark.parametrize("receding", [False, True])
    @pytest.mark.parametrize("k_steps", [40, 1100])
    @pytest.mark.parametrize("n", [2, 5])
    def test_matches_textbook_loop(self, rng, n, k_steps, receding, leaves):
        # step k is 0.5 m times grid[k]; a leaving input brakes one vehicle
        # to a stop within step K/2, and both loops must reject it.
        # Alternating accelerations at 5-8 m/s make 2 h a a large share of
        # v^2, so a reordered sum changes last bits on the 2.5 m steps.
        grid = receding_grid(k_steps) if receding else None
        lengths = 0.5 * (np.ones(k_steps) if grid is None else grid.astype(float))
        sign = (-1.0) ** np.arange(k_steps)
        accels = rng.uniform(1.0, 2.0, size=(n, 1)) * sign
        accels += rng.uniform(-0.05, 0.05, size=(n, k_steps))
        if leaves:
            accels[n - 1, k_steps // 2] = -1e4
        t0 = -np.arange(n) * 1.1
        pi0 = 1.0 / rng.uniform(5.0, 8.0, size=n)
        times, slows = arc_recurrence(t0, pi0, accels, lengths)
        in_domain = bool(np.all(np.isfinite(slows)) and np.all(slows > 0.0))
        assert in_domain is not leaves
        if leaves:
            with pytest.raises(IntegrationError):
                rollout(t0, pi0, accels, 0.5, grid)
            return
        state = rollout(t0, pi0, accels, 0.5, grid)
        assert np.array_equal(state.arrival_times, times)
        assert np.array_equal(state.slownesses, slows)

    @pytest.mark.parametrize("braking", [1e4, np.nan])
    def test_blowup_mid_horizon_raises(self, braking):
        # braking that stops the second vehicle within step 25, or a NaN
        accels = np.zeros((2, 40))
        accels[1, 25] = -braking
        with pytest.raises(IntegrationError):
            rollout([0.0, -1.0], [0.05, 0.05], accels, 1.0)

    def test_nonpositive_initial_slowness_raises(self):
        with pytest.raises(IntegrationError):
            rollout([0.0, -1.0], [0.05, 0.0], np.zeros((2, 5)), 1.0)

    @pytest.mark.parametrize(
        "t0, pi0, accels, ds, grid, field",
        [
            ([np.nan, 0.0], [0.05, 0.05], (2, 5), 0.1, None, "initial times"),
            ([0.0, -1.0], [0.05, np.inf], (2, 5), 0.1, None, "initial slownesses"),
            ([0.0], [0.05, 0.05], (2, 5), 0.1, None, "initial times"),  # not broadcast
            ([0.0, -1.0], [0.05], (2, 5), 0.1, None, "initial slownesses"),
            ([0.0, -1.0], [0.05, 0.05], (2, 5), -0.1, None, "ds"),  # time would run back
            ([0.0, -1.0], [0.05, 0.05], (2, 5), 0.0, None, "ds"),
            ([0.0, -1.0], [0.05, 0.05], (2, 5), np.nan, None, "ds"),
            ([0.0, -1.0], [0.05, 0.05], (2, 5), 0.1, [1, 1], "step grid"),
            ([0.0, -1.0], [0.05, 0.05], (2, 5), 0.1, [1, 1, 0, 1, 1], "step grid"),
            ([0.0, -1.0], [0.05, 0.05], (5,), 0.1, None, "accelerations"),
            (["a", 0.0], [0.05, 0.05], (2, 5), 0.1, None, "initial times must be numeric"),
            (["0", "-1"], [0.05, 0.05], (2, 5), 0.1, None, "initial times must be numeric"),
            ([0.0, -1.0], ["0.05", "0.05"], (2, 5), 0.1, None, "slownesses must be numeric"),
            ([0.0, -1.0], [0.05, 0.05], (2, 5), 0.1, ["1"] * 5, "step grid must be numeric"),
            ([0.0, -1.0], [0.05, 0.05], (2, 5), 0.1, [True] * 5, "step grid must be numeric"),
        ],
    )
    def test_malformed_input_rejected(self, t0, pi0, accels, ds, grid, field):
        with pytest.raises(ConfigError, match=field):
            rollout(t0, pi0, np.zeros(accels), ds, grid)

    @pytest.mark.parametrize(
        "accels",
        [[[0.0, "x"], [0.0, 0.0]], [[0.0], [0.0, 0.0]], [["0"] * 3] * 2, [[False] * 3] * 2],
    )
    def test_non_numeric_accelerations_rejected(self, accels):
        # np.asarray raised ValueError on text and on a ragged list, and
        # converted numeric strings and bools
        with pytest.raises(ConfigError, match="accelerations must be numeric"):
            rollout([0.0, -1.0], [0.05, 0.05], accels, 0.1)


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

    @pytest.mark.parametrize("ds, dt, field", [
        (np.nan, 0.01, "ds"), (-0.1, 0.01, "ds"), (0.1, np.nan, "dt"), (0.1, -0.01, "dt"),
        (0.1, 0.0, "dt"), (0.1, np.inf, "dt"),
    ])
    def test_malformed_steps_rejected(self, ds, dt, field):
        accels = np.zeros((1, 10))
        state = rollout([0.0], [1.0 / 20.0], accels, 0.1)
        with pytest.raises(ConfigError, match=f"^{field} must be positive and finite"):
            resimulate_time_domain(
                state, ControlTrajectory(accels=accels), self._flat_profile(), ds, dt
            )

    def test_stall_detected(self):
        # a plan that brakes from 2 m/s to 1 m/s within its one metre stalls
        # once re-integrated with a time step longer than it takes to brake
        # away the speed: the time-domain integrator crosses v = 0 inside a
        # step (its Euler position leads the exact arc's under braking, so
        # a fine time step does not stall on a plan of exact arcs)
        ds, accels = 1.0, np.full((1, 1), -1.5)
        state = rollout([0.0], [0.5], accels, ds)
        assert 1.0 / state.slownesses[0, -1] == pytest.approx(1.0)
        with pytest.raises(StallError):
            resimulate_time_domain(
                state, ControlTrajectory(accels=accels), self._flat_profile(), ds, dt=1.5
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
        ds, accels = 1.0, np.full((1, 1), -1.5)
        state = rollout([0.0], [0.5], accels, ds)
        controls = ControlTrajectory(accels=accels)
        with pytest.raises(StallError) as want:
            textbook_resimulation(state, controls, self._flat_profile(), ds, 1.5)
        with pytest.raises(StallError, match="vehicle 0 stalled at position") as got:
            resimulate_time_domain(state, controls, self._flat_profile(), ds, dt=1.5)
        assert str(got.value) == str(want.value)

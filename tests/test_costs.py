"""Running/terminal cost values and analytic derivative checks."""

import math

import numpy as np
import pytest

from conftest import make_config
from ecoplatoon.costs import (
    CostBreakdown,
    CostWeights,
    cost_derivatives,
    running_cost,
    schedule_targets,
    terminal_cost,
    terminal_derivatives,
    trajectory_cost,
)
from ecoplatoon.errors import ConfigError
from ecoplatoon.platoon import rollout


def test_weights_must_be_nonnegative():
    with pytest.raises(ConfigError):
        CostWeights(q1=-1.0)


@pytest.mark.parametrize("name", ["q1", "q2", "q3", "r1", "qv", "power_floor", "power_smoothing"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_weights_must_be_finite(name, value):
    with pytest.raises(ConfigError, match=name):
        CostWeights(**{name: value})


def test_breakdown_total_is_component_sum():
    bd = CostBreakdown(cacc=1.0, ecology=2.0, effort=3.0, terminal=4.0)
    assert bd.total == pytest.approx(10.0, rel=1e-9)


class TestRunningCost:
    def test_all_terms_vanish(self):
        cfg = make_config(n=3)
        w = CostWeights(q1=500, q2=0.0, q3=5000, r1=50)
        t = np.array([0.0, -1.0, -2.0])
        pi = np.full(3, 0.05)
        total, inc = running_cost(t, pi, np.zeros(3), 0.0, cfg, w)
        assert total == 0.0
        assert inc.cacc == 0.0 and inc.effort == 0.0

    def test_single_follower_gap_error(self):
        cfg = make_config(n=2)
        w = CostWeights(q1=500, q2=0.0, q3=0.0, r1=0.0)
        # follower half a second off the desired gap
        t = np.array([0.0, -1.5])
        pi = np.full(2, 0.05)
        total, inc = running_cost(t, pi, np.zeros(2), 0.0, cfg, w)
        assert total == pytest.approx(500 * 0.25)
        assert inc.cacc == pytest.approx(125.0)

    def test_ecology_term_spreadsheet_value(self):
        # independent evaluation of the traction-power sum for one vehicle
        m, g, mu, xi = 1400.0, 9.8, 0.015, 0.000024
        theta = math.atan(0.06)
        v, a, q2 = 20.0, 0.5, 10.0
        expected = q2 * (
            m * a * v
            + m * g * math.sin(theta) * v
            + mu * m * g * math.cos(theta) * v
            + xi * v**3
        )
        cfg = make_config(n=2, mass=m)
        w = CostWeights(q1=0.0, q2=q2, q3=0.0, r1=0.0)
        t = np.array([0.0, -1.0])
        pi = np.full(2, 1.0 / v)
        total, inc = running_cost(t, pi, np.full(2, a), theta, cfg, w)
        assert inc.ecology == pytest.approx(2 * expected, rel=1e-12)
        assert total == pytest.approx(2 * expected, rel=1e-12)

    def test_effort_term(self):
        cfg = make_config(n=2)
        w = CostWeights(q1=0.0, q2=0.0, q3=0.0, r1=7.0)
        t = np.array([0.0, -1.0])
        total, _ = running_cost(t, np.full(2, 0.05), np.array([2.0, -1.0]), 0.0, cfg, w)
        assert total == pytest.approx(7.0 * (4.0 + 1.0))


class TestTerminalCost:
    def test_on_schedule_is_free(self):
        cfg = make_config(n=3, ds=0.1, horizon_steps=8000)
        w = CostWeights(q3=5000)
        target = cfg.route_length / cfg.target_speed
        assert terminal_cost(np.full(3, target), cfg, w) == 0.0

    def test_one_second_late(self):
        cfg = make_config(n=2, ds=0.1, horizon_steps=8000)
        w = CostWeights(q3=5000)
        target = cfg.route_length / cfg.target_speed
        cost = terminal_cost(np.array([target, target + 1.0]), cfg, w)
        assert cost == pytest.approx(5000.0)

    def test_matches_bruteforce(self, rng):
        cfg = make_config(n=4, ds=0.5, horizon_steps=1000)
        w = CostWeights(q3=1234.0)
        t_final = rng.normal(loc=30.0, scale=3.0, size=4)
        targets = rng.normal(loc=30.0, scale=1.0, size=4)
        expected = 1234.0 * sum((t_final[i] - targets[i]) ** 2 for i in range(4))
        assert terminal_cost(t_final, cfg, w, targets) == pytest.approx(expected, rel=1e-12)

    def test_entry_anchored_targets(self):
        cfg = make_config(n=3, ds=0.1, horizon_steps=8000)
        entry = np.array([0.0, -1.0, -2.0])
        targets = schedule_targets(cfg, entry)
        assert np.allclose(targets, entry + cfg.route_length / cfg.target_speed)


class TestDerivatives:
    def test_gap_only_control_gradient_zero(self):
        cfg = make_config(n=3)
        w = CostWeights(q1=500, q2=0.0, q3=0.0, r1=0.0)
        t = np.array([0.0, -1.0, -2.0])
        _, lu, *_ = cost_derivatives(t, np.full(3, 0.05), np.zeros(3), 0.0, cfg, w)
        assert np.allclose(lu, 0.0)

    def test_ecology_control_gradient(self):
        # d/da of the power term is q2 * m * v
        cfg = make_config(n=2, mass=1400.0)
        w = CostWeights(q1=0.0, q2=10.0, q3=0.0, r1=0.0)
        v = 23.0
        t = np.array([0.0, -1.0])
        _, lu, *_ = cost_derivatives(t, np.full(2, 1 / v), np.zeros(2), 0.1, cfg, w)
        assert np.allclose(lu, 10.0 * 1400.0 * v)

    def test_all_blocks_match_finite_differences(self, rng):
        cfg = make_config(n=3, mass=1350.0)
        w = CostWeights(q1=500.0, q2=10.0, q3=5000.0, r1=2.0)
        theta = 0.08

        def value(t, pi, a):
            total, _ = running_cost(t, pi, a, theta, cfg, w)
            return total

        for _ in range(100):
            t = rng.normal(scale=2.0, size=3)
            pi = rng.uniform(0.03, 0.1, size=3)
            a = rng.uniform(-3.0, 3.0, size=3)
            lx, lu, lxx, luu, lux = cost_derivatives(t, pi, a, theta, cfg, w)
            x = np.empty(6)
            x[0::2] = t
            x[1::2] = pi

            def from_flat(xf):
                return xf[0::2], xf[1::2]

            eps = 1e-6
            for p in range(6):
                d = np.zeros(6)
                d[p] = eps
                tp, pp = from_flat(x + d)
                tm, pm = from_flat(x - d)
                fd = (value(tp, pp, a) - value(tm, pm, a)) / (2 * eps)
                assert lx[p] == pytest.approx(fd, rel=1e-5, abs=1e-4)
            for p in range(3):
                d = np.zeros(3)
                d[p] = eps
                fd = (value(t, pi, a + d) - value(t, pi, a - d)) / (2 * eps)
                assert lu[p] == pytest.approx(fd, rel=1e-5, abs=1e-4)
            # Hessian blocks against gradient differences
            for p in range(6):
                d = np.zeros(6)
                d[p] = eps
                tp, pp = from_flat(x + d)
                tm, pm = from_flat(x - d)
                gxp = cost_derivatives(tp, pp, a, theta, cfg, w)[0]
                gxm = cost_derivatives(tm, pm, a, theta, cfg, w)[0]
                np.testing.assert_allclose(
                    lxx[:, p], (gxp - gxm) / (2 * eps), rtol=1e-4, atol=1e-3
                )
                gup = cost_derivatives(tp, pp, a, theta, cfg, w)[1]
                gum = cost_derivatives(tm, pm, a, theta, cfg, w)[1]
                np.testing.assert_allclose(
                    lux[:, p], (gup - gum) / (2 * eps), rtol=1e-4, atol=1e-3
                )
            for p in range(3):
                d = np.zeros(3)
                d[p] = eps
                gup = cost_derivatives(t, pi, a + d, theta, cfg, w)[1]
                gum = cost_derivatives(t, pi, a - d, theta, cfg, w)[1]
                np.testing.assert_allclose(
                    luu[:, p], (gup - gum) / (2 * eps), rtol=1e-4, atol=1e-3
                )

    def test_hinged_power_limits(self):
        # far below the floor the hinge contributes nothing; far above it
        # the literal signed value is recovered
        cfg = make_config(n=2, mass=1400.0)
        hinged = CostWeights(q1=0.0, q2=1.0, q3=0.0, r1=0.0, power_floor=0.0,
                             power_smoothing=100.0)
        signed = CostWeights(q1=0.0, q2=1.0, q3=0.0, r1=0.0)
        t = np.array([0.0, -1.0])
        pi = np.full(2, 0.05)
        braking, _ = running_cost(t, pi, np.full(2, -3.0), 0.0, cfg, hinged)
        assert 0.0 <= braking < 1.0  # tail of the hinge, near zero
        raw_brake, _ = running_cost(t, pi, np.full(2, -3.0), 0.0, cfg, signed)
        assert raw_brake < -1e5  # the signed form rewards braking heavily
        pushing_h, _ = running_cost(t, pi, np.full(2, 2.0), 0.0, cfg, hinged)
        pushing_s, _ = running_cost(t, pi, np.full(2, 2.0), 0.0, cfg, signed)
        assert pushing_h == pytest.approx(pushing_s, rel=1e-6)

    def test_hinged_derivatives_match_fd(self, rng):
        cfg = make_config(n=2, mass=1400.0)
        w = CostWeights(q1=0.0, q2=0.01, q3=0.0, r1=0.0, power_floor=0.0,
                        power_smoothing=500.0)
        theta = -0.05

        def value(pi, a):
            return running_cost(np.zeros(2), pi, a, theta, cfg, w)[0]

        for _ in range(50):
            pi = rng.uniform(0.03, 0.1, size=2)
            # sample around the hinge where curvature is largest
            a = rng.uniform(-1.0, 1.5, size=2)
            lx, lu, lxx, luu, lux = cost_derivatives(
                np.zeros(2), pi, a, theta, cfg, w
            )
            eps = 1e-6
            for p in range(2):
                d = np.zeros(2)
                d[p] = eps
                fd = (value(pi + d, a) - value(pi - d, a)) / (2 * eps)
                assert lx[2 * p + 1] == pytest.approx(fd, rel=1e-5, abs=1e-5)
                fd = (value(pi, a + d) - value(pi, a - d)) / (2 * eps)
                assert lu[p] == pytest.approx(fd, rel=1e-5, abs=1e-5)
            eps2 = 1e-4
            for p in range(2):
                d = np.zeros(2)
                d[p] = eps2
                fd2 = (value(pi, a + d) - 2 * value(pi, a) + value(pi, a - d)) / eps2**2
                assert luu[p, p] == pytest.approx(fd2, rel=5e-3, abs=1e-3)

    def test_terminal_speed_anchor_derivatives(self, rng):
        cfg = make_config(n=2)
        w = CostWeights(q3=1000.0, qv=2e4)
        t_final = rng.normal(loc=40.0, size=2)
        pi_final = rng.uniform(0.04, 0.06, size=2)
        targets = rng.normal(loc=40.0, size=2)
        lf_x, lf_xx = terminal_derivatives(t_final, cfg, w, targets, pi_final=pi_final)
        eps = 1e-7
        for p in range(2):
            d = np.zeros(2)
            d[p] = eps
            fd = (
                terminal_cost(t_final, cfg, w, targets, pi_final + d)
                - terminal_cost(t_final, cfg, w, targets, pi_final - d)
            ) / (2 * eps)
            assert lf_x[2 * p + 1] == pytest.approx(fd, rel=1e-5)
        eps2 = 1e-6
        for p in range(2):
            d = np.zeros(2)
            d[p] = eps2
            fd2 = (
                terminal_cost(t_final, cfg, w, targets, pi_final + d)
                - 2 * terminal_cost(t_final, cfg, w, targets, pi_final)
                + terminal_cost(t_final, cfg, w, targets, pi_final - d)
            ) / eps2**2
            assert lf_xx[2 * p + 1, 2 * p + 1] == pytest.approx(fd2, rel=1e-4)

    def test_terminal_derivatives_match_fd(self, rng):
        cfg = make_config(n=3)
        w = CostWeights(q3=5000.0)
        t_final = rng.normal(loc=40.0, size=3)
        targets = rng.normal(loc=40.0, size=3)
        lf_x, lf_xx = terminal_derivatives(t_final, cfg, w, targets)
        eps = 1e-6
        for p in range(3):
            d = np.zeros(3)
            d[p] = eps
            fd = (
                terminal_cost(t_final + d, cfg, w, targets)
                - terminal_cost(t_final - d, cfg, w, targets)
            ) / (2 * eps)
            assert lf_x[2 * p] == pytest.approx(fd, rel=1e-6)
        assert np.allclose(lf_xx[0::2, 0::2], np.eye(3) * 2 * 5000.0)
        assert np.allclose(lf_xx[1::2, :], 0.0)


class TestTrajectoryCost:
    def test_stepwise_sum_matches_single_pass(self, rng):
        cfg = make_config(n=3, ds=0.2, horizon_steps=50)
        w = CostWeights(q1=500.0, q2=10.0, q3=5000.0, r1=1.0)
        accels = rng.uniform(-0.5, 0.5, size=(3, 50))
        t0 = np.array([0.0, -1.0, -2.0])
        pi0 = np.full(3, 0.05)
        state = rollout(t0, pi0, accels, cfg.ds)
        thetas = rng.uniform(-0.1, 0.1, size=50)
        targets = schedule_targets(cfg, t0)

        total, bd = trajectory_cost(
            state.arrival_times, state.slownesses, accels, thetas, cfg, w, targets
        )
        stepwise = 0.0
        for k in range(50):
            c, _ = running_cost(
                state.arrival_times[:, k], state.slownesses[:, k], accels[:, k],
                thetas[k], cfg, w,
            )
            stepwise += c
        stepwise += terminal_cost(state.arrival_times[:, -1], cfg, w, targets)
        assert total == pytest.approx(stepwise, rel=1e-9)
        assert bd.total == pytest.approx(stepwise, rel=1e-9)

    def test_reduces_to_terminal_when_tracking_perfect(self):
        cfg = make_config(n=3, ds=0.1, horizon_steps=100)
        w = CostWeights(q1=500.0, q2=0.0, q3=5000.0, r1=0.0)
        t0 = np.array([0.0, -1.0, -2.0])
        pi0 = np.full(3, 1.0 / cfg.target_speed)
        accels = np.zeros((3, 100))
        state = rollout(t0, pi0, accels, cfg.ds)
        targets = schedule_targets(cfg, t0)
        total, bd = trajectory_cost(
            state.arrival_times, state.slownesses, accels, np.zeros(100), cfg, w, targets
        )
        assert bd.cacc == pytest.approx(0.0, abs=1e-18)
        assert bd.effort == 0.0 and bd.ecology == 0.0
        assert total == pytest.approx(bd.terminal, abs=1e-18)
        assert total == pytest.approx(0.0, abs=1e-18)

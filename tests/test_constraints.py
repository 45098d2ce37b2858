"""Box-constraint evaluation and augmented-Lagrangian machinery."""

import numpy as np
import pytest

from ecoplatoon import constraints as cons
from ecoplatoon.errors import ConfigError


@pytest.fixture
def cset(config):
    return cons.ConstraintSet.from_config(config)


def al_single(rho, lam, slack):
    return cons.ALState(
        rho=np.full((1, 1), float(rho)),
        lam=np.full((1, 1), float(lam)),
        slack=np.full((1, 1), float(slack)),
    )


class TestEvaluate:
    def test_count_is_four_per_vehicle(self, config, cset):
        e = cons.evaluate(cset, np.full(3, 0.05), np.zeros(3))
        assert e.shape == (4 * config.n_vehicles,)

    def test_speed_cap_boundary(self, config, cset):
        pi = np.full(3, 1.0 / config.speed_limit)
        e = cons.evaluate(cset, pi, np.zeros(3))
        assert e[0::4] == pytest.approx(np.zeros(3), abs=1e-12)

    def test_accel_cap_boundary(self, cset):
        e = cons.evaluate(cset, np.full(3, 0.05), np.full(3, 3.0))
        assert e[2::4] == pytest.approx(np.zeros(3), abs=1e-12)

    def test_signs_match_direct_checks(self, config, cset, rng):
        for _ in range(50):
            pi = rng.uniform(0.01, 20.0, size=3)
            a = rng.uniform(-8.0, 6.0, size=3)
            e = cons.evaluate(cset, pi, a)
            for i in range(3):
                v = 1.0 / pi[i]
                assert (e[4 * i + 0] <= 0) == (v <= config.speed_limit)
                assert (e[4 * i + 1] <= 0) == (v >= config.speed_floor)
                assert (e[4 * i + 2] <= 0) == (a[i] <= 3.0)
                assert (e[4 * i + 3] <= 0) == (a[i] >= -5.0)


class TestAugmentedCost:
    def test_inactive_constraints_leave_cost_alone(self, cset):
        al = cons.ALState.initial(1, cset.n_constraints, 10.0)
        pi = np.full(3, 0.05)
        a = np.zeros(3)
        e = cons.evaluate(cset, pi, a)
        al = cons.update_slack(al, e[None, :])
        got = cons.augmented_running_cost(
            42.0,
            cset,
            cons.ALState(rho=al.rho[0], lam=al.lam[0], slack=al.slack[0]),
            pi,
            a,
        )
        assert got == pytest.approx(42.0)

    def test_single_constraint_substitution(self):
        # C = 0.2 with lam = 1, rho = 10 adds 1*0.2 + 5*0.04 = 0.4
        lam, rho, c = 1.0, 10.0, 0.2
        added = lam * c + 0.5 * rho * c**2
        assert added == pytest.approx(0.4)

    def test_matches_term_by_term(self, cset, rng):
        for _ in range(20):
            pi = rng.uniform(0.02, 0.2, size=3)
            a = rng.uniform(-6.0, 4.0, size=3)
            al = cons.ALState(
                rho=rng.uniform(1.0, 20.0, size=12),
                lam=rng.uniform(0.0, 5.0, size=12),
                slack=rng.uniform(0.0, 2.0, size=12),
            )
            e = cons.evaluate(cset, pi, a)
            expected = 7.0 + sum(
                al.lam[i] * (e[i] + al.slack[i]) + 0.5 * al.rho[i] * (e[i] + al.slack[i]) ** 2
                for i in range(12)
            )
            assert cons.augmented_running_cost(7.0, cset, al, pi, a) == pytest.approx(
                expected, rel=1e-12
            )

    def test_penalty_sums_every_step_and_constraint(self, cset, rng):
        pi = rng.uniform(0.02, 0.2, size=(3, 5))
        a = rng.uniform(-6.0, 4.0, size=(3, 5))
        al = cons.ALState(
            rho=rng.uniform(1.0, 20.0, size=(5, 12)),
            lam=rng.uniform(0.0, 5.0, size=(5, 12)),
            slack=rng.uniform(0.0, 2.0, size=(5, 12)),
        )
        e = cons.evaluate(cset, pi, a)
        c = e + al.slack
        expected = sum(
            al.lam[k, i] * c[k, i] + 0.5 * al.rho[k, i] * c[k, i] ** 2
            for k in range(5)
            for i in range(12)
        )
        assert cons.penalty(e, al) == pytest.approx(expected, rel=1e-12)


class TestDerivativeTerms:
    def test_zero_when_inactive(self, cset):
        pi = np.full(3, 0.05)
        a = np.zeros(3)
        al = cons.ALState.initial(1, 12, 10.0)
        e = cons.evaluate(cset, pi, a)
        al = cons.update_slack(al, e[None, :])
        lx, lu, lxx, luu, lux = cons.al_derivative_batch(
            cset, al, pi[:, None], a[:, None], active_set=True
        )
        for block in (lx, lu, lxx, luu, lux):
            assert np.allclose(block, 0.0)

    def test_accel_cap_gradient_shape(self, cset):
        # for the acceleration cap, de/da = 1 so the control gradient gains
        # lam + rho * (e + s); slacks zero the satisfied constraints first
        pi = np.full(3, 0.05)
        a = np.array([3.5, 0.0, 0.0])  # vehicle 1 violating the cap
        al = cons.ALState(rho=np.full(12, 10.0), lam=np.zeros(12), slack=np.zeros(12))
        e = cons.evaluate(cset, pi, a)
        al = cons.update_slack(al, e)
        lx, lu, *_ = cons.al_derivative_terms(cset, al, pi, a)
        expected = 10.0 * (e[2] + al.slack[2])
        assert lu[0] == pytest.approx(expected)
        assert lu[1] == lu[2] == 0.0

    def test_matches_fd_of_augmented_cost(self, cset, rng):
        for _ in range(30):
            pi = rng.uniform(0.025, 0.15, size=3)
            a = rng.uniform(-6.0, 4.0, size=3)
            al = cons.ALState(
                rho=rng.uniform(1.0, 20.0, size=12),
                lam=rng.uniform(0.0, 5.0, size=12),
                slack=rng.uniform(0.0, 2.0, size=12),
            )

            def aug(pi_, a_):
                return cons.augmented_running_cost(0.0, cset, al, pi_, a_)

            lx, lu, lxx, luu, lux = cons.al_derivative_terms(cset, al, pi, a)
            eps = 1e-7
            for p in range(3):
                d = np.zeros(3)
                d[p] = eps
                fd = (aug(pi + d, a) - aug(pi - d, a)) / (2 * eps)
                assert lx[2 * p + 1] == pytest.approx(fd, rel=1e-5, abs=1e-4)
                fd_u = (aug(pi, a + d) - aug(pi, a - d)) / (2 * eps)
                assert lu[p] == pytest.approx(fd_u, rel=1e-5, abs=1e-4)
            # curvature of the speed bounds via second differences; a wider
            # step keeps the quotient above roundoff noise
            eps2 = 2e-4
            for p in range(3):
                d = np.zeros(3)
                d[p] = eps2
                fd2 = (aug(pi + d, a) - 2 * aug(pi, a) + aug(pi - d, a)) / eps2**2
                assert lxx[2 * p + 1, 2 * p + 1] == pytest.approx(fd2, rel=5e-3, abs=0.5)
                fd2u = (aug(pi, a + d) - 2 * aug(pi, a) + aug(pi, a - d)) / eps2**2
                assert luu[p, p] == pytest.approx(fd2u, rel=5e-3, abs=0.5)
            assert np.allclose(lux, 0.0)


class TestUpdates:
    def test_slack_satisfied_constraint(self):
        al = al_single(10.0, 0.0, 0.0)
        out = cons.update_slack(al, np.array([[-1.0]]))
        assert out.slack[0, 0] == pytest.approx(1.0)

    def test_slack_projection_on_violation(self):
        al = al_single(10.0, 0.0, 0.0)
        out = cons.update_slack(al, np.array([[0.5]]))
        assert out.slack[0, 0] == 0.0

    def test_slack_with_multiplier(self):
        al = al_single(10.0, 2.0, 0.0)
        out = cons.update_slack(al, np.array([[-0.1]]))
        assert out.slack[0, 0] == pytest.approx(max(0.0, -0.2 + 0.1))

    def test_multiplier_unchanged_at_converged_constraint(self):
        al = al_single(10.0, 1.5, 0.0)
        # C = e + s = 0 leaves lambda untouched
        out = cons.update_multipliers(al, np.array([[0.0]]))
        assert out.lam[0, 0] == pytest.approx(1.5)

    def test_multiplier_scaled_step(self):
        al = al_single(10.0, 0.0, 0.3 * 0.0)
        out = cons.update_multipliers(al, np.array([[0.3]]))
        assert out.lam[0, 0] == pytest.approx(3.0)

    def test_multiplier_grows_monotonically_on_fixed_violation(self):
        al = al_single(10.0, 0.0, 0.0)
        e = np.array([[0.2]])
        lams = []
        for _ in range(5):
            al = cons.update_slack(al, e)
            al = cons.update_multipliers(al, e)
            lams.append(al.lam[0, 0])
        assert all(b > a for a, b in zip(lams, lams[1:]))

    def test_complementarity_after_slack_update(self, rng):
        # wherever the raw slack was kept, C = e + s = -lam/rho exactly
        rho = rng.uniform(1.0, 30.0, size=20)
        lam = rng.uniform(0.0, 5.0, size=20)
        e = rng.uniform(-2.0, 2.0, size=20)
        al = cons.ALState(rho=rho, lam=lam, slack=np.zeros(20))
        out = cons.update_slack(al, e)
        raw = -lam / rho - e
        kept = raw >= 0
        assert np.all(out.slack >= 0)
        np.testing.assert_allclose((e + out.slack)[kept], (-lam / rho)[kept], atol=1e-12)

    def test_escalation_only_on_violations(self):
        al = cons.ALState(rho=np.full(4, 10.0), lam=np.zeros(4), slack=np.zeros(4))
        e = np.array([-0.5, 0.5, 0.0, 2.0])
        out = cons.escalate_penalty(al, e, 10.0, tol=1e-3)
        np.testing.assert_allclose(out.rho, [10.0, 100.0, 10.0, 100.0])
        with pytest.raises(ConfigError):
            cons.escalate_penalty(al, e, 0.5)

    def test_augmented_at_least_base_under_projected_slack(self, cset, rng):
        # with fresh multipliers the projected penalty is non-negative; with
        # carried multipliers it can undershoot by at most sum(lam^2 / 2 rho),
        # which vanishes as rho grows
        for _ in range(50):
            pi = rng.uniform(0.02, 0.2, size=3)
            a = rng.uniform(-7.0, 5.0, size=3)
            e = cons.evaluate(cset, pi, a)
            base = float(rng.normal())

            al0 = cons.update_slack(
                cons.ALState(rho=rng.uniform(1.0, 50.0, size=12), lam=np.zeros(12), slack=np.zeros(12)),
                e,
            )
            assert cons.augmented_running_cost(base, cset, al0, pi, a) >= base - 1e-9

            lam = rng.uniform(0.0, 3.0, size=12)
            rho = rng.uniform(1.0, 50.0, size=12)
            al1 = cons.update_slack(cons.ALState(rho=rho, lam=lam, slack=np.zeros(12)), e)
            bound = base - float(np.sum(lam**2 / (2 * rho)))
            got = cons.augmented_running_cost(base, cset, al1, pi, a)
            assert got >= bound - 1e-9
            # escalating rho tenfold moves the augmented cost toward/above base
            al2 = cons.update_slack(cons.ALState(rho=100 * rho, lam=lam, slack=np.zeros(12)), e)
            got2 = cons.augmented_running_cost(base, cset, al2, pi, a)
            assert got2 >= base - float(np.sum(lam**2 / (200 * rho))) - 1e-9


def test_alstate_validation():
    with pytest.raises(ConfigError):
        cons.ALState(rho=np.zeros(3), lam=np.zeros(3), slack=np.zeros(3))
    with pytest.raises(ConfigError):
        cons.ALState(rho=np.ones(3), lam=-np.ones(3), slack=np.zeros(3))
    with pytest.raises(ConfigError):
        cons.ALState(rho=np.ones(3), lam=np.zeros(2), slack=np.zeros(3))


def test_max_violation():
    assert cons.max_violation(np.array([-1.0, -0.2])) == 0.0
    assert cons.max_violation(np.array([-1.0, 0.7, 0.2])) == pytest.approx(0.7)

"""Speed-bound evaluation and augmented-Lagrangian machinery."""

import dataclasses

import numpy as np
import pytest

from conftest import dense_blocks
from ecoplatoon import constraints as cons
from ecoplatoon.errors import ConfigError


def evaluate_k1(config, pi):
    """``evaluate`` at one step (K = 1): the (2N,) constraint values."""
    return cons.evaluate(config, pi[:, None])[0]


def al_blocks_k1(config, al, pi):
    """``al_derivative_batch`` at one step (K = 1), as dense (lx, lu, lxx, luu, lux)."""
    al_k1 = cons.ALState(rho=np.atleast_2d(al.rho), lam=np.atleast_2d(al.lam))
    terms = cons.al_derivative_batch(config, al_k1, pi[:, None])
    return tuple(block[0] for block in dense_blocks(terms))


def al_single(rho, lam):
    return cons.ALState(rho=np.full((1, 1), float(rho)), lam=np.full((1, 1), float(lam)))


def slack_form_penalty(e, lam, rho):
    """Oracle: lam C + rho C^2 / 2 per entry, with the projected slack C = max(e, -lam/rho)."""
    c = np.maximum(e, -lam / rho)
    return lam * c + 0.5 * rho * c * c


class TestEvaluate:
    def test_count_is_two_per_vehicle(self, config):
        e = cons.evaluate(config, np.full((3, 5), 0.05))
        assert e.shape == (5, 2 * config.n_vehicles)

    def test_speed_cap_boundary(self, config):
        pi = np.full((3, 5), 1.0 / config.speed_limit)
        e = cons.evaluate(config, pi)
        assert e[:, 0::2] == pytest.approx(np.zeros((5, 3)), abs=1e-12)

    def test_speed_floor_boundary(self, config):
        e = cons.evaluate(config, np.full((3, 5), 1.0 / config.speed_floor))
        assert e[:, 1::2] == pytest.approx(np.zeros((5, 3)), abs=1e-12)

    def test_signs_match_direct_checks(self, config, rng):
        pi = rng.uniform(0.01, 20.0, size=(3, 50))
        e = cons.evaluate(config, pi)
        for k in range(50):
            for i in range(3):
                v = 1.0 / pi[i, k]
                assert (e[k, 2 * i + 0] <= 0) == (v <= config.speed_limit)
                assert (e[k, 2 * i + 1] <= 0) == (v >= config.speed_floor)


class TestAugmentedCost:
    def test_inactive_constraints_leave_cost_alone(self, config):
        al = cons.ALState.initial(config, 1, 10.0)
        pi = np.full(3, 0.05)
        got = 42.0 + cons.penalty(cons.evaluate(config, pi[:, None]), al)
        assert got == 42.0

    def test_single_constraint_substitution(self):
        # e = 0.2 with lam = 1, rho = 10 adds 1*0.2 + 5*0.04 = 0.4
        assert cons.penalty(np.array([[0.2]]), al_single(10.0, 1.0)) == pytest.approx(0.4)
        # a satisfied constraint past the kink adds -lam^2 / (2 rho) = -0.05
        assert cons.penalty(np.array([[-0.5]]), al_single(10.0, 1.0)) == pytest.approx(-0.05)

    def test_equals_slack_form_oracle(self, rng):
        for _ in range(20):
            e = rng.uniform(-2.0, 2.0, size=(5, 12))
            lam = rng.uniform(0.0, 5.0, size=(5, 12))
            rho = rng.uniform(1.0, 100.0, size=(5, 12))
            al = cons.ALState(rho=rho, lam=lam)
            for k in range(5):
                for i in range(12):
                    one = cons.ALState(rho=rho[k, i], lam=lam[k, i])
                    expected = slack_form_penalty(e[k, i], lam[k, i], rho[k, i])
                    assert cons.penalty(e[k, i], one) == pytest.approx(expected, rel=1e-12)
            total = float(np.sum(slack_form_penalty(e, lam, rho)))
            assert cons.penalty(e, al) == pytest.approx(total, rel=1e-12)

    def test_matches_term_by_term(self, config, rng):
        for _ in range(20):
            pi = rng.uniform(0.02, 0.2, size=3)
            al = cons.ALState(
                rho=rng.uniform(1.0, 20.0, size=6), lam=rng.uniform(0.0, 5.0, size=6)
            )
            e = evaluate_k1(config, pi)
            expected = 7.0 + sum(
                slack_form_penalty(e[i], al.lam[i], al.rho[i]) for i in range(6)
            )
            assert 7.0 + cons.penalty(e, al) == pytest.approx(expected, rel=1e-12)

    def test_penalty_sums_every_step_and_constraint(self, config, rng):
        pi = rng.uniform(0.02, 0.2, size=(3, 5))
        al = cons.ALState(
            rho=rng.uniform(1.0, 20.0, size=(5, 6)), lam=rng.uniform(0.0, 5.0, size=(5, 6))
        )
        e = cons.evaluate(config, pi)
        expected = sum(
            slack_form_penalty(e[k, i], al.lam[k, i], al.rho[k, i])
            for k in range(5)
            for i in range(6)
        )
        assert cons.penalty(e, al) == pytest.approx(expected, rel=1e-12)


class TestDerivativeTerms:
    def test_zero_when_inactive(self, config):
        pi = np.full(3, 0.05)
        al = cons.ALState.initial(config, 1, 10.0)
        terms = cons.al_derivative_batch(config, al, pi[:, None])
        # the speed bounds touch the slowness only; the acceleration box is
        # held inside the solver's backward pass, not priced here
        assert sorted(terms) == ["pi", "pipi"]
        for series in terms.values():
            assert series.shape == (1, 3)
            assert np.allclose(series, 0.0)

    def test_slack_steps_give_the_formulas_positive_zeros(self, config):
        # steps whose bounds are all slack, with no multiplier, skip the
        # formulas; their zeros must be the +0.0 the formulas give, which
        # leave a sum bit for bit as it was
        pi = np.full((3, 4), 0.05)
        idle = cons.ALState.initial(config, 4, 10.0)
        lam = idle.lam.copy()
        lam[2, 0] = 1.0  # a multiplier on step 2 alone takes the formulas
        for al, slack in ((idle, [0, 1, 2, 3]), (cons.ALState(rho=idle.rho, lam=lam), [0, 1, 3])):
            for series in cons.al_derivative_batch(config, al, pi).values():
                assert series.shape == (4, 3)
                assert np.all(series[slack] == 0.0)
                assert not np.signbit(series[slack]).any()

    def test_speed_cap_gradient_shape(self, config):
        # for the speed cap, de/dpi = -1/pi^2, so the slowness gradient gains
        # minus the force max(0, lam + rho * e) over pi^2; satisfied
        # constraints exert none
        pi = np.array([1.0 / 40.0, 0.05, 0.05])  # vehicle 1 above the 33.5 m/s cap
        al = cons.ALState(rho=np.full(6, 10.0), lam=np.zeros(6))
        e = evaluate_k1(config, pi)
        lx, lu, *_ = al_blocks_k1(config, al, pi)
        assert e[0] > 0.0
        assert lx[1] == pytest.approx(-10.0 * e[0] / pi[0] ** 2)
        assert lx[3] == lx[5] == 0.0
        assert np.all(lu == 0.0)

    def test_matches_fd_of_augmented_cost(self, config, rng):
        # Away from the kink lam + rho e = 0, on both sides of it. A satisfied
        # constraint gets lam = 0, where the curvature rule agrees with the
        # flat penalty; a positive lam there is the next test's case.
        eps, eps2 = 1e-7, 2e-4
        checked = 0
        while checked < 30:
            pi = rng.uniform(0.025, 0.15, size=3)
            rho = rng.uniform(1.0, 20.0, size=6)
            lam = rng.uniform(0.0, 5.0, size=6)
            e = evaluate_k1(config, pi)
            lam[lam + rho * e <= 0.0] = 0.0
            al = cons.ALState(rho=rho, lam=lam)

            def active(pi_):
                return lam + rho * evaluate_k1(config, pi_) > 0.0

            steps = [sign * d for d in np.eye(3) * eps2 for sign in (-1.0, 1.0)]
            if any(np.any(active(pi + d) != active(pi)) for d in steps):
                continue
            checked += 1

            def aug(pi_):
                return cons.penalty(evaluate_k1(config, pi_), al)

            lx, lu, lxx, luu, lux = al_blocks_k1(config, al, pi)
            for p in range(3):
                d = np.zeros(3)
                d[p] = eps
                fd = (aug(pi + d) - aug(pi - d)) / (2 * eps)
                assert lx[2 * p + 1] == pytest.approx(fd, rel=1e-5, abs=1e-4)
            # curvature of the speed bounds via second differences; a wider
            # step keeps the quotient above roundoff noise
            for p in range(3):
                d = np.zeros(3)
                d[p] = eps2
                fd2 = (aug(pi + d) - 2 * aug(pi) + aug(pi - d)) / eps2**2
                assert lxx[2 * p + 1, 2 * p + 1] == pytest.approx(fd2, rel=5e-3, abs=0.5)
            assert np.all(lu == 0.0) and np.all(luu == 0.0) and np.all(lux == 0.0)

    def test_curvature_on_active_set_i_mu(self, config):
        # rho stays wherever lam + rho e > 0 or lam > 0: on a satisfied
        # constraint with a multiplier, at the kink lam + rho e = 0 included
        pi = np.array([1.0 / 20.0, 1.0 / 40.0, 1.0 / 20.0])
        rho = np.full(6, 10.0)
        lam = np.zeros(6)
        lam[0] = 2.0  # vehicle 1 speed cap: e < 0, w = 0
        lam[1] = 1.0  # vehicle 1 speed floor: e < 0, w = 0
        e = evaluate_k1(config, pi)
        lam[5] = -rho[5] * e[5]  # vehicle 3 speed floor: lam + rho e = 0 exactly
        al = cons.ALState(rho=rho, lam=lam)
        assert lam[5] + rho[5] * e[5] == 0.0
        lx, lu, lxx, luu, lux = al_blocks_k1(config, al, pi)
        inv_pi3 = 1.0 / pi**3
        inv_pi4 = 1.0 / pi**4
        # vehicle 1: both bounds inactive with lam > 0; vehicle 2: cap
        # violated (40 m/s), floor idle; vehicle 3: floor at the kink
        w_cap = 10.0 * e[2]
        assert lxx[1, 1] == (10.0 + 10.0) * inv_pi4[0]
        assert lxx[3, 3] == 10.0 * inv_pi4[1] + 2.0 * w_cap * inv_pi3[1]
        assert lxx[5, 5] == 10.0 * inv_pi4[2]
        np.testing.assert_array_equal(lx[1::2], [0.0, -w_cap / pi[1] ** 2, 0.0])
        # without multipliers the satisfied constraints carry nothing
        bare = al_blocks_k1(config, cons.ALState(rho=rho, lam=np.zeros(6)), pi)
        assert bare[2][1, 1] == bare[2][5, 5] == 0.0
        assert bare[2][3, 3] == lxx[3, 3]


class TestUpdates:
    def test_multiplier_unchanged_at_converged_constraint(self):
        al = al_single(10.0, 1.5)
        # e = 0 leaves lambda untouched
        out = cons.update_multipliers(al, np.array([[0.0]]), 10.0, tol=1e-3)
        assert out.lam[0, 0] == pytest.approx(1.5)

    def test_multiplier_scaled_step(self):
        al = al_single(10.0, 0.0)
        out = cons.update_multipliers(al, np.array([[0.3]]), 10.0, tol=1e-3)
        # the step reads rho before it is escalated
        assert out.lam[0, 0] == pytest.approx(3.0)
        assert out.rho[0, 0] == 100.0

    def test_multiplier_projected_to_zero(self):
        out = cons.update_multipliers(al_single(10.0, 2.0), np.array([[-0.5]]), 10.0, tol=1e-3)
        assert out.lam[0, 0] == 0.0

    def test_multiplier_grows_monotonically_on_fixed_violation(self):
        al = al_single(10.0, 0.0)
        e = np.array([[0.2]])
        lams = []
        for _ in range(5):
            al = cons.update_multipliers(al, e, 10.0, tol=1e-3)
            lams.append(al.lam[0, 0])
        assert all(b > a for a, b in zip(lams, lams[1:]))

    def test_escalation_only_on_violations(self):
        al = cons.ALState(rho=np.full(4, 10.0), lam=np.zeros(4))
        e = np.array([-0.5, 0.5, 0.0, 2.0])
        out = cons.update_multipliers(al, e, 10.0, tol=1e-3)
        np.testing.assert_allclose(out.rho, [10.0, 100.0, 10.0, 100.0])
        np.testing.assert_allclose(out.lam, [0.0, 5.0, 0.0, 20.0])
        with pytest.raises(ConfigError):
            cons.update_multipliers(al, e, 0.5, tol=1e-3)

    @pytest.mark.parametrize("factor", [np.nan, np.inf])
    def test_escalation_rejects_non_finite_factor(self, factor):
        al = cons.ALState(rho=np.full(2, 10.0), lam=np.zeros(2))
        with pytest.raises(ConfigError):
            cons.update_multipliers(al, np.array([0.5, -0.5]), factor, tol=1e-3)

    def test_escalation_factor_one_never_escalates(self):
        al = cons.ALState(rho=np.array([10.0, 3.0]), lam=np.zeros(2))
        out = cons.update_multipliers(al, np.array([0.5, 2.0]), 1.0, tol=1e-3)
        assert np.array_equal(out.rho, al.rho)

    def test_augmented_at_least_base_under_projected_slack(self, config, rng):
        # the PHR penalty is the slack form with the slack projected; with
        # fresh multipliers it is non-negative; with carried multipliers it
        # can undershoot by at most sum(lam^2 / 2 rho), which vanishes as rho
        # grows
        for _ in range(50):
            pi = rng.uniform(0.02, 0.2, size=3)
            e = evaluate_k1(config, pi)
            base = float(rng.normal())

            al0 = cons.ALState(rho=rng.uniform(1.0, 50.0, size=6), lam=np.zeros(6))
            assert base + cons.penalty(e, al0) >= base - 1e-9

            lam = rng.uniform(0.0, 3.0, size=6)
            rho = rng.uniform(1.0, 50.0, size=6)
            al1 = cons.ALState(rho=rho, lam=lam)
            bound = base - float(np.sum(lam**2 / (2 * rho)))
            got = base + cons.penalty(e, al1)
            assert got >= bound - 1e-9
            # escalating rho tenfold moves the augmented cost toward/above base
            al2 = cons.ALState(rho=100 * rho, lam=lam)
            got2 = base + cons.penalty(e, al2)
            assert got2 >= base - float(np.sum(lam**2 / (200 * rho))) - 1e-9


def test_alstate_validation():
    with pytest.raises(ConfigError):
        cons.ALState(rho=np.zeros(3), lam=np.zeros(3))
    with pytest.raises(ConfigError):
        cons.ALState(rho=np.ones(3), lam=-np.ones(3))
    with pytest.raises(ConfigError):
        cons.ALState(rho=np.ones(3), lam=np.zeros(2))
    with pytest.raises(ConfigError):
        cons.ALState(rho=np.array([1.0, np.nan]), lam=np.zeros(2))
    with pytest.raises(ConfigError):
        cons.ALState(rho=np.ones(2), lam=np.array([0.0, np.nan]))
    al = cons.ALState(rho=[1.0, 2.0], lam=[0.0, 3.0])
    assert [f.name for f in dataclasses.fields(al)] == ["rho", "lam"]


def test_max_violation():
    assert cons.max_violation(np.array([-1.0, -0.2])) == 0.0
    assert cons.max_violation(np.array([-1.0, 0.7, 0.2])) == pytest.approx(0.7)

"""Box-constraint evaluation and augmented-Lagrangian machinery."""

import dataclasses

import numpy as np
import pytest

from conftest import dense_blocks
from ecoplatoon import constraints as cons
from ecoplatoon.errors import ConfigError


@pytest.fixture
def cset(config):
    return cons.ConstraintSet.from_config(config)


def evaluate_k1(cset, pi, a):
    """``evaluate`` at one step (K = 1): the (4N,) constraint values."""
    return cons.evaluate(cset, pi[:, None], a[:, None])[0]


def al_blocks_k1(cset, al, pi, a):
    """``al_derivative_batch`` at one step (K = 1), as dense (lx, lu, lxx, luu, lux)."""
    al_k1 = cons.ALState(rho=np.atleast_2d(al.rho), lam=np.atleast_2d(al.lam))
    terms = cons.al_derivative_batch(cset, al_k1, pi[:, None], a[:, None])
    return tuple(block[0] for block in dense_blocks(terms))


def al_single(rho, lam):
    return cons.ALState(rho=np.full((1, 1), float(rho)), lam=np.full((1, 1), float(lam)))


def slack_form_penalty(e, lam, rho):
    """Oracle: lam C + rho C^2 / 2 per entry, with the projected slack C = max(e, -lam/rho)."""
    c = np.maximum(e, -lam / rho)
    return lam * c + 0.5 * rho * c * c


class TestEvaluate:
    def test_count_is_four_per_vehicle(self, config, cset):
        e = cons.evaluate(cset, np.full((3, 5), 0.05), np.zeros((3, 5)))
        assert e.shape == (5, 4 * config.n_vehicles)

    def test_speed_cap_boundary(self, config, cset):
        pi = np.full((3, 5), 1.0 / config.speed_limit)
        e = cons.evaluate(cset, pi, np.zeros((3, 5)))
        assert e[:, 0::4] == pytest.approx(np.zeros((5, 3)), abs=1e-12)

    def test_accel_cap_boundary(self, cset):
        e = cons.evaluate(cset, np.full((3, 5), 0.05), np.full((3, 5), 3.0))
        assert e[:, 2::4] == pytest.approx(np.zeros((5, 3)), abs=1e-12)

    def test_signs_match_direct_checks(self, config, cset, rng):
        pi = rng.uniform(0.01, 20.0, size=(3, 50))
        a = rng.uniform(-8.0, 6.0, size=(3, 50))
        e = cons.evaluate(cset, pi, a)
        for k in range(50):
            for i in range(3):
                v = 1.0 / pi[i, k]
                assert (e[k, 4 * i + 0] <= 0) == (v <= config.speed_limit)
                assert (e[k, 4 * i + 1] <= 0) == (v >= config.speed_floor)
                assert (e[k, 4 * i + 2] <= 0) == (a[i, k] <= 3.0)
                assert (e[k, 4 * i + 3] <= 0) == (a[i, k] >= -5.0)


class TestAugmentedCost:
    def test_inactive_constraints_leave_cost_alone(self, cset):
        al = cons.ALState.initial(1, cset.n_constraints, 10.0)
        pi = np.full(3, 0.05)
        a = np.zeros(3)
        got = 42.0 + cons.penalty(cons.evaluate(cset, pi[:, None], a[:, None]), al)
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

    def test_matches_term_by_term(self, cset, rng):
        for _ in range(20):
            pi = rng.uniform(0.02, 0.2, size=3)
            a = rng.uniform(-6.0, 4.0, size=3)
            al = cons.ALState(
                rho=rng.uniform(1.0, 20.0, size=12), lam=rng.uniform(0.0, 5.0, size=12)
            )
            e = evaluate_k1(cset, pi, a)
            expected = 7.0 + sum(
                slack_form_penalty(e[i], al.lam[i], al.rho[i]) for i in range(12)
            )
            assert 7.0 + cons.penalty(e, al) == pytest.approx(expected, rel=1e-12)

    def test_penalty_sums_every_step_and_constraint(self, cset, rng):
        pi = rng.uniform(0.02, 0.2, size=(3, 5))
        a = rng.uniform(-6.0, 4.0, size=(3, 5))
        al = cons.ALState(
            rho=rng.uniform(1.0, 20.0, size=(5, 12)), lam=rng.uniform(0.0, 5.0, size=(5, 12))
        )
        e = cons.evaluate(cset, pi, a)
        expected = sum(
            slack_form_penalty(e[k, i], al.lam[k, i], al.rho[k, i])
            for k in range(5)
            for i in range(12)
        )
        assert cons.penalty(e, al) == pytest.approx(expected, rel=1e-12)


class TestDerivativeTerms:
    def test_zero_when_inactive(self, cset):
        pi = np.full(3, 0.05)
        a = np.zeros(3)
        al = cons.ALState.initial(1, 12, 10.0)
        terms = cons.al_derivative_batch(cset, al, pi[:, None], a[:, None])
        assert sorted(terms) == ["a", "aa", "pi", "pipi"]
        for series in terms.values():
            assert series.shape == (1, 3)
            assert np.allclose(series, 0.0)

    def test_accel_cap_gradient_shape(self, cset):
        # for the acceleration cap, de/da = 1 so the control gradient gains
        # the force max(0, lam + rho * e); satisfied constraints exert none
        pi = np.full(3, 0.05)
        a = np.array([3.5, 0.0, 0.0])  # vehicle 1 violating the cap
        al = cons.ALState(rho=np.full(12, 10.0), lam=np.zeros(12))
        e = evaluate_k1(cset, pi, a)
        lx, lu, *_ = al_blocks_k1(cset, al, pi, a)
        expected = 10.0 * e[2]
        assert lu[0] == pytest.approx(expected)
        assert lu[1] == lu[2] == 0.0

    def test_matches_fd_of_augmented_cost(self, cset, rng):
        # Away from the kink lam + rho e = 0, on both sides of it. A satisfied
        # constraint gets lam = 0, where the curvature rule agrees with the
        # flat penalty; a positive lam there is the next test's case.
        eps, eps2 = 1e-7, 2e-4
        checked = 0
        while checked < 30:
            pi = rng.uniform(0.025, 0.15, size=3)
            a = rng.uniform(-6.0, 4.0, size=3)
            rho = rng.uniform(1.0, 20.0, size=12)
            lam = rng.uniform(0.0, 5.0, size=12)
            e = evaluate_k1(cset, pi, a)
            lam[lam + rho * e <= 0.0] = 0.0
            al = cons.ALState(rho=rho, lam=lam)

            def active(pi_, a_):
                return lam + rho * evaluate_k1(cset, pi_, a_) > 0.0

            steps = [sign * d for d in np.eye(3) * eps2 for sign in (-1.0, 1.0)]
            stencil = [(pi + d, a) for d in steps] + [(pi, a + d) for d in steps]
            if any(np.any(active(*x) != active(pi, a)) for x in stencil):
                continue
            checked += 1

            def aug(pi_, a_):
                return cons.penalty(evaluate_k1(cset, pi_, a_), al)

            lx, lu, lxx, luu, lux = al_blocks_k1(cset, al, pi, a)
            for p in range(3):
                d = np.zeros(3)
                d[p] = eps
                fd = (aug(pi + d, a) - aug(pi - d, a)) / (2 * eps)
                assert lx[2 * p + 1] == pytest.approx(fd, rel=1e-5, abs=1e-4)
                fd_u = (aug(pi, a + d) - aug(pi, a - d)) / (2 * eps)
                assert lu[p] == pytest.approx(fd_u, rel=1e-5, abs=1e-4)
            # curvature of the speed bounds via second differences; a wider
            # step keeps the quotient above roundoff noise
            for p in range(3):
                d = np.zeros(3)
                d[p] = eps2
                fd2 = (aug(pi + d, a) - 2 * aug(pi, a) + aug(pi - d, a)) / eps2**2
                assert lxx[2 * p + 1, 2 * p + 1] == pytest.approx(fd2, rel=5e-3, abs=0.5)
                fd2u = (aug(pi, a + d) - 2 * aug(pi, a) + aug(pi, a - d)) / eps2**2
                assert luu[p, p] == pytest.approx(fd2u, rel=5e-3, abs=0.5)
            assert np.allclose(lux, 0.0)

    def test_curvature_on_active_set_i_mu(self, config, cset):
        # rho stays wherever lam + rho e > 0 or lam > 0: on a satisfied
        # constraint with a multiplier, at the kink lam + rho e = 0 included
        pi = np.full(3, 1.0 / 20.0)
        a = np.array([0.0, 3.5, 0.0])
        rho = np.full(12, 10.0)
        lam = np.zeros(12)
        lam[0] = 2.0  # vehicle 1 speed cap: e < 0, w = 0
        lam[2] = 1.0  # vehicle 1 accel cap: e = -3, w = 0
        lam[10] = 30.0  # vehicle 3 accel cap: e = -3, lam + rho e = 0 exactly
        al = cons.ALState(rho=rho, lam=lam)
        e = evaluate_k1(cset, pi, a)
        assert lam[10] + rho[10] * e[10] == 0.0
        lx, lu, lxx, luu, lux = al_blocks_k1(cset, al, pi, a)
        inv_pi4 = 1.0 / pi**4
        # only vehicle 1's speed cap has lam > 0 among the speed bounds
        assert lxx[1, 1] == 10.0 * inv_pi4[0]
        assert lxx[3, 3] == lxx[5, 5] == 0.0
        assert lx[1] == 0.0
        # vehicle 1 inactive with lam > 0, vehicle 2 violated, vehicle 3 at the kink
        np.testing.assert_array_equal(np.diag(luu), [10.0, 10.0, 10.0])
        np.testing.assert_array_equal(lu, [0.0, 10.0 * e[6], 0.0])
        # without multipliers the satisfied constraints carry nothing
        bare = al_blocks_k1(cset, cons.ALState(rho=rho, lam=np.zeros(12)), pi, a)
        np.testing.assert_array_equal(np.diag(bare[3]), [0.0, 10.0, 0.0])
        assert bare[2][1, 1] == 0.0


class TestUpdates:
    def test_multiplier_unchanged_at_converged_constraint(self):
        al = al_single(10.0, 1.5)
        # e = 0 leaves lambda untouched
        out = cons.update_multipliers(al, np.array([[0.0]]))
        assert out.lam[0, 0] == pytest.approx(1.5)

    def test_multiplier_scaled_step(self):
        al = al_single(10.0, 0.0)
        out = cons.update_multipliers(al, np.array([[0.3]]))
        assert out.lam[0, 0] == pytest.approx(3.0)

    def test_multiplier_projected_to_zero(self):
        out = cons.update_multipliers(al_single(10.0, 2.0), np.array([[-0.5]]))
        assert out.lam[0, 0] == 0.0

    def test_multiplier_grows_monotonically_on_fixed_violation(self):
        al = al_single(10.0, 0.0)
        e = np.array([[0.2]])
        lams = []
        for _ in range(5):
            al = cons.update_multipliers(al, e)
            lams.append(al.lam[0, 0])
        assert all(b > a for a, b in zip(lams, lams[1:]))

    def test_escalation_only_on_violations(self):
        al = cons.ALState(rho=np.full(4, 10.0), lam=np.zeros(4))
        e = np.array([-0.5, 0.5, 0.0, 2.0])
        out = cons.escalate_penalty(al, e, 10.0, tol=1e-3)
        np.testing.assert_allclose(out.rho, [10.0, 100.0, 10.0, 100.0])
        with pytest.raises(ConfigError):
            cons.escalate_penalty(al, e, 0.5, tol=1e-3)

    @pytest.mark.parametrize("factor", [np.nan, np.inf])
    def test_escalation_rejects_non_finite_factor(self, factor):
        al = cons.ALState(rho=np.full(2, 10.0), lam=np.zeros(2))
        with pytest.raises(ConfigError):
            cons.escalate_penalty(al, np.array([0.5, -0.5]), factor, tol=1e-3)

    def test_escalation_factor_one_never_escalates(self):
        al = cons.ALState(rho=np.array([10.0, 3.0]), lam=np.zeros(2))
        out = cons.escalate_penalty(al, np.array([0.5, 2.0]), 1.0, tol=1e-3)
        assert np.array_equal(out.rho, al.rho)

    def test_augmented_at_least_base_under_projected_slack(self, cset, rng):
        # the PHR penalty is the slack form with the slack projected; with
        # fresh multipliers it is non-negative; with carried multipliers it
        # can undershoot by at most sum(lam^2 / 2 rho), which vanishes as rho
        # grows
        for _ in range(50):
            pi = rng.uniform(0.02, 0.2, size=3)
            a = rng.uniform(-7.0, 5.0, size=3)
            e = evaluate_k1(cset, pi, a)
            base = float(rng.normal())

            al0 = cons.ALState(rho=rng.uniform(1.0, 50.0, size=12), lam=np.zeros(12))
            assert base + cons.penalty(e, al0) >= base - 1e-9

            lam = rng.uniform(0.0, 3.0, size=12)
            rho = rng.uniform(1.0, 50.0, size=12)
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

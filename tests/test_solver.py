"""Backward/forward pass correctness and whole-solve behavior."""

import warnings

import numpy as np
import pytest

from conftest import make_config
from ecoplatoon import constraints as cons
from ecoplatoon import costs
from ecoplatoon.costs import CostWeights, schedule_targets, trajectory_cost
from ecoplatoon.errors import BackwardPassError, ConfigError
from ecoplatoon.platoon import ControlTrajectory, rollout
from ecoplatoon.solver import (
    _TEST_CHUNK,
    SolverOptions,
    backward_pass,
    forward_pass,
    receding_horizon_run,
    solve,
)
from ecoplatoon.terrain import SlopeProfile, build_preset

FLAT = SlopeProfile(breakpoints=[0.0, 5000.0], grades=[0.0])


def idle_al(cset, states, controls, rho=10.0):
    """AL state with slacks projected onto the current trajectory."""
    k = controls.accels.shape[1]
    al = cons.ALState.initial(k, cset.n_constraints, rho)
    e = cons.evaluate(cset, states.slownesses[:, :-1], controls.accels)
    return cons.update_slack(al, e)


def wide_open_config(**kw):
    """Config whose box constraints stay far from any test trajectory."""
    return make_config(a_min=-50.0, a_max=50.0, speed_limit=3000.0, speed_floor=1e-6, **kw)


def backward_with_ladder(states, ctrls, thetas, cfg, w, cset, al, targets, second=True):
    """Backward pass with the same escalation ladder the solver uses."""
    reg = 1e-9
    while True:
        try:
            return backward_pass(states, ctrls, thetas, cfg, w, cset, al, targets, reg, second)
        except BackwardPassError:
            reg *= 10.0
            if reg > 1e6:
                raise


def reference_backward_pass(
    states, controls, thetas, config, weights, cset, al, targets, regularization, second
):
    """Per-step Riccati sweep on separate blocks: the oracle for ``backward_pass``.

    Two solves per step (gains and feedforward) and the four-term value
    update. Returns (gains, feedforward, d1, d2, value gradient at step 0)
    or raises BackwardPassError with the same message as the solver.
    """
    t_traj, pi_traj, accels = states.arrival_times, states.slownesses, controls.accels
    n = config.n_vehicles
    dim = 2 * n
    k_steps = accels.shape[1]
    ds = config.ds
    stage = costs.stage_derivatives_batch(
        t_traj[:, :-1], pi_traj[:, :-1], accels, thetas, config, weights
    )
    al_blocks = cons.al_derivative_batch(cset, al, pi_traj[:, :-1], accels, active_set=True)
    lx, lu, lxx, luu, lux = (
        stage[name] + block
        for name, block in zip(("lx", "lu", "lxx", "luu", "lux"), al_blocks)
    )
    pi = pi_traj[:, :-1].T
    a = accels.T
    ti = np.arange(n) * 2
    pj = ti + 1
    ai = np.arange(n)
    f_x = np.zeros((k_steps, dim, dim))
    f_x[:, ti, ti] = 1.0
    f_x[:, ti, pj] = ds
    f_x[:, pj, pj] = 1.0 - 3.0 * a * pi**2 * ds
    f_u = np.zeros((k_steps, dim, n))
    f_u[:, pj, ai] = -(pi**3) * ds
    cxx = -6.0 * a * pi * ds
    cux = -3.0 * pi**2 * ds

    b_val, a_val = costs.terminal_derivatives(
        t_traj[:, -1], config, weights, targets, pi_final=pi_traj[:, -1]
    )
    gains = np.empty((k_steps, n, dim))
    ff = np.empty((k_steps, n))
    d1 = d2 = 0.0
    for k in range(k_steps - 1, -1, -1):
        fx, fu = f_x[k], f_u[k]
        q_x = lx[k] + fx.T @ b_val
        q_u = lu[k] + fu.T @ b_val
        q_xx = lxx[k] + fx.T @ a_val @ fx
        q_uu = luu[k] + fu.T @ a_val @ fu
        q_ux = lux[k] + fu.T @ a_val @ fx
        if second:
            q_xx[pj, pj] += b_val[pj] * cxx[k]
            q_ux[ai, pj] += b_val[pj] * cux[k]
        q_uu = 0.5 * (q_uu + q_uu.T) + regularization * np.eye(n)
        try:
            np.linalg.cholesky(q_uu)
        except np.linalg.LinAlgError:
            raise BackwardPassError(
                f"control Hessian not positive definite at step {k} "
                f"with shift {regularization:g}"
            )
        h_k = -np.linalg.solve(q_uu, q_ux)
        j_k = -np.linalg.solve(q_uu, q_u)
        gains[k], ff[k] = h_k, j_k
        d1 += j_k @ q_u
        d2 += j_k @ q_uu @ j_k
        a_val = q_xx + h_k.T @ q_uu @ h_k + q_ux.T @ h_k + h_k.T @ q_ux
        a_val = 0.5 * (a_val + a_val.T)
        b_val = q_x + h_k.T @ q_uu @ j_k + q_ux.T @ j_k + h_k.T @ q_u
    return gains, ff, d1, d2, b_val


def per_step_backward_pass(
    states, controls, thetas, config, weights, cset, al, targets, regularization, second
):
    """The stacked sweep with its Cholesky test inside every step.

    The oracle for the chunked test in ``backward_pass``: same blocks, same
    arithmetic in the same order, so results must agree bit for bit; a
    failing step raises at once. Returns (gains, feedforward, d1, d2,
    value Hessian at step 0, value gradient at step 0).
    """
    t_traj, pi_traj, accels = states.arrival_times, states.slownesses, controls.accels
    n = config.n_vehicles
    dim = 2 * n
    one = dim
    u0 = dim + 1
    size = 3 * n + 1
    k_steps = accels.shape[1]
    ds = config.ds
    ai = np.arange(n)
    ti = 2 * ai
    pj = ti + 1
    ui = u0 + ai

    stage_model = np.zeros((k_steps, size, size))

    def add_blocks(lx, lu, lxx, luu, lux):
        stage_model[:, :dim, :dim] += lxx
        stage_model[:, :dim, one] += lx
        stage_model[:, one, :dim] += lx
        stage_model[:, u0:, :dim] += lux
        stage_model[:, u0:, one] += lu
        stage_model[:, u0:, u0:] += luu

    stage = costs.stage_derivatives_batch(
        t_traj[:, :-1], pi_traj[:, :-1], accels, thetas, config, weights
    )
    add_blocks(stage["lx"], stage["lu"], stage["lxx"], stage["luu"], stage["lux"])
    add_blocks(*cons.al_derivative_batch(cset, al, pi_traj[:, :-1], accels, active_set=True))
    stage_model[:, ui, ui] += regularization

    pi = pi_traj[:, :-1].T
    a = accels.T
    jac = np.zeros((k_steps, dim + 1, size))
    jac[:, ti, ti] = 1.0
    jac[:, ti, pj] = ds
    jac[:, pj, pj] = 1.0 - 3.0 * a * pi**2 * ds
    jac[:, pj, ui] = -(pi**3) * ds
    jac[:, one, one] = 1.0
    curv = np.stack([-6.0 * a * pi * ds, -3.0 * pi**2 * ds], axis=1)
    curv_at = np.stack([pj * size + pj, ui * size + pj])
    grad_at = pj * (dim + 1) + one

    lf_x, lf_xx = costs.terminal_derivatives(
        t_traj[:, -1], config, weights, targets, pi_final=pi_traj[:, -1]
    )
    value = np.zeros((dim + 1, dim + 1))
    value[:dim, :dim] = lf_xx
    value[:dim, one] = lf_x
    value[one, :dim] = lf_x

    steps = np.empty((k_steps, n, dim + 1))
    control_rows = np.empty((k_steps, n, n + 1))
    for k in range(k_steps - 1, -1, -1):
        fk = jac[k]
        q = stage_model[k] + fk.T.dot(value.dot(fk))
        if second:
            q.flat[curv_at] += value.take(grad_at) * curv[k]
        q_uu = q[u0:, u0:]
        try:
            np.linalg.cholesky(q_uu)
        except np.linalg.LinAlgError:
            raise BackwardPassError(
                f"control Hessian not positive definite at step {k} "
                f"with shift {regularization:g}"
            )
        rhs = q[u0:, :u0]
        step = np.linalg.solve(q_uu, rhs)
        steps[k] = step
        control_rows[k] = q[u0:, one:]
        value = q[:u0, :u0] - rhs.T.dot(step)

    feedforward = -steps[:, :, one]
    q_u = control_rows[:, :, 0]
    q_uu = control_rows[:, :, 1:]
    return (
        -steps[:, :, :dim],
        feedforward,
        float(np.einsum("ki,ki->", feedforward, q_u)),
        float(np.einsum("ki,kij,kj->", feedforward, q_uu, feedforward)),
        value[:dim, :dim],
        value[:dim, one],
    )


def make_indefinite_at(monkeypatch, steps, lux_shift=0.0):
    """Shift the AL blocks both sweeps read so Q_uu is indefinite at ``steps``."""
    batch = cons.al_derivative_batch

    def shifted(*args, **kw):
        lx, lu, lxx, luu, lux = batch(*args, **kw)
        luu[steps] -= 1e8 * np.eye(luu.shape[1])
        lux[steps] += lux_shift
        return lx, lu, lxx, luu, lux

    monkeypatch.setattr(cons, "al_derivative_batch", shifted)


def random_instance(n, seed, r1=20.0, k_steps=60):
    """Random off-optimum trajectory with binding speed and acceleration bounds.

    Controls in +-1.5 m/s^2 against a +-1 m/s^2 box and a 21 m/s cap, with
    multipliers raised on the violated constraints, so the AL blocks are
    active; grades and arrival targets are random too.
    """
    rng = np.random.default_rng(seed)
    cfg = make_config(
        n=n, ds=0.5, horizon_steps=k_steps, a_min=-1.0, a_max=1.0, speed_limit=21.0
    )
    w = CostWeights(q1=500.0, q2=0.01, q3=5000.0, r1=r1, qv=2e4, power_floor=0.0)
    t0 = -np.arange(n) * cfg.headway + rng.uniform(-0.5, 0.5, n)
    pi0 = 1.0 / rng.uniform(18.0, 22.0, n)
    accels = rng.uniform(-1.5, 1.5, (n, k_steps))
    states = rollout(t0, pi0, accels, cfg.ds)
    ctrls = ControlTrajectory(accels=accels)
    cset = cons.ConstraintSet.from_config(cfg)
    e = cons.evaluate(cset, states.slownesses[:, :-1], accels)
    al = cons.ALState.initial(k_steps, cset.n_constraints, 10.0)
    al = cons.update_slack(cons.update_multipliers(al, e), e)
    assert np.any(al.lam > 0)
    thetas = rng.uniform(-0.06, 0.06, k_steps)
    targets = schedule_targets(cfg, t0) + rng.uniform(-1.0, 1.0, n)
    return states, ctrls, thetas, cfg, w, cset, al, targets


def assert_close(actual, expected, rtol=1e-10):
    """Agreement to ``rtol`` relative to the largest entry of ``expected``."""
    expected = np.asarray(expected)
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=rtol * np.abs(expected).max())


class TestBackwardPass:
    def test_one_step_matches_hand_solved_lqr(self):
        # K = 1, quadratic cost only (no power term), reference at a = 0:
        # the pass must reproduce the one-step LQR solution computed by hand
        # from frozen matrices.
        cfg = wide_open_config(n=2, ds=0.5, horizon_steps=1)
        w = CostWeights(q1=500.0, q2=0.0, q3=5000.0, r1=3.0, qv=0.0)
        t0 = np.array([0.0, -0.8])
        pi0 = np.array([0.05, 0.055])
        accels = np.zeros((2, 1))
        states = rollout(t0, pi0, accels, cfg.ds)
        ctrls = ControlTrajectory(accels=accels)
        cset = cons.ConstraintSet.from_config(cfg)
        al = idle_al(cset, states, ctrls)
        targets = schedule_targets(cfg, t0)
        thetas = np.zeros(1)
        reg = 1e-10
        bp = backward_pass(states, ctrls, thetas, cfg, w, cset, al, targets, reg, True)

        # independent one-step solution from explicit matrices
        ds = cfg.ds
        f_x = np.zeros((4, 4))
        for i, pi in enumerate(pi0):
            f_x[2 * i, 2 * i] = 1.0
            f_x[2 * i, 2 * i + 1] = ds
            f_x[2 * i + 1, 2 * i + 1] = 1.0  # a = 0 reference
        f_u = np.zeros((4, 2))
        f_u[1, 0] = -(pi0[0] ** 3) * ds
        f_u[3, 1] = -(pi0[1] ** 3) * ds
        # terminal value: A_K = d2 lf, b_K = d lf at the rolled-out state
        tK = states.arrival_times[:, 1]
        a_term = np.zeros((4, 4))
        a_term[0, 0] = a_term[2, 2] = 2 * 5000.0
        b_term = np.zeros(4)
        b_term[0] = 2 * 5000.0 * (tK[0] - targets[0])
        b_term[2] = 2 * 5000.0 * (tK[1] - targets[1])
        # stage derivatives at step 0 (gap + effort only)
        gap = t0[0] - t0[1] - cfg.headway
        l_x = np.zeros(4)
        l_x[0] = 2 * 500.0 * gap
        l_x[2] = -2 * 500.0 * gap
        l_xx = np.zeros((4, 4))
        l_xx[0, 0] = l_xx[2, 2] = 2 * 500.0
        l_xx[0, 2] = l_xx[2, 0] = -2 * 500.0
        l_uu = 2 * 3.0 * np.eye(2)
        q_x = l_x + f_x.T @ b_term
        q_u = f_u.T @ b_term
        q_xx = l_xx + f_x.T @ a_term @ f_x
        q_uu = l_uu + f_u.T @ a_term @ f_u + reg * np.eye(2)
        q_ux = f_u.T @ a_term @ f_x
        h_expect = -np.linalg.solve(q_uu, q_ux)
        j_expect = -np.linalg.solve(q_uu, q_u)

        np.testing.assert_allclose(bp.gains[0], h_expect, rtol=1e-10)
        np.testing.assert_allclose(bp.feedforward[0], j_expect, rtol=1e-10)

    def test_zero_gradients_give_zero_feedforward(self):
        cfg = wide_open_config(n=2, ds=0.5, horizon_steps=5)
        w = CostWeights(q1=0.0, q2=0.0, q3=0.0, r1=0.0, qv=0.0)
        t0 = np.array([0.0, -1.0])
        pi0 = np.full(2, 0.05)
        accels = np.zeros((2, 5))
        states = rollout(t0, pi0, accels, cfg.ds)
        ctrls = ControlTrajectory(accels=accels)
        cset = cons.ConstraintSet.from_config(cfg)
        al = idle_al(cset, states, ctrls)
        bp = backward_pass(
            states, ctrls, np.zeros(5), cfg, w, cset, al,
            schedule_targets(cfg, t0), 1e-6, True,
        )
        assert np.allclose(bp.feedforward, 0.0)
        assert bp.expected_decrease(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_value_gradient_matches_finite_differences(self, rng):
        # b_0 is the gradient of the rolled-out policy cost with respect to
        # the initial flat state; the identity is exact where the policy's
        # own rollout coincides with its reference, so the law is built at a
        # converged iterate of a randomized instance
        cfg = wide_open_config(n=2, ds=0.1, horizon_steps=3)
        w = CostWeights(q1=500.0, q2=0.01, q3=5000.0, r1=20.0, qv=0.0)
        t0 = np.array([0.0, -1.1])
        pi0 = np.array([0.05, 0.048])
        thetas = rng.uniform(-0.03, 0.03, size=3)
        profile = SlopeProfile(
            breakpoints=np.array([0.0, 0.1, 0.2, 10.0]),
            grades=np.array([thetas[0], thetas[1], thetas[2]]),
        )
        converged = solve(
            cfg, w, profile, t0, pi0, SolverOptions(tol_cost_rel=1e-12, max_inner=200)
        )
        states, ctrls = converged.states, converged.controls
        accels = ctrls.accels
        targets = converged.targets
        cset = cons.ConstraintSet.from_config(cfg)
        al = idle_al(cset, states, ctrls)
        bp = backward_with_ladder(states, ctrls, thetas, cfg, w, cset, al, targets)

        def policy_cost(x0_flat):
            t = np.empty((2, 4))
            pi = np.empty((2, 4))
            a = np.empty((2, 3))
            t[:, 0] = x0_flat[0::2]
            pi[:, 0] = x0_flat[1::2]
            dx = np.empty(4)
            for k in range(3):
                dx[0::2] = t[:, k] - states.arrival_times[:, k]
                dx[1::2] = pi[:, k] - states.slownesses[:, k]
                a[:, k] = accels[:, k] + bp.gains[k] @ dx + bp.feedforward[k]
                t[:, k + 1] = t[:, k] + pi[:, k] * cfg.ds
                pi[:, k + 1] = pi[:, k] - a[:, k] * pi[:, k] ** 3 * cfg.ds
            total, _ = trajectory_cost(t, pi, a, thetas, cfg, w, targets)
            return total

        x0 = np.empty(4)
        x0[0::2] = t0
        x0[1::2] = pi0
        eps = 1e-6
        for p in range(4):
            d = np.zeros(4)
            d[p] = eps
            fd = (policy_cost(x0 + d) - policy_cost(x0 - d)) / (2 * eps)
            assert bp.value0.gradient[p] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    @pytest.mark.parametrize("second", [True, False])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_stacked_sweep_matches_reference(self, n, second):
        args = random_instance(n, seed=n)
        bp = backward_pass(*args, 1e-6, second)
        gains, ff, d1, d2, grad = reference_backward_pass(*args, 1e-6, second)
        assert_close(bp.gains, gains)
        assert_close(bp.feedforward, ff)
        assert bp.d1 == pytest.approx(d1, rel=1e-10)
        assert bp.d2 == pytest.approx(d2, rel=1e-10)
        assert_close(bp.value0.gradient, grad)

    @pytest.mark.parametrize("second", [True, False])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_failing_shifts_match_reference(self, n, second):
        # with almost no effort weight the control Hessian is indefinite at
        # small shifts; both sweeps must fail at the same steps and shifts
        args = random_instance(n, seed=10 + n, r1=1e-3)

        def ladder(sweep):
            failures = []
            reg = 1e-9
            while True:
                try:
                    return failures, sweep(*args, reg, second)
                except BackwardPassError as exc:
                    failures.append(str(exc))
                    reg *= 10.0
                    if reg > 1e6:
                        raise

        failures, bp = ladder(backward_pass)
        ref_failures, (gains, ff, d1, d2, grad) = ladder(reference_backward_pass)
        assert failures
        assert failures == ref_failures
        assert_close(bp.gains, gains)
        assert_close(bp.feedforward, ff)
        assert bp.d1 == pytest.approx(d1, rel=1e-10)
        assert bp.d2 == pytest.approx(d2, rel=1e-10)
        assert_close(bp.value0.gradient, grad)


    @pytest.mark.parametrize("second", [True, False])
    @pytest.mark.parametrize("k_steps", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_chunked_sweep_bit_identical_to_per_step_test(self, n, k_steps, second):
        args = random_instance(n, seed=100 + n + k_steps, k_steps=k_steps)
        bp = backward_pass(*args, 1e-6, second)
        gains, ff, d1, d2, hessian, grad = per_step_backward_pass(*args, 1e-6, second)
        assert np.array_equal(bp.gains, gains)
        assert np.array_equal(bp.feedforward, ff)
        assert bp.d1 == d1
        assert bp.d2 == d2
        assert np.array_equal(bp.value0.hessian, hessian)
        assert np.array_equal(bp.value0.gradient, grad)

    @pytest.mark.parametrize("second", [True, False])
    @pytest.mark.parametrize(
        "k_steps, failing",
        [
            (200, [199]),  # step K-1, the top of the first chunk
            (200, [136]),  # the bottom of the first chunk
            (200, [135]),  # the top of the second chunk
            (200, [72]),  # the bottom of the second chunk
            (200, [0]),  # step 0, in the short last chunk
            (200, [150, 140]),  # two failing steps in one chunk
            (200, [100, 30]),  # in different chunks
            (40, [20]),  # K below the chunk length
            (40, [39, 0]),
        ],
    )
    def test_failing_step_named_like_per_step_test(self, monkeypatch, k_steps, failing, second):
        assert _TEST_CHUNK == 64  # the cases above sit on its chunk edges
        args = random_instance(3, seed=k_steps, k_steps=k_steps)
        make_indefinite_at(monkeypatch, failing)
        with pytest.raises(BackwardPassError) as want:
            per_step_backward_pass(*args, 1e-6, second)
        with pytest.raises(BackwardPassError) as got:
            backward_pass(*args, 1e-6, second)
        assert str(got.value) == str(want.value)
        assert f"at step {max(failing)} " in str(got.value)

    def test_thrown_away_steps_raise_no_warning(self, monkeypatch):
        # a huge Q_ux at the failing step makes the steps after it, down to
        # the bottom of the chunk, overflow; that work is thrown away and
        # must stay silent, as a sweep that stopped at the failing step is
        args = random_instance(3, seed=200, k_steps=200)
        make_indefinite_at(monkeypatch, [150], lux_shift=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BackwardPassError) as want:
                per_step_backward_pass(*args, 1e-6, True)
            with pytest.raises(BackwardPassError) as got:
                backward_pass(*args, 1e-6, True)
        assert str(got.value) == str(want.value)
        assert "at step 150 " in str(got.value)

    def test_zero_control_hessian_fails_definiteness_not_solve(self):
        # no effort or power weight, no terminal speed term and no active
        # bound: Q_uu is exactly zero at the last step, where the solve
        # itself fails; the sweep must still report the definiteness failure
        cfg = wide_open_config(n=2, ds=0.5, horizon_steps=100)
        w = CostWeights(q1=500.0, q2=0.0, q3=5000.0, r1=0.0, qv=0.0)
        t0 = np.array([0.0, -1.2])
        accels = np.zeros((2, 100))
        states = rollout(t0, [0.05, 0.05], accels, cfg.ds)
        ctrls = ControlTrajectory(accels=accels)
        cset = cons.ConstraintSet.from_config(cfg)
        args = (states, ctrls, np.zeros(100), cfg, w, cset, idle_al(cset, states, ctrls))
        targets = schedule_targets(cfg, t0)
        with pytest.raises(BackwardPassError, match="at step 99 with shift 0$") as got:
            backward_pass(*args, targets, 0.0, True)
        with pytest.raises(BackwardPassError) as want:
            per_step_backward_pass(*args, targets, 0.0, True)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("failing", [None, 150])
    def test_solve_failure_on_a_later_step(self, monkeypatch, failing):
        # a singular solve at step 140 is a thrown-away step when a step
        # above it in the chunk failed the test; otherwise it propagates
        args = random_instance(3, seed=4, k_steps=200)
        if failing is not None:
            make_indefinite_at(monkeypatch, [failing])
        solve_one = np.linalg.solve
        calls = []

        def singular_at_140(a, b):
            calls.append(None)
            if len(calls) == 200 - 140:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve_one(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_at_140)
        if failing is None:
            with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                backward_pass(*args, 1e-6, True)
        else:
            with pytest.raises(BackwardPassError, match="at step 150 "):
                backward_pass(*args, 1e-6, True)


def textbook_rollout(states, controls, bp, alpha, ds):
    """Column-by-column closed-loop rollout: the oracle for ``forward_pass``."""
    t_ref, pi_ref, a_ref = states.arrival_times, states.slownesses, controls.accels
    n, k_steps = a_ref.shape
    t = np.empty_like(t_ref)
    pi = np.empty_like(pi_ref)
    a = np.empty_like(a_ref)
    t[:, 0] = t_ref[:, 0]
    pi[:, 0] = pi_ref[:, 0]
    dx = np.empty(2 * n)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(k_steps):
            dx[0::2] = t[:, k] - t_ref[:, k]
            dx[1::2] = pi[:, k] - pi_ref[:, k]
            u = a_ref[:, k] + bp.gains[k] @ dx + alpha * bp.feedforward[k]
            pi_next = pi[:, k] - u * pi[:, k] ** 3 * ds
            if not np.all(np.isfinite(pi_next)) or np.any(pi_next <= 0.0):
                return None
            a[:, k] = u
            t[:, k + 1] = t[:, k] + pi[:, k] * ds
            pi[:, k + 1] = pi_next
    return t, pi, a


class TestForwardPass:
    def test_zero_law_reproduces_trajectory(self):
        cfg = wide_open_config(n=2, ds=0.2, horizon_steps=20)
        accels = np.full((2, 20), 0.1)
        states = rollout([0.0, -1.0], [0.05, 0.05], accels, cfg.ds)
        ctrls = ControlTrajectory(accels=accels)

        class ZeroLaw:
            gains = np.zeros((20, 2, 4))
            feedforward = np.zeros((20, 2))

        t, pi, a = forward_pass(states, ctrls, ZeroLaw(), 1.0, cfg.ds)
        np.testing.assert_allclose(t, states.arrival_times)
        np.testing.assert_allclose(pi, states.slownesses)
        np.testing.assert_allclose(a, accels)

    def test_full_step_applies_unscaled_feedforward(self):
        # at step length 1 the control update is exactly u + h dx + j
        cfg = wide_open_config(n=2, ds=0.2, horizon_steps=2)
        accels = np.zeros((2, 2))
        states = rollout([0.0, -1.0], [0.05, 0.05], accels, cfg.ds)
        ctrls = ControlTrajectory(accels=accels)
        rng = np.random.default_rng(1)

        class Law:
            gains = rng.normal(scale=0.1, size=(2, 2, 4))
            feedforward = rng.normal(scale=0.1, size=(2, 2))

        law = Law()
        t, pi, a = forward_pass(states, ctrls, law, 1.0, cfg.ds)
        # step 0: dx = 0 so u = j exactly
        np.testing.assert_allclose(a[:, 0], law.feedforward[0])
        # step 1: dx propagated through the true dynamics
        dx = np.empty(4)
        dx[0::2] = t[:, 1] - states.arrival_times[:, 1]
        dx[1::2] = pi[:, 1] - states.slownesses[:, 1]
        np.testing.assert_allclose(a[:, 1], law.gains[1] @ dx + law.feedforward[1])

    def test_rollout_failure_returns_none(self):
        cfg = wide_open_config(n=2, ds=1.0, horizon_steps=1)
        accels = np.zeros((2, 1))
        states = rollout([0.0, -1.0], [0.5, 0.5], accels, cfg.ds)
        ctrls = ControlTrajectory(accels=accels)

        class HugeLaw:
            gains = np.zeros((1, 2, 4))
            feedforward = np.full((1, 2), 50.0)

        assert forward_pass(states, ctrls, HugeLaw(), 1.0, cfg.ds) is None

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 1e-4])
    def test_bit_identical_to_textbook_rollout(self, alpha):
        args = random_instance(3, seed=7)
        states, ctrls, cfg = args[0], args[1], args[3]
        bp = backward_with_ladder(*args)
        got = forward_pass(states, ctrls, bp, alpha, cfg.ds)
        want = textbook_rollout(states, ctrls, bp, alpha, cfg.ds)
        assert got is not None and want is not None
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_rejects_rollout_leaving_domain_mid_horizon(self):
        args = random_instance(3, seed=7)
        states, ctrls, cfg = args[0], args[1], args[3]

        class Law:
            gains = np.zeros((60, 3, 6))
            feedforward = np.zeros((60, 3))

        Law.feedforward[30, 1] = 1e4  # drives the second slowness negative at step 30
        assert textbook_rollout(states, ctrls, Law(), 1.0, cfg.ds) is None
        assert forward_pass(states, ctrls, Law(), 1.0, cfg.ds) is None
        assert forward_pass(states, ctrls, Law(), 1e-6, cfg.ds) is not None


class TestSolve:
    def test_equilibrium_fixed_point(self):
        # exact stationary setup: flat road, no power cost, platoon spaced on
        # schedule -> controls stay at machine zero within two iterations
        cfg = make_config(n=3, ds=0.1, horizon_steps=2000)
        w = CostWeights(q1=500.0, q2=0.0, q3=5000.0, r1=50.0, qv=0.0)
        t0 = -np.arange(3) * cfg.headway
        pi0 = np.full(3, 1.0 / cfg.target_speed)
        report = solve(cfg, w, FLAT, t0, pi0, SolverOptions())
        assert report.converged
        assert len(report.iterations) <= 2
        assert np.max(np.abs(report.controls.accels)) <= 1e-4

    def test_accepted_iterations_monotone_in_augmented_cost(self):
        cfg = make_config(n=3, ds=0.5, horizon_steps=1600)
        w = CostWeights(q1=500.0, q2=0.01, q3=5000.0, r1=20.0, qv=2e4)
        t0 = -np.arange(3) * cfg.headway
        pi0 = np.full(3, 1.0 / cfg.target_speed)
        report = solve(cfg, w, build_preset("collector"), t0, pi0, SolverOptions())
        augs = [it.aug_cost for it in report.iterations]
        assert all(b <= a + 1e-9 for a, b in zip(augs, augs[1:]))
        assert report.converged

    def test_warm_restart_converges_immediately(self):
        cfg = make_config(n=2, ds=0.5, horizon_steps=400)
        w = CostWeights(q1=500.0, q2=0.01, q3=5000.0, r1=20.0, qv=2e4)
        t0 = -np.arange(2) * cfg.headway
        pi0 = np.full(2, 1.0 / cfg.target_speed)
        report = solve(cfg, w, build_preset("collector"), t0, pi0, SolverOptions())
        assert report.converged
        again = solve(
            cfg, w, build_preset("collector"), t0, pi0, SolverOptions(),
            initial_controls=report.controls.accels,
        )
        assert again.converged
        assert len(again.iterations) <= 1

    def test_interior_gradient_small_at_convergence(self):
        # finite-difference gradient of the true cost at an interior optimum
        cfg = wide_open_config(n=2, ds=1.0, horizon_steps=50)
        w = CostWeights(q1=500.0, q2=0.0, q3=5000.0, r1=20.0, qv=0.0)
        t0 = np.array([0.0, -0.6])  # 0.4 s gap error to work out
        pi0 = np.full(2, 1.0 / cfg.target_speed)
        opts = SolverOptions(tol_cost_rel=1e-13, max_inner=200)
        report = solve(cfg, w, FLAT, t0, pi0, opts)
        assert report.converged
        targets = report.targets
        accels = report.controls.accels

        def cost_of(a_flat):
            a = a_flat.reshape(accels.shape)
            state = rollout(t0, pi0, a, cfg.ds)
            total, _ = trajectory_cost(
                state.arrival_times, state.slownesses, a, np.zeros(50), cfg, w, targets
            )
            return total

        grad = np.empty(accels.size)
        eps = 1e-6
        flat = accels.ravel().copy()
        for p in range(flat.size):
            d = np.zeros(flat.size)
            d[p] = eps
            grad[p] = (cost_of(flat + d) - cost_of(flat - d)) / (2 * eps)
        assert np.max(np.abs(grad)) <= 1e-4

    def test_constraint_activation_and_satisfaction(self):
        # a speed-limited scenario: start above the cap forces the AL loop
        # to engage and end feasible
        cfg = make_config(n=2, ds=0.5, horizon_steps=400, speed_limit=21.0)
        w = CostWeights(q1=500.0, q2=0.01, q3=5000.0, r1=20.0, qv=2e4)
        t0 = -np.arange(2) * cfg.headway
        pi0 = np.full(2, 1.0 / 20.5)
        report = solve(cfg, w, build_preset("collector"), t0, pi0, SolverOptions())
        speeds = 1.0 / report.states.slownesses
        assert report.converged
        assert report.max_violation <= 1e-3
        assert np.max(speeds) <= 21.0 + 1e-3

    def test_expected_decrease_bookkeeping_is_exact(self):
        # the line-search reference must be the true local model of the
        # closed-loop cost: d1 and d2 are checked against derivatives of
        # J(alpha) measured by finite differences
        cfg = wide_open_config(n=2, ds=0.5, horizon_steps=300)
        w = CostWeights(q1=500.0, q2=0.0, q3=5000.0, r1=10.0, qv=0.0)
        t0 = np.array([0.0, -0.4])
        pi0 = np.full(2, 1.0 / cfg.target_speed)
        warm = solve(cfg, w, FLAT, t0, pi0, SolverOptions(max_inner=4, max_outer=1))
        states, ctrls = warm.states, warm.controls
        cset = cons.ConstraintSet.from_config(cfg)
        al = idle_al(cset, states, ctrls)
        thetas = np.zeros(300)
        targets = schedule_targets(cfg, t0)
        bp = backward_with_ladder(states, ctrls, thetas, cfg, w, cset, al, targets)

        def j_of(alpha):
            t, pi, a = forward_pass(states, ctrls, bp, alpha, cfg.ds)
            total, _ = trajectory_cost(t, pi, a, thetas, cfg, w, targets)
            return total

        h = 1e-3
        j0 = j_of(0.0)
        d1_fd = (j_of(h) - j_of(-h)) / (2 * h)
        d2_fd = (j_of(h) - 2 * j0 + j_of(-h)) / h**2
        assert bp.d1 == pytest.approx(d1_fd, rel=1e-5)
        assert bp.d2 == pytest.approx(d2_fd, rel=1e-4)

    def test_first_full_step_decrease_within_armijo_band(self):
        # where the quadratic model is trusted (the leading full-scale step),
        # the realized decrease stays within a factor band of the prediction
        cfg = wide_open_config(n=2, ds=0.5, horizon_steps=300)
        w = CostWeights(q1=500.0, q2=0.0, q3=5000.0, r1=10.0, qv=0.0)
        t0 = np.array([0.0, -0.4])
        pi0 = np.full(2, 1.0 / cfg.target_speed)
        report = solve(cfg, w, FLAT, t0, pi0, SolverOptions())
        assert report.converged
        first = report.iterations[0]
        assert 0.25 <= first.actual_decrease / first.expected_decrease <= 2.0

    def test_gap_tracking_optimum_reached(self):
        # with the power term off and little effort penalty, the solution
        # approaches the pure gap-tracking optimum: following errors die out
        # along the horizon
        cfg = wide_open_config(n=3, ds=0.5, horizon_steps=800)
        w = CostWeights(q1=500.0, q2=0.0, q3=50.0, r1=0.5, qv=0.0)
        t0 = np.array([0.0, -0.5, -2.4])  # follower errors +0.5 s and -0.4 s
        pi0 = np.full(3, 1.0 / cfg.target_speed)
        report = solve(cfg, w, FLAT, t0, pi0, SolverOptions())
        assert report.converged
        from ecoplatoon.stability import following_errors

        errors = following_errors(report.states, cfg)
        initial = np.abs(errors[:, 0]).max()
        final_band = np.abs(errors[:, -len(errors[0]) // 10 :]).max()
        assert final_band < 0.01 * initial

    @pytest.mark.parametrize("accel", [1e5, np.nan])
    def test_infeasible_initial_controls_rejected(self, accel):
        cfg = wide_open_config(n=2, ds=1.0, horizon_steps=10)
        w = CostWeights()
        t0 = -np.arange(2) * cfg.headway
        pi0 = np.full(2, 1.0 / cfg.target_speed)
        init = np.zeros((2, 10))
        init[1, 4] = accel
        with pytest.raises(ConfigError, match="initial controls are infeasible"):
            solve(cfg, w, FLAT, t0, pi0, SolverOptions(), initial_controls=init)

    def test_determinism(self):
        cfg = make_config(n=3, ds=0.5, horizon_steps=1600)
        w = CostWeights(q1=500.0, q2=0.01, q3=5000.0, r1=20.0, qv=2e4)
        t0 = -np.arange(3) * cfg.headway
        pi0 = np.full(3, 1.0 / cfg.target_speed)
        rep1 = solve(cfg, w, build_preset("collector"), t0, pi0, SolverOptions())
        rep2 = solve(cfg, w, build_preset("collector"), t0, pi0, SolverOptions())
        assert np.array_equal(rep1.controls.accels, rep2.controls.accels)
        assert np.array_equal(rep1.states.arrival_times, rep2.states.arrival_times)
        assert rep1.cost.total == rep2.cost.total

    def test_ilqr_mode_converges_to_same_optimum(self):
        cfg = make_config(n=2, ds=0.5, horizon_steps=400)
        w = CostWeights(q1=500.0, q2=0.01, q3=5000.0, r1=20.0, qv=2e4)
        t0 = -np.arange(2) * cfg.headway
        pi0 = np.full(2, 1.0 / cfg.target_speed)
        full = solve(cfg, w, build_preset("collector"), t0, pi0, SolverOptions())
        gn = solve(
            cfg, w, build_preset("collector"), t0, pi0,
            SolverOptions(use_second_order=False),
        )
        assert full.converged and gn.converged
        assert gn.cost.total == pytest.approx(full.cost.total, rel=1e-4)


class TestRecedingHorizon:
    def test_full_route_window_matches_one_shot(self):
        cfg = make_config(n=2, ds=0.5, horizon_steps=200)
        w = CostWeights(q1=500.0, q2=0.01, q3=5000.0, r1=20.0, qv=2e4)
        t0 = -np.arange(2) * cfg.headway
        pi0 = np.full(2, 1.0 / cfg.target_speed)
        prof = build_preset("collector")
        one = solve(cfg, w, prof, t0, pi0, SolverOptions(), targets=None)
        run = receding_horizon_run(
            cfg, w, prof, t0, pi0, SolverOptions(),
            window_m=cfg.route_length, replan_m=cfg.route_length,
        )
        assert len(run.exec_times) == 1
        np.testing.assert_allclose(
            run.controls.accels, one.controls.accels, rtol=1e-8, atol=1e-10
        )

    def test_stitched_run_satisfies_constraints(self):
        cfg = make_config(n=3, ds=1.0, horizon_steps=800)
        w = CostWeights(q1=500.0, q2=0.01, q3=5000.0, r1=20.0, qv=2e4)
        t0 = -np.arange(3) * cfg.headway
        pi0 = np.full(3, 1.0 / cfg.target_speed)
        run = receding_horizon_run(
            cfg, w, build_preset("collector"), t0, pi0, SolverOptions(),
            window_m=40.0, replan_m=10.0,
        )
        cset = cons.ConstraintSet.from_config(cfg)
        e = cons.evaluate(cset, run.states.slownesses[:, :-1], run.controls.accels)
        assert cons.max_violation(e) <= 1e-3
        assert run.states.arrival_times.shape[1] == run.controls.accels.shape[1] + 1
        # executed plan covers the whole route
        assert run.controls.accels.shape[1] == cfg.horizon_steps

    def test_exec_times_recorded_per_window(self):
        cfg = make_config(n=2, ds=1.0, horizon_steps=100)
        w = CostWeights(q1=500.0, q2=0.01, q3=5000.0, r1=20.0, qv=2e4)
        t0 = -np.arange(2) * cfg.headway
        pi0 = np.full(2, 1.0 / cfg.target_speed)
        run = receding_horizon_run(
            cfg, w, build_preset("collector"), t0, pi0, SolverOptions(),
            window_m=20.0, replan_m=5.0, route_length=100.0,
        )
        assert len(run.exec_times) == len(run.windows)
        assert all(t > 0 for t in run.exec_times)

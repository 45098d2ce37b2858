"""Backward/forward pass correctness and whole-solve behavior."""

import dataclasses
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from conftest import dense_blocks, make_config, receding_grid
from ecoplatoon import constraints as cons
from ecoplatoon import costs
from ecoplatoon import solver as solver_mod
from ecoplatoon.costs import CostWeights, schedule_targets, trajectory_cost
from ecoplatoon.errors import BackwardPassError, ConfigError
from ecoplatoon.experiments import run_eco
from ecoplatoon.platoon import ControlTrajectory, rollout
from ecoplatoon.scenario import load_scenario, override_ds, resolve_scenario_path
from ecoplatoon.solver import (
    _BUILD_CHUNK,
    _COARSE_FACTOR,
    SolverOptions,
    backward_pass,
    forward_pass,
    receding_horizon_run,
    solve,
)
from ecoplatoon.stability import PerturbationSpec, run_perturbation
from ecoplatoon.terrain import SlopeProfile, build_preset

FLAT = SlopeProfile(breakpoints=[0.0, 5000.0], grades=[0.0])


def idle_al(cfg, controls, rho=10.0):
    """AL state with no multipliers, one constraint row per step of ``controls``."""
    return cons.ALState.initial(cfg, controls.accels.shape[1], rho)


def wide_open_config(**kw):
    """Config whose box constraints stay far from any test trajectory."""
    return make_config(a_min=-50.0, a_max=50.0, speed_limit=3000.0, speed_floor=1e-6, **kw)


def backward_with_ladder(
    states, ctrls, thetas, cfg, w, al, targets, second=True, grid=None
):
    """Backward pass with the same escalation ladder the solver uses."""
    reg = 1e-9
    while True:
        try:
            return backward_pass(
                states, ctrls, thetas, cfg, w, al, targets, reg, second, grid
            )
        except BackwardPassError:
            reg *= 10.0
            if reg > 1e6:
                raise


def reference_backward_pass(
    states, controls, thetas, config, weights, al, targets, regularization, second
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
    al_terms = cons.al_derivative_batch(config, al, pi_traj[:, :-1], accels)
    lx, lu, lxx, luu, lux = (
        s_block + al_block
        for s_block, al_block in zip(dense_blocks(stage), dense_blocks(al_terms))
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

    b_val, _, a_val, _, _ = (
        block[0]
        for block in dense_blocks(
            costs.terminal_derivatives(t_traj[:, -1], config, weights, targets, pi_traj[:, -1])
        )
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
    states, controls, thetas, config, weights, al, targets, regularization, second
):
    """The stacked sweep with its Cholesky test inside every step.

    The oracle for the chunked test in ``backward_pass``: same blocks, same
    arithmetic in the same order, so results must agree bit for bit; a
    step whose Q_uu is not finite or fails Cholesky raises at once. Returns
    (gains, feedforward, d1, d2, value Hessian at step 0, value gradient at
    step 0).
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
    add_blocks(*dense_blocks(stage))
    add_blocks(*dense_blocks(cons.al_derivative_batch(config, al, pi_traj[:, :-1], accels)))
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

    lf_x, _, lf_xx, _, _ = dense_blocks(
        costs.terminal_derivatives(t_traj[:, -1], config, weights, targets, pi_traj[:, -1])
    )
    value = np.zeros((dim + 1, dim + 1))
    value[:dim, :dim] = lf_xx[0]
    value[:dim, one] = lf_x[0]
    value[one, :dim] = lf_x[0]

    steps = np.empty((k_steps, n, dim + 1))
    control_rows = np.empty((k_steps, n, n + 1))
    for k in range(k_steps - 1, -1, -1):
        fk = jac[k]
        q = stage_model[k] + fk.T.dot(value.dot(fk))
        if second:
            q.flat[curv_at] += value.take(grad_at) * curv[k]
        q_uu = q[u0:, u0:]
        try:
            # cholesky factors inf and NaN without raising
            if not np.all(np.isfinite(q_uu)):
                raise np.linalg.LinAlgError
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


def climb(sweep, args, second, reg):
    """Run ``sweep`` on ``args`` from shift ``reg`` up the solver's tenfold ladder.

    Returns (the failure messages, the result, the shift it completed at).
    """
    failures = []
    while True:
        try:
            return failures, sweep(*args, reg, second), reg
        except BackwardPassError as exc:
            failures.append(str(exc))
            reg *= 10.0
            if reg > 1e6:
                raise


def make_indefinite_at(monkeypatch, steps, grad_shift=0.0):
    """Shift the AL terms both sweeps read so Q_uu is indefinite at ``steps``.

    ``grad_shift`` is added to the control gradient q_u at those steps.
    """
    batch = cons.al_derivative_batch

    def shifted(*args, **kw):
        terms = batch(*args, **kw)
        terms["aa"][steps] -= 1e8
        terms["a"][steps] += grad_shift
        return terms

    monkeypatch.setattr(cons, "al_derivative_batch", shifted)


def random_instance(n, seed, r1=20.0, k_steps=60, grid=None):
    """Random off-optimum trajectory with binding speed and acceleration bounds.

    Controls in +-1.5 m/s^2 against a +-1 m/s^2 box and a 21 m/s cap, with
    multipliers raised on the violated constraints, so the AL blocks are
    active; grades and arrival targets are random too. The trajectory is
    rolled out on ``grid`` (None: uniform).
    """
    rng = np.random.default_rng(seed)
    cfg = make_config(
        n=n, ds=0.5, horizon_steps=k_steps, a_min=-1.0, a_max=1.0, speed_limit=21.0
    )
    w = CostWeights(q1=500.0, q2=0.01, q3=5000.0, r1=r1, qv=2e4, power_floor=0.0)
    t0 = -np.arange(n) * cfg.headway + rng.uniform(-0.5, 0.5, n)
    pi0 = 1.0 / rng.uniform(18.0, 22.0, n)
    accels = rng.uniform(-1.5, 1.5, (n, k_steps))
    states = rollout(t0, pi0, accels, cfg.ds, grid)
    ctrls = ControlTrajectory(accels=accels)
    e = cons.evaluate(cfg, states.slownesses[:, :-1], accels)
    al = cons.ALState.initial(cfg, k_steps, 10.0)
    al = cons.update_multipliers(al, e, 1.0, tol=1e-3)  # factor 1: rho stays 10
    assert np.any(al.lam > 0)
    thetas = rng.uniform(-0.06, 0.06, k_steps)
    targets = schedule_targets(cfg, t0) + rng.uniform(-1.0, 1.0, n)
    return states, ctrls, thetas, cfg, w, al, targets


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
        al = idle_al(cfg, ctrls)
        targets = schedule_targets(cfg, t0)
        thetas = np.zeros(1)
        reg = 1e-10
        bp = backward_pass(states, ctrls, thetas, cfg, w, al, targets, reg, True)

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
        al = idle_al(cfg, ctrls)
        bp = backward_pass(
            states, ctrls, np.zeros(5), cfg, w, al,
            schedule_targets(cfg, t0), 1e-6, True,
        )
        assert np.allclose(bp.feedforward, 0.0)
        assert bp.expected_decrease(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_value_gradient_matches_finite_differences(self):
        # d1 = sum_k j'Q_u, built from the value gradients of the sweep, is
        # the slope in the step length alpha of the augmented cost of the
        # closed-loop rollout at alpha = 0; checked against a central
        # difference of forward_pass in both modes, on uniform steps and on
        # a mixed grid, where every step enters with its own length
        eps = 1e-6
        mixed = np.repeat([1, 3, 1, 5], 15)
        for n, grid in ((2, None), (3, None), (5, None), (3, mixed)):
            args = random_instance(n, seed=n, grid=grid)
            states, ctrls, thetas, cfg, w, al, targets = args

            for second in (True, False):
                bp = backward_pass(*args, 1e-6, second, grid)

                def aug_cost(alpha):
                    t, pi, a = forward_pass(states, ctrls, bp, alpha, cfg.ds, grid)
                    total, _ = trajectory_cost(t, pi, a, thetas, cfg, w, targets, grid)
                    return total + cons.penalty(cons.evaluate(cfg, pi[:, :-1], a), al)

                fd = (aug_cost(eps) - aug_cost(-eps)) / (2 * eps)
                assert bp.d1 == pytest.approx(fd, rel=1e-7)

    @pytest.mark.parametrize("second", [True, False])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_stacked_sweep_matches_reference(self, n, second):
        args = random_instance(n, seed=n)
        bp = backward_pass(*args, 1e-6, second)
        gains, ff, d1, d2, _ = reference_backward_pass(*args, 1e-6, second)
        assert_close(bp.gains, gains)
        assert_close(bp.feedforward, ff)
        assert bp.d1 == pytest.approx(d1, rel=1e-10)
        assert bp.d2 == pytest.approx(d2, rel=1e-10)

    @pytest.mark.parametrize("second", [True, False])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_failing_shifts_match_reference(self, n, second):
        # with almost no effort weight the control Hessian is indefinite at
        # small shifts; both sweeps must fail at the same steps and shifts
        args = random_instance(n, seed=10 + n, r1=1e-3)
        failures, bp, _ = climb(backward_pass, args, second, 1e-9)
        ref_failures, (gains, ff, d1, d2, _), _ = climb(
            reference_backward_pass, args, second, 1e-9
        )
        assert failures
        assert failures == ref_failures
        assert_close(bp.gains, gains)
        assert_close(bp.feedforward, ff)
        assert bp.d1 == pytest.approx(d1, rel=1e-10)
        assert bp.d2 == pytest.approx(d2, rel=1e-10)

    @pytest.mark.parametrize("second", [True, False])
    # horizons inside one chunk, the chunk edges (_BUILD_CHUNK = 512) and a
    # horizon of two whole chunks and a short third
    @pytest.mark.parametrize("k_steps", [1, 63, 64, 65, 200, 511, 512, 513, 1100])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_chunked_sweep_bit_identical_to_per_step_test(self, n, k_steps, second):
        # a long random plan can need more than the first shift; both
        # sweeps must fail alike on the way up
        args = random_instance(n, seed=100 + n + k_steps, k_steps=k_steps)
        failures, bp, _ = climb(backward_pass, args, second, 1e-6)
        ref_failures, want, _ = climb(per_step_backward_pass, args, second, 1e-6)
        gains, ff, d1, d2, _, _ = want
        assert failures == ref_failures
        assert np.array_equal(bp.gains, gains)
        assert np.array_equal(bp.feedforward, ff)
        assert bp.d1 == d1
        assert bp.d2 == d2

    @pytest.mark.parametrize("second", [True, False])
    @pytest.mark.parametrize(
        "k_steps, failing",
        [
            # K = 200 is one chunk, which the sweep runs through before its test
            (200, [199]),  # step K-1, the top of the chunk
            (200, [136]),
            (200, [135]),
            (200, [72]),
            (200, [0]),  # step 0, the bottom of the chunk
            (200, [150, 140]),  # two failing steps, the higher named
            (200, [100, 30]),  # far apart: the sweep runs past both
            (40, [20]),  # K below the chunk length
            (40, [39, 0]),
            # chunks of K = 1100: [588, 1100), [76, 588), [0, 76)
            (1100, [1099]),  # step K-1, the top of the first chunk
            (1100, [588]),  # the bottom of the first chunk
            (1100, [587]),  # the top of the second chunk
            (1100, [0]),  # step 0, in the short last chunk
            (1100, [600, 500]),  # in different chunks
            (1100, [300, 40]),  # in the second and the last chunk
        ],
    )
    def test_failing_step_named_like_per_step_test(self, monkeypatch, k_steps, failing, second):
        assert _BUILD_CHUNK == 512  # the K = 1100 cases sit on its chunk edges
        args = random_instance(3, seed=k_steps, k_steps=k_steps)
        # the least shift at which the plan itself passes, so that only the
        # steps made indefinite fail
        _, _, reg = climb(per_step_backward_pass, args, second, 1e-6)
        make_indefinite_at(monkeypatch, failing)
        with pytest.raises(BackwardPassError) as want:
            per_step_backward_pass(*args, reg, second)
        with pytest.raises(BackwardPassError) as got:
            backward_pass(*args, reg, second)
        assert str(got.value) == str(want.value)
        assert f"at step {max(failing)} " in str(got.value)

    def test_traced_peak_bounded_by_build_chunks(self):
        # Blocks and Jacobians live one build chunk at a time: K-long stacks
        # of them alone would take 27.7 MB at K = 8000, N = 5. The K-long
        # series and chunk buffers are released before the gains are
        # allocated, so the pass stays under 15 MB (13.5 MB; 17.1 MB when
        # they were still held).
        args = random_instance(5, seed=1, k_steps=8000)
        tracemalloc.start()
        try:
            backward_pass(*args, 1e4, False)  # a shift at which the pass completes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 15e6

    def test_thrown_away_steps_raise_no_warning(self, monkeypatch):
        # a huge q_u at the failing step makes the steps after it, down to
        # the bottom of the chunk, overflow; that work is thrown away and
        # must stay silent, as a sweep that stopped at the failing step is
        args = random_instance(3, seed=200, k_steps=200)
        make_indefinite_at(monkeypatch, [150], grad_shift=1e200)
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
        args = (states, ctrls, np.zeros(100), cfg, w, idle_al(cfg, ctrls))
        targets = schedule_targets(cfg, t0)
        with pytest.raises(BackwardPassError, match="at step 99 with shift 0$") as got:
            backward_pass(*args, targets, 0.0, True)
        with pytest.raises(BackwardPassError) as want:
            per_step_backward_pass(*args, targets, 0.0, True)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("failing", [None, 150])
    def test_non_finite_control_hessian_fails_its_step(self, monkeypatch, failing):
        # cholesky factors a NaN Q_uu without raising; the test must still
        # fail its step, unless a step above it in the chunk failed first
        args = random_instance(3, seed=4, k_steps=200)
        if failing is not None:
            make_indefinite_at(monkeypatch, [failing])
        batch = cons.al_derivative_batch

        def nan_at_140(*call_args, **kw):
            terms = batch(*call_args, **kw)
            terms["aa"][140] = np.nan
            return terms

        monkeypatch.setattr(cons, "al_derivative_batch", nan_at_140)
        with pytest.raises(BackwardPassError) as want:
            per_step_backward_pass(*args, 1e-6, True)
        with pytest.raises(BackwardPassError) as got:
            backward_pass(*args, 1e-6, True)
        assert str(got.value) == str(want.value)
        assert f"at step {failing or 140} " in str(got.value)

    def test_private_gufunc_contracts(self):
        # the sweep calls two private gufuncs of numpy.linalg directly and
        # relies on their signatures and float64 loops; a numpy release
        # that changes them fails here rather than inside the sweep
        assert _umath_linalg.solve.signature == "(m,m),(m,n)->(m,n)"
        assert _umath_linalg.cholesky_lo.signature == "(m,m)->(m,m)"
        assert "dd->d" in _umath_linalg.solve.types
        assert "d->d" in _umath_linalg.cholesky_lo.types

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_lapack_solve_matches_numpy_solve(self, n):
        # the sweep calls the gufunc behind np.linalg.solve directly, with
        # a row of its (K, N, 2N+1) output stack as the positional output
        rng = np.random.default_rng(n)
        root = rng.standard_normal((n, n))
        q_uu = root @ root.T + n * np.eye(n)
        rhs = rng.standard_normal((2 * n + 1, n)).T  # a strided view, as in the sweep
        steps = np.full((3, n, 2 * n + 1), np.nan)
        row = steps[1]
        with np.errstate(**solver_mod._SWEEP_ERRSTATE):
            got = _umath_linalg.solve(q_uu, rhs, row, signature="dd->d")
        assert got is row
        assert np.array_equal(row, np.linalg.solve(q_uu, rhs))
        assert np.isnan(steps[[0, 2]]).all()
        singular = np.zeros((n, n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(**solver_mod._SWEEP_ERRSTATE):
                nan = _umath_linalg.solve(singular, rhs, signature="dd->d")
        assert np.isnan(nan).all()


def cholesky_verdict(hessians):
    """Finite and factored by ``np.linalg.cholesky``: the oracle for ``_test_definite``."""
    if not np.isfinite(hessians).all():
        return False
    try:
        np.linalg.cholesky(hessians)
    except np.linalg.LinAlgError:
        return False
    return True


class TestDefinite:
    @staticmethod
    def stacks(n):
        """Named (4, n, n) stacks: definite, one indefinite, singular or NaN, three failing."""
        rng = np.random.default_rng(n)
        root = rng.standard_normal((4, n, n))
        definite = root @ root.transpose(0, 2, 1) + n * np.eye(n)
        indefinite = definite.copy()
        indefinite[2] -= 2.0 * np.trace(definite[2]) * np.eye(n)
        singular = definite.copy()
        singular[1, -1, :] = singular[1, :, -1] = 0.0  # its last pivot is exactly 0
        nan = definite.copy()
        nan[3, n - 1, 0] = np.nan  # lower triangle (the diagonal when n = 1)
        mixed = indefinite.copy()  # fails at 0, 1 and 2, passes at 3
        mixed[0] = nan[3]
        mixed[1] = singular[1]
        return {
            "definite": definite, "indefinite": indefinite, "singular": singular, "nan": nan,
            "mixed": mixed,
        }

    @staticmethod
    def raised(stack, base):
        """The message ``_test_definite`` raises for ``stack`` at ``base``, or None.

        Called as the sweep calls it, under ``_SWEEP_ERRSTATE``; any warning fails.
        """
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(**solver_mod._SWEEP_ERRSTATE):
                try:
                    solver_mod._test_definite(stack, base, 1e-6)
                except BackwardPassError as exc:
                    return str(exc)
        return None

    @pytest.mark.parametrize("case", ["definite", "indefinite", "singular", "nan", "mixed"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_verdict_matches_numpy_cholesky(self, n, case):
        # the raised step is the highest matrix that fails the oracle
        stack = self.stacks(n)[case]
        failing = [j for j, matrix in enumerate(stack) if not cholesky_verdict(matrix)]
        assert (not failing) is (case == "definite") is cholesky_verdict(stack)
        want = (
            f"control Hessian not positive definite at step {100 + failing[-1]} with shift 1e-06"
            if failing
            else None
        )
        assert self.raised(stack, 100) == want
        # one matrix at a time, each named by its own step
        for j, matrix in enumerate(stack):
            got = self.raised(matrix[None], 100 + j)
            assert (got is None) is cholesky_verdict(matrix)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_inf_in_the_unread_triangle_fails(self, n):
        # the factorization reads the lower triangle only, so the finiteness
        # test alone fails a Q_uu with inf above the diagonal
        stack = self.stacks(n)["definite"]
        stack[1, 0, n - 1] = np.inf
        np.linalg.cholesky(stack)  # factors without raising
        assert "at step 1 " in self.raised(stack, 0)
        assert self.raised(stack[2:], 2) is None


def textbook_rollout(states, controls, bp, alpha, ds, grid=None):
    """Column-by-column closed-loop rollout: the oracle for ``forward_pass``.

    Step k is ds times ``grid[k]`` long (``grid`` None: ds).
    """
    t_ref, pi_ref, a_ref = states.arrival_times, states.slownesses, controls.accels
    n, k_steps = a_ref.shape
    multiples = np.ones(k_steps) if grid is None else np.asarray(grid, dtype=float)
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
            h = ds * multiples[k]
            pi_next = pi[:, k] - u * pi[:, k] ** 3 * h
            if not np.all(np.isfinite(pi_next)) or np.any(pi_next <= 0.0):
                return None
            a[:, k] = u
            t[:, k + 1] = t[:, k] + pi[:, k] * h
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
    @pytest.mark.parametrize("receding", [False, True])
    # K = 1100 spans more than one build chunk of the backward pass
    @pytest.mark.parametrize("k_steps", [60, 1100])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_bit_identical_to_textbook_rollout(self, n, k_steps, receding, alpha):
        grid = receding_grid(k_steps) if receding else None
        args = random_instance(n, seed=7, k_steps=k_steps, grid=grid)
        states, ctrls, cfg = args[0], args[1], args[3]
        # a Gauss-Newton law: on the long random plans of the receding grid
        # the DDP ladder runs out of shifts
        bp = backward_with_ladder(*args, second=False, grid=grid)
        got = forward_pass(states, ctrls, bp, alpha, cfg.ds, grid)
        want = textbook_rollout(states, ctrls, bp, alpha, cfg.ds, grid)
        # a long step may leave the domain; the shortest never does here
        assert (got is None) == (want is None)
        assert want is not None or alpha > 1e-4
        for g, w in zip(got or (), want or ()):
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
        # One iteration from zero controls leaves a plan far enough from the
        # optimum that d1 and d2 stand well above the roundoff of J at h.
        warm = solve(
            cfg, w, FLAT, t0, pi0, SolverOptions(max_inner=1, max_outer=1),
            initial_controls=np.zeros((2, 300)),
        )
        states, ctrls = warm.states, warm.controls
        al = idle_al(cfg, ctrls)
        thetas = np.zeros(300)
        targets = schedule_targets(cfg, t0)
        bp = backward_with_ladder(states, ctrls, thetas, cfg, w, al, targets)

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

    @staticmethod
    def short_collector():
        """The collector preset at ds = 1 m over its first 60 steps."""
        scen = override_ds(load_scenario(resolve_scenario_path("collector")), 1.0)
        cfg = dataclasses.replace(scen.config, horizon_steps=60)
        t0, pi0, targets = scen.initial_state()
        return (cfg, scen.weights, scen.profile), t0, pi0, targets, scen.solver_options

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_targets_rejected(self, value):
        problem, t0, pi0, targets, opts = self.short_collector()
        targets = targets.copy()
        targets[1] = value
        with pytest.raises(ConfigError, match="targets must be finite"):
            solve(*problem, t0, pi0, opts, targets=targets)

    def test_too_few_targets_rejected(self):
        problem, t0, pi0, targets, opts = self.short_collector()
        with pytest.raises(ConfigError, match=r"targets must have shape \(3,\)"):
            solve(*problem, t0, pi0, opts, targets=targets[:2])

    def test_nan_entry_time_rejected(self):
        problem, t0, pi0, targets, opts = self.short_collector()
        t0 = t0.copy()
        t0[2] = np.nan
        with pytest.raises(ConfigError, match="initial times must be finite"):
            solve(*problem, t0, pi0, opts, targets=targets)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_slowness_rejected(self, value):
        problem, t0, pi0, targets, opts = self.short_collector()
        pi0 = pi0.copy()
        pi0[0] = value
        with pytest.raises(ConfigError, match="initial slownesses must be finite"):
            solve(*problem, t0, pi0, opts, targets=targets)

    @pytest.mark.parametrize("position", [np.nan, np.inf, "12"])
    def test_non_finite_start_position_rejected(self, position):
        problem, t0, pi0, targets, opts = self.short_collector()
        # "12" is a string, not a number
        with pytest.raises(ConfigError, match="start position must be (finite|a number)"):
            solve(*problem, t0, pi0, opts, targets=targets, start_position=position)

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


class TestStepGrid:
    """Per-step lengths: a grid of ones is the default grid bit for bit."""

    def test_ones_grid_bit_identical_in_rollout_and_cost(self):
        states, ctrls, thetas, cfg, w, _, targets = random_instance(3, seed=21)
        ones = np.ones(cfg.horizon_steps)
        t0, pi0 = states.arrival_times[:, 0], states.slownesses[:, 0]
        plain = rollout(t0, pi0, ctrls.accels, cfg.ds)
        gridded = rollout(t0, pi0, ctrls.accels, cfg.ds, ones)
        assert np.array_equal(plain.arrival_times, gridded.arrival_times)
        assert np.array_equal(plain.slownesses, gridded.slownesses)
        args = (states.arrival_times, states.slownesses, ctrls.accels, thetas, cfg, w, targets)
        plain_total, plain_bd = trajectory_cost(*args)
        gridded_total, gridded_bd = trajectory_cost(*args, ones)
        assert plain_total == gridded_total and plain_bd == gridded_bd

    @pytest.mark.parametrize("second", [True, False])
    def test_ones_grid_bit_identical_in_both_passes(self, second):
        args = random_instance(3, seed=22)
        states, ctrls, cfg = args[0], args[1], args[3]
        ones = np.ones(cfg.horizon_steps)
        plain = backward_pass(*args, 1e-6, second)
        gridded = backward_pass(*args, 1e-6, second, ones)
        assert np.array_equal(plain.gains, gridded.gains)
        assert np.array_equal(plain.feedforward, gridded.feedforward)
        assert plain.d1 == gridded.d1 and plain.d2 == gridded.d2
        for alpha in (1.0, 0.3):
            got = forward_pass(states, ctrls, plain, alpha, cfg.ds)
            want = forward_pass(states, ctrls, plain, alpha, cfg.ds, ones)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    def test_ones_grid_bit_identical_in_a_whole_solve(self):
        # a cold hierarchy (800 -> 160 steps) and a binding comfort box
        scen = comfort_scenario(ds=1.0)
        t0, pi0, targets = scen.initial_state()
        args = (scen.config, scen.weights, scen.profile, t0, pi0, scen.solver_options)
        plain = solve(*args, targets=targets)
        gridded = solve(*args, targets=targets, grid=np.ones(scen.config.horizon_steps))
        assert max(it.outer for it in plain.iterations) >= 1
        assert_same_plan(plain, gridded)
        assert plain.coarse_iterations == gridded.coarse_iterations
        assert plain.max_violation == gridded.max_violation

    def test_grid_of_twos_is_the_problem_at_twice_ds(self):
        # the box binds, so the penalty weights must scale with the steps too
        _, w, prof, t0, pi0 = cold_problem(300)
        fine = make_config(n=2, ds=0.5, horizon_steps=300, a_min=-0.3, a_max=0.3)
        coarse = dataclasses.replace(fine, ds=1.0)
        zeros = np.zeros((2, 300))
        doubled = solve(
            fine, w, prof, t0, pi0, SolverOptions(), initial_controls=zeros,
            grid=np.full(300, 2),
        )
        plain = solve(coarse, w, prof, t0, pi0, SolverOptions(), initial_controls=zeros)
        assert doubled.converged and plain.converged
        assert max(it.outer for it in plain.iterations) >= 1
        np.testing.assert_allclose(
            doubled.controls.accels, plain.controls.accels, rtol=1e-9, atol=1e-12
        )
        assert doubled.cost.total == pytest.approx(plain.cost.total, rel=1e-12)
        # the default targets cover the grid's road, not horizon_steps * ds
        assert np.array_equal(doubled.targets, plain.targets)

    def test_mixed_grid_solve_is_the_problem_on_that_grid(self):
        # the plan and its cost are those of the same problem on the mixed
        # grid: its states are the rollout of its controls step by step
        cfg, w, prof, t0, pi0 = cold_problem(60, ds=0.5)
        grid = np.array([1] * 40 + [5] * 20)
        cfg = dataclasses.replace(cfg, horizon_steps=grid.size)
        report = solve(cfg, w, prof, t0, pi0, SolverOptions(), grid=grid)
        assert report.converged
        again = rollout(t0, pi0, report.controls.accels, cfg.ds, grid)
        np.testing.assert_allclose(
            again.arrival_times, report.states.arrival_times, rtol=1e-13
        )
        np.testing.assert_allclose(again.slownesses, report.states.slownesses, rtol=1e-13)
        assert report.targets == pytest.approx(t0 + cfg.ds * 140 / cfg.target_speed)

    @pytest.mark.parametrize(
        "grid",
        [
            np.ones(99),
            np.ones((1, 100)),
            np.r_[np.ones(99), 1.5],
            np.r_[np.ones(99), 0.0],
            np.r_[np.ones(99), -5.0],
            np.r_[np.ones(99), np.nan],
            np.r_[np.ones(99), np.inf],
            ["1"] * 99 + ["x"],
        ],
        ids=["short", "2d", "fraction", "zero", "negative", "nan", "inf", "text"],
    )
    def test_malformed_grid_rejected_before_any_solve(self, monkeypatch, grid):
        cfg, w, prof, t0, pi0 = cold_problem(100)

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the grid was checked")

        monkeypatch.setattr(solver_mod, "_solve", no_solve)
        monkeypatch.setattr(solver_mod, "_grid_levels", no_solve)
        with pytest.raises(ConfigError, match="step grid"):
            solve(cfg, w, prof, t0, pi0, SolverOptions(), grid=grid)


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
        e = cons.evaluate(cfg, run.states.slownesses[:, :-1], run.controls.accels)
        assert cons.max_violation(e) <= 1e-3
        # the run reports the same scan of its stitched plan
        assert run.max_violation == cons.max_violation(e)
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
            window_m=20.0, replan_m=5.0,
        )
        assert len(run.exec_times) == len(run.windows)
        assert all(t > 0 for t in run.exec_times)
        assert run.wall_time == sum(run.exec_times)
        # (start, length, solved steps); a 15-step tail is too short to coarsen
        assert run.windows[0] == (0.0, 20.0, 20)
        assert run.windows[-1] == (80.0, 20.0, 20)

    @pytest.mark.parametrize(
        "ds, window_m, tail",
        [
            (0.1, 40.0, [5] * 60),
            (0.1, 40.3, [5] * 60 + [3]),  # the remainder is one step of 3 ds
            (0.1, 20.0, [5] * 20),  # a tail of exactly _COARSE_FLOOR fine steps
            (1.0, 40.0, [1] * 30),  # a tail under _COARSE_FLOOR steps stays fine
        ],
    )
    def test_non_final_windows_solved_on_a_coarse_tail(self, monkeypatch, ds, window_m, tail):
        cfg = make_config(
            n=2, ds=ds, horizon_steps=int(round(100.0 / ds)), a_min=-1.5, a_max=1.0
        )
        w = CostWeights(q1=500.0, q2=0.01, q3=5000.0, r1=20.0, qv=2e4)
        t0 = np.array([0.0, -1.3])
        pi0 = np.full(2, 1.0 / cfg.target_speed)
        calls = []
        inner = solver_mod.solve

        def spy(config, *args, **kwargs):
            report = inner(config, *args, **kwargs)
            calls.append((config.horizon_steps, kwargs, report))
            return report

        seams = []

        def hook(position, t, pi):
            seams.append((position, t.copy(), pi.copy()))
            return t, pi

        monkeypatch.setattr(solver_mod, "solve", spy)
        run = receding_horizon_run(
            cfg, w, build_preset("collector"), t0, pi0, SolverOptions(),
            window_m=window_m, replan_m=10.0, state_hook=hook,
        )
        kw, kr = int(round(window_m / ds)), int(round(10.0 / ds))
        grid = [1] * kr + tail
        if tail[0] == _COARSE_FACTOR:
            assert len(grid) == kr + -(-(kw - kr) // _COARSE_FACTOR)
        *steady, final = calls
        # every window but the one that reaches the 100 m route end
        starts = [10.0 * j for j in range(len(calls))]
        assert starts[-1] + window_m >= 100.0 > starts[-2] + window_m
        for steps, kwargs, _ in steady:
            assert steps == len(grid) and kwargs["grid"].tolist() == grid
        last = int(round((100.0 - starts[-1]) / ds))
        steps, kwargs, _ = final
        assert steps == last and kwargs["grid"].tolist() == [1] * last
        assert [window[2] for window in run.windows] == [len(grid)] * len(steady) + [last]
        # each warm start is the previous plan held at ds past its executed
        # segment, zero-padded, and sampled where each step starts
        for (_, before, plan), (_, kwargs, _) in zip(calls, calls[1:]):
            held = np.repeat(plan.controls.accels, before["grid"], axis=1)[:, kr:]
            steps_at = np.cumsum(kwargs["grid"]) - kwargs["grid"]
            fine = np.concatenate([held, np.zeros((2, kw))], axis=1)
            assert np.array_equal(kwargs["initial_controls"], fine[:, steps_at])
        # the stitched plan is uniform at ds and continuous at every seam
        assert run.controls.accels.shape == (2, cfg.horizon_steps)
        assert run.states.arrival_times.shape == (2, cfg.horizon_steps + 1)
        assert [position for position, _, _ in seams] == pytest.approx(starts)
        for position, t, pi in seams:
            column = int(round(position / cfg.ds))
            assert np.array_equal(run.states.arrival_times[:, column], t)
            assert np.array_equal(run.states.slownesses[:, column], pi)
        for (_, _, report), (position, _, _) in zip(calls, seams):
            column = int(round(position / cfg.ds))
            executed = report.controls.accels[:, :kr]
            assert np.array_equal(run.controls.accels[:, column : column + kr], executed)
        e = cons.evaluate(cfg, run.states.slownesses[:, :-1], run.controls.accels)
        assert run.converged and cons.max_violation(e) <= 1e-3

    @pytest.mark.parametrize(
        "field, value",
        [
            ("window_m", float("nan")),
            ("window_m", float("inf")),
            ("window_m", 0.0),
            ("replan_m", float("nan")),
            ("replan_m", 0.0),
            ("replan_m", -5.0),
            ("replan_m", "10"),
            ("max_executions", 0),
            ("max_executions", -1),
            ("max_executions", True),
            ("max_executions", 2.0),
        ],
    )
    def test_malformed_arguments_rejected_before_any_solve(self, monkeypatch, field, value):
        cfg = make_config(n=2, ds=1.0, horizon_steps=100)
        w = CostWeights(q1=500.0, q2=0.01, q3=5000.0, r1=20.0, qv=2e4)
        t0 = -np.arange(2) * cfg.headway
        pi0 = np.full(2, 1.0 / cfg.target_speed)

        def no_solve(*args, **kwargs):
            raise AssertionError("solve called before the arguments were checked")

        monkeypatch.setattr(solver_mod, "solve", no_solve)
        kwargs = {"window_m": 20.0, "replan_m": 5.0, field: value}
        with pytest.raises(ConfigError, match=field):
            receding_horizon_run(
                cfg, w, build_preset("collector"), t0, pi0, SolverOptions(), **kwargs
            )


class TestSolverOptions:
    def test_defaults_valid(self):
        SolverOptions()
        SolverOptions(max_inner=1, max_outer=1, use_second_order=False)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("max_inner", 0),
            ("max_inner", "ten"),
            ("max_inner", 10.0),
            ("max_outer", True),
            ("max_outer", -1),
            ("tol_cost_rel", 0.0),
            ("use_second_order", 1),
            ("use_second_order", "yes"),
        ],
    )
    def test_invalid_option_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            SolverOptions(**{name: value})


def cold_problem(k_steps, n=2, ds=0.5):
    cfg = make_config(n=n, ds=ds, horizon_steps=k_steps)
    w = CostWeights(q1=500.0, q2=0.01, q3=5000.0, r1=20.0, qv=2e4)
    t0 = np.array([0.0, -1.3])[:n]
    pi0 = np.full(n, 1.0 / cfg.target_speed)
    return cfg, w, build_preset("collector"), t0, pi0


def spy_phases(monkeypatch, change=None):
    """Record every call of the private solve helper; ``change`` may edit a report."""
    calls = []
    inner = solver_mod._solve

    def spy(config, weights, profile, options, targets, start_position, accels, reference, grid):
        report = inner(
            config, weights, profile, options, targets, start_position, accels, reference, grid
        )
        if change is not None:
            report = change(config, report)
        calls.append(
            {"config": config, "weights": weights, "targets": targets, "accels": accels,
             "start_position": start_position, "grid": grid, "report": report,
             "wall": report.wall_time}
        )
        return report

    monkeypatch.setattr(solver_mod, "_solve", spy)
    return calls


def assert_same_plan(a, b):
    assert np.array_equal(a.controls.accels, b.controls.accels)
    assert np.array_equal(a.states.arrival_times, b.states.arrival_times)
    assert np.array_equal(a.states.slownesses, b.states.slownesses)
    assert a.cost.total == b.cost.total
    assert a.iterations == b.iterations
    assert a.converged == b.converged


class TestColdStart:
    def test_one_public_call_per_plan(self, monkeypatch):
        cfg, w, prof, t0, pi0 = cold_problem(2500, ds=0.1)
        phases = spy_phases(monkeypatch)
        public = []
        inner = solver_mod.solve

        def counting(*args, **kwargs):
            public.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(solver_mod, "solve", counting)
        report = solver_mod.solve(cfg, w, prof, t0, pi0, SolverOptions())
        assert len(public) == 1
        assert [p["config"].horizon_steps for p in phases] == [100, 500, 2500]
        *coarse, fine = phases
        assert report.coarse_iterations == sum(len(c["report"].iterations) for c in coarse) > 0
        assert report.iterations is fine["report"].iterations
        # the report's wall time covers every level, each timed on its own
        assert report.wall_time >= sum(p["wall"] for p in phases)

    def test_coarse_problem_is_the_same_problem_on_a_coarser_grid(self, monkeypatch):
        # 2498 steps: each level's last step overhangs the level above
        cfg, w, prof, t0, pi0 = cold_problem(2498, ds=0.1)
        phases = spy_phases(monkeypatch)
        targets = np.array([30.0, 29.5])
        solve(cfg, w, prof, t0, pi0, SolverOptions(), targets=targets, start_position=12.5)
        assert [p["config"].horizon_steps for p in phases] == [100, 500, 2498]
        assert phases[-1]["config"] is cfg and phases[-1]["weights"] is w
        assert np.array_equal(phases[-1]["targets"], targets)
        for coarse, fine in zip(phases, phases[1:]):
            cc, fc = coarse["config"], fine["config"]
            k_coarse = -(-fc.horizon_steps // _COARSE_FACTOR)
            assert cc.horizon_steps == k_coarse
            assert cc.ds == fc.ds * _COARSE_FACTOR
            overhang = (_COARSE_FACTOR * k_coarse - fc.horizon_steps) * fc.ds
            assert cc.route_length == pytest.approx(fc.route_length + overhang, rel=1e-15)
            assert np.array_equal(
                coarse["targets"], fine["targets"] + overhang / cfg.target_speed
            )
            # the cost weighs each step by its length, so the weights stay
            assert coarse["weights"] is w
            assert coarse["start_position"] == fine["start_position"] == 12.5
        assert phases[1]["targets"][0] > targets[0]  # 2500 - 2498 steps of overhang
        assert not np.any(phases[0]["accels"])

    def test_collector_preset_cold_matches_zero_start(self):
        scen = load_scenario(resolve_scenario_path("collector"))
        cfg, opts = scen.config, scen.solver_options
        t0, pi0, targets = scen.initial_state()
        args = (cfg, scen.weights, scen.profile, t0, pi0, opts)
        cold = solve(*args, targets=targets)
        zero = solve(*args, targets=targets, initial_controls=np.zeros((3, cfg.horizon_steps)))
        assert cold.converged and zero.converged
        assert cold.coarse_iterations > 0 and zero.coarse_iterations == 0
        assert len(cold.iterations) < len(zero.iterations)
        assert abs(cold.cost.total - zero.cost.total) <= 10 * opts.tol_cost_rel * abs(
            zero.cost.total
        )

    def test_collector_coarse_phase_descends(self, monkeypatch):
        scen = load_scenario(resolve_scenario_path("collector"))
        t0, pi0, targets = scen.initial_state()
        phases = spy_phases(monkeypatch)
        report = solve(
            scen.config, scen.weights, scen.profile, t0, pi0, scen.solver_options,
            targets=targets,
        )
        assert [p["config"].horizon_steps for p in phases] == [320, 1600, 8000]
        coarse = [p["report"] for p in phases[:-1]]
        assert sum(len(c.iterations) for c in coarse) == report.coarse_iterations > 0
        for level in coarse:
            augs = [it.aug_cost for it in level.iterations]
            assert all(b <= a + 1e-9 * max(1, abs(a)) for a, b in zip(augs, augs[1:]))

    def test_held_plan_out_of_domain_falls_back_to_zero_start(self, monkeypatch):
        cfg, w, prof, t0, pi0 = cold_problem(500)
        zero = solve(cfg, w, prof, t0, pi0, SolverOptions(), initial_controls=np.zeros((2, 500)))

        def blow_up(config, report):
            if config.horizon_steps < cfg.horizon_steps:
                report.controls.accels[1, 5] = 1e5  # drives the slowness negative
            return report

        phases = spy_phases(monkeypatch, blow_up)
        cold = solve(cfg, w, prof, t0, pi0, SolverOptions())
        assert len(phases) == 2
        assert not np.any(phases[1]["accels"])
        assert_same_plan(cold, zero)

    @pytest.mark.parametrize("k_steps", [1, 12, 19])
    def test_too_short_for_a_coarse_grid_starts_from_zeros(self, monkeypatch, k_steps):
        cfg, w, prof, t0, pi0 = cold_problem(k_steps)
        zero = solve(
            cfg, w, prof, t0, pi0, SolverOptions(), initial_controls=np.zeros((2, k_steps))
        )
        phases = spy_phases(monkeypatch)
        cold = solve(cfg, w, prof, t0, pi0, SolverOptions())
        assert len(phases) == 1
        assert cold.coarse_iterations == 0
        assert_same_plan(cold, zero)

    def test_explicit_controls_skip_the_coarse_phase(self, monkeypatch):
        cfg, w, prof, t0, pi0 = cold_problem(200)
        phases = spy_phases(monkeypatch)
        init = np.full((2, 200), 0.05)
        report = solve(cfg, w, prof, t0, pi0, SolverOptions(), initial_controls=init)
        assert len(phases) == 1
        assert np.array_equal(phases[0]["accels"], init)
        assert report.coarse_iterations == 0

    def test_every_fine_step_holds_a_coarse_control(self, monkeypatch):
        cfg, w, prof, t0, pi0 = cold_problem(498)
        phases = spy_phases(monkeypatch)
        solve(cfg, w, prof, t0, pi0, SolverOptions())
        coarse, fine = phases
        plan = coarse["report"].controls.accels
        assert plan.shape == (2, 100)
        held = fine["accels"]
        assert held.shape == (2, 498)
        # fine step j holds step j // 5 of the level below
        owner = np.arange(498) // _COARSE_FACTOR
        assert np.array_equal(held, plan[:, owner])
        assert set(owner) == set(range(100))
        # every coarse step covers 5 fine steps but the last, which overhangs
        assert np.array_equal(np.bincount(owner), [5] * 99 + [3])

    def test_mixed_grid_holds_the_coarse_plan_by_position(self, monkeypatch):
        # 252 steps of ds, then 100 of 5 ds: 752 ds of road, so the uniform
        # level below has 151 steps of 5 ds and overhangs by 3 ds
        grid = np.array([1] * 252 + [5] * 100)
        cfg, w, prof, t0, pi0 = cold_problem(grid.size)
        phases = spy_phases(monkeypatch)
        report = solve(cfg, w, prof, t0, pi0, SolverOptions(), grid=grid)
        assert report.converged
        coarse, fine = phases
        assert coarse["config"].horizon_steps == 151
        assert coarse["config"].ds == cfg.ds * _COARSE_FACTOR
        assert np.array_equal(coarse["grid"], np.ones(151))
        assert np.array_equal(
            coarse["targets"], fine["targets"] + 3 * cfg.ds / cfg.target_speed
        )
        assert np.array_equal(fine["targets"], schedule_targets(cfg, t0, grid))
        # the step starting j ds in holds coarse step j // 5
        starts = np.cumsum(grid) - grid
        plan = coarse["report"].controls.accels
        assert np.array_equal(fine["accels"], plan[:, starts // _COARSE_FACTOR])
        assert np.array_equal(fine["grid"], grid)

    def test_grid_of_long_steps_starts_from_zeros(self, monkeypatch):
        # a level of 5 ds steps would be as fine as the grid itself
        grid = np.full(120, _COARSE_FACTOR)
        cfg, w, prof, t0, pi0 = cold_problem(grid.size, ds=0.1)
        phases = spy_phases(monkeypatch)
        report = solve(cfg, w, prof, t0, pi0, SolverOptions(), grid=grid)
        assert len(phases) == 1
        assert not np.any(phases[0]["accels"])
        assert report.coarse_iterations == 0

    def test_non_divisible_horizon_needs_no_extra_full_resolution_passes(self, monkeypatch):
        # At 1599 steps a coarse grid of K / 10 steps had a non-integer step,
        # and the full-resolution solve took 13 backward passes against 7.
        scen = override_ds(load_scenario(resolve_scenario_path("collector")), 0.5)
        t0, pi0, _ = scen.initial_state()
        horizons = []
        inner = solver_mod.backward_pass

        def counting(states, controls, thetas, config, *args):
            horizons.append(config.horizon_steps)
            return inner(states, controls, thetas, config, *args)

        monkeypatch.setattr(solver_mod, "backward_pass", counting)
        passes = {}
        for k_steps in (1600, 1599):
            cfg = dataclasses.replace(scen.config, horizon_steps=k_steps)
            report = solve(cfg, scen.weights, scen.profile, t0, pi0, scen.solver_options)
            assert report.converged
            passes[k_steps] = horizons.count(k_steps)
        assert passes[1599] <= passes[1600]

    def test_cold_reruns_bit_identical(self):
        cfg, w, prof, t0, pi0 = cold_problem(400)
        first = solve(cfg, w, prof, t0, pi0, SolverOptions())
        again = solve(cfg, w, prof, t0, pi0, SolverOptions())
        assert_same_plan(first, again)
        assert first.coarse_iterations == again.coarse_iterations


def test_halving_ds_keeps_the_collector_optimum():
    # ds sets the resolution of the cost integral only; a ds-blind sum
    # would double the optimal cost here
    base = load_scenario(resolve_scenario_path("collector"))
    totals = []
    for ds in (1.0, 0.5):
        scen = override_ds(base, ds)
        t0, pi0, targets = scen.initial_state()
        report = solve(
            scen.config, scen.weights, scen.profile, t0, pi0, scen.solver_options,
            targets=targets,
        )
        assert report.converged
        totals.append(report.cost.total)
    assert totals[1] == pytest.approx(totals[0], rel=0.01)


def comfort_scenario(ds=None, a_min=-1.5, a_max=1.0):
    """The collector preset inside the box a in [a_min, a_max] m/s^2 (comfort by default)."""
    scen = load_scenario(resolve_scenario_path("collector"))
    if ds is not None:
        scen = override_ds(scen, ds)
    box = tuple(dataclasses.replace(v, a_min=a_min, a_max=a_max) for v in scen.config.vehicles)
    return dataclasses.replace(scen, config=dataclasses.replace(scen.config, vehicles=box))


class TestOuterSchedule:
    """The AL outer loop: loose subproblems while infeasible, a step after each update."""

    def test_comfort_receding_windows_converge(self):
        # window 10 ran out of outer passes after two that took no step
        scen = comfort_scenario()
        t0, pi0, _ = scen.initial_state()
        run = receding_horizon_run(
            scen.config, scen.weights, scen.profile, t0, pi0, scen.solver_options,
            window_m=40.0, replan_m=10.0, max_executions=10,
        )
        assert len(run.exec_times) == 10
        assert run.converged

    def test_comfort_one_shot_plan_converges(self):
        scen = comfort_scenario()
        t0, pi0, targets = scen.initial_state()
        report = solve(
            scen.config, scen.weights, scen.profile, t0, pi0, scen.solver_options,
            targets=targets,
        )
        assert report.converged
        assert report.max_violation <= 1e-3

    def test_loose_tolerance_off_leaves_an_idle_al_solve_bit_identical(self, monkeypatch):
        # A box that some judged plan breaks while every level still ends its
        # first outer pass feasible; the plain preset judges no plan infeasible.
        scen = comfort_scenario(ds=0.2, a_min=-2.5, a_max=1.5)
        t0, pi0, targets = scen.initial_state()
        opts = scen.solver_options
        args = (scen.config, scen.weights, scen.profile, t0, pi0, opts)
        updates = []
        inner_update = cons.update_multipliers

        def counting(*update_args):
            updates.append(1)
            return inner_update(*update_args)

        judged = []  # violations of the plans the inner loop judged
        inner_tolerance = solver_mod._inner_tolerance

        def spy(options, violation, outer):
            judged.append(violation)
            return inner_tolerance(options, violation, outer)

        monkeypatch.setattr(cons, "update_multipliers", counting)
        monkeypatch.setattr(solver_mod, "_inner_tolerance", spy)
        with_schedule = solve(*args, targets=targets)
        # No multiplier update, so no outer pass past 0 and no forced step:
        # the forced step is absent here by construction. The loose
        # tolerance is not: some judged plan (on a coarse level) is
        # infeasible, yet none of those judgments ends an inner loop.
        assert not updates
        assert any(v > solver_mod._TOL_VIOLATION for v in judged)
        monkeypatch.setattr(solver_mod, "_LOOSE_TOL", 0.0)
        without = solve(*args, targets=targets)
        assert_same_plan(with_schedule, without)
        assert with_schedule.max_violation == without.max_violation
        assert with_schedule.coarse_iterations == without.coarse_iterations
        assert with_schedule.cost == without.cost

    def test_converged_report_judged_tightly_on_the_returned_plan(self, monkeypatch):
        scen = comfort_scenario(ds=1.0)
        t0, pi0, targets = scen.initial_state()
        opts = scen.solver_options
        calls = []  # (violation, outer, tolerance) per call
        inner = solver_mod._inner_tolerance

        def spy(options, violation, outer):
            tol = inner(options, violation, outer)
            calls.append((violation, outer, tol))
            return tol

        monkeypatch.setattr(solver_mod, "_inner_tolerance", spy)
        report = solve(
            scen.config, scen.weights, scen.profile, t0, pi0, opts, targets=targets
        )
        assert report.converged
        assert any(tol > opts.tol_cost_rel for _, _, tol in calls)  # the loose phase ran
        violation, _, tol = calls[-1]
        assert tol == opts.tol_cost_rel
        e = cons.evaluate(scen.config, report.states.slownesses[:, :-1], report.controls.accels)
        assert violation == report.max_violation == cons.max_violation(e)
        assert all(tol >= opts.tol_cost_rel for _, _, tol in calls)

    @pytest.mark.parametrize("tol_cost_rel", [1e-12, 1e-6, 1e-3, 0.5])
    def test_loose_tolerance_never_below_tol_cost_rel(self, tol_cost_rel):
        opts = SolverOptions(tol_cost_rel=tol_cost_rel)
        outers = list(range(40)) + [400, 5000]
        loose = [solver_mod._inner_tolerance(opts, 0.3, k) for k in outers]
        assert all(tol >= tol_cost_rel for tol in loose)
        assert all(b <= a for a, b in zip(loose, loose[1:]))
        assert loose[-1] == tol_cost_rel
        for violation in (0.0, solver_mod._TOL_VIOLATION):
            assert all(
                solver_mod._inner_tolerance(opts, violation, k) == tol_cost_rel for k in outers
            )

    def test_default_schedule_tightens_tenfold_per_outer_pass(self):
        opts = SolverOptions()
        schedule = [solver_mod._inner_tolerance(opts, 1.0, k) for k in range(6)]
        assert schedule == [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-6]

    def test_line_search_runs_after_every_multiplier_update(self, monkeypatch):
        scen = comfort_scenario(ds=1.0)
        t0, pi0, targets = scen.initial_state()
        events = []
        for module, name in (
            (solver_mod, "backward_pass"),
            (solver_mod, "forward_pass"),
            (cons, "update_multipliers"),
            (solver_mod, "_solve"),
        ):
            def spy(*args, _inner=getattr(module, name), _name=name, **kwargs):
                events.append(_name)
                try:
                    return _inner(*args, **kwargs)
                except BackwardPassError:
                    events.append("raised")
                    raise

            monkeypatch.setattr(module, name, spy)
        solve(
            scen.config, scen.weights, scen.profile, t0, pi0, scen.solver_options,
            targets=targets,
        )
        # the first backward pass that succeeds after an update, in the same
        # phase, is followed by a trial rollout
        checked = 0
        for i in (i for i, e in enumerate(events) if e == "update_multipliers"):
            after = events[i + 1 :]
            for j, event in enumerate(after[:-1]):
                if event == "_solve":
                    break
                if event == "backward_pass" and after[j + 1] != "raised":
                    assert after[j + 1] == "forward_pass"
                    checked += 1
                    break
        assert checked > 0

    def test_forced_step_without_descent_keeps_the_shift(self, monkeypatch):
        # every prediction counts as converged and every trial is rejected:
        # the pass after an update runs the line search, then ends the inner
        # loop at the same shift instead of climbing the Levenberg ladder
        cfg = make_config(n=2, ds=1.0, horizon_steps=50, a_max=1.0)
        w = CostWeights(q1=500.0, q2=0.01, q3=5000.0, r1=20.0, qv=2e4)
        t0 = -np.arange(2) * cfg.headway
        pi0 = np.full(2, 1.0 / cfg.target_speed)
        opts = SolverOptions()
        shifts = []
        trials = []
        inner_backward = solver_mod.backward_pass

        def backward(*args):
            shifts.append(args[7])
            trials.append(0)
            return inner_backward(*args)

        def reject(*args):
            trials[-1] += 1
            return None

        monkeypatch.setattr(solver_mod, "backward_pass", backward)
        monkeypatch.setattr(solver_mod, "forward_pass", reject)
        monkeypatch.setattr(solver_mod, "_inner_tolerance", lambda options, v, k: 1e300)
        report = solve(
            cfg, w, FLAT, t0, pi0, opts, initial_controls=np.full((2, 50), 1.2)
        )
        assert report.max_violation > solver_mod._TOL_VIOLATION and not report.converged
        assert shifts == [solver_mod._REG_INIT] * opts.max_outer
        assert trials[0] == 0 and all(n > 0 for n in trials[1:])

    def test_exhausted_shift_ladder_is_never_converged(self, monkeypatch):
        # a feasible plan whose every prediction is five times the tolerance
        # and whose every trial is rejected: the Levenberg shift climbs past
        # _REG_MAX without a step, which ends the level unconverged, with no
        # multiplier update and no further outer pass
        cfg = wide_open_config(n=2, ds=1.0, horizon_steps=50)
        w = CostWeights(q1=500.0, q2=0.01, q3=5000.0, r1=20.0, qv=2e4)
        t0 = -np.arange(2) * cfg.headway
        pi0 = np.full(2, 1.0 / cfg.target_speed)
        tol = 1e-6
        shifts = []
        inner_backward = solver_mod.backward_pass

        def backward(states, controls, thetas, config, weights, al, targets, reg, *rest):
            shifts.append(reg)
            bp = inner_backward(states, controls, thetas, config, weights, al, targets, reg, *rest)
            cost, _ = trajectory_cost(
                states.arrival_times, states.slownesses, controls.accels, thetas, config,
                weights, targets,
            )
            e = cons.evaluate(config, states.slownesses[:, :-1], controls.accels)
            aug_cost = cost + cons.penalty(e, al)
            return dataclasses.replace(bp, d1=-5.0 * tol * max(1.0, abs(aug_cost)), d2=0.0)

        updates = []
        inner_update = cons.update_multipliers

        def update(*args):
            updates.append(args)
            return inner_update(*args)

        monkeypatch.setattr(solver_mod, "backward_pass", backward)
        monkeypatch.setattr(solver_mod, "forward_pass", lambda *args: None)
        monkeypatch.setattr(solver_mod, "_inner_tolerance", lambda options, v, k: tol)
        monkeypatch.setattr(cons, "update_multipliers", update)
        report = solve(
            cfg, w, FLAT, t0, pi0, SolverOptions(), initial_controls=np.zeros((2, 50))
        )
        assert report.max_violation <= solver_mod._TOL_VIOLATION
        assert max(shifts) * solver_mod._REG_FACTOR > solver_mod._REG_MAX
        assert not report.converged
        assert report.iterations == []
        # one pass per rung, 1e-6 through 1e6, in the first outer pass only
        assert shifts == pytest.approx([1e-6 * 10.0**i for i in range(13)], rel=1e-12)
        assert updates == []


def count_solver_calls(monkeypatch):
    """Count what the benchmark's tracer counts: solves and their accepted
    iterations, backward passes (and those that raised), rollouts and
    multiplier updates."""
    counts = Counter()
    for module, name in (
        (solver_mod, "solve"),
        (solver_mod, "backward_pass"),
        (solver_mod, "forward_pass"),
        (cons, "update_multipliers"),
    ):
        def spy(*args, _inner=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            try:
                result = _inner(*args, **kwargs)
            except BackwardPassError:
                counts["raised"] += 1
                raise
            if _name == "solve":
                counts["iterations"] += len(result.iterations)
                counts["unconverged"] += not result.converged
            return result

        monkeypatch.setattr(module, name, spy)
    return counts


class TestWorkloadCounts:
    """The solver's path on two benchmark workloads, rebuilt here, pinned by its counts.

    The counts are integers, so they hold on every numpy; a change that
    moves one moves the solver's path, and its CHANGES.md entry says why.
    """

    def test_receding_comfort(self, monkeypatch):
        scen = dataclasses.replace(
            comfort_scenario(), horizon_mode="receding", window_m=40.0, replan_m=10.0
        )
        counts = count_solver_calls(monkeypatch)
        eco = run_eco(scen)
        assert len(eco.report.exec_times) == 77
        assert eco.report.converged
        assert counts == Counter(
            solve=77, iterations=221, unconverged=0, backward_pass=350, raised=0,
            forward_pass=265, update_multipliers=66,
        )

    def test_stability_n5_row(self, monkeypatch):
        scen = load_scenario(resolve_scenario_path("collector"))
        base = scen.config
        cfg = dataclasses.replace(base, vehicles=tuple(base.vehicles[0] for _ in range(5)))
        t0 = -np.arange(5) * cfg.headway
        pi0 = np.full(5, 1.0 / cfg.target_speed)
        counts = count_solver_calls(monkeypatch)
        cold = solver_mod.solve(cfg, scen.weights, scen.profile, t0, pi0, scen.solver_options)
        for delta in (0.25, 0.5, 1.0):
            run_perturbation(
                cfg, scen.weights, scen.profile, PerturbationSpec(magnitude=delta),
                scen.solver_options, baseline_report=cold,
            )
        assert counts == Counter(
            solve=4, iterations=4, unconverged=0, backward_pass=69, raised=10,
            forward_pass=74, update_multipliers=0,
        )

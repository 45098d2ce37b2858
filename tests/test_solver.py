"""Backward/forward pass correctness and whole-solve behavior."""

import dataclasses
import functools
import hashlib
import inspect
import math
import re
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.linalg import _umath_linalg

from conftest import ON_HASHED_NUMPY, dense_blocks, make_config, receding_grid
from ecoplatoon import constraints as cons
from ecoplatoon import costs
from ecoplatoon import platoon as platoon_mod
from ecoplatoon import solver as solver_mod
from ecoplatoon.costs import CostWeights, schedule_targets, trajectory_cost
from ecoplatoon.errors import BackwardPassError, ConfigError
from ecoplatoon.experiments import run_eco
from ecoplatoon.platoon import ControlTrajectory, dynamics_derivatives, rollout
from ecoplatoon.scenario import load_scenario, override_ds, resolve_scenario_path
from ecoplatoon.solver import (
    _BUILD_CHUNK,
    _COARSE_FACTOR,
    SolverOptions,
    _coarse_grid,
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


def open_box(n):
    """An acceleration box of ±inf: ``forward_pass`` under it is the unclamped rollout."""
    return np.full(n, -np.inf), np.full(n, np.inf)


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
    update. A control on its bound whose Newton step Q_uu^-1 q_u points out
    of the box is held: its gain row and feedforward are zero, and the free
    controls' gains and feedforward solve the free block of Q_uu alone. The
    step Jacobians and curvature are the arc's, written out from its closed
    form with s = sqrt(1 + 2 a h pi^2): t' = t + 2 h pi / (1 + s) and
    pi' = pi / s. Returns (gains, feedforward, d1, d2, value gradient at
    step 0) or raises BackwardPassError with the same message as the solver.
    """
    t_traj, pi_traj, accels = states.arrival_times, states.slownesses, controls.accels
    n = config.n_vehicles
    dim = 2 * n
    k_steps = accels.shape[1]
    ds = config.ds
    stage = costs.stage_derivatives_batch(
        t_traj[:, :-1], pi_traj[:, :-1], accels, thetas, config, weights
    )
    al_terms = cons.al_derivative_batch(config, al, pi_traj[:, :-1])
    lx, lu, lxx, luu, lux = (
        s_block + al_block
        for s_block, al_block in zip(dense_blocks(stage), dense_blocks(al_terms))
    )
    pi = pi_traj[:, :-1].T
    a = accels.T
    a_min, a_max = config.accel_bounds
    ti = np.arange(n) * 2
    pj = ti + 1
    ai = np.arange(n)
    h = ds
    s = np.sqrt(1.0 + 2.0 * a * h * pi**2)
    c = (1.0 + 2.0 * s) / (s**3 * (1.0 + s) ** 2)
    f_x = np.zeros((k_steps, dim, dim))
    f_x[:, ti, ti] = 1.0
    f_x[:, ti, pj] = 2.0 * h / (s * (1.0 + s))
    f_x[:, pj, pj] = 1.0 / s**3
    f_u = np.zeros((k_steps, dim, n))
    f_u[:, ti, ai] = -2.0 * h**2 * pi**3 / (s * (1.0 + s) ** 2)
    f_u[:, pj, ai] = -h * pi**3 / s**3
    # second derivatives of (t', pi') by (pi, pi), (a, pi) and (a, a)
    cpp = np.stack([-4.0 * a * h**2 * pi * c, -6.0 * a * h * pi / s**5])
    cap = np.stack([-2.0 * h**2 * pi**2 * c, -3.0 * h * pi**2 / s**5])
    caa = np.stack([
        2.0 * h**3 * pi**5 * (1.0 + 3.0 * s) / (s**3 * (1.0 + s) ** 3),
        3.0 * h**2 * pi**5 / s**5,
    ])

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
            for rows, c_row in ((ti, 0), (pj, 1)):
                q_xx[pj, pj] += b_val[rows] * cpp[c_row, k]
                q_ux[ai, pj] += b_val[rows] * cap[c_row, k]
                q_uu[ai, ai] += b_val[rows] * caa[c_row, k]
        q_uu = 0.5 * (q_uu + q_uu.T) + regularization * np.eye(n)
        try:
            np.linalg.cholesky(q_uu)
        except np.linalg.LinAlgError:
            raise BackwardPassError(
                f"control Hessian not positive definite at step {k} "
                f"with shift {regularization:g}"
            )
        newton = np.linalg.solve(q_uu, q_u)
        held = ((a[k] == a_min) & (newton > 0)) | ((a[k] == a_max) & (newton < 0))
        free = np.ix_(~held, ~held)
        h_k = np.zeros((n, dim))
        j_k = np.zeros(n)
        h_k[~held] = -np.linalg.solve(q_uu[free], q_ux[~held])
        j_k[~held] = -np.linalg.solve(q_uu[free], q_u[~held])
        gains[k], ff[k] = h_k, j_k
        d1 += j_k @ q_u
        d2 += j_k @ q_uu @ j_k
        a_val = q_xx + h_k.T @ q_uu @ h_k + q_ux.T @ h_k + h_k.T @ q_ux
        a_val = 0.5 * (a_val + a_val.T)
        b_val = q_x + h_k.T @ q_uu @ j_k + q_ux.T @ j_k + h_k.T @ q_u
    return gains, ff, d1, d2, b_val


def per_step_backward_pass(
    states, controls, thetas, config, weights, al, targets, regularization, second, grid=None
):
    """The stacked sweep with its Cholesky test inside every step.

    The oracle for the chunked sweep in ``backward_pass``: the derivative
    series over the whole horizon, one K-long stack of blocks, and the same
    arithmetic in the same order, so results must agree bit for bit; a
    step whose Q_uu is not finite or fails Cholesky raises at once. A step
    with a control on a bound of the box solves again with each such
    control whose Newton step leaves the box held, on Q_uu with the held
    rows and columns set to identity and [Q_ux | q_u] with the held rows
    zeroed. Step k is ds times ``grid[k]`` long (``grid`` None: uniform).
    Returns (gains, feedforward, d1, d2, value Hessian at step 0, value
    gradient at step 0).
    """
    t_traj, pi_traj, accels = states.arrival_times, states.slownesses, controls.accels
    n = config.n_vehicles
    dim = 2 * n
    one = dim
    u0 = dim + 1
    size = 3 * n + 1
    k_steps = accels.shape[1]
    ai = np.arange(n)
    ti = 2 * ai
    pj = ti + 1
    ui = u0 + ai
    a_min, a_max = config.accel_bounds

    stage_model = np.zeros((k_steps, size, size))

    def add_blocks(lx, lu, lxx, luu, lux):
        stage_model[:, :dim, :dim] += lxx
        stage_model[:, :dim, one] += lx
        stage_model[:, one, :dim] += lx
        stage_model[:, u0:, :dim] += lux
        stage_model[:, u0:, one] += lu
        stage_model[:, u0:, u0:] += luu

    stage = costs.stage_derivatives_batch(
        t_traj[:, :-1], pi_traj[:, :-1], accels, thetas, config, weights, grid
    )
    add_blocks(*dense_blocks(stage))
    add_blocks(*dense_blocks(cons.al_derivative_batch(config, al, pi_traj[:, :-1])))
    stage_model[:, ui, ui] += regularization

    a = accels.T
    t_pi, t_a, g, fu, curv = dynamics_derivatives(pi_traj[:, :-1], accels, config.ds, grid)
    jac = np.zeros((k_steps, dim + 1, size))
    jac[:, ti, ti] = 1.0
    jac[:, ti, pj] = t_pi
    jac[:, ti, ui] = t_a
    jac[:, pj, pj] = g
    jac[:, pj, ui] = fu
    jac[:, one, one] = 1.0
    # each step's curvature as a block-diagonal (3N, 2N) matrix: rows
    # (pi, pi), (a, pi) and (a, a) by vehicle, columns t' and pi' by vehicle,
    # whose product with the value gradient lands at ``curv_at`` in Q
    bend = np.zeros((k_steps, 3 * n, dim))
    for r in range(3):
        for c in range(2):
            bend[:, r * n + ai, 2 * ai + c] = curv[r, c]
    curv_at = np.concatenate([pj * size + pj, ui * size + pj, ui * size + ui])

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
            q.flat[curv_at] += bend[k].dot(value[one, :dim])
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
        side = (a[k] == a_min).astype(float) - (a[k] == a_max)
        held = step[:, -1] * side > 0.0
        if held.any():
            free = 1.0 - held
            held_q = q_uu * np.multiply.outer(free, free)
            held_q[ai, ai] += held
            step = np.linalg.solve(held_q, rhs * free[:, None])
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


def make_indefinite_at(monkeypatch, controls, steps, grad_shift=0.0):
    """Shift the stage terms both sweeps read so Q_uu is indefinite at ``steps``.

    ``grad_shift`` is added to the control gradient q_u at those steps.
    ``steps`` count from the first column of ``controls.accels``. The
    backward pass asks for the terms of one chunk of steps at a time, on a
    view of those columns, so a call's first step is where its controls
    start in that array; the per-step sweep asks once, from step 0.
    """
    batch = costs.stage_derivatives_batch
    origin = controls.accels.__array_interface__["data"][0]

    def shifted(t, pi, a, *args, **kw):
        terms = batch(t, pi, a, *args, **kw)
        first = (a.__array_interface__["data"][0] - origin) // a.itemsize
        local = [k - first for k in steps if first <= k < first + a.shape[1]]
        terms["aa"][local] -= 1e8
        terms["a"][local] += grad_shift
        return terms

    monkeypatch.setattr(costs, "stage_derivatives_batch", shifted)


def random_instance(n, seed, r1=20.0, k_steps=60, grid=None, box=2.0):
    """Random off-optimum trajectory with a binding speed cap.

    Controls drawn in +-1.5 m/s^2 and clipped to the box +-``box`` m/s^2,
    and a 21 m/s cap that the leader enters above, with multipliers raised
    on the violated speed bounds, so the AL blocks are active; grades and
    arrival targets are random too. The default box holds every control
    inside; a box under 1.5 m/s^2 puts controls on both bounds, where the
    backward pass holds some of them. The trajectory is rolled out on
    ``grid`` (None: uniform).
    """
    rng = np.random.default_rng(seed)
    cfg = make_config(
        n=n, ds=0.5, horizon_steps=k_steps, a_min=-box, a_max=box, speed_limit=21.0
    )
    w = CostWeights(q1=500.0, q2=0.01, q3=5000.0, r1=r1, qv=2e4, power_floor=0.0)
    t0 = -np.arange(n) * cfg.headway + rng.uniform(-0.5, 0.5, n)
    pi0 = 1.0 / rng.uniform(18.0, 22.0, n)
    pi0[0] = 1.0 / 22.0
    accels = np.clip(rng.uniform(-1.5, 1.5, (n, k_steps)), -box, box)
    states = rollout(t0, pi0, accels, cfg.ds, grid)
    ctrls = ControlTrajectory(accels=accels)
    e = cons.evaluate(cfg, states.slownesses[:, :-1])
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

        # independent one-step solution from explicit matrices: at a = 0 the
        # arc t' = t + 2 h pi / (1 + s), pi' = pi / s with s^2 = 1 + 2 a h pi^2
        # has s = 1, so d t'/d pi = h, d pi'/d pi = 1, d pi'/d a = -h pi^3,
        # d t'/d a = -h^2 pi^3 / 2, and t' has the curvatures
        # d2 t'/da dpi = -3 h^2 pi^2 / 2 and d2 t'/da2 = h^3 pi^5
        ds = cfg.ds
        f_x = np.zeros((4, 4))
        for i, pi in enumerate(pi0):
            f_x[2 * i, 2 * i] = 1.0
            f_x[2 * i, 2 * i + 1] = ds
            f_x[2 * i + 1, 2 * i + 1] = 1.0  # a = 0 reference
        f_u = np.zeros((4, 2))
        f_u[0, 0] = -0.5 * ds**2 * pi0[0] ** 3
        f_u[2, 1] = -0.5 * ds**2 * pi0[1] ** 3
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
        l_uu = 2 * 3.0 * (ds / 0.1) * np.eye(2)  # r1 prices 0.1 m of road
        q_x = l_x + f_x.T @ b_term
        q_u = f_u.T @ b_term
        q_xx = l_xx + f_x.T @ a_term @ f_x
        q_uu = l_uu + f_u.T @ a_term @ f_u + reg * np.eye(2)
        q_ux = f_u.T @ a_term @ f_x
        for i in range(2):  # b_t times t's curvature; b_pi is 0 without a speed term
            q_ux[i, 2 * i + 1] += b_term[2 * i] * -1.5 * ds**2 * pi0[i] ** 2
            q_uu[i, i] += b_term[2 * i] * ds**3 * pi0[i] ** 5
        h_expect = -np.linalg.solve(q_uu, q_ux)
        j_expect = -np.linalg.solve(q_uu, q_u)

        # the arc's d t'/d a couples the controls to the arrival-time cost,
        # so both are nonzero
        assert np.all(np.abs(j_expect) > 0.0) and np.all(np.abs(h_expect[:, 0::2]).sum(axis=1) > 0)
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
                    t, pi, a = forward_pass(
                        states, ctrls, bp, alpha, cfg.ds, grid, cfg.accel_bounds
                    )
                    total, _ = trajectory_cost(t, pi, a, thetas, cfg, w, targets, grid)
                    return total + cons.penalty(cons.evaluate(cfg, pi[:, :-1]), al)

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
    def test_held_steps_match_reference(self, n, second):
        # a +-0.3 box puts most controls on a bound: those whose Newton step
        # leaves the box are held, on both bounds, and the rest stay free
        args = random_instance(n, seed=40 + n, box=0.3)
        accels = args[1].accels.T
        failures, bp, _ = climb(backward_pass, args, second, 1e-6)
        ref_failures, (gains, ff, d1, d2, _), _ = climb(
            reference_backward_pass, args, second, 1e-6
        )
        assert failures == ref_failures
        held = np.all(bp.gains == 0.0, axis=2) & (bp.feedforward == 0.0)
        assert np.any(held & (accels == -0.3)) and np.any(held & (accels == 0.3))
        assert np.any(~held & np.isin(accels, (-0.3, 0.3)))
        assert np.array_equal(held, np.all(gains == 0.0, axis=2) & (ff == 0.0))
        assert_close(bp.gains, gains)
        assert_close(bp.feedforward, ff)
        assert bp.d1 == pytest.approx(d1, rel=1e-10)
        assert bp.d2 == pytest.approx(d2, rel=1e-10)

    @pytest.mark.parametrize("second", [True, False])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_held_plan_slope_matches_one_sided_difference(self, n, second):
        # d1 is the slope at alpha = 0+ of the augmented cost of the line
        # search's clamped rollout: a held control stays on its bound, and on
        # this plan no free one leaves the box for a short step
        args = random_instance(n, seed=40 + n, box=0.6)
        states, ctrls, thetas, cfg, w, al, targets = args
        box = cfg.accel_bounds
        bp = backward_pass(*args, 1e-6, second)
        held = np.all(bp.gains == 0.0, axis=2) & (bp.feedforward == 0.0)
        assert np.any(held & (ctrls.accels.T == -0.6))

        def aug_cost(alpha, box=box):
            t, pi, a = forward_pass(states, ctrls, bp, alpha, cfg.ds, None, box)
            total, _ = trajectory_cost(t, pi, a, thetas, cfg, w, targets)
            return total + cons.penalty(cons.evaluate(cfg, pi[:, :-1]), al), a

        eps = 1e-6
        (j0, _), (j1, a1), (_, unclamped) = (
            aug_cost(0.0), aug_cost(eps), aug_cost(eps, open_box(n))
        )
        assert np.array_equal(a1, unclamped)
        assert np.array_equal(a1.T[held], ctrls.accels.T[held])
        assert bp.d1 == pytest.approx((j1 - j0) / eps, rel=1e-5)

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
        make_indefinite_at(monkeypatch, args[1], failing)
        with pytest.raises(BackwardPassError) as want:
            per_step_backward_pass(*args, reg, second)
        with pytest.raises(BackwardPassError) as got:
            backward_pass(*args, reg, second)
        assert str(got.value) == str(want.value)
        assert f"at step {max(failing)} " in str(got.value)

    def test_traced_peak_bounded_by_build_chunks(self):
        # Blocks, Jacobians, solves and derivative series live one build
        # chunk at a time: K-long stacks of blocks and Jacobians alone would
        # take 27.7 MB at K = 8000, N = 5. Only the gains, the feedforward
        # and the control rows are K-long, so the pass stays under 10 MB
        # (13.3 MB with K-long series and solves). The plan is held at
        # zero from 20 m/s, under the cap with no multiplier, where both
        # passes complete at this shift. A Gauss-Newton pass builds no
        # curvature buffer, so it peaks below the second-order pass: 8.7
        # against 9.3 MB.
        states, _, thetas, cfg, weights, _, targets = random_instance(5, seed=1, k_steps=8000)
        accels = np.zeros((5, 8000))
        states = rollout(states.arrival_times[:, 0], np.full(5, 0.05), accels, cfg.ds)
        args = (
            states, ControlTrajectory(accels=accels), thetas, cfg, weights,
            cons.ALState.initial(cfg, 8000, 10.0), targets,
        )
        peaks = {}
        for second in (True, False):
            tracemalloc.start()
            try:
                backward_pass(*args, 1e4, second)
                peaks[second] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[False] < peaks[True] <= 10e6

    def test_cold_n5_collector_solve_traced_peak(self):
        # the N = 5 stability row's cold solve peaks in a backward pass at
        # K = 8000: 13.3 MB traced, 18.3 MB with K-long derivative series
        # and solves
        scen = load_scenario(resolve_scenario_path("collector"))
        base = scen.config
        cfg = dataclasses.replace(base, vehicles=tuple(base.vehicles[0] for _ in range(5)))
        t0 = -np.arange(5) * cfg.headway
        pi0 = np.full(5, 1.0 / cfg.target_speed)
        tracemalloc.start()
        try:
            solve(cfg, scen.weights, scen.profile, t0, pi0, scen.solver_options)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 15e6

    @pytest.mark.parametrize("second", [True, False])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_held_rows_are_zero_and_d2_is_minus_d1(self, monkeypatch, n, second):
        # _hold's algebra on a plan over two chunks with most controls on a
        # +-0.3 box: a held control's gain row and feedforward are exactly
        # zero, and the free ones take j = -Q_ff^-1 q_f, so
        # d2 = j'Q_uu j = -j'q_u = -d1
        args = random_instance(n, seed=70 + n, k_steps=700, box=0.3)
        _, _, reg = climb(backward_pass, args, second, 1e-6)
        accels = args[1].accels.T
        bound = np.isin(accels, (-0.3, 0.3))
        helds = []
        hold = solver_mod._hold

        def spy(q_uu, rhs, step, side):
            helds.append(step[:, -1] * side > 0.0)  # the rule _hold applies
            hold(q_uu, rhs, step, side)

        monkeypatch.setattr(solver_mod, "_hold", spy)
        bp = backward_pass(*args, reg, second)
        marked = np.flatnonzero(bound.any(axis=1))[::-1]  # the sweep runs from step K - 1
        assert len(helds) == marked.size
        held = np.zeros_like(bound)
        held[marked] = helds
        assert np.any(held & (accels == -0.3)) and np.any(held & (accels == 0.3))
        assert np.any(bound & ~held)
        assert np.all(bp.gains[held] == 0.0)
        assert np.all(bp.feedforward[held] == 0.0)
        assert bp.d2 == pytest.approx(-bp.d1, rel=1e-9)

    def test_thrown_away_steps_raise_no_warning(self, monkeypatch):
        # a huge q_u at the failing step makes the steps after it, down to
        # the bottom of the chunk, overflow; that work is thrown away and
        # must stay silent, as a sweep that stopped at the failing step is
        args = random_instance(3, seed=200, k_steps=200)
        make_indefinite_at(monkeypatch, args[1], [150], grad_shift=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BackwardPassError) as want:
                per_step_backward_pass(*args, 1e-6, True)
            with pytest.raises(BackwardPassError) as got:
                backward_pass(*args, 1e-6, True)
        assert str(got.value) == str(want.value)
        assert "at step 150 " in str(got.value)

    def test_zero_control_hessian_fails_definiteness_not_solve(self):
        # no effort or power weight, no terminal term and no active bound:
        # Q_uu is exactly zero at the last step, where the solve itself
        # fails; the sweep must still report the definiteness failure. (A
        # terminal arrival term would reach Q_uu there through the arc's
        # d t'/d a.)
        cfg = wide_open_config(n=2, ds=0.5, horizon_steps=100)
        w = CostWeights(q1=500.0, q2=0.0, q3=0.0, r1=0.0, qv=0.0)
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
            make_indefinite_at(monkeypatch, args[1], [failing])
        batch = costs.stage_derivatives_batch

        def nan_at_140(*call_args, **kw):
            terms = batch(*call_args, **kw)
            terms["aa"][140] = np.nan
            return terms

        monkeypatch.setattr(costs, "stage_derivatives_batch", nan_at_140)
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


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=5),
    # one step, and horizons at the edges of one, two and three chunks
    # (_BUILD_CHUNK = 512)
    k_steps=st.sampled_from([1, 511, 512, 513, 1023, 1024, 1025, 1100]),
    uniform=st.booleans(),
    box=st.sampled_from([2.0, 0.6, 0.3]),  # under 1.5, controls sit on both bounds
    second=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_streamed_backward_pass_equals_per_step_sweep(n, k_steps, uniform, box, second, seed):
    # the backward pass builds every derivative series one chunk at a time;
    # the oracle builds them over the whole horizon and tests every step.
    # Up the solver's ladder of shifts both fail alike, and at the first
    # shift the oracle completes at, they agree bit for bit; a random plan
    # may fail at every shift.
    assert _BUILD_CHUNK == 512
    grid = None if uniform else np.random.default_rng(seed).integers(1, 6, k_steps)
    args = random_instance(n, seed, k_steps=k_steps, grid=grid, box=box)
    reg = 1e-6
    while reg <= 1e6:
        try:
            gains, ff, d1, d2, _, _ = per_step_backward_pass(*args, reg, second, grid)
        except BackwardPassError as want:
            with pytest.raises(BackwardPassError) as got:
                backward_pass(*args, reg, second, grid)
            assert str(got.value) == str(want)
            reg *= 10.0
            continue
        bp = backward_pass(*args, reg, second, grid)
        assert np.array_equal(bp.gains, gains)
        assert np.array_equal(bp.feedforward, ff)
        assert bp.d1 == d1
        assert bp.d2 == d2
        return


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


def textbook_rollout(states, controls, bp, alpha, ds, grid=None, box=None):
    """Column-by-column closed-loop rollout: the oracle for ``forward_pass``.

    Step k is ds times ``grid[k]`` long (``grid`` None: ds). The control is
    u = (a_ref + alpha j) + K dx; a ``box`` (a_min, a_max) clips it into
    the box before its step. Each step is the exact arc of its control,
    carried in speed: v'^2 = v^2 + 2 h u, pi' = 1 / v' and
    t' = t + 2 h / (v + v').
    """
    t_ref, pi_ref, a_ref = states.arrival_times, states.slownesses, controls.accels
    n, k_steps = a_ref.shape
    multiples = np.ones(k_steps) if grid is None else np.asarray(grid, dtype=float)
    t = np.empty_like(t_ref)
    pi = np.empty_like(pi_ref)
    a = np.empty_like(a_ref)
    t[:, 0] = t_ref[:, 0]
    pi[:, 0] = pi_ref[:, 0]
    v = 1.0 / pi[:, 0]
    square = v * v
    ff = alpha * bp.feedforward
    dx = np.empty(2 * n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(k_steps):
            dx[0::2] = t[:, k] - t_ref[:, k]
            dx[1::2] = pi[:, k] - pi_ref[:, k]
            u = (a_ref[:, k] + ff[k]) + bp.gains[k] @ dx
            if box is not None:
                u = np.clip(u, *box)
            h = ds * multiples[k]
            square = square + 2.0 * h * u
            v_next = np.sqrt(square)
            pi_next = 1.0 / v_next
            if not np.all(np.isfinite(pi_next)) or np.any(pi_next <= 0.0):
                return None
            a[:, k] = u
            t[:, k + 1] = t[:, k] + 2.0 * h / (v + v_next)
            pi[:, k + 1] = pi_next
            v = v_next
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

        # both run platoon.rollout_steps, so they agree bit for bit
        t, pi, a = forward_pass(states, ctrls, ZeroLaw(), 1.0, cfg.ds, None, cfg.accel_bounds)
        assert np.array_equal(t, states.arrival_times)
        assert np.array_equal(pi, states.slownesses)
        assert np.array_equal(a, accels)

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
        t, pi, a = forward_pass(states, ctrls, law, 1.0, cfg.ds, None, cfg.accel_bounds)
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

        class HugeLaw:  # brakes 2 m/s to a stop within the first half metre
            gains = np.zeros((1, 2, 4))
            feedforward = np.full((1, 2), -50.0)

        assert forward_pass(states, ctrls, HugeLaw(), 1.0, cfg.ds, None, cfg.accel_bounds) is None

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
        got = forward_pass(states, ctrls, bp, alpha, cfg.ds, grid, open_box(n))
        want = textbook_rollout(states, ctrls, bp, alpha, cfg.ds, grid)
        # a long step may leave the domain; the shortest never does here
        assert (got is None) == (want is None)
        assert want is not None or alpha > 1e-4
        for g, w in zip(got or (), want or ()):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 1e-4])
    @pytest.mark.parametrize("receding", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_clamped_trial_bit_identical_to_textbook_rollout(self, n, receding, alpha):
        # a +-0.3 box that the law's full step leaves: the trial is rolled
        # out again with every control clipped into the box before its step
        grid = receding_grid(60) if receding else None
        args = random_instance(n, seed=50 + n, box=0.3, grid=grid)
        states, ctrls, cfg = args[0], args[1], args[3]
        box = cfg.accel_bounds
        bp = backward_with_ladder(*args, grid=grid)
        got = forward_pass(states, ctrls, bp, alpha, cfg.ds, grid, box)
        want = textbook_rollout(states, ctrls, bp, alpha, cfg.ds, grid, box)
        unclamped = forward_pass(states, ctrls, bp, alpha, cfg.ds, grid, open_box(n))
        assert np.any(np.abs(unclamped[2]) > 0.3)
        assert np.all(np.abs(got[2]) <= 0.3)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("bound, rollouts", [(50.0, 1), (0.3, 2)])
    def test_clamped_rollout_runs_only_for_a_trial_that_leaves_the_box(
        self, monkeypatch, bound, rollouts
    ):
        # the law of a plan in a +-0.3 box, rolled out against a box that
        # its full step stays in and against the plan's own box: the second
        # is rolled out again, clamped, from the first step whose control
        # leaves the box, not from step 0
        args = random_instance(3, seed=8, box=0.3)
        states, ctrls, cfg = args[0], args[1], args[3]
        box = (np.full(3, -bound), np.full(3, bound))
        bp = backward_with_ladder(*args)
        calls = []
        inner = platoon_mod._roll

        def counting(start, rows, clamp_box):
            calls.append((start, clamp_box is not None))
            return inner(start, rows, clamp_box)

        monkeypatch.setattr(platoon_mod, "_roll", counting)
        got = forward_pass(states, ctrls, bp, 1.0, cfg.ds, None, box)
        plain = forward_pass(states, ctrls, bp, 1.0, cfg.ds, None, open_box(3))
        calls = calls[:-1]  # the open-box trial's one unclamped pass
        outside = np.flatnonzero(np.any(np.abs(plain[2]) > bound, axis=0))
        assert [clamped for _, clamped in calls] == [False, True][:rollouts]
        if rollouts == 2:
            assert calls[1][0] == outside[0]
        # a trial inside the box is the unclamped rollout bit for bit
        same = all(np.array_equal(g, w) for g, w in zip(got, plain))
        assert same == (rollouts == 1)

    def test_clamp_keeps_a_trial_that_would_leave_the_domain(self):
        # the unclamped law drives a slowness negative; clamped into the box
        # the same trial stays in the domain
        args = random_instance(3, seed=7)
        states, ctrls, cfg = args[0], args[1], args[3]

        class Law:
            gains = np.zeros((60, 3, 6))
            feedforward = np.zeros((60, 3))

        Law.feedforward[30, 1] = -1e4  # brakes the second vehicle to a stop
        assert forward_pass(states, ctrls, Law(), 1.0, cfg.ds, None, open_box(3)) is None
        t, pi, a = forward_pass(states, ctrls, Law(), 1.0, cfg.ds, None, cfg.accel_bounds)
        assert a[1, 30] == -2.0
        assert np.all(np.abs(a) <= 2.0) and np.all(pi > 0.0)

    def test_rejects_rollout_leaving_domain_mid_horizon(self):
        args = random_instance(3, seed=7)
        states, ctrls, cfg = args[0], args[1], args[3]

        class Law:
            gains = np.zeros((60, 3, 6))
            feedforward = np.zeros((60, 3))

        Law.feedforward[30, 1] = -1e4  # brakes the second vehicle to a stop within step 30
        assert textbook_rollout(states, ctrls, Law(), 1.0, cfg.ds) is None
        assert forward_pass(states, ctrls, Law(), 1.0, cfg.ds, None, open_box(3)) is None
        assert forward_pass(states, ctrls, Law(), 1e-6, cfg.ds, None, open_box(3)) is not None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=5),
    receding=st.booleans(),
    alpha=st.sampled_from([1.0, 0.5, 0.1]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_resumed_clamped_trial_equals_a_full_clamped_rollout(n, receding, alpha, seed):
    # a trial whose control leaves the box is rolled out again, clamped,
    # only from the first step where one does, resuming from the state,
    # speed and speed squared stored there; on random per-vehicle boxes
    # that is the rollout clamped from step 0, bit for bit. Each box holds
    # the unclamped trial's controls up to a random step, so the resumed
    # part starts anywhere in the horizon.
    rng = np.random.default_rng(seed)
    grid = receding_grid(60) if receding else None
    args = random_instance(n, seed % 997, grid=grid)
    states, ctrls, cfg = args[0], args[1], args[3]
    bp = backward_with_ladder(*args, second=False, grid=grid)
    plain = forward_pass(states, ctrls, bp, alpha, cfg.ds, grid, open_box(n))
    inside = (ctrls.accels if plain is None else plain[2])[:, : rng.integers(1, 60)]
    margin = rng.uniform(0.0, 0.2, (2, n))
    box = (inside.min(axis=1) - margin[0], inside.max(axis=1) + margin[1])
    got = forward_pass(states, ctrls, bp, alpha, cfg.ds, grid, box)
    want = textbook_rollout(states, ctrls, bp, alpha, cfg.ds, grid, box)
    assert (got is None) == (want is None)
    for g, w in zip(got or (), want or ()):
        assert np.array_equal(g, w)


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
            t, pi, a = forward_pass(states, ctrls, bp, alpha, cfg.ds, None, cfg.accel_bounds)
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

    @pytest.mark.parametrize("braking", [1e5, np.nan])
    def test_infeasible_initial_controls_rejected(self, braking):
        # solve projects initial controls onto the box first, so the box
        # here holds 1e5 m/s^2 of braking: a plan that stops a vehicle
        # within a step, and so leaves the domain, from inside it
        cfg = make_config(
            n=2, ds=1.0, horizon_steps=10, a_min=-1e6, a_max=50.0, speed_limit=3000.0,
            speed_floor=1e-6,
        )
        w = CostWeights()
        t0 = -np.arange(2) * cfg.headway
        pi0 = np.full(2, 1.0 / cfg.target_speed)
        init = np.zeros((2, 10))
        init[1, 4] = -braking
        with pytest.raises(ConfigError, match="initial controls are infeasible"):
            solve(cfg, w, FLAT, t0, pi0, SolverOptions(), initial_controls=init)

    def test_initial_controls_projected_onto_the_box(self, monkeypatch):
        cfg = make_config(n=2, ds=1.0, horizon_steps=50, a_min=-1.0, a_max=0.5)
        w = CostWeights(q1=500.0, q2=0.01, q3=5000.0, r1=20.0, qv=2e4)
        t0 = -np.arange(2) * cfg.headway
        pi0 = np.full(2, 1.0 / cfg.target_speed)
        init = np.random.default_rng(3).uniform(-3.0, 3.0, (2, 50))
        phases = spy_phases(monkeypatch)
        report = solve(cfg, w, FLAT, t0, pi0, SolverOptions(), initial_controls=init)
        assert np.array_equal(phases[0]["accels"], np.clip(init, -1.0, 0.5))
        assert report.converged
        accels = report.controls.accels
        assert np.all((accels >= -1.0) & (accels <= 0.5))

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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("t0", ["a", 0, 0], "initial times must be numeric"),
            ("pi0", {"a": 1}, "initial slownesses must be numeric"),
            ("targets", ["x", 1, 2], "targets must be numeric"),
            ("initial_controls", "zz", "initial controls must be numeric"),
            ("initial_controls", [[0.0] * 60, [0.0]] * 2, "initial controls must be numeric"),
            ("initial_controls", [["0"] * 60] * 3, "initial controls must be numeric"),
            (
                "initial_controls", np.zeros((3, 60), dtype=bool),
                "initial controls must be numeric",
            ),
            ("targets", ["1", "2", "3"], "targets must be numeric"),
        ],
    )
    def test_non_numeric_input_rejected(self, field, value, message):
        # numpy's conversions raised ValueError or TypeError here
        problem, t0, pi0, targets, opts = self.short_collector()
        kwargs = {"t0": t0, "pi0": pi0, "targets": targets, field: value}
        with pytest.raises(ConfigError, match=message):
            solve(*problem, options=opts, **kwargs)

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
            got = forward_pass(states, ctrls, plain, alpha, cfg.ds, None, cfg.accel_bounds)
            want = forward_pass(states, ctrls, plain, alpha, cfg.ds, ones, cfg.accel_bounds)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    def test_ones_grid_bit_identical_in_a_whole_solve(self):
        # a cold hierarchy (800 -> 160 steps), a binding comfort box, whose
        # controls the backward pass holds, and a binding 21 m/s cap, which
        # runs the AL's outer passes
        scen = speed_capped(comfort_scenario(ds=1.0), 21.0)
        t0, pi0, targets = scen.initial_state()
        args = (scen.config, scen.weights, scen.profile, t0, pi0, scen.solver_options)
        plain = solve(*args, targets=targets)
        gridded = solve(*args, targets=targets, grid=np.ones(scen.config.horizon_steps))
        assert max(it.outer for it in plain.iterations) >= 1
        assert_same_plan(plain, gridded)
        assert plain.coarse_iterations == gridded.coarse_iterations
        assert plain.max_violation == gridded.max_violation

    def test_grid_of_twos_is_the_problem_at_twice_ds(self):
        # the box and a 20.3 m/s cap bind, so the held controls and the
        # penalty weights must scale with the steps too
        _, w, prof, t0, pi0 = cold_problem(300)
        fine = make_config(
            n=2, ds=0.5, horizon_steps=300, a_min=-0.3, a_max=0.3, speed_limit=20.3
        )
        coarse = dataclasses.replace(fine, ds=1.0)
        zeros = np.zeros((2, 300))
        doubled = solve(
            fine, w, prof, t0, pi0, SolverOptions(), initial_controls=zeros,
            grid=np.full(300, 2),
        )
        plain = solve(coarse, w, prof, t0, pi0, SolverOptions(), initial_controls=zeros)
        assert doubled.converged and plain.converged
        assert max(it.outer for it in plain.iterations) >= 1
        assert np.any(np.isin(plain.controls.accels, (-0.3, 0.3)))
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
            ["1"] * 100,
            [True] * 100,
        ],
        ids=[
            "short", "2d", "fraction", "zero", "negative", "nan", "inf", "text",
            "numeric text", "bool",
        ],
    )
    def test_malformed_grid_rejected_before_any_solve(self, monkeypatch, grid):
        cfg, w, prof, t0, pi0 = cold_problem(100)

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the grid was checked")

        monkeypatch.setattr(solver_mod, "_solve", no_solve)
        monkeypatch.setattr(solver_mod, "_grid_levels", no_solve)
        with pytest.raises(ConfigError, match="step grid"):
            solve(cfg, w, prof, t0, pi0, SolverOptions(), grid=grid)


# The sha256 of a receding run's stitched arrival times, slownesses and
# controls, 40 m windows replanned every 10 m, with its window and step counts.
RECEDING_SHA256 = {
    "comfort_ds0.1": (
        "c93e7b942274ac9bf762cdde337dd8d1873fcc7747de5d60cbac6814750cf601", 77, 8000
    ),
    "collector_ds1": (
        "2243ce3dd01ad9ad7ce5b0bb5980ce144e1441c8e9887597dfe08c96984badd2", 77, 800
    ),
}


@functools.lru_cache(maxsize=None)
def pinned_receding_run(case, max_executions=None):
    """The receding run of ``case`` in RECEDING_SHA256: the collector in the
    comfort box at ds = 0.1 m or plain at ds = 1 m."""
    if case == "comfort_ds0.1":
        scen = comfort_scenario(ds=0.1)
    else:
        scen = override_ds(load_scenario(resolve_scenario_path("collector")), 1.0)
    t0, pi0, _ = scen.initial_state()
    return receding_horizon_run(
        scen.config, scen.weights, scen.profile, t0, pi0, scen.solver_options,
        window_m=40.0, replan_m=10.0, max_executions=max_executions,
    )


def stitched_sha256(run):
    digest = hashlib.sha256()
    for plan in (run.states.arrival_times, run.states.slownesses, run.controls.accels):
        digest.update(plan.tobytes())
    return digest.hexdigest()


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
        e = cons.evaluate(cfg, run.states.slownesses[:, :-1])
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

    @pytest.mark.parametrize("case", sorted(RECEDING_SHA256))
    def test_stitched_plan_pinned(self, case):
        sha256, n_windows, k_steps = RECEDING_SHA256[case]
        run = pinned_receding_run(case)
        assert len(run.windows) == n_windows and run.converged
        assert run.controls.accels.shape[1] == run.states.arrival_times.shape[1] - 1 == k_steps
        if ON_HASHED_NUMPY:
            assert stitched_sha256(run) == sha256

    @pytest.mark.parametrize("max_executions", [5, 30])
    def test_stopped_run_is_the_leading_columns_of_the_full_run(self, max_executions):
        full = pinned_receding_run("comfort_ds0.1")
        run = pinned_receding_run("comfort_ds0.1", max_executions)
        k_steps = max_executions * 100  # 10 m executed per window at ds = 0.1 m
        assert run.windows == full.windows[:max_executions]
        for got, want in (
            (run.states.arrival_times, full.states.arrival_times[:, : k_steps + 1]),
            (run.states.slownesses, full.states.slownesses[:, : k_steps + 1]),
            (run.controls.accels, full.controls.accels[:, :k_steps]),
        ):
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_windows_start_on_the_step_grid(self):
        # at ds = 0.3 m a running sum of 17 * 0.3 m drifts off the grid:
        # it put window 10 at 51.00000000000001 m, not 170 * 0.3 = 51.0 m
        cfg = make_config(n=2, ds=0.3, horizon_steps=333)
        w = CostWeights(q1=500.0, q2=0.01, q3=5000.0, r1=20.0, qv=2e4)
        t0 = -np.arange(2) * cfg.headway
        pi0 = np.full(2, 1.0 / cfg.target_speed)
        seams = []

        def hook(position, t, pi):
            seams.append(position)
            return t, pi

        run = receding_horizon_run(
            cfg, w, build_preset("collector"), t0, pi0, SolverOptions(),
            window_m=20.1, replan_m=5.1, state_hook=hook,
        )
        k_replan = 17  # 5.1 / 0.3
        starts = [j * k_replan * 0.3 for j in range(len(run.windows))]
        assert [window[0] for window in run.windows] == seams == starts
        assert starts[10] == 51.0
        # every window spans 67 = 20.1 / 0.3 steps up to the route end
        assert [window[1:] for window in run.windows] == [(67 * 0.3, 67)] * 16 + [(61 * 0.3, 61)]

    @pytest.mark.parametrize(
        "ds, window_m, tail",
        [
            (0.1, 40.0, [25] * 12),
            (0.1, 40.3, [25] * 12 + [3]),  # the remainder is one step of 3 ds
            (0.1, 20.0, [25] * 4),  # a tail of exactly _COARSE_FLOOR fine steps
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
        if tail[0] != 1:
            # the tail is the cold ladder's second level over its span
            assert tail == _coarse_grid(kw - kr, _COARSE_FACTOR**2).tolist()
            assert len(grid) == kr + math.ceil((kw - kr) / 25)
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
        e = cons.evaluate(cfg, run.states.slownesses[:, :-1])
        assert run.converged and cons.max_violation(e) <= 1e-3

    @pytest.mark.parametrize(
        "window_m, replan_m, message",
        [
            # rounded, these ran 25.0 m and 0.1 m windows and 5.0 m replans
            (25.05, 5.0, "window_m 25.05 m is not a whole number of steps of ds 0.1 m (250.5"),
            (0.04, 0.04, "window_m 0.04 m is not a whole number of steps of ds 0.1 m (0.4 "),
            (20.0, 5.04, "replan_m 5.04 m is not a whole number of steps of ds 0.1 m (50.4 "),
        ],
        ids=["window", "window_under_a_step", "replan"],
    )
    def test_lengths_off_the_step_grid_rejected_before_any_solve(
        self, monkeypatch, window_m, replan_m, message
    ):
        cfg = make_config(n=2, ds=0.1, horizon_steps=1000)
        t0 = -np.arange(2) * cfg.headway
        pi0 = np.full(2, 1.0 / cfg.target_speed)

        def no_solve(*args, **kwargs):
            raise AssertionError("solve called before the lengths were checked")

        monkeypatch.setattr(solver_mod, "solve", no_solve)
        w = CostWeights(q1=500.0, q2=0.01, q3=5000.0, r1=20.0, qv=2e4)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            receding_horizon_run(
                cfg, w, build_preset("collector"), t0, pi0, SolverOptions(),
                window_m=window_m, replan_m=replan_m,
            )

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
            ("t0", "abc"),
            ("t0", [0.0, np.nan]),
            ("pi0", [0.05]),
            ("pi0", ["a", 0.05]),
        ],
    )
    def test_malformed_arguments_rejected_before_any_solve(self, monkeypatch, field, value):
        cfg = make_config(n=2, ds=1.0, horizon_steps=100)
        w = CostWeights(q1=500.0, q2=0.01, q3=5000.0, r1=20.0, qv=2e4)
        start = {"t0": -np.arange(2) * cfg.headway, "pi0": np.full(2, 1.0 / cfg.target_speed)}

        def no_solve(*args, **kwargs):
            raise AssertionError("solve called before the arguments were checked")

        monkeypatch.setattr(solver_mod, "solve", no_solve)
        kwargs = {**start, "window_m": 20.0, "replan_m": 5.0, field: value}
        names = {"t0": "initial times", "pi0": "initial slownesses"}
        with pytest.raises(ConfigError, match=names.get(field, field)):
            receding_horizon_run(
                cfg, w, build_preset("collector"), options=SolverOptions(), **kwargs
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
    """Record every call of the private solve helper; ``change`` may edit a report.

    Each record holds the call's arguments by name, its report and its wall time.
    """
    calls = []
    inner = solver_mod._solve
    signature = inspect.signature(inner)

    def spy(*args, **kwargs):
        report = inner(*args, **kwargs)
        if change is not None:
            report = change(report)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append({**bound.arguments, "report": report, "wall": report.wall_time})
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
        assert [p["grid"].size for p in phases] == [100, 500, 2500]
        assert all(p["config"] is cfg for p in phases)
        *coarse, fine = phases
        assert report.coarse_iterations == sum(len(c["report"].iterations) for c in coarse) > 0
        assert report.iterations is fine["report"].iterations
        # the report's wall time covers every level, each timed on its own
        assert report.wall_time >= sum(p["wall"] for p in phases)

    def test_coarse_problem_is_the_same_problem_on_a_coarser_grid(self, monkeypatch):
        # 2498 steps: each coarse level ends on one shorter last step
        cfg, w, prof, t0, pi0 = cold_problem(2498, ds=0.1)
        phases = spy_phases(monkeypatch)
        targets = np.array([30.0, 29.5])
        solve(cfg, w, prof, t0, pi0, SolverOptions(), targets=targets, start_position=12.5)
        assert [p["grid"].size for p in phases] == [100, 500, 2498]
        assert np.array_equal(phases[-1]["grid"], np.ones(2498))
        assert np.array_equal(phases[1]["grid"], [5] * 499 + [3])
        assert np.array_equal(phases[0]["grid"], [25] * 99 + [23])
        for coarse, fine in zip(phases, phases[1:]):
            k_coarse = -(-fine["grid"].size // _COARSE_FACTOR)
            assert coarse["grid"].size == k_coarse
            # every step but the last is _COARSE_FACTOR times the level above
            assert np.all(coarse["grid"][:-1] == _COARSE_FACTOR * fine["grid"][0])
            assert coarse["grid"].sum() == fine["grid"].sum() == 2498
        for level in phases:
            # the same problem: config, weights, targets and start position
            # stay, and the cost weighs each step by its length
            assert level["config"] is cfg and level["weights"] is w
            assert np.array_equal(level["targets"], targets)
            assert level["start_position"] == 12.5
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
        assert [p["grid"].size for p in phases] == [320, 1600, 8000]
        coarse = [p["report"] for p in phases[:-1]]
        assert sum(len(c.iterations) for c in coarse) == report.coarse_iterations > 0
        for level in coarse:
            augs = [it.aug_cost for it in level.iterations]
            assert all(b <= a + 1e-9 * max(1, abs(a)) for a, b in zip(augs, augs[1:]))

    def test_held_plan_out_of_domain_falls_back_to_zero_start(self, monkeypatch):
        cfg, w, prof, t0, pi0 = cold_problem(500)
        zero = solve(cfg, w, prof, t0, pi0, SolverOptions(), initial_controls=np.zeros((2, 500)))

        def blow_up(report):
            if report.controls.accels.shape[1] < cfg.horizon_steps:
                report.controls.accels[1, 5] = -1e5  # brakes to a stop within the step
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
        # every coarse step covers 5 fine steps but the last, which is 3 ds long
        assert np.array_equal(np.bincount(owner), [5] * 99 + [3])
        assert np.array_equal(coarse["grid"], np.bincount(owner))

    def test_mixed_grid_holds_the_coarse_plan_by_position(self, monkeypatch):
        # 252 steps of ds, then 100 of 5 ds: 752 ds of road, so the level
        # below has 150 steps of 5 ds and a last step of 2 ds
        grid = np.array([1] * 252 + [5] * 100)
        cfg, w, prof, t0, pi0 = cold_problem(grid.size)
        phases = spy_phases(monkeypatch)
        report = solve(cfg, w, prof, t0, pi0, SolverOptions(), grid=grid)
        assert report.converged
        coarse, fine = phases
        assert coarse["config"] is fine["config"] is cfg
        assert np.array_equal(coarse["grid"], [5] * 150 + [2])
        assert np.array_equal(coarse["targets"], fine["targets"])
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
        signature = inspect.signature(inner)

        def counting(*args, **kwargs):
            # every level shares the caller's config, so K is read from the plan
            controls = signature.bind(*args, **kwargs).arguments["controls"]
            horizons.append(controls.accels.shape[1])
            return inner(*args, **kwargs)

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


def speed_capped(scen, cap):
    """``scen`` with its speed limit set to ``cap`` m/s."""
    return dataclasses.replace(scen, config=dataclasses.replace(scen.config, speed_limit=cap))


def capped_collector(ds=1.0):
    """The collector preset under a 21 m/s cap, which binds: at ds = 1 m its
    cold solve runs 10 multiplier updates and converges at 21.000 m/s."""
    return speed_capped(override_ds(load_scenario(resolve_scenario_path("collector")), ds), 21.0)


def comfort_scenario(ds=None, a_min=-1.5, a_max=1.0):
    """The collector preset inside the box a in [a_min, a_max] m/s^2 (comfort by default)."""
    scen = load_scenario(resolve_scenario_path("collector"))
    if ds is not None:
        scen = override_ds(scen, ds)
    box = tuple(dataclasses.replace(v, a_min=a_min, a_max=a_max) for v in scen.config.vehicles)
    return dataclasses.replace(scen, config=dataclasses.replace(scen.config, vehicles=box))


class TestOuterSchedule:
    """The AL outer loop: loose subproblems while infeasible, one stopping rule in every pass.

    The comfort box no longer runs it (the backward pass holds the box), so
    these tests bind a speed cap instead.
    """

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
        # A cap that some judged plan breaks while every level still ends its
        # first outer pass feasible: on the arterial a judged plan of the
        # coarsest level reaches 31.47 m/s, and every level ends at 31.10
        # m/s or below. On the collector the judged plans overshoot the
        # levels' own by at most 6 mm/s, too little to hold such a cap.
        scen = speed_capped(
            override_ds(load_scenario(resolve_scenario_path("major_arterial")), 0.2), 31.3
        )
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
        # No multiplier update, so no outer pass past 0. The loose tolerance
        # still judges: some judged plan (on a coarse level) is infeasible,
        # yet none of those judgments ends an inner loop.
        assert not updates
        assert any(v > solver_mod._TOL_VIOLATION for v in judged)
        monkeypatch.setattr(solver_mod, "_LOOSE_TOL", 0.0)
        without = solve(*args, targets=targets)
        assert_same_plan(with_schedule, without)
        assert with_schedule.max_violation == without.max_violation
        assert with_schedule.coarse_iterations == without.coarse_iterations
        assert with_schedule.cost == without.cost

    def test_converged_report_judged_tightly_on_the_returned_plan(self, monkeypatch):
        scen = capped_collector()
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
        e = cons.evaluate(scen.config, report.states.slownesses[:, :-1])
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
        scen = capped_collector()
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
        # on the capped collector no prediction after an update is
        # stationary: the first backward pass that succeeds after each
        # update, in the same phase, is followed by a trial rollout
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

    def test_stationary_prediction_ends_every_outer_pass(self, monkeypatch):
        # every prediction counts as converged and every trial is rejected,
        # from a start that, projected onto the box, breaks the 21 m/s cap:
        # each outer pass, those after a multiplier update too, ends on its
        # first backward pass at the initial shift without a trial, and the
        # solve ends unconverged after max_outer passes
        cfg = make_config(n=2, ds=1.0, horizon_steps=50, a_max=1.0, speed_limit=21.0)
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
        assert trials == [0] * opts.max_outer
        assert report.iterations == []

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
            e = cons.evaluate(config, states.slownesses[:, :-1])
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


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=4),
    ds=st.sampled_from([0.5, 1.0]),
    k_steps=st.integers(min_value=20, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_plans_lie_in_random_boxes(n, ds, k_steps, seed):
    # per-vehicle boxes inside [-2, 1.5] m/s^2 on the collector's hills, a
    # 21 m/s cap that can bind, and entry errors of up to 0.3 s
    rng = np.random.default_rng(seed)
    lows, highs = rng.uniform(-2.0, -0.2, n), rng.uniform(0.2, 1.5, n)
    cfg = make_config(n=n, ds=ds, horizon_steps=k_steps, speed_limit=21.0)
    cfg = dataclasses.replace(
        cfg,
        vehicles=tuple(
            dataclasses.replace(v, a_min=lo, a_max=hi)
            for v, lo, hi in zip(cfg.vehicles, lows, highs)
        ),
    )
    w = CostWeights(q1=500.0, q2=0.01, q3=5000.0, r1=20.0, qv=2e4, power_floor=0.0)
    prof = build_preset("collector")
    t0 = -np.arange(n) * cfg.headway + rng.uniform(-0.3, 0.3, n)
    pi0 = 1.0 / rng.uniform(19.0, 21.0, n)
    start = rng.uniform(-3.0, 3.0, (n, k_steps))
    opts = SolverOptions()

    def in_box(accels):
        return np.all((accels >= lows[:, None]) & (accels <= highs[:, None]))

    cold = solve(cfg, w, prof, t0, pi0, opts)
    warm = solve(cfg, w, prof, t0, pi0, opts, initial_controls=start)
    # a start outside the box is projected onto it first
    projected = solve(cfg, w, prof, t0, pi0, opts, initial_controls=np.clip(
        start, lows[:, None], highs[:, None]
    ))
    assert_same_plan(warm, projected)
    for report in (cold, warm):
        assert in_box(report.controls.accels)
        # each outer pass's accepted iterations lower its augmented cost
        for a, b in zip(report.iterations, report.iterations[1:]):
            if a.outer == b.outer:
                assert b.aug_cost <= a.aug_cost
        violation = cons.max_violation(cons.evaluate(cfg, report.states.slownesses[:, :-1]))
        assert violation == report.max_violation
        assert violation <= 1e-3 or not report.converged
    run = receding_horizon_run(
        cfg, w, prof, t0, pi0, opts, window_m=15.0 * ds, replan_m=5.0 * ds
    )
    assert in_box(run.controls.accels)
    assert run.max_violation <= 1e-3 or not run.converged


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

    @staticmethod
    def receding_comfort():
        return dataclasses.replace(
            comfort_scenario(), horizon_mode="receding", window_m=40.0, replan_m=10.0
        )

    def test_receding_comfort(self, monkeypatch):
        counts = count_solver_calls(monkeypatch)
        eco = run_eco(self.receding_comfort())
        assert len(eco.report.exec_times) == 77
        assert eco.report.converged
        # the comfort box is held inside DDP, so no window runs the AL
        assert counts == Counter(
            solve=77, iterations=131, unconverged=0, backward_pass=208, raised=0,
            forward_pass=150, update_multipliers=0,
        )

    def test_receding_comfort_plan(self):
        # the stitched plan of windows with 5 ds tails: the 25 ds tails
        # shorten each solve, and they must not buy a different controller
        eco = run_eco(self.receding_comfort())
        run = eco.report
        assert eco.fuel_total == pytest.approx(0.457277, rel=1e-3)
        np.testing.assert_allclose(
            run.states.arrival_times[:, -1], [40.235531, 39.410289, 38.087827], rtol=0, atol=0.01
        )
        assert run.converged and run.max_violation == 0.0

    def test_stability_n5_row(self, monkeypatch):
        scen = load_scenario(resolve_scenario_path("collector"))
        base = scen.config
        cfg = dataclasses.replace(base, vehicles=tuple(base.vehicles[0] for _ in range(5)))
        t0 = -np.arange(5) * cfg.headway
        pi0 = np.full(5, 1.0 / cfg.target_speed)
        counts = count_solver_calls(monkeypatch)
        levels = []
        inner_solve = solver_mod._solve

        def level_spy(*args, **kwargs):
            before = counts.copy()
            level = inner_solve(*args, **kwargs)
            took = counts - before
            levels.append((
                level.controls.accels.shape[1], len(level.iterations), took["backward_pass"],
                took["raised"], took["forward_pass"],
            ))
            return level

        monkeypatch.setattr(solver_mod, "_solve", level_spy)
        cold = solver_mod.solve(cfg, scen.weights, scen.profile, t0, pi0, scen.solver_options)
        for delta in (0.25, 0.5, 1.0):
            run_perturbation(
                cfg, scen.weights, scen.profile, PerturbationSpec(magnitude=delta),
                scen.solver_options, baseline_report=cold,
            )
        assert counts == Counter(
            solve=4, iterations=0, unconverged=0, backward_pass=60, raised=10,
            forward_pass=64, update_multipliers=0,
        )
        # each solve's levels (K, accepted iterations, backward passes,
        # failed backward passes, rollouts): on exact arcs the held plan of
        # K = 1600 is already stationary at K = 8000, so every
        # full-resolution level stops after its one backward pass
        assert levels == [
            (320, 8, 9, 0, 15), (1600, 1, 2, 0, 1), (8000, 0, 1, 0, 0),
            (320, 10, 11, 0, 20), (1600, 1, 2, 0, 1), (8000, 0, 1, 0, 0),
            (320, 9, 10, 0, 16), (1600, 1, 2, 0, 1), (8000, 0, 1, 0, 0),
            (320, 7, 18, 10, 9), (1600, 1, 2, 0, 1), (8000, 0, 1, 0, 0),
        ]


class TestCappedSolveCounts:
    """The AL's path on two capped cold solves at ds = 1 m, pinned by its counts.

    No benchmark workload runs a multiplier update, so these pin the outer
    loop's work, which a change to the AL must beat; like the workload
    counts, they are integers and hold on every numpy.
    """

    @pytest.mark.parametrize(
        "preset, cap, iterations, backward, rollouts, updates",
        [("collector", 21.0, 36, 66, 76, 10), ("major_arterial", 30.0, 27, 78, 122, 11)],
        ids=["collector-21.0", "major_arterial-30.0"],
    )
    def test_cold_solve(self, monkeypatch, preset, cap, iterations, backward, rollouts, updates):
        scen = speed_capped(override_ds(load_scenario(resolve_scenario_path(preset)), 1.0), cap)
        t0, pi0, targets = scen.initial_state()
        counts = count_solver_calls(monkeypatch)
        report = solver_mod.solve(
            scen.config, scen.weights, scen.profile, t0, pi0, scen.solver_options,
            targets=targets,
        )
        assert report.converged
        assert counts == Counter(
            solve=1, iterations=iterations, unconverged=0, backward_pass=backward, raised=0,
            forward_pass=rollouts, update_multipliers=updates,
        )

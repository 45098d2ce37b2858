"""Constrained trajectory optimizer: DDP inner loop, augmented-Lagrangian outer loop.

One solve alternates two phases until tolerances or iteration caps are hit:

* inner phase: backward pass building a quadratic model of the cost-to-go
  (value Hessian A_k, gradient b_k) step by step from the terminal cost,
  extracting an affine feedback law u(x) = u_ref + h_k (x - x_ref) + j_k,
  then a forward rollout of the true nonlinear dynamics with a backtracking
  line search on the feedforward term;
* outer phase: slack, multiplier, and penalty updates for the inequality
  constraints, after which the inner phase resumes on the reshaped cost.

The backward pass stacks each step's quadratic model into one block over
[dx; 1; du], with the gradients in the row and column of the constant
coordinate, so a step costs one product with the dynamics Jacobian, added
in place into that step's stage block, and one solve on [Q_ux | q_u]. It
keeps the second-order dynamics terms (the value-gradient contractions
against the step Jacobian derivatives), added through strided views of the
stage blocks and of the value buffer; ``use_second_order`` switches them off
for a Gauss-Newton (iLQR-style) pass. The control Hessian is made positive
definite with a Levenberg shift that grows on failure; its Cholesky test
runs batched once per 64-step chunk of the sweep and names the highest
failing step, as a per-step test would. The forward rollout runs in the
row-major interleaved state and checks the slowness domain once at the end.

A solve is single-threaded and deterministic; independent solves may run
concurrently since all mutable state is owned per call.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from . import constraints as cons
from . import costs
from .errors import BackwardPassError, ConfigError, IntegrationError
from .platoon import ControlTrajectory, PlatoonConfig, PlatoonState, rollout
from .terrain import SlopeProfile, grade_at


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances, caps, and schedules of the solver; all deterministic."""

    max_inner: int = 50
    max_outer: int = 8
    tol_cost_rel: float = 1e-6
    tol_violation: float = 1e-3
    reg_init: float = 1e-6
    reg_factor: float = 10.0
    reg_max: float = 1e6
    alpha_min: float = 1e-4
    armijo_c: float = 1e-4
    backtrack_factor: float = 0.5
    use_second_order: bool = True  # False drops the dynamics curvature terms (iLQR mode)
    rho_init: float = 10.0
    rho_factor: float = 10.0


@dataclass
class ValueModel:
    """Quadratic cost-to-go model at one step, up to its constant: 0.5 dx'A dx + b'dx."""

    hessian: np.ndarray
    gradient: np.ndarray


@dataclass
class IterationRecord:
    """One accepted inner iteration."""

    outer: int
    cost: float
    aug_cost: float
    max_violation: float
    step_length: float
    regularization: float
    expected_decrease: float
    actual_decrease: float


@dataclass
class SolveReport:
    """Solver output: converged plan plus diagnostics."""

    states: PlatoonState
    controls: ControlTrajectory
    cost: costs.CostBreakdown
    iterations: list
    wall_time: float
    converged: bool
    max_violation: float
    targets: np.ndarray
    value_gradient0: np.ndarray = field(default=None, repr=False)

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)


@dataclass
class BackwardPassResult:
    gains: np.ndarray  # (K, N, 2N)
    feedforward: np.ndarray  # (K, N)
    d1: float  # sum_k j'Q_u
    d2: float  # sum_k j'Q_uu j
    value0: ValueModel

    def expected_decrease(self, alpha: float) -> float:
        return -(alpha * self.d1 + 0.5 * alpha**2 * self.d2)


def _dynamics_coeffs(pi_traj: np.ndarray, accels: np.ndarray, ds: float):
    """Per-(step, vehicle) dynamics derivatives along a trajectory.

    pi_traj is (N, K+1); accels is (N, K). Returns (K, N) arrays:
    g = d pi'/d pi, fu = d pi'/d a, cxx = d2 pi'/d pi2, cux = d2 pi'/d a d pi.
    """
    pi = pi_traj[:, :-1].T  # (K, N)
    a = accels.T
    g = 1.0 - 3.0 * a * pi**2 * ds
    fu = -(pi**3) * ds
    cxx = -6.0 * a * pi * ds
    cux = -3.0 * pi**2 * ds
    return g, fu, cxx, cux


# Steps per batched definiteness test of Q_uu in the backward sweep. A sweep
# that passes a failing step runs on to the end of its chunk before it
# raises, so this bounds the wasted steps; a test over the whole horizon
# would run failing sweeps down to step 0.
_TEST_CHUNK = 64


def _test_definite(control_hessians, lo, hi, regularization):
    """Raise BackwardPassError at the highest step in [lo, hi) whose Q_uu fails Cholesky."""
    try:
        np.linalg.cholesky(control_hessians[lo:hi])
    except np.linalg.LinAlgError:
        for k in range(hi - 1, lo - 1, -1):
            try:
                np.linalg.cholesky(control_hessians[k])
            except np.linalg.LinAlgError:
                raise BackwardPassError(
                    f"control Hessian not positive definite at step {k} "
                    f"with shift {regularization:g}"
                )


def backward_pass(
    states: PlatoonState,
    controls: ControlTrajectory,
    thetas: np.ndarray,
    config: PlatoonConfig,
    weights: costs.CostWeights,
    cset: cons.ConstraintSet,
    al: cons.ALState,
    targets: np.ndarray,
    regularization: float,
    use_second_order: bool = True,
) -> BackwardPassResult:
    """Build feedback laws for every step, sweeping the value model backward.

    Each step works on one stacked block over z = [dx; 1; du]: the stage
    model L_k (Hessian blocks, gradients in the homogeneous row and column,
    Levenberg shift on the control diagonal) plus F_k' V F_k, where
    F_k = [f_x, 0, f_u; 0, 1, 0] and V = [A, b; b', .] is the next step's
    value model. The control rows of that block are [Q_ux | q_u | Q_uu], so
    one solve gives gains and feedforward together, and the upper-left
    block minus Q_ux' Q_uu^-1 [Q_ux | q_u] is the new value model.

    Q is accumulated in place into the stage block of each step, and the
    value update is written into one persistent buffer. The Cholesky test
    of Q_uu is not taken per step: it runs batched over each chunk of
    ``_TEST_CHUNK`` steps once the sweep has passed it, so a sweep that
    fails runs on at most to the bottom of its chunk. Gains, feedforward,
    ``d1``, ``d2`` and ``value0`` are bit-identical to a sweep that tests
    every step before its solve.

    Raises BackwardPassError, naming the highest step whose shifted control
    Hessian fails its Cholesky factorization; the caller retries with a
    larger shift.
    """
    t_traj = states.arrival_times
    pi_traj = states.slownesses
    accels = controls.accels
    n = config.n_vehicles
    dim = 2 * n
    one = dim  # index of the homogeneous coordinate
    u0 = dim + 1  # first control index
    size = 3 * n + 1
    k_steps = accels.shape[1]
    ds = config.ds
    ai = np.arange(n)
    ti = 2 * ai
    pj = ti + 1
    ui = u0 + ai

    # Stage blocks go in first and are freed before the AL blocks are built.
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
    del stage
    add_blocks(*cons.al_derivative_batch(cset, al, pi_traj[:, :-1], accels, active_set=True))
    stage_model[:, ui, ui] += regularization

    g, fu_c, cxx, cux = _dynamics_coeffs(pi_traj, accels, ds)
    jac = np.zeros((k_steps, dim + 1, size))
    jac[:, ti, ti] = 1.0
    jac[:, ti, pj] = ds
    jac[:, pj, pj] = g
    jac[:, pj, ui] = fu_c
    jac[:, one, one] = 1.0

    lf_x, lf_xx = costs.terminal_derivatives(
        t_traj[:, -1], config, weights, targets, pi_final=pi_traj[:, -1]
    )
    value = np.zeros((dim + 1, dim + 1))
    value[:dim, :dim] = lf_xx
    value[:dim, one] = lf_x
    value[one, :dim] = lf_x

    # Value-gradient contractions with the dynamics curvature: the only
    # nonzero second derivatives sit on the slowness updates, entering
    # Q_xx at (pi, pi) and Q_ux at (a, pi), both scaled by b at pi. All
    # three index sets are evenly spaced in the flattened blocks, so they
    # are basic-slice views: b into the value buffer, the targets into Q.
    flat = stage_model.reshape(k_steps, size * size)
    q_pp = flat[:, size + 1 : 2 * n * (size + 1) : 2 * (size + 1)]
    q_up = flat[:, u0 * size + 1 :: size + 2]
    b_p = value.reshape(-1)[dim + 1 + one :: 2 * (dim + 1)]

    control_hessians = stage_model[:, u0:, u0:]
    steps = np.empty((k_steps, n, dim + 1))  # Q_uu^-1 [Q_ux | q_u]

    # A sweep that passes a failing step works on garbage until its chunk
    # is tested; that work is thrown away, so its overflows are silenced.
    # This silences kept steps too, but inf or NaN that reaches a Q_uu
    # fails its Cholesky test.
    with np.errstate(over="ignore", invalid="ignore"):
        for hi in range(k_steps, 0, -_TEST_CHUNK):
            lo = max(hi - _TEST_CHUNK, 0)
            for k in range(hi - 1, lo - 1, -1):
                fk = jac[k]
                qk = stage_model[k]
                # ndarray.dot rather than @: on blocks this small it costs
                # about half as much, and call overhead bounds the sweep.
                qk += fk.T.dot(value.dot(fk))
                if use_second_order:
                    q_pp[k] += b_p * cxx[k]
                    q_up[k] += b_p * cux[k]
                rhs = qk[u0:, :u0]
                try:
                    step = np.linalg.solve(control_hessians[k], rhs)
                except np.linalg.LinAlgError:
                    _test_definite(control_hessians, k, hi, regularization)
                    raise
                steps[k] = step
                np.subtract(qk[:u0, :u0], rhs.T.dot(step), out=value)
            _test_definite(control_hessians, lo, hi, regularization)

    feedforward = -steps[:, :, one]
    control_rows = stage_model[:, u0:, one:].copy()  # [q_u | Q_uu]
    q_u = control_rows[:, :, 0]
    q_uu = control_rows[:, :, 1:]
    return BackwardPassResult(
        gains=-steps[:, :, :dim],
        feedforward=feedforward,
        d1=float(np.einsum("ki,ki->", feedforward, q_u)),
        d2=float(np.einsum("ki,kij,kj->", feedforward, q_uu, feedforward)),
        value0=ValueModel(hessian=value[:dim, :dim].copy(), gradient=value[:dim, one].copy()),
    )


def forward_pass(
    states: PlatoonState,
    controls: ControlTrajectory,
    bp: BackwardPassResult,
    step_length: float,
    ds: float,
):
    """Roll the nonlinear dynamics under the affine law with feedforward scale alpha.

    Returns (new_times, new_slownesses, new_accels) or None when the rollout
    leaves the positive-slowness domain (the caller shrinks alpha).
    """
    a_ref = controls.accels
    n, k_steps = a_ref.shape
    # Row-major rollout in the flat interleaved state [t1, pi1, ..., tN, piN].
    x_ref = np.empty((k_steps + 1, 2 * n))
    x_ref[:, 0::2] = states.arrival_times.T
    x_ref[:, 1::2] = states.slownesses.T
    x_new = np.empty_like(x_ref)
    x_new[0] = x_ref[0]
    u_new = a_ref.T.copy()
    feedforward = step_length * bp.feedforward
    # overly aggressive trial steps can overflow the cubic term; those
    # rollouts are rejected by the finiteness check, so silence the warning
    with np.errstate(over="ignore", invalid="ignore"):
        for x_k, x_next, xr_k, gain, u_k, ff_k in zip(
            x_new, x_new[1:], x_ref, bp.gains, u_new, feedforward
        ):
            u_k += gain.dot(x_k - xr_k)
            u_k += ff_k
            pi_k = x_k[1::2]
            x_next[0::2] = x_k[0::2] + pi_k * ds
            x_next[1::2] = pi_k - u_k * pi_k**3 * ds
    pi_new = x_new[:, 1::2]
    if not np.all(np.isfinite(pi_new)) or np.any(pi_new <= 0.0):
        return None
    return (
        np.ascontiguousarray(x_new[:, 0::2].T),
        np.ascontiguousarray(pi_new.T),
        np.ascontiguousarray(u_new.T),
    )


def solve(
    config: PlatoonConfig,
    weights: costs.CostWeights,
    profile: SlopeProfile,
    t0,
    pi0,
    options: SolverOptions = SolverOptions(),
    targets=None,
    initial_controls=None,
    start_position: float = 0.0,
) -> SolveReport:
    """Plan the platoon over ``config.horizon_steps`` spatial steps.

    ``t0``/``pi0`` are per-vehicle entry times and slownesses at the start
    position. ``targets`` overrides the per-vehicle terminal arrival targets
    (default: entry-anchored schedule at the target speed). The report flags
    convergence honestly; a non-converged solve still returns the best
    trajectory found plus its iteration history.
    """
    start = time.perf_counter()
    t0 = np.asarray(t0, dtype=float)
    pi0 = np.asarray(pi0, dtype=float)
    n = config.n_vehicles
    if t0.shape != (n,) or pi0.shape != (n,):
        raise ConfigError(f"initial state must have shape ({n},)")
    if np.any(pi0 <= 0):
        raise ConfigError("initial slowness must be positive")
    k_steps = config.horizon_steps
    ds = config.ds

    grid = start_position + ds * np.arange(k_steps)
    thetas = grade_at(profile, np.minimum(grid, profile.total_length))
    if targets is None:
        targets = costs.schedule_targets(config, t0)
    targets = np.asarray(targets, dtype=float)

    if initial_controls is None:
        accels = np.zeros((n, k_steps))
    else:
        accels = np.array(initial_controls, dtype=float)
        if accels.shape != (n, k_steps):
            raise ConfigError(f"initial controls must have shape ({n}, {k_steps})")

    cset = cons.ConstraintSet.from_config(config)
    al = cons.ALState.initial(k_steps, cset.n_constraints, options.rho_init)

    try:
        reference = rollout(t0, pi0, accels, ds)
    except IntegrationError:
        raise ConfigError("initial controls are infeasible (slowness left the domain)")
    times, slows = reference.arrival_times, reference.slownesses

    def eval_true(t_arr, pi_arr, a_arr):
        true_cost, breakdown = costs.trajectory_cost(
            t_arr, pi_arr, a_arr, thetas, config, weights, targets
        )
        e = cons.evaluate(cset, pi_arr[:, :-1], a_arr)
        return true_cost, breakdown, e

    true_cost, breakdown, e_vals = eval_true(times, slows, accels)
    # Slacks track the trajectory: s = max(0, -lam/rho - e) zeroes the penalty
    # on satisfied constraints, so only violations shape the inner problem.
    al = cons.update_slack(al, e_vals)
    aug_cost = true_cost + cons.penalty(e_vals, al)

    iterations: list = []
    reg = options.reg_init
    converged = False
    value0 = None

    for outer in range(options.max_outer):
        inner_converged = False
        inner_count = 0
        while inner_count < options.max_inner:
            state_obj = PlatoonState(arrival_times=times, slownesses=slows)
            ctrl_obj = ControlTrajectory(accels=accels)
            bp = None
            while True:
                try:
                    bp = backward_pass(
                        state_obj,
                        ctrl_obj,
                        thetas,
                        config,
                        weights,
                        cset,
                        al,
                        targets,
                        reg,
                        options.use_second_order,
                    )
                    break
                except BackwardPassError:
                    reg = reg * options.reg_factor if reg > 0 else options.reg_init
                    if reg > options.reg_max:
                        bp = None
                        break
            if bp is None:
                break
            value0 = bp.value0

            expected_full = bp.expected_decrease(1.0)
            scale = max(1.0, abs(aug_cost))
            if expected_full <= options.tol_cost_rel * scale:
                inner_converged = True
                break

            alpha = 1.0
            accepted = False
            while alpha >= options.alpha_min:
                result = forward_pass(state_obj, ctrl_obj, bp, alpha, ds)
                if result is not None:
                    t_new, pi_new, a_new = result
                    new_true, new_breakdown, new_e = eval_true(t_new, pi_new, a_new)
                    new_aug = new_true + cons.penalty(new_e, al)
                    expected = bp.expected_decrease(alpha)
                    actual = aug_cost - new_aug
                    if actual < options.armijo_c * max(expected, 0.0) or actual <= 0.0:
                        # Fit the measured decrease with a parabola through the
                        # origin slope and jump near its maximizer instead of
                        # halving blindly; the plain backtrack is the fallback.
                        slope = -bp.d1
                        curv = 2.0 * (slope * alpha - actual) / alpha**2
                        if curv > 0.0 and slope > 0.0:
                            alpha_star = slope / curv
                            if (
                                options.alpha_min <= alpha_star < 0.9 * alpha
                                and alpha_star > alpha * options.backtrack_factor
                            ):
                                alpha = alpha_star
                                continue
                    if actual >= options.armijo_c * max(expected, 0.0) and actual > 0.0:
                        times, slows, accels = t_new, pi_new, a_new
                        true_cost, breakdown, e_vals = new_true, new_breakdown, new_e
                        al = cons.update_slack(al, e_vals)
                        aug_cost = true_cost + cons.penalty(e_vals, al)
                        iterations.append(
                            IterationRecord(
                                outer=outer,
                                cost=true_cost,
                                aug_cost=aug_cost,
                                max_violation=cons.max_violation(e_vals),
                                step_length=alpha,
                                regularization=reg,
                                expected_decrease=expected,
                                actual_decrease=actual,
                            )
                        )
                        accepted = True
                        break
                alpha *= options.backtrack_factor
            if accepted:
                inner_count += 1
                reg = max(options.reg_init, reg / options.reg_factor)
                if iterations[-1].actual_decrease <= options.tol_cost_rel * max(
                    1.0, abs(aug_cost)
                ):
                    inner_converged = True
                    break
            else:
                reg = reg * options.reg_factor if reg > 0 else options.reg_init
                if reg > options.reg_max:
                    inner_converged = bp.expected_decrease(1.0) <= 10 * options.tol_cost_rel * scale
                    break

        violation = cons.max_violation(e_vals)
        if inner_converged and violation <= options.tol_violation:
            converged = True
            break

        al = cons.update_slack(al, e_vals)
        al = cons.update_multipliers(al, e_vals)
        al = cons.escalate_penalty(al, e_vals, options.rho_factor, options.tol_violation)
        al = cons.update_slack(al, e_vals)
        aug_cost = true_cost + cons.penalty(e_vals, al)

    wall = time.perf_counter() - start
    return SolveReport(
        states=PlatoonState(arrival_times=times, slownesses=slows),
        controls=ControlTrajectory(accels=accels),
        cost=breakdown,
        iterations=iterations,
        wall_time=wall,
        converged=converged,
        max_violation=cons.max_violation(e_vals),
        targets=targets,
        value_gradient0=None if value0 is None else value0.gradient,
    )


@dataclass
class RecedingRun:
    """Stitched output of a receding-horizon execution."""

    states: PlatoonState
    controls: ControlTrajectory
    exec_times: list  # seconds per window solve
    windows: list  # (start_position, window_length) per execution
    all_converged: bool


def receding_horizon_run(
    config: PlatoonConfig,
    weights: costs.CostWeights,
    profile: SlopeProfile,
    t0,
    pi0,
    options: SolverOptions,
    window_m: float,
    replan_m: float,
    route_length: float | None = None,
    max_executions: int | None = None,
    state_hook=None,
) -> RecedingRun:
    """Repeatedly solve a sliding window and execute its first segment.

    The platoon advances ``replan_m`` meters per execution; each window is
    planned against the entry-anchored arrival schedule so lateness is never
    silently forgiven. ``state_hook(position, t, pi) -> (t, pi)`` lets a
    caller inject boundary perturbations between executions. Per-execution
    wall time covers the window solve only.
    """
    if replan_m > window_m:
        raise ConfigError("replan interval cannot exceed the window length")
    ds = config.ds
    route_length = config.route_length if route_length is None else float(route_length)
    t_cur = np.asarray(t0, dtype=float).copy()
    pi_cur = np.asarray(pi0, dtype=float).copy()
    entry_times = t_cur.copy()
    n = config.n_vehicles

    exec_times = []
    windows = []
    all_converged = True
    times_out = [t_cur.copy()]
    slows_out = [pi_cur.copy()]
    accel_cols = []
    warm = None
    s0 = 0.0
    while s0 < route_length - 1e-9:
        w_eff = min(window_m, route_length - s0)
        kw = max(1, int(round(w_eff / ds)))
        w_eff = kw * ds
        if state_hook is not None:
            t_cur, pi_cur = state_hook(s0, t_cur, pi_cur)
        win_cfg = dataclasses.replace(config, horizon_steps=kw)
        targets = entry_times + (s0 + w_eff) / config.target_speed
        if warm is not None and warm.shape[1] >= kw:
            init = warm[:, :kw]
        elif warm is not None:
            init = np.concatenate(
                [warm, np.zeros((n, kw - warm.shape[1]))], axis=1
            )
        else:
            init = None
        tic = time.perf_counter()
        report = solve(
            win_cfg,
            weights,
            profile,
            t_cur,
            pi_cur,
            options,
            targets=targets,
            initial_controls=init,
            start_position=s0,
        )
        exec_times.append(time.perf_counter() - tic)
        windows.append((s0, w_eff))
        all_converged = all_converged and report.converged

        exec_steps = kw if s0 + w_eff >= route_length - 1e-9 else min(
            kw, max(1, int(round(replan_m / ds)))
        )
        accels = report.controls.accels
        accel_cols.append(accels[:, :exec_steps])
        times_exec = report.states.arrival_times[:, 1 : exec_steps + 1]
        slows_exec = report.states.slownesses[:, 1 : exec_steps + 1]
        times_out.append(times_exec)
        slows_out.append(slows_exec)
        t_cur = times_exec[:, -1].copy()
        pi_cur = slows_exec[:, -1].copy()
        warm = accels[:, exec_steps:]
        s0 += exec_steps * ds
        if max_executions is not None and len(exec_times) >= max_executions:
            break

    times = np.column_stack([times_out[0][:, None]] + times_out[1:])
    slows = np.column_stack([slows_out[0][:, None]] + slows_out[1:])
    accels = np.column_stack(accel_cols) if accel_cols else np.zeros((n, 0))
    return RecedingRun(
        states=PlatoonState(arrival_times=times, slownesses=slows),
        controls=ControlTrajectory(accels=accels),
        exec_times=exec_times,
        windows=windows,
        all_converged=all_converged,
    )

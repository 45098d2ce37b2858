"""Constrained trajectory optimizer: control-limited DDP in an augmented-Lagrangian loop.

``solve`` is one pipeline: it lists the grid levels of the problem, then
solves each level in one loop, every level from the plan of the one before.
Each level's solve (``_solve``) alternates two phases until tolerances or
iteration caps are hit:

* inner phase: backward pass building a quadratic model of the cost-to-go
  (value Hessian A_k, gradient b_k) step by step from the terminal cost,
  extracting an affine feedback law u(x) = u_ref + h_k (x - x_ref) + j_k,
  then a forward rollout of the true nonlinear dynamics with a backtracking
  Armijo line search on the feedforward term (``_line_search``);
* outer phase: one update of the speed bounds' multipliers and penalty
  weights (``cons.update_multipliers``), after which the inner phase
  resumes on the reshaped cost.
  Penalty weights start at ``_RHO_INIT`` times ``costs.step_weight``, so
  the augmented cost weighs each step by its length, as the cost does.

Each vehicle's acceleration box [a_min, a_max] (``config.accel_bounds``) is
not in the AL: it is held inside DDP, as in control-limited DDP (Tassa,
Mansard & Todorov, ICRA 2014), so every plan a solve returns lies in the
box. ``solve`` projects explicit initial controls onto the box. The
backward pass holds a control that sits on a bound of the reference plan
when its Newton step points out of the box (``_hold``): a zero gain row and
feedforward, with the free controls solved again with it fixed. The steps
with a control on a bound are listed by one compare per pass, and every
other step runs the plain sweep. The forward pass clamps each trial's
controls into the box, rolling out again with the clamp only from the
first step where the unclamped trial leaves the box. A plan that never
reaches the box runs the arithmetic of unconstrained DDP.

The inner phase has one convergence rule: it converges when the predicted
decrease, or an accepted step's actual decrease, falls below a relative
tolerance of the augmented cost, looser while the plan breaks the speed
bounds (see ``_LOOSE_TOL``). A failed Cholesky test or a line search
without an Armijo step grows the Levenberg shift; at ``max_inner``
accepted steps the inner phase ends unconverged, and past ``_REG_MAX`` the
whole level does, with no further outer pass or multiplier update. A
solve converges when its inner phase does on a plan within
``_TOL_VIOLATION``.

The backward pass works in the interleaved state [t1, pi1, ..., tN, piN],
the layout of ``platoon.rollout_steps``: ``costs`` and ``constraints`` give
their derivatives as per-vehicle series, and the backward pass places them.
It stacks each step's quadratic model into one block over [dx; 1; du],
with the gradients in the row and column of the constant coordinate, so a
step costs one product with the dynamics Jacobian, added in place into
that step's stage block, and one solve on [Q_ux | q_u]. That solve calls LAPACK's ``gesv`` gufunc, the one
``numpy.linalg.solve`` wraps, directly: the wrapper's array conversion,
type check and error-state context cost about twice the solve itself, and
the sweep needs none of them, since it owns its error state and its batched
definiteness test judges every step. It keeps the second-order dynamics
terms (the value-gradient contractions against the second derivatives of
the arc step, one product per step), added through strided views of the
stage blocks; ``use_second_order`` switches them off for a Gauss-Newton
(iLQR-style) pass. The derivative series, the stage blocks and the step
Jacobians are built ``_BUILD_CHUNK`` steps at a time, just before the sweep
reaches them, the blocks and Jacobians into two reused buffers, and each
step's solve lands in a third, whose chunk is negated into the gains and
feedforward. A pass's working memory is O(C (3N+1)^2) for
C = ``_BUILD_CHUNK``, plus O(K N^2): the gains, the feedforward, the
control rows [q_u | Q_uu] that the predicted decrease sums and the marks
of the controls on the box. The control Hessian is made positive definite
with a Levenberg shift that grows on failure; its Cholesky test runs once
per chunk, on the chunk's whole Q_uu stack after the sweep has passed it,
and names the highest failing step, as a per-step test would; a Q_uu with
an inf or NaN entry fails it too. A Gauss-Newton pass builds no curvature
buffer. The forward rollout is ``platoon.rollout_steps`` under the backward
pass's affine law, the package's one per-step loop of the dynamics; each
level's open-loop start is the same function's two prefix sums.

The backward sweep does only its arithmetic: each step reads row views
that numpy makes in C by iterating the sweep's buffers, adds in place into
them and writes through positional or ``out=`` outputs into preallocated
rows. A view or an output buffer changes where a result lands, not the
floating-point operations that make it.

The grid is a per-step array (``platoon.step_grid``): step k spans
grid[k] whole multiples of ``config.ds``. The dynamics, their derivatives,
the cost weights, the initial penalty weights and the grade samples are all
elementwise in the step length, and a grid of ones (the default) is the
uniform grid bit for bit.

Both ways of speeding a solve up coarsen by one rule, ``_coarse_grid``:
steps of a whole multiple of ds over a span of road, the remainder one
shorter last step, on the caller's config and targets. A solve given no
initial controls starts cold on a ladder of such grids (``_grid_levels``),
nested iteration in the sense of Brandt (Math. Comp. 31, 1977): level L
covers the problem's span with steps of ``_COARSE_FACTOR``**L ds, down to
a level of at least ``_COARSE_FLOOR`` steps. The coarsest level starts from
zero controls and each later one from the plan of the level below, held at
ds and sampled where each of its steps starts. On the collector preset
that takes the full-resolution solve from 13 backward passes down to 1.
Explicit initial controls, zeros included, are a ladder of one level.

``receding_horizon_run`` solves every window but the last at ds over the
segment it executes and on a coarse grid of ``_COARSE_FACTOR``**2 ds, the
step of a cold ladder's second level, over the rest of the window, when
that rest spans at least ``_COARSE_FLOOR`` steps: move blocking in
receding-horizon control. A 40 m window at ds = 0.1 m that executes 10 m
is 112 steps instead of 400.

A solve is single-threaded and deterministic; independent solves may run
concurrently since all mutable state is owned per call.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from numpy.lib.stride_tricks import as_strided
from numpy.linalg import _umath_linalg

from . import constraints as cons
from . import costs
from .errors import (
    BackwardPassError,
    ConfigError,
    finite_float,
    finite_vector,
    float_array,
    integer_at_least,
    whole_steps,
)
from .platoon import (
    ControlTrajectory,
    PlatoonConfig,
    PlatoonState,
    dynamics_derivatives,
    rollout_steps,
    step_grid,
    step_starts,
)
from .terrain import SlopeProfile, grade_at


@dataclass(frozen=True)
class SolverOptions:
    """Iteration caps, the inner stopping tolerance and the DDP mode of a solve."""

    max_inner: int = 50
    max_outer: int = 8
    tol_cost_rel: float = 1e-6
    use_second_order: bool = True  # False drops the dynamics curvature terms (iLQR mode)

    def __post_init__(self):
        for name in ("max_inner", "max_outer"):
            integer_at_least(getattr(self, name), name, 1)
        finite_float(self.tol_cost_rel, "tol_cost_rel", positive=True)
        if not isinstance(self.use_second_order, bool):
            raise ConfigError(f"use_second_order must be a bool, got {self.use_second_order!r}")


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
    coarse_iterations: int = 0  # accepted iterations of a cold start's coarse levels


@dataclass
class BackwardPassResult:
    gains: np.ndarray  # (K, N, 2N)
    feedforward: np.ndarray  # (K, N)
    d1: float  # sum_k j'Q_u
    d2: float  # sum_k j'Q_uu j

    def expected_decrease(self, alpha: float) -> float:
        return -(alpha * self.d1 + 0.5 * alpha**2 * self.d2)


# The Levenberg shift on Q_uu: its value at the start of a solve, the factor
# by which a failed pass grows it and an accepted step shrinks it, and the
# cap past which the inner loop gives up.
_REG_INIT, _REG_FACTOR, _REG_MAX = 1e-6, 10.0, 1e6

# The line search: the shortest step length tried, the Armijo fraction of
# the predicted decrease a trial must achieve, and the plain backtrack factor.
_ALPHA_MIN, _ARMIJO_C, _BACKTRACK = 1e-4, 1e-4, 0.5

# The augmented-Lagrangian schedule: the initial penalty weight per 0.1 m of
# road, the factor by which ``cons.update_multipliers`` grows it, and the
# largest constraint violation a converged plan may keep.
_RHO_INIT, _RHO_FACTOR, _TOL_VIOLATION = 10.0, 10.0, 1e-3

# Steps whose stage blocks and Jacobians the backward pass builds at a time,
# counted from step K down. The sweep's working blocks are two buffers of
# this many steps, not of K. Each chunk's Q_uu stack is tested for
# definiteness once the sweep has passed it, so a sweep that passes a failing
# step runs on to the bottom of its chunk before it raises; a test over the
# whole horizon would run failing sweeps down to step 0.
_BUILD_CHUNK = 512

# The step ratio of every coarse grid (``_coarse_grid``): each level of a
# cold solve's ladder has steps this many times longer than the level above
# it, which starts from its plan (see ``_grid_levels``), and a receding
# window's tail has steps of its square, the second level's step, in ds. A
# non-integer step ratio puts the coarse grid points between the fine ones,
# and the fine solve then takes several times the passes.
_COARSE_FACTOR = 5

# The fewest steps of a coarse level. Below it a level's fixed cost per pass
# outweighs what its plan saves the level above, which starts from zeros.
# A receding window's tail is coarsened only from this many fine steps on,
# whatever its step.
_COARSE_FLOOR = 100

# The inner loop's stopping schedule, a standard augmented-Lagrangian rule
# (Conn, Gould & Toint, SIAM J. Numer. Anal. 1991). While the plan being
# judged breaks the speed bounds by more than ``_TOL_VIOLATION``, outer pass
# k stops its inner loop at the relative tolerance
# max(tol_cost_rel, _LOOSE_TOL / 10**k), so a subproblem whose answer still
# breaks them is not polished. That pays: with the tight tolerance
# throughout, the cold solves of the collector under a 21 m/s cap and the
# arterial under a 30 m/s cap took 107 and 101 backward passes at ds = 1 m
# and 175 and 165 at ds = 0.1 m, against 66, 80, 116 and 140 with it. A
# solve whose plans stay feasible never sees the loose tolerance.
_LOOSE_TOL = 1e-2


def _inner_tolerance(options, violation, outer):
    """The inner loop's relative stopping tolerance for a plan of this violation.

    ``tol_cost_rel`` for a feasible plan; while the plan is infeasible the
    subproblem of outer pass ``outer`` is solved only as tightly as
    ``_LOOSE_TOL / 10**outer``, never below ``tol_cost_rel``.
    """
    if violation <= _TOL_VIOLATION:
        return options.tol_cost_rel
    # Dividing gives exact decades (1e-2 * 10.0**-4 rounds above 1e-6); the
    # clamp keeps the power finite for any max_outer.
    return max(options.tol_cost_rel, _LOOSE_TOL / 10.0 ** min(outer, 300))


# The floating-point flags the backward sweep silences: the ones
# ``numpy.linalg.solve`` masks around the LAPACK solve (which flags a singular
# matrix only through ``invalid``, writing NaN), overflow among them.
_SWEEP_ERRSTATE = dict(over="ignore", invalid="ignore", divide="ignore", under="ignore")


def _test_definite(control_hessians, base, regularization):
    """Raise BackwardPassError at the highest step whose Q_uu is not finite or fails Cholesky.

    ``control_hessians[j]`` is the Q_uu of step ``base + j``; the error
    names that step. One call of ``cholesky_lo``, the LAPACK ``potrf``
    gufunc ``np.linalg.cholesky`` wraps, factors the whole stack: it does
    not raise on a failed factorization but writes NaN over that matrix's
    factor and flags ``invalid``, so the caller runs it under
    ``_SWEEP_ERRSTATE``. It reads only the lower triangle and factors inf
    or NaN entries without failing, so each matrix is tested for
    finiteness too.
    """
    factor = _umath_linalg.cholesky_lo(control_hessians, signature="d->d")
    failed = np.isnan(factor).any(axis=(1, 2)) | ~np.isfinite(control_hessians).all(axis=(1, 2))
    if failed.any():
        step = base + np.flatnonzero(failed)[-1]
        raise BackwardPassError(
            f"control Hessian not positive definite at step {step} "
            f"with shift {regularization:g}"
        )


def _spaced(flat, start, stride, count):
    """The basic-slice view of columns start + i * stride, i < count, of ``flat``."""
    return flat[:, start : start + count * stride : stride]


def backward_pass(
    states: PlatoonState,
    controls: ControlTrajectory,
    thetas: np.ndarray,
    config: PlatoonConfig,
    weights: costs.CostWeights,
    al: cons.ALState,
    targets: np.ndarray,
    regularization: float,
    use_second_order: bool = True,
    grid=None,
) -> BackwardPassResult:
    """Build feedback laws for every step, sweeping the value model backward.

    Step k is ``config.ds`` times ``grid[k]`` long (``grid`` None: uniform).

    Each step works on one stacked block over z = [dx; 1; du]: the stage
    model L_k (Hessian blocks, gradients in the homogeneous row and column,
    Levenberg shift on the control diagonal) plus F_k' V F_k, where
    F_k = [f_x, 0, f_u; 0, 1, 0] and V = [A, b; b', .] is the next step's
    value model. The control rows of that block are [Q_ux | q_u | Q_uu], so
    one solve gives gains and feedforward together, and the upper-left
    block minus Q_ux' Q_uu^-1 [Q_ux | q_u] is the new value model.

    Q is accumulated in place into the stage block of each step, and the
    value update is written into one persistent buffer. The horizon is
    built ``_BUILD_CHUNK`` steps at a time, from step K down, and the sweep
    runs through each chunk before the next is built: the chunk's
    per-vehicle series (``costs.stage_derivatives_batch``,
    ``constraints.al_derivative_batch`` on the chunk's rows of ``al`` and
    ``platoon.dynamics_derivatives``) are computed on its steps alone, and
    its stage blocks, step Jacobians and solves fill three buffers
    allocated once per pass. Working memory is O(C (3N+1)^2) for a chunk
    of C steps plus O(K N^2) for the outputs. The Cholesky test of Q_uu is
    not taken per step: one call tests the chunk's whole Q_uu stack once
    the sweep has passed it, so a sweep that fails runs on at most to the
    bottom of its chunk. Gains, feedforward, ``d1`` and ``d2`` are
    bit-identical to a sweep that tests every step before its solve.
    ``d1`` is the slope, in the step length alpha, of the augmented cost of
    ``forward_pass``'s rollout at alpha = 0 (from above, while no free
    control leaves the box).

    A step whose reference control sits on a bound of ``config.accel_bounds``
    is listed before the sweep by one compare over the plan; after its plain
    solve, ``_hold`` holds each such control whose Newton step points out of
    the box and solves the free controls again. A held control's gain row
    and feedforward are zero, so it contributes nothing to ``d1`` or ``d2``.
    Every step not listed runs the plain sweep.

    Each step's solve is LAPACK's ``gesv`` gufunc called directly, the
    exact call ``numpy.linalg.solve`` makes, so its output is bit for bit
    the same; its positional output is the step's row of the output stack,
    which the gufunc fills as it would a fresh array. It does not raise on
    a singular Q_uu but writes NaN and flags ``invalid``; the sweep runs
    under ``_SWEEP_ERRSTATE``, and the chunk's test, which fails a
    non-finite Q_uu as well as an indefinite one, is the only judge of
    failure. The test is ``cholesky_lo``, the gufunc behind
    ``np.linalg.cholesky``, called the same way.

    The sweep reads each step's operands (F_k and F_k', the block, Q_uu,
    [Q_ux | q_u] and its transpose, the upper-left block) as row views of
    the chunk buffers, made in C by iterating them in reverse, so a step
    makes no Python-level index and no copy.

    No K-long derivative series exists: the gap Hessian enters each chunk
    as its steps' gap weights times the one pattern ``costs.gap_hessian``,
    and each chunk's solves are negated straight into the K-long gains and
    feedforward. Besides them, the control rows [q_u | Q_uu] are kept
    K-long, for the whole-horizon sums ``d1`` and ``d2``, and so are the
    marks of the controls on the box.

    Raises BackwardPassError, naming the highest step whose shifted control
    Hessian is not finite or fails its Cholesky factorization; the caller
    retries with a larger shift.
    """
    gains, feedforward, control_rows = _sweep(
        states, controls, thetas, config, weights, al, targets,
        regularization, use_second_order, grid,
    )
    q_u = control_rows[:, :, 0]
    q_uu = control_rows[:, :, 1:]
    return BackwardPassResult(
        gains=gains,
        feedforward=feedforward,
        d1=float(np.einsum("ki,ki->", feedforward, q_u)),
        d2=float(np.einsum("ki,kij,kj->", feedforward, q_uu, feedforward)),
    )


def _sweep(
    states, controls, thetas, config, weights, al, targets, regularization,
    use_second_order, grid,
):
    """The sweep of ``backward_pass``: its gains, feedforward and [q_u | Q_uu].

    These are (K, N, 2N), (K, N) and (K, N, N+1) stacks.
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
    ti = 2 * np.arange(n)
    pj = ti + 1
    gap_hessian = costs.gap_hessian(n)

    # The chunk's stage blocks over [dx; 1; du]. Every per-vehicle entry
    # set is evenly spaced in a flattened block, so each series is added
    # through a basic-slice view: (t, 1), (1, t), (u, pi), (pi, 1), (1, pi),
    # (pi, pi), (u, 1) and (u, u), plus the (t, t) gap block.
    chunk = min(_BUILD_CHUNK, k_steps)
    blocks = np.empty((chunk, size, size))
    flat = blocks.reshape(chunk, size * size)
    gap_block = blocks[:, :dim:2, :dim:2]
    t_one = _spaced(flat, one, 2 * size, n)
    one_t = _spaced(flat, one * size, 2, n)
    q_up = _spaced(flat, u0 * size + 1, size + 2, n)
    p_one = _spaced(flat, size + one, 2 * size, n)
    one_p = _spaced(flat, one * size + 1, 2, n)
    q_pp = _spaced(flat, size + 1, 2 * (size + 1), n)
    u_one = _spaced(flat, u0 * size + one, size, n)
    u_u = _spaced(flat, u0 * (size + 1), size + 1, n)
    # Per-step views the sweep iterates: Q_uu, [Q_ux | q_u], its transpose
    # (the block is not symmetric there) and the upper-left block.
    control_hessians = blocks[:, u0:, u0:]
    rhs_rows = blocks[:, u0:, :u0]
    rhs_t_rows = blocks.transpose(0, 2, 1)[:, :u0, u0:]
    upper_rows = blocks[:, :u0, :u0]

    # The chunk's step Jacobians F_k = [f_x, 0, f_u; 0, 1, 0]: the 1s are
    # written once, the (t, pi), (t, a), (pi, pi) and (pi, a) entries per chunk.
    jac = np.zeros((chunk, dim + 1, size))
    jac[:, ti, ti] = 1.0
    jac[:, one, one] = 1.0
    jac_flat = jac.reshape(chunk, (dim + 1) * size)
    jac_tp = _spaced(jac_flat, 1, 2 * (size + 1), n)
    jac_ta = _spaced(jac_flat, u0, 2 * size + 1, n)
    jac_g = _spaced(jac_flat, size + 1, 2 * (size + 1), n)
    jac_fu = _spaced(jac_flat, size + u0, 2 * size + 1, n)
    jac_t = jac.transpose(0, 2, 1)

    terminal = costs.terminal_derivatives(
        t_traj[:, -1], config, weights, targets, pi_traj[:, -1]
    )
    value = np.zeros((dim + 1, dim + 1))
    value[ti, ti] = terminal["tt"]
    value[pj, pj] = terminal["pipi"]
    value[ti, one] = value[one, ti] = terminal["t"]
    value[pj, one] = value[one, pj] = terminal["pi"]

    # Value-gradient contractions with the dynamics curvature: vehicle i's
    # t' and pi' have second derivatives at (pi, pi), (a, pi) and (a, a)
    # only, so its terms are its (3, 2) curvature times its (b_t, b_pi).
    # The chunk's curvature is laid out per step as one block-diagonal
    # (3N, 2N) matrix, rows (pi, pi), (a, pi), (a, a) by vehicle, whose
    # nonzero entries ``bend_at`` views as (chunk, 3, 2, N): row r and
    # column c of vehicle i at (r N + i, 2 i + c). A step's terms are then
    # one product with the value buffer's gradient row (contiguous, unlike
    # the column) into ``bent``, added into Q_xx, Q_ux and Q_uu. A
    # Gauss-Newton pass reads no curvature, so it builds no such buffer.
    if use_second_order:
        bend = np.zeros((chunk, 3 * n, dim))
        item = bend.itemsize
        bend_at = as_strided(
            bend, (chunk, 3, 2, n), (bend.strides[0], n * dim * item, item, (dim + 2) * item)
        )
    grad = value[one, :dim]
    bent = np.empty(3 * n)
    bent_pp, bent_ap, bent_aa = bent[:n], bent[n : 2 * n], bent[2 * n :]

    solved = np.empty((chunk, n, dim + 1))  # the chunk's Q_uu^-1 [Q_ux | q_u]
    gains = np.empty((k_steps, n, dim))
    feedforward = np.empty((k_steps, n))
    control_rows = np.empty((k_steps, n, n + 1))  # [q_u | Q_uu]

    # The steps with a control on its bound, listed by one compare: ``side``
    # is +1 where a control sits on a_min, -1 on a_max and 0 inside, and
    # ``marks`` is each step's index where its row of ``side`` is not all
    # zero, else -1.
    a_min, a_max = config.accel_bounds
    side = (accels.T == a_min).astype(float) - (accels.T == a_max)
    marks = np.where(side.any(axis=1), np.arange(k_steps), -1)

    # A sweep that passes a failing step works on garbage, which may overflow
    # or make a singular Q_uu, until its chunk is tested; that work is thrown
    # away, so its flags are silenced. This silences kept steps too, but inf
    # or NaN that reaches a Q_uu fails its test.
    with np.errstate(**_SWEEP_ERRSTATE):
        for hi in range(k_steps, 0, -_BUILD_CHUNK):
            lo = max(hi - _BUILD_CHUNK, 0)
            m = hi - lo
            at = slice(lo, hi)
            at_grid = None if grid is None else grid[at]
            pi, a = pi_traj[:, at], accels[:, at]
            stage = costs.stage_derivatives_batch(
                t_traj[:, at], pi, a, thetas[at], config, weights, at_grid
            )
            al_terms = cons.al_derivative_batch(config, al.rows(at), pi)
            t_pi, t_a, g, fu_c, curv = dynamics_derivatives(pi, a, config.ds, at_grid)
            # Each entry sums its stage term, then its AL term (the speed
            # bounds touch only the slowness entries), then the Levenberg
            # shift, into a zero block.
            blocks[:m] = 0.0
            gap_block[:m] += stage["q1"][:, None, None] * gap_hessian
            t_one[:m] += stage["t"]
            one_t[:m] += stage["t"]
            q_up[:m] += stage["api"]
            for terms in (stage, al_terms):
                p_one[:m] += terms["pi"]
                one_p[:m] += terms["pi"]
                q_pp[:m] += terms["pipi"]
            u_one[:m] += stage["a"]
            u_u[:m] += stage["aa"]
            u_u[:m] += regularization
            jac_tp[:m] = t_pi
            jac_ta[:m] = t_a
            jac_g[:m] = g
            jac_fu[:m] = fu_c
            down = slice(m - 1, None, -1)  # steps hi - 1 down to lo
            if use_second_order:
                bend_at[:m] = curv.transpose(2, 0, 1, 3)
                bends = bend[down]
            else:
                bends = repeat(None, m)
            for fk, fk_t, qk, qpp, qup, quu, bend_k, q_uu, rhs, rhs_t, upper, step, mark in zip(
                jac[down], jac_t[down], blocks[down], q_pp[down], q_up[down], u_u[down],
                bends, control_hessians[down], rhs_rows[down],
                rhs_t_rows[down], upper_rows[down], solved[down], marks[at][::-1].tolist(),
            ):
                # ndarray.dot rather than @: on blocks this small it costs
                # about half as much, and call overhead bounds the sweep.
                qk += fk_t.dot(value.dot(fk))
                if use_second_order:
                    bend_k.dot(grad, out=bent)
                    qpp += bent_pp
                    qup += bent_ap
                    quu += bent_aa
                _umath_linalg.solve(q_uu, rhs, step, signature="dd->d")
                if mark >= 0:
                    _hold(q_uu, rhs, step, side[mark])
                np.subtract(upper, rhs_t.dot(step), out=value)
            _test_definite(control_hessians[:m], lo, regularization)
            np.negative(solved[:m, :, :dim], out=gains[at])
            np.negative(solved[:m, :, dim], out=feedforward[at])
            control_rows[at] = blocks[:m, u0:, one:]
    return gains, feedforward, control_rows


def _hold(q_uu, rhs, step, side):
    """Hold the bound controls of one step whose Newton step leaves the box.

    ``step`` holds the plain solve Q_uu^-1 [Q_ux | q_u], whose last column
    is j = Q_uu^-1 q_u, and ``side`` is +1 where the step's reference
    control sits on a_min, -1 on a_max and 0 inside. A control is held
    where its feedforward -j points out of the box, j * side > 0. If any
    is, ``step`` is solved again on Q_uu with the held rows and columns
    replaced by identity and [Q_ux | q_u] with the held rows zeroed: its
    held rows come out zero (zero gain, zero feedforward) and its free rows
    are Q_ff^-1 [Q_fx | q_f], the free controls' Newton step with the held
    ones fixed. The sweep's value update, upper - [Q_ux | q_u]' step, is
    then the general A - S'R - R'S + S'Q_uu S: with the held rows of S zero
    and Q_ff S_f = R_f, S'Q_uu S equals S'R. The solve is the sweep's
    direct ``gesv``.
    """
    held = step[:, -1] * side > 0.0
    if not held.any():
        return
    free = 1.0 - held
    held_q = q_uu * np.multiply.outer(free, free)
    held_q.reshape(-1)[:: held.size + 1] += held
    _umath_linalg.solve(held_q, rhs * free[:, None], step, signature="dd->d")


def forward_pass(
    states: PlatoonState,
    controls: ControlTrajectory,
    bp: BackwardPassResult,
    step_length: float,
    ds: float,
    grid,
    box,
):
    """Roll the nonlinear dynamics under the affine law with feedforward scale alpha.

    Step k is ds times ``grid[k]`` long (``grid`` None: uniform). Returns
    (new_times, new_slownesses, new_accels) or None when the rollout leaves
    the positive-slowness domain (the caller shrinks alpha). The rollout is
    ``platoon.rollout_steps`` under u = a_ref + K (x - x_ref) + alpha j,
    with each control clamped into the ``box`` (a_min, a_max) of (N,)
    arrays, as control-limited DDP's forward pass does.

    ``rollout_steps`` rolls the law out unclamped and, when a control
    leaves the box, rolls it out again clamped from the first step where
    one does, so a trial that stays in the box is the unclamped rollout
    bit for bit and every trial is the clamped rollout bit for bit.
    """
    law = (states, bp.gains, step_length * bp.feedforward)
    t0, pi0 = states.arrival_times[:, 0], states.slownesses[:, 0]
    return rollout_steps(t0, pi0, controls.accels, ds, grid, law, box)


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
    grid=None,
) -> SolveReport:
    """Plan the platoon over ``config.horizon_steps`` spatial steps.

    ``t0``/``pi0`` are per-vehicle entry times and slownesses at the start
    position. ``targets`` overrides the per-vehicle terminal arrival targets
    (default: entry-anchored schedule at the target speed). The report flags
    convergence honestly; a non-converged solve still returns the best
    trajectory found plus its iteration history.

    ``grid`` (K,) sets each step's length in whole multiples of
    ``config.ds`` (see ``platoon.step_grid``); the default is ds for every
    step. The plan, its states and its cost are on that grid.

    ``initial_controls`` (N, K) starts the solve from that plan, zeros
    included, first projected onto each vehicle's acceleration box. Without them the solve starts cold: ``_grid_levels`` lists
    step grids over ``config.ds`` for the same span, coarsest first, each
    level's steps ``_COARSE_FACTOR`` times those of the level above, and one
    loop solves the same problem on each in order. The coarsest level starts
    from zero controls; each later level starts from the plan of the level
    below, held at ds and sampled where each of its steps starts, or from
    zeros when that plan leaves the slowness domain.
    Explicit controls are a ladder of one level. ``iterations`` holds the
    last level's iterations, ``coarse_iterations`` sums the accepted
    iterations of every level before it, and ``wall_time`` covers all
    levels.

    ``converged`` means the last level's final inner loop ended on a
    stationary prediction or an accepted decrease under its tolerance, with
    a violation of at most ``_TOL_VIOLATION``. An exhausted Levenberg
    ladder or ``max_inner`` never counts.

    Raises ConfigError when ``t0``, ``pi0`` or ``targets`` is not a finite
    array of shape (N,), when a slowness is not positive, when
    ``start_position`` is not a finite number, when ``grid`` is not a (K,)
    array of integers >= 1, or when ``initial_controls`` is not an (N, K)
    plan whose projection onto the box stays inside the slowness domain.
    """
    start = time.perf_counter()
    n = config.n_vehicles
    t0 = finite_vector("initial times", t0, n)
    pi0 = finite_vector("initial slownesses", pi0, n)
    if np.any(pi0 <= 0):
        raise ConfigError("initial slowness must be positive")
    start_position = finite_float(start_position, "start position")
    k_steps = config.horizon_steps
    grid = step_grid(grid, k_steps)
    if targets is None:
        targets = costs.schedule_targets(config, t0, grid)
    targets = finite_vector("targets", targets, n)

    if initial_controls is None:
        levels = _grid_levels(grid)
        accels = np.zeros((n, levels[0].size))
    else:
        levels = [grid]
        accels = float_array("initial controls", initial_controls)
        if accels.shape != (n, k_steps):
            raise ConfigError(f"initial controls must have shape ({n}, {k_steps})")
        a_min, a_max = config.accel_bounds
        accels = np.clip(accels, a_min[:, None], a_max[:, None])

    coarse_iterations = 0
    for level, level_grid in enumerate(levels):
        if level > 0:
            coarse_iterations += len(report.iterations)
            held = np.repeat(report.controls.accels, levels[level - 1], axis=1)
            accels = held[:, step_starts(level_grid)]
        plan = rollout_steps(t0, pi0, accels, config.ds, level_grid)
        if plan is None and initial_controls is not None:
            raise ConfigError("initial controls are infeasible (slowness left the domain)")
        if plan is None:  # start from zeros, which keep each slowness at pi0 > 0
            accels = np.zeros_like(accels)
            plan = rollout_steps(t0, pi0, accels, config.ds, level_grid)
        report = _solve(
            config, weights, profile, options, targets, start_position,
            accels, PlatoonState(arrival_times=plan[0], slownesses=plan[1]), level_grid,
        )
    return dataclasses.replace(
        report, coarse_iterations=coarse_iterations, wall_time=time.perf_counter() - start
    )


def _coarse_grid(span, step):
    """Steps of ``step`` ds over ``span`` ds, the remainder one shorter last step."""
    return np.diff(np.arange(0, span, step), append=span)


def _grid_levels(grid):
    """The cold start's ladder of step grids over ``config.ds``, coarsest first.

    The finest level is ``grid`` itself. Level L below it covers the same
    span of road with steps of ``_COARSE_FACTOR``**L ds, the remainder one
    shorter last step (``_coarse_grid``), so every level is the same problem
    on the same config and targets; the cost weighs each step by its
    length. The ladder stops above a level that would have fewer than
    ``_COARSE_FLOOR`` steps, or no fewer steps than the level above it (a
    grid of long steps): such a level saves the level above nothing.
    """
    levels = [grid]
    span = int(grid.sum())
    while True:
        coarse = _coarse_grid(span, _COARSE_FACTOR ** len(levels))
        if not _COARSE_FLOOR <= coarse.size < levels[-1].size:
            return levels[::-1]
        levels.append(coarse)


def _solve(config, weights, profile, options, targets, start_position, accels, reference, grid):
    """The solve of one grid level, from the plan ``accels`` and its rollout ``reference``.

    The level has ``grid.size`` steps of ``config.ds`` times ``grid``;
    ``config.horizon_steps`` is the finest level's K. ``solve`` runs every
    level through here, so one public call stays one plan. ``wall_time``
    covers this level only; ``solve`` replaces it.

    Each inner iteration ends in one of these ways. A stationary prediction
    ends the inner loop converged, in every outer pass. An accepted step
    shrinks the Levenberg shift and ends the loop converged when its
    decrease is within tolerance. A failed Cholesky test, or a line search
    with no Armijo step, grows the shift; past ``_REG_MAX`` the level ends
    unconverged, without a multiplier update or another outer pass, and at
    ``max_inner`` accepted steps the inner loop ends unconverged. Every
    stopping test uses ``_inner_tolerance`` of the plan it judges; the
    accepted-decrease test judges the accepted plan, so a converged report
    was last judged at ``tol_cost_rel`` on the plan it returns.
    """
    start = time.perf_counter()
    k_steps = grid.size
    ds = config.ds
    box = config.accel_bounds
    positions = start_position + ds * step_starts(grid)
    thetas = grade_at(profile, np.minimum(positions, profile.total_length))

    # rho, and so every multiplier, scaled by the step weight scales the PHR sum by it
    rho0 = _RHO_INIT * costs.step_weight(ds) * grid
    al = cons.ALState.initial(config, k_steps, rho0[:, None])
    times, slows = reference.arrival_times, reference.slownesses

    def evaluate(t_arr, pi_arr, a_arr, al):
        """(true cost, its breakdown, constraint values, augmented cost) of a plan."""
        true_cost, breakdown = costs.trajectory_cost(
            t_arr, pi_arr, a_arr, thetas, config, weights, targets, grid
        )
        e = cons.evaluate(config, pi_arr[:, :-1])
        return true_cost, breakdown, e, true_cost + cons.penalty(e, al)

    true_cost, breakdown, e_vals, aug_cost = evaluate(times, slows, accels, al)
    violation = cons.max_violation(e_vals)
    iterations: list = []
    reg = _REG_INIT
    converged = False

    for outer in range(options.max_outer):
        inner_converged = False
        inner_count = 0
        while inner_count < options.max_inner and reg <= _REG_MAX:
            state_obj = PlatoonState(arrival_times=times, slownesses=slows)
            ctrl_obj = ControlTrajectory(accels=accels)
            bp = trial = None  # frees the previous pass's gains before the next is built
            try:
                bp = backward_pass(
                    state_obj,
                    ctrl_obj,
                    thetas,
                    config,
                    weights,
                    al,
                    targets,
                    reg,
                    options.use_second_order,
                    grid,
                )
            except BackwardPassError:
                pass
            if bp is not None:
                tol = _inner_tolerance(options, violation, outer)
                if bp.expected_decrease(1.0) <= tol * max(1.0, abs(aug_cost)):
                    inner_converged = True
                    break
                trial = _line_search(
                    state_obj, ctrl_obj, bp, aug_cost, al, evaluate, ds, grid, box
                )
            if trial is not None:
                alpha, expected, actual, (times, slows, accels), evaluated = trial
                true_cost, breakdown, e_vals, aug_cost = evaluated
                violation = cons.max_violation(e_vals)
                iterations.append(
                    IterationRecord(
                        outer=outer,
                        cost=true_cost,
                        aug_cost=aug_cost,
                        max_violation=violation,
                        step_length=alpha,
                        regularization=reg,
                        expected_decrease=expected,
                        actual_decrease=actual,
                    )
                )
                inner_count += 1
                reg = max(_REG_INIT, reg / _REG_FACTOR)
                # Judged on the accepted plan, the one the report returns.
                tol = _inner_tolerance(options, violation, outer)
                if actual <= tol * max(1.0, abs(aug_cost)):
                    inner_converged = True
                    break
                continue
            # The shifted Q_uu failed its Cholesky test or no step length
            # passed Armijo: retry with a larger Levenberg shift.
            reg *= _REG_FACTOR

        if inner_converged and violation <= _TOL_VIOLATION:
            converged = True
            break
        if reg > _REG_MAX:
            break  # an exhausted shift ladder ends the level unconverged

        al = cons.update_multipliers(al, e_vals, _RHO_FACTOR, _TOL_VIOLATION)
        aug_cost = true_cost + cons.penalty(e_vals, al)

    wall = time.perf_counter() - start
    return SolveReport(
        states=PlatoonState(arrival_times=times, slownesses=slows),
        controls=ControlTrajectory(accels=accels),
        cost=breakdown,
        iterations=iterations,
        wall_time=wall,
        converged=converged,
        max_violation=violation,
        targets=targets,
    )


def _line_search(states, controls, bp, aug_cost, al, evaluate, ds, grid, box):
    """The first step alpha = 1, 1/2, ... >= ``_ALPHA_MIN`` that passes Armijo, or None.

    Each trial is ``forward_pass`` clamped to the acceleration ``box``. A
    trial passes when its rollout stays in the slowness domain and lowers
    the augmented cost ``aug_cost`` by at least ``_ARMIJO_C`` times the
    predicted decrease. Returns (alpha, predicted decrease, actual decrease,
    the trial's (times, slownesses, accels), ``evaluate``'s tuple for it).
    """
    alpha = 1.0
    while alpha >= _ALPHA_MIN:
        plan = forward_pass(states, controls, bp, alpha, ds, grid, box)
        if plan is not None:
            evaluated = evaluate(*plan, al)
            expected = bp.expected_decrease(alpha)
            actual = aug_cost - evaluated[3]
            if actual > 0.0 and actual >= _ARMIJO_C * max(expected, 0.0):
                return alpha, expected, actual, plan, evaluated
        alpha *= _BACKTRACK
    return None


@dataclass
class RecedingRun:
    """Stitched output of a receding-horizon execution.

    ``converged``, ``max_violation`` and ``wall_time`` summarize the run
    under the names :class:`SolveReport` uses: every window converged, the
    largest bound violation of the stitched plan, and the summed window
    solve times.
    """

    states: PlatoonState
    controls: ControlTrajectory
    exec_times: list  # seconds per window solve
    windows: list  # (start_position, window_length, solved_steps) per execution
    converged: bool
    max_violation: float

    @property
    def wall_time(self) -> float:
        return float(sum(self.exec_times))


def receding_horizon_run(
    config: PlatoonConfig,
    weights: costs.CostWeights,
    profile: SlopeProfile,
    t0,
    pi0,
    options: SolverOptions,
    window_m: float,
    replan_m: float,
    max_executions: int | None = None,
    state_hook=None,
) -> RecedingRun:
    """Repeatedly solve a sliding window and execute its first segment.

    The run counts the route in whole steps of ds: a window spans
    window_m / ds steps, or the rest of the route, the platoon advances
    kr = replan_m / ds steps per execution, and a window k steps in starts
    at k * ds. Each window is planned against the entry-anchored arrival
    schedule so lateness is never silently forgiven.
    ``state_hook(position, t, pi) -> (t, pi)`` lets a caller inject
    boundary perturbations between executions; the stitched plan keeps the
    state from before the hook. Per-execution wall time covers the window
    solve only.

    A window that is not the last is solved on a coarse tail, move blocking
    in the sense of Cagienard et al. (J. Process Control 17, 2007): steps of
    ds over the kr steps it executes, then steps of ``_COARSE_FACTOR``**2
    ds over the rest, which only shape its end; a remainder of fewer than
    ``_COARSE_FACTOR``**2 ds becomes one shorter last step. That tail is
    ``_coarse_grid`` at the step of the second level of a cold start's
    ladder. Such a window of kw fine steps is solved on
    kr + ceil((kw - kr) / _COARSE_FACTOR**2) steps. A tail of fewer than
    ``_COARSE_FLOOR`` fine steps stays at ds, and the last window is
    executed whole and solved at ds. The warm start is kept as a plan at
    ds: a window starts from it sampled at the start of each of its steps,
    and its solved plan is held back over the fine steps each step covers.
    The stitched plan is uniform at ds; a run stopped by ``max_executions``
    holds the leading columns of the full run. ``windows`` records (start,
    length, solved steps) per execution, start and length in meters.

    Raises ConfigError before any solve unless ``t0`` and ``pi0`` are finite
    arrays of shape (N,), ``window_m`` and ``replan_m`` are finite, > 0 and
    whole numbers of steps of ds to a relative 1e-9, ``replan_m`` <=
    ``window_m``, and ``max_executions`` is None or an integer >= 1.
    """
    n = config.n_vehicles
    t0 = finite_vector("initial times", t0, n)
    pi0 = finite_vector("initial slownesses", pi0, n)
    window_m = finite_float(window_m, "window_m", positive=True)
    replan_m = finite_float(replan_m, "replan_m", positive=True)
    if max_executions is not None:
        integer_at_least(max_executions, "max_executions", 1)
    if replan_m > window_m:
        raise ConfigError(f"replan_m must be at most window_m ({window_m}), got {replan_m}")
    ds = config.ds
    k_route = config.horizon_steps
    k_window = whole_steps(window_m, ds, "window_m")
    k_replan = whole_steps(replan_m, ds, "replan_m")

    # The stitched plan, written in place: a window writes its executed
    # states at k0 and its whole plan, held at ds, into ``accels``, where the
    # part it does not execute is the next window's warm start. Columns past
    # the end of every window so far are still zero, so the warm start is
    # zero where the previous window did not reach.
    times = np.empty((n, k_route + 1))
    slows = np.empty((n, k_route + 1))
    accels = np.zeros((n, k_route))
    times[:, 0] = t0
    slows[:, 0] = pi0
    exec_times = []
    windows = []
    converged = True
    k0 = 0
    while k0 < k_route and (max_executions is None or len(windows) < max_executions):
        kw = min(k_window, k_route - k0)
        exec_steps = kw if k0 + kw == k_route else min(kw, k_replan)
        s0 = k0 * ds
        # Fine steps over the executed segment, then the tail on the cold
        # ladder's second rung. A tail under _COARSE_FLOOR fine steps stays
        # fine: such a window is a few dozen steps, per-solve overhead sets
        # its time, and a coarse tail leaves windows of different lengths a
        # step or two apart.
        tail_step = _COARSE_FACTOR**2 if kw - exec_steps >= _COARSE_FLOOR else 1
        grid = np.concatenate(
            [np.ones(exec_steps, dtype=np.int64), _coarse_grid(kw - exec_steps, tail_step)]
        )
        t_cur, pi_cur = times[:, k0].copy(), slows[:, k0].copy()
        if state_hook is not None:
            t_cur, pi_cur = state_hook(s0, t_cur, pi_cur)
        win_cfg = dataclasses.replace(config, horizon_steps=grid.size)
        targets = t0 + (s0 + kw * ds) / config.target_speed
        tic = time.perf_counter()
        report = solve(
            win_cfg,
            weights,
            profile,
            t_cur,
            pi_cur,
            options,
            targets=targets,
            initial_controls=accels[:, k0 + step_starts(grid)] if k0 else None,
            start_position=s0,
            grid=grid,
        )
        exec_times.append(time.perf_counter() - tic)
        windows.append((s0, kw * ds, grid.size))
        converged = converged and report.converged

        accels[:, k0 : k0 + kw] = np.repeat(report.controls.accels, grid, axis=1)
        k1 = k0 + exec_steps
        times[:, k0 + 1 : k1 + 1] = report.states.arrival_times[:, 1 : exec_steps + 1]
        slows[:, k0 + 1 : k1 + 1] = report.states.slownesses[:, 1 : exec_steps + 1]
        k0 = k1

    times, slows, accels = times[:, : k0 + 1], slows[:, : k0 + 1], accels[:, :k0]
    return RecedingRun(
        states=PlatoonState(arrival_times=times, slownesses=slows),
        controls=ControlTrajectory(accels=accels),
        exec_times=exec_times,
        windows=windows,
        converged=converged,
        max_violation=cons.max_violation(cons.evaluate(config, slows[:, :-1])),
    )

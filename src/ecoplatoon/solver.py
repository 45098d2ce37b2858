"""Constrained trajectory optimizer: DDP inner loop, augmented-Lagrangian outer loop.

``solve`` is one pipeline: it lists the grid levels of the problem, then
solves each level in one loop, every level from the plan of the one before.
Each level's solve (``_solve``) alternates two phases until tolerances or
iteration caps are hit:

* inner phase: backward pass building a quadratic model of the cost-to-go
  (value Hessian A_k, gradient b_k) step by step from the terminal cost,
  extracting an affine feedback law u(x) = u_ref + h_k (x - x_ref) + j_k,
  then a forward rollout of the true nonlinear dynamics with a backtracking
  Armijo line search on the feedforward term (``_line_search``);
* outer phase: one update of the inequality constraints' multipliers and
  penalty weights (``cons.update_multipliers``), after which the inner
  phase resumes on the reshaped cost.
  Penalty weights start at ``_RHO_INIT`` times ``costs.step_weight``, so
  the augmented cost weighs each step by its length, as the cost does.

The inner phase has one convergence rule: it converges when the predicted
decrease, or an accepted step's actual decrease, falls below a relative
tolerance of the augmented cost, looser while the plan breaks the
constraints. After each multiplier update it first takes a line search
(see ``_LOOSE_TOL``), and a stationary plan whose forced step finds no
descent converges too. A failed Cholesky test or a line search without an
Armijo step grows the Levenberg shift; at ``max_inner`` accepted steps
the inner phase ends unconverged, and past ``_REG_MAX`` the whole level
does, with no further outer pass or multiplier update. A solve converges
when its inner phase does on a plan within ``_TOL_VIOLATION``.

This module alone knows the interleaved state layout [t1, pi1, ..., tN,
piN]: ``costs`` and ``constraints`` give their derivatives as per-vehicle
series, and the backward pass places them. It stacks each step's quadratic
model into one block over [dx; 1; du], with the gradients in the row and
column of the constant coordinate, so a step costs one product with the
dynamics Jacobian, added in place into that step's stage block, and one
solve on [Q_ux | q_u]. That solve calls LAPACK's ``gesv`` gufunc, the one
``numpy.linalg.solve`` wraps, directly: the wrapper's array conversion,
type check and error-state context cost about twice the solve itself, and
the sweep needs none of them, since it owns its error state and its batched
definiteness test judges every step. It keeps the second-order dynamics
terms (the value-gradient contractions against the step Jacobian
derivatives), added through strided views of the stage blocks and of the
value buffer; ``use_second_order`` switches them off for a Gauss-Newton
(iLQR-style) pass. The stage blocks and step Jacobians are built
``_BUILD_CHUNK`` steps at a time, just before the sweep reaches them, into
two reused buffers, so a pass's working memory is O(C (3N+1)^2) for
C = ``_BUILD_CHUNK`` plus its K-long derivative series and outputs. The
control Hessian is made positive definite with a Levenberg shift that grows
on failure; its Cholesky test runs once per chunk, on the chunk's whole
Q_uu stack after the sweep has passed it, and names the highest failing
step, as a per-step test would; a Q_uu with an inf or NaN entry fails it
too. The forward rollout runs in the row-major interleaved state and checks
the slowness domain once at the end.

Both per-step loops do only their arithmetic: each step reads row views
that numpy makes in C by iterating the loop's buffers, adds in place into
them and writes through positional or ``out=`` outputs into preallocated
rows. A view or an output buffer changes where a result lands, not the
floating-point operations that make it. The rollout's operands are all
arrays, the step lengths and the cube's exponent included, and its state
moves in one add per step; that changes no bit either, for three exact
IEEE identities: t + pi h is pi h + t, (pi^3 u)(-h) is -((pi^3 u) h), and
pi + (-c) is pi - c. The 0-d float64 exponent runs the same ``pow`` loop
as the int 3 (see ``forward_pass``).

The grid is a per-step array (``platoon.step_grid``): step k spans
grid[k] whole multiples of ``config.ds``. The dynamics, their derivatives,
the cost weights, the initial penalty weights and the grade samples are all
elementwise in the step length, and a grid of ones (the default) is the
uniform grid bit for bit.

A solve given no initial controls starts cold on a ladder of grid levels
(``_grid_levels``), nested iteration in the sense of Brandt (Math. Comp.
31, 1977): each level is the same problem on a uniform grid whose step is
exactly five times that of the level above, down to a level of at least
``_COARSE_FLOOR`` steps. The coarsest level starts from zero controls and
each later one from the plan of the level below, held over the steps it
covers. On the collector preset that takes the full-resolution solve from
14 backward passes down to 2. Explicit initial controls, zeros included,
are a ladder of one level.

``receding_horizon_run`` solves every window but the last at ds over the
segment it executes and at ``_COARSE_FACTOR`` ds over the rest of the
window, when that rest spans at least ``_COARSE_FLOOR`` steps: move
blocking in receding-horizon control. A 40 m window at ds = 0.1 m that
executes 10 m is 160 steps instead of 400.

A solve is single-threaded and deterministic; independent solves may run
concurrently since all mutable state is owned per call.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from . import constraints as cons
from . import costs
from .errors import (
    BackwardPassError,
    ConfigError,
    IntegrationError,
    finite_float,
    integer_at_least,
)
from .platoon import (
    _THREE,
    ControlTrajectory,
    PlatoonConfig,
    PlatoonState,
    dynamics_derivatives,
    rollout,
    step_grid,
    step_multiples,
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

# Each level of a cold solve's ladder has a step exactly this many times
# longer than the level above it, which starts from its plan (see
# ``_grid_levels``). A non-integer step ratio puts the coarse grid points
# between the fine ones, and the fine solve then takes several times the
# passes.
_COARSE_FACTOR = 5

# The fewest steps of a coarse level. Below it a level's fixed cost per pass
# outweighs what its plan saves the level above, which starts from zeros.
# A receding window's tail is coarsened only from this many fine steps on.
_COARSE_FLOOR = 100

# The inner loop's stopping schedule, two standard augmented-Lagrangian rules
# (Conn, Gould & Toint, SIAM J. Numer. Anal. 1991). While the plan being
# judged breaks the constraints by more than ``_TOL_VIOLATION``, outer pass k
# stops its inner loop at the relative tolerance
# max(tol_cost_rel, _LOOSE_TOL / 10**k), so a subproblem whose answer still
# breaks the box is not polished. After each multiplier update (outer pass
# k > 0) the first prediction may not end the inner loop: the line search
# runs, and if no trial passes Armijo the inner loop ends at the same
# Levenberg shift. A solve whose plans stay feasible never sees the loose
# tolerance, and one that converges in its first outer pass never sees the
# forced step.
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
    value update is written into one persistent buffer. The stage blocks
    and step Jacobians are built ``_BUILD_CHUNK`` steps at a time, from
    step K down, into two buffers allocated once per pass, and the sweep
    runs through each chunk before the next is built; the per-vehicle
    series are computed over the whole horizon and read in slices. Working
    memory is O(C (3N+1)^2) for a chunk of C steps plus the K-long series
    and outputs. The Cholesky test of Q_uu is not taken per step: one call
    tests the chunk's whole Q_uu stack once the sweep has passed it, so a
    sweep that fails runs on at most to the bottom of its chunk. Gains,
    feedforward, ``d1`` and ``d2`` are bit-identical to a sweep that tests
    every step before its solve. ``d1`` is the slope, in the step length
    alpha, of the augmented cost of ``forward_pass``'s rollout at alpha = 0.

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

    The K-long series and the chunk buffers are released (``_sweep``
    returns) before the gains and feedforward are allocated, which lowers
    the pass's memory peak.

    Raises BackwardPassError, naming the highest step whose shifted control
    Hessian is not finite or fails its Cholesky factorization; the caller
    retries with a larger shift.
    """
    steps, control_rows = _sweep(
        states, controls, thetas, config, weights, al, targets,
        regularization, use_second_order, grid,
    )
    dim = 2 * config.n_vehicles
    feedforward = -steps[:, :, dim]
    q_u = control_rows[:, :, 0]
    q_uu = control_rows[:, :, 1:]
    return BackwardPassResult(
        gains=-steps[:, :, :dim],
        feedforward=feedforward,
        d1=float(np.einsum("ki,ki->", feedforward, q_u)),
        d2=float(np.einsum("ki,kij,kj->", feedforward, q_uu, feedforward)),
    )


def _sweep(
    states, controls, thetas, config, weights, al, targets, regularization,
    use_second_order, grid,
):
    """The sweep of ``backward_pass``: Q_uu^-1 [Q_ux | q_u] and [q_u | Q_uu].

    These are (K, N, 2N+1) and (K, N, N+1) stacks.
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

    stage = costs.stage_derivatives_batch(
        t_traj[:, :-1], pi_traj[:, :-1], accels, thetas, config, weights, grid
    )
    al_terms = cons.al_derivative_batch(config, al, pi_traj[:, :-1], accels)
    g, fu_c, cxx, cux = dynamics_derivatives(pi_traj[:, :-1], accels, config.ds, grid)
    lengths = config.ds * step_multiples(grid, k_steps)[:, None]

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
    # written once, the step lengths, g and f_u per chunk.
    jac = np.zeros((chunk, dim + 1, size))
    jac[:, ti, ti] = 1.0
    jac[:, one, one] = 1.0
    jac_flat = jac.reshape(chunk, (dim + 1) * size)
    jac_h = _spaced(jac_flat, 1, 2 * (size + 1), n)
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

    # Value-gradient contractions with the dynamics curvature: the only
    # nonzero second derivatives sit on the slowness updates, entering
    # Q_xx at (pi, pi) and Q_ux at (a, pi), both scaled by b at pi, a
    # basic-slice view of the value buffer.
    b_p = value.reshape(-1)[dim + 1 + one :: 2 * (dim + 1)]

    steps = np.empty((k_steps, n, dim + 1))  # Q_uu^-1 [Q_ux | q_u]
    control_rows = np.empty((k_steps, n, n + 1))  # [q_u | Q_uu]

    # A sweep that passes a failing step works on garbage, which may overflow
    # or make a singular Q_uu, until its chunk is tested; that work is thrown
    # away, so its flags are silenced. This silences kept steps too, but inf
    # or NaN that reaches a Q_uu fails its test.
    with np.errstate(**_SWEEP_ERRSTATE):
        for hi in range(k_steps, 0, -_BUILD_CHUNK):
            lo = max(hi - _BUILD_CHUNK, 0)
            m = hi - lo
            at = slice(lo, hi)
            # Each entry sums its stage term, then its AL term, then the
            # Levenberg shift, into a zero block.
            blocks[:m] = 0.0
            gap_block[:m] += stage["gap_tt"][at]
            t_one[:m] += stage["t"][at]
            one_t[:m] += stage["t"][at]
            q_up[:m] += stage["api"][at]
            for terms in (stage, al_terms):
                p_one[:m] += terms["pi"][at]
                one_p[:m] += terms["pi"][at]
                q_pp[:m] += terms["pipi"][at]
                u_one[:m] += terms["a"][at]
                u_u[:m] += terms["aa"][at]
            u_u[:m] += regularization
            jac_h[:m] = lengths[at]
            jac_g[:m] = g[at]
            jac_fu[:m] = fu_c[at]
            down = slice(m - 1, None, -1)  # steps hi - 1 down to lo
            for fk, fk_t, qk, qpp, qup, cxx_k, cux_k, q_uu, rhs, rhs_t, upper, step in zip(
                jac[down], jac_t[down], blocks[down], q_pp[down], q_up[down],
                cxx[at][down], cux[at][down], control_hessians[down], rhs_rows[down],
                rhs_t_rows[down], upper_rows[down], steps[at][down],
            ):
                # ndarray.dot rather than @: on blocks this small it costs
                # about half as much, and call overhead bounds the sweep.
                qk += fk_t.dot(value.dot(fk))
                if use_second_order:
                    qpp += b_p * cxx_k
                    qup += b_p * cux_k
                _umath_linalg.solve(q_uu, rhs, step, signature="dd->d")
                np.subtract(upper, rhs_t.dot(step), out=value)
            _test_definite(control_hessians[:m], lo, regularization)
            control_rows[at] = blocks[:m, u0:, one:]
    return steps, control_rows


def forward_pass(
    states: PlatoonState,
    controls: ControlTrajectory,
    bp: BackwardPassResult,
    step_length: float,
    ds: float,
    grid=None,
):
    """Roll the nonlinear dynamics under the affine law with feedforward scale alpha.

    Step k is ds times ``grid[k]`` long (``grid`` None: uniform). Returns
    (new_times, new_slownesses, new_accels) or None when the rollout leaves
    the positive-slowness domain (the caller shrinks alpha).

    The state moves in one add per step, x' = x + w, with every operand an
    array. w = [pi1, pi1^3, ..., piN, piN^3] is scaled in place by the
    step's row of ``coef`` = [1, u1, ..., 1, uN], whose odd slots hold the
    controls, and then by its row of ``signed`` = [h, -h, ..., h, -h]. That
    gives t' = t + (pi 1) h and pi' = pi + ((pi^3 u)(-h)), bit for bit the
    t + pi h and pi - u pi^3 h of the textbook step: IEEE products and sums
    commute, pi 1 is pi, (pi^3 u)(-h) is exactly -((pi^3 u) h) and pi + (-c)
    is exactly pi - c. The cube's exponent is the 0-d float64 ``_THREE``,
    for which ``np.power`` runs the same float64 ``pow`` loop as for the
    int 3 but skips the conversion of a Python scalar.
    """
    a_ref = controls.accels
    n, k_steps = a_ref.shape
    # Row-major rollout in the flat interleaved state [t1, pi1, ..., tN, piN].
    x_ref = np.empty((k_steps + 1, 2 * n))
    x_ref[:, 0::2] = states.arrival_times.T
    x_ref[:, 1::2] = states.slownesses.T
    x_new = np.empty_like(x_ref)
    x_new[0] = x_ref[0]
    coef = np.ones((k_steps, 2 * n))
    u_new = coef[:, 1::2]
    u_new[:] = a_ref.T
    # times 1.0 and -1.0 are exact
    signed = (ds * step_multiples(grid, k_steps))[:, None] * np.tile([1.0, -1.0], n)
    feedforward = step_length * bp.feedforward
    pi_new = x_new[:, 1::2]
    dx = np.empty(2 * n)
    w = np.empty(2 * n)
    w_t, w_p = w[0::2], w[1::2]
    # overly aggressive trial steps can overflow the cubic term; those
    # rollouts are rejected by the finiteness check, so silence the warning
    with np.errstate(over="ignore", invalid="ignore"):
        for x_k, xr_k, gain, u_k, ff_k, pi_k, c_k, s_k, x_next in zip(
            x_new, x_ref, bp.gains, u_new, feedforward, pi_new, coef, signed, x_new[1:]
        ):
            np.subtract(x_k, xr_k, dx)
            u_k += gain.dot(dx)
            u_k += ff_k
            np.power(pi_k, _THREE, w_p)
            np.copyto(w_t, pi_k)
            w *= c_k
            w *= s_k
            np.add(x_k, w, x_next)
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
    included. Without them the solve starts cold: ``_grid_levels`` lists the
    same problem on a ladder of grids, coarsest first, each level's step
    ``_COARSE_FACTOR`` times that of the level above, and one loop solves
    them in order. The coarsest level starts from zero controls; each later
    level starts from the plan of the level below, held over the steps it
    covers, or from zeros when that plan leaves the slowness domain.
    Explicit controls are a ladder of one level. ``iterations`` holds the
    last level's iterations, ``coarse_iterations`` sums the accepted
    iterations of every level before it, and ``wall_time`` covers all
    levels.

    ``converged`` means the last level's final inner loop ended on a
    stationary prediction, an accepted decrease under its tolerance or a
    forced step without descent, with a violation of at most
    ``_TOL_VIOLATION``. An exhausted Levenberg ladder or ``max_inner``
    never counts.

    Raises ConfigError when ``t0``, ``pi0`` or ``targets`` is not a finite
    array of shape (N,), when a slowness is not positive, when
    ``start_position`` is not a finite number, when ``grid`` is not a (K,)
    array of integers >= 1, or when ``initial_controls`` is not an (N, K)
    plan inside the slowness domain.
    """
    start = time.perf_counter()
    n = config.n_vehicles
    t0 = _finite_vector("initial times", t0, n)
    pi0 = _finite_vector("initial slownesses", pi0, n)
    if np.any(pi0 <= 0):
        raise ConfigError("initial slowness must be positive")
    start_position = finite_float(start_position, "start position")
    k_steps = config.horizon_steps
    grid = step_grid(grid, k_steps)
    if targets is None:
        targets = costs.schedule_targets(config, t0, grid)
    targets = _finite_vector("targets", targets, n)

    if initial_controls is None:
        levels = _grid_levels(config, targets, grid)
        accels = reference = None
    else:
        levels = [(config, targets, grid)]
        accels = np.array(initial_controls, dtype=float)
        if accels.shape != (n, k_steps):
            raise ConfigError(f"initial controls must have shape ({n}, {k_steps})")
        reference = _feasible_rollout(t0, pi0, accels, config.ds, grid)
        if reference is None:
            raise ConfigError("initial controls are infeasible (slowness left the domain)")

    coarse_iterations = 0
    for level, (level_config, level_targets, level_grid) in enumerate(levels):
        if level > 0:
            coarse_iterations += len(report.iterations)
            accels = report.controls.accels[:, step_starts(level_grid) // _COARSE_FACTOR]
            reference = _feasible_rollout(t0, pi0, accels, level_config.ds, level_grid)
        if reference is None:
            accels = np.zeros((n, level_config.horizon_steps))
            reference = rollout(t0, pi0, accels, level_config.ds, level_grid)
        report = _solve(
            level_config, weights, profile, options, level_targets, start_position,
            accels, reference, level_grid,
        )
    return dataclasses.replace(
        report, coarse_iterations=coarse_iterations, wall_time=time.perf_counter() - start
    )


def _finite_vector(name, values, n):
    """``values`` as a float array of shape (n,); ConfigError unless all finite."""
    out = np.asarray(values, dtype=float)
    if out.shape != (n,):
        raise ConfigError(f"{name} must have shape ({n},), got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"{name} must be finite, got {out}")
    return out


def _grid_levels(config, targets, grid):
    """The cold start's ladder of (config, targets, grid) levels, coarsest first.

    The finest level is the problem as given. A level whose grid covers
    M = sum(grid) ds of road (M = K on a uniform grid) has below it a
    uniform level of Kc = ceil(M / _COARSE_FACTOR) steps of exactly
    ``_COARSE_FACTOR`` ds, with the same weights, options and start
    position; the cost weighs each step by its length, so it is the same
    problem. Its last step may overhang the road by
    o = (_COARSE_FACTOR Kc - M) ds, so its targets move later by
    o / target_speed. The ladder stops at a level whose level below would
    have fewer than ``_COARSE_FLOOR`` steps, or no fewer steps than itself
    (a grid of long steps): such a level saves the level above nothing.
    """
    levels = [(config, targets, grid)]
    while True:
        span = int(grid.sum())
        k_coarse = -(-span // _COARSE_FACTOR)
        if not _COARSE_FLOOR <= k_coarse < config.horizon_steps:
            return levels[::-1]
        overhang = (_COARSE_FACTOR * k_coarse - span) * config.ds
        targets = targets + overhang / config.target_speed
        config = dataclasses.replace(
            config, ds=config.ds * _COARSE_FACTOR, horizon_steps=k_coarse
        )
        grid = step_grid(None, k_coarse)
        levels.append((config, targets, grid))


def _feasible_rollout(t0, pi0, accels, ds, grid):
    """The rollout of ``accels``, or None when it leaves the slowness domain."""
    try:
        return rollout(t0, pi0, accels, ds, grid)
    except IntegrationError:
        return None


def _solve(config, weights, profile, options, targets, start_position, accels, reference, grid):
    """The solve of one grid level, from the plan ``accels`` and its rollout ``reference``.

    ``solve`` runs every level through here, so one public call stays one
    plan. ``wall_time`` covers this level only; ``solve`` replaces it.

    Each inner iteration ends in one of these ways. A stationary prediction
    ends the inner loop converged; so does a stationary plan whose forced
    step (see ``_LOOSE_TOL``) finds no descent. An accepted step shrinks the
    Levenberg shift and ends the loop converged when its decrease is within
    tolerance. A failed Cholesky test, or a line search with no Armijo step,
    grows the shift; past ``_REG_MAX`` the level ends unconverged, without
    a multiplier update or another outer pass, and at ``max_inner`` accepted
    steps the inner loop ends unconverged. Every stopping test uses
    ``_inner_tolerance`` of the plan it judges; the accepted-decrease test
    judges the accepted plan, so a converged report was last judged at
    ``tol_cost_rel`` on the plan it returns.
    """
    start = time.perf_counter()
    k_steps = config.horizon_steps
    ds = config.ds
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
        e = cons.evaluate(config, pi_arr[:, :-1], a_arr)
        return true_cost, breakdown, e, true_cost + cons.penalty(e, al)

    true_cost, breakdown, e_vals, aug_cost = evaluate(times, slows, accels, al)
    violation = cons.max_violation(e_vals)
    iterations: list = []
    reg = _REG_INIT
    converged = False

    for outer in range(options.max_outer):
        inner_converged = False
        inner_count = 0
        force_step = outer > 0
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
                stationary = bp.expected_decrease(1.0) <= tol * max(1.0, abs(aug_cost))
                if stationary and not force_step:
                    inner_converged = True
                    break
                force_step = False
                trial = _line_search(state_obj, ctrl_obj, bp, aug_cost, al, evaluate, ds, grid)
                if trial is None and stationary:
                    # the forced step found no descent from a stationary plan
                    inner_converged = True
                    break
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


def _line_search(states, controls, bp, aug_cost, al, evaluate, ds, grid):
    """The first step alpha = 1, 1/2, ... >= ``_ALPHA_MIN`` that passes Armijo, or None.

    A trial passes when its rollout stays in the slowness domain and lowers
    the augmented cost ``aug_cost`` by at least ``_ARMIJO_C`` times the
    predicted decrease. Returns (alpha, predicted decrease, actual decrease,
    the trial's (times, slownesses, accels), ``evaluate``'s tuple for it).
    """
    alpha = 1.0
    while alpha >= _ALPHA_MIN:
        plan = forward_pass(states, controls, bp, alpha, ds, grid)
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

    The platoon advances ``replan_m`` meters per execution; each window is
    planned against the entry-anchored arrival schedule so lateness is never
    silently forgiven. ``state_hook(position, t, pi) -> (t, pi)`` lets a
    caller inject boundary perturbations between executions. Per-execution
    wall time covers the window solve only.

    A window that is not the last is solved on a coarse tail, move blocking
    in the sense of Cagienard et al. (J. Process Control 17, 2007): steps of
    ds over the kr = round(replan_m / ds) steps it executes, then steps of
    ``_COARSE_FACTOR`` ds over the rest, which only shape its end; a
    remainder of fewer than ``_COARSE_FACTOR`` ds becomes one shorter last
    step. Such a window of kw fine steps is solved on
    kr + ceil((kw - kr) / _COARSE_FACTOR) steps. A tail of fewer than
    ``_COARSE_FLOOR`` fine steps stays at ds, and the last window is
    executed whole and solved at ds. The warm start is kept as a plan at
    ds: a window starts from it sampled at the start of each of its steps,
    and its solved plan is held back over the fine steps each step covers.
    The stitched plan is uniform at ds. ``windows`` records (start,
    length, solved steps) per execution.

    Raises ConfigError before any solve unless ``window_m`` and ``replan_m``
    are finite and > 0, ``replan_m`` <= ``window_m``, and ``max_executions``
    is None or an integer >= 1.
    """
    window_m = finite_float(window_m, "window_m", positive=True)
    replan_m = finite_float(replan_m, "replan_m", positive=True)
    if max_executions is not None:
        integer_at_least(max_executions, "max_executions", 1)
    if replan_m > window_m:
        raise ConfigError(f"replan_m must be at most window_m ({window_m}), got {replan_m}")
    ds = config.ds
    route_length = config.route_length
    t_cur = np.asarray(t0, dtype=float).copy()
    pi_cur = np.asarray(pi0, dtype=float).copy()
    entry_times = t_cur.copy()
    n = config.n_vehicles

    exec_times = []
    windows = []
    converged = True
    times_out = [t_cur.copy()]
    slows_out = [pi_cur.copy()]
    accel_cols = []
    warm = None
    s0 = 0.0
    while s0 < route_length - 1e-9:
        w_eff = min(window_m, route_length - s0)
        kw = max(1, int(round(w_eff / ds)))
        w_eff = kw * ds
        exec_steps = kw if s0 + w_eff >= route_length - 1e-9 else min(
            kw, max(1, int(round(replan_m / ds)))
        )
        # Fine steps over the executed segment, then the tail. A tail under
        # _COARSE_FLOOR fine steps stays fine: such a window is a few dozen
        # steps, per-solve overhead sets its time, and a coarse tail leaves
        # windows of different lengths a step or two apart.
        tail_step = _COARSE_FACTOR if kw - exec_steps >= _COARSE_FLOOR else 1
        starts = np.concatenate(
            [np.arange(exec_steps), np.arange(exec_steps, kw, tail_step)]
        )
        grid = np.diff(starts, append=kw)
        if state_hook is not None:
            t_cur, pi_cur = state_hook(s0, t_cur, pi_cur)
        win_cfg = dataclasses.replace(config, horizon_steps=grid.size)
        targets = entry_times + (s0 + w_eff) / config.target_speed
        if warm is not None:
            fine = np.concatenate(
                [warm, np.zeros((n, max(0, kw - warm.shape[1])))], axis=1
            )
            init = fine[:, starts]
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
            grid=grid,
        )
        exec_times.append(time.perf_counter() - tic)
        windows.append((s0, w_eff, grid.size))
        converged = converged and report.converged

        accels = np.repeat(report.controls.accels, grid, axis=1)
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
        converged=converged,
        max_violation=cons.max_violation(cons.evaluate(config, slows[:, :-1], accels)),
    )

import numpy as np
import pytest

from ecoplatoon.costs import (
    gap_hessian,
    schedule_targets,
    stage_derivatives_batch,
    trajectory_cost,
)
from ecoplatoon.platoon import PlatoonConfig, VehicleParams, rollout

MPH = 0.44704
# Output hashes are recorded on numpy 2.4; another numpy may round a last
# bit differently, so tests hold a pinned sha256 only on this one.
HASHED_ON_NUMPY = "2.4"
ON_HASHED_NUMPY = ".".join(np.__version__.split(".")[:2]) == HASHED_ON_NUMPY


def make_config(
    n=3,
    ds=0.1,
    horizon_steps=100,
    target_speed=45 * MPH,
    speed_limit=75 * MPH,
    headway=1.0,
    mass=1400.0,
    a_min=-5.0,
    a_max=3.0,
    **kw,
):
    vehicles = tuple(VehicleParams(mass=mass, a_min=a_min, a_max=a_max) for _ in range(n))
    return PlatoonConfig(
        vehicles=vehicles,
        headway=headway,
        target_speed=target_speed,
        speed_limit=speed_limit,
        ds=ds,
        horizon_steps=horizon_steps,
        **kw,
    )


def plan_cost(t, pi, a, thetas, cfg, w, grid=None):
    """Running cost of (N, K) states and controls on ``grid``, through ``trajectory_cost``.

    A column K is appended on its targets at the target speed, so the
    terminal term is exactly zero and the total is the running cost alone.
    Returns (total, CostBreakdown).
    """
    t = np.asarray(t, dtype=float)
    targets = schedule_targets(cfg, t[:, 0])
    states_t = np.column_stack([t, targets])
    states_pi = np.column_stack([pi, np.full(len(t), 1.0 / cfg.target_speed)])
    total, bd = trajectory_cost(states_t, states_pi, a, thetas, cfg, w, targets, grid)
    assert bd.terminal == 0.0
    return total, bd


def one_step_cost(t, pi, a, theta, cfg, w):
    """Stage cost at one state, ``plan_cost`` of a one-step plan: (total, CostBreakdown)."""
    return plan_cost(
        np.asarray(t, dtype=float)[:, None],
        np.asarray(pi, dtype=float)[:, None],
        np.asarray(a, dtype=float)[:, None],
        [theta],
        cfg,
        w,
    )


def dense_blocks(terms):
    """Derivative series laid out as dense blocks in the flat state [t1, pi1, ..., tN, piN].

    ``terms`` is what ``stage_derivatives_batch``, ``al_derivative_batch``
    or ``terminal_derivatives`` returns: (K, N) series, or (N,) at one step,
    and for the stage cost the (K,) gap weights ``q1``. Absent terms are zero.
    Returns (lx, lu, lxx, luu, lux) with shapes (K, 2N), (K, N), (K, 2N, 2N),
    (K, N, N) and (K, N, 2N).
    """
    k_steps, n = np.atleast_2d(terms["pi"]).shape
    ai = np.arange(n)
    ti = 2 * ai
    pj = ti + 1
    lx = np.zeros((k_steps, 2 * n))
    lu = np.zeros((k_steps, n))
    lxx = np.zeros((k_steps, 2 * n, 2 * n))
    luu = np.zeros((k_steps, n, n))
    lux = np.zeros((k_steps, n, 2 * n))
    lx[:, pj] = terms["pi"]
    lxx[:, pj, pj] = terms["pipi"]
    if "t" in terms:
        lx[:, ti] = terms["t"]
    if "tt" in terms:
        lxx[:, ti, ti] = terms["tt"]
    if "q1" in terms:
        lxx[:, ti[:, None], ti] = terms["q1"][:, None, None] * gap_hessian(n)
    if "a" in terms:
        lu[:] = terms["a"]
        luu[:, ai, ai] = terms["aa"]
    if "api" in terms:
        lux[:, ai, pj] = terms["api"]
    return lx, lu, lxx, luu, lux


def plan_stage_blocks(t, pi, a, thetas, cfg, w, grid=None):
    """``stage_derivatives_batch`` of a plan of (N, K) states and controls, as dense blocks."""
    return dense_blocks(stage_derivatives_batch(t, pi, a, thetas, cfg, w, grid))


def one_step_stage_blocks(t, pi, a, theta, cfg, w):
    """``stage_derivatives_batch`` at one state (K = 1), as dense (lx, lu, lxx, luu, lux)."""
    blocks = plan_stage_blocks(
        np.asarray(t)[:, None], np.asarray(pi)[:, None], np.asarray(a)[:, None], [theta], cfg, w
    )
    return tuple(block[0] for block in blocks)


def receding_grid(k_steps):
    """A grid shaped like a receding window's: a fine quarter, then 5 ds steps, a 3 ds last step."""
    head = k_steps // 4
    return np.array([1] * head + [5] * (k_steps - head - 1) + [3])


def one_step_rollout(t, pi, a, ds):
    """``rollout`` over one step (K = 1) from per-vehicle (t, pi): the next (t, pi)."""
    state = rollout(t, pi, np.asarray(a, dtype=float)[:, None], ds)
    return state.arrival_times[:, 1], state.slownesses[:, 1]


@pytest.fixture
def config():
    return make_config()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

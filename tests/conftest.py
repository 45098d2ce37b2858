import numpy as np
import pytest

from ecoplatoon.costs import schedule_targets, stage_derivatives_batch, trajectory_cost
from ecoplatoon.platoon import PlatoonConfig, VehicleParams

MPH = 0.44704


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


def one_step_cost(t, pi, a, theta, cfg, w):
    """Stage cost at one state, through ``trajectory_cost`` on a one-step plan.

    Column 1 sits on its targets at the target speed, so the terminal term
    is exactly zero and the total is the stage cost alone. Returns
    (total, CostBreakdown).
    """
    targets = schedule_targets(cfg, t)
    states_t = np.column_stack([t, targets])
    states_pi = np.column_stack([pi, np.full(len(pi), 1.0 / cfg.target_speed)])
    accels = np.asarray(a, dtype=float)[:, None]
    total, bd = trajectory_cost(states_t, states_pi, accels, [theta], cfg, w, targets)
    assert bd.terminal == 0.0
    return total, bd


def one_step_stage_blocks(t, pi, a, theta, cfg, w):
    """``stage_derivatives_batch`` at one state (K = 1): (lx, lu, lxx, luu, lux)."""
    blocks = stage_derivatives_batch(
        np.asarray(t)[:, None], np.asarray(pi)[:, None], np.asarray(a)[:, None], [theta], cfg, w
    )
    return tuple(blocks[name][0] for name in ("lx", "lu", "lxx", "luu", "lux"))


@pytest.fixture
def config():
    return make_config()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

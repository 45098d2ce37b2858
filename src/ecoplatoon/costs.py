"""Running and terminal cost of the platoon plan, with analytic derivatives.

The running cost at a spatial step sums three groups over the platoon:

* a gap cost q1 * (t_1 - t_i - (i-1)h)^2 for every follower,
* an ecology cost q2 * (m a v + m g sin(theta) v + mu m g cos(theta) v
  + xi v^3) per vehicle, i.e. q2 times the traction power in watts,
* a control effort cost r1 * a^2 per vehicle.

q1, q2 and r1 price 0.1 m of road: a step of length ds weighs ds / 0.1 m of
them (``step_weight``), so ds sets only the resolution of one cost integral.
On a step grid (``platoon.step_grid``) step k is ds * grid[k] long and
weighs grid[k] times as much; a grid of ones gives the uniform sums bit for
bit.
The ecology term prices traction power through a smooth hinge
max(P, power_floor) when ``CostWeights.power_floor`` is set, as in both
shipped presets (floor 0: braking and descending earn nothing); with no
floor it is signed, and braking or descending contribute negative power.
The fuel meter in :mod:`ecoplatoon.fuel` is a separate model (it clamps at
idle, as a consumption model must).

The terminal cost anchors mobility: q3 * (t_K - target_i)^2 per vehicle,
where target_i is the route time at the target speed measured from each
vehicle's own entry time (``schedule_targets``, the solver's default;
identical to a single shared target when all entry times are zero).

Derivatives come per vehicle, as (K, N) series over steps and vehicles,
plus each step's gap weight q1, whose gap Hessian over arrival times is q1
times the one (N, N) pattern ``gap_hessian``; v = 1/pi makes the ecology
term couple a_i with pi_i, so a control-slowness cross term comes too.
Two functions know the solver's state layout:
:func:`ecoplatoon.platoon.rollout_steps`, which steps the dynamics in it,
and :func:`ecoplatoon.solver.backward_pass`, which places these terms in it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, finite_float
from .platoon import PlatoonConfig, step_multiples

_DS_REF = 0.1  # m, the road length that q1, q2 and r1 price


@dataclass(frozen=True)
class CostWeights:
    """Non-negative weights for the gap, ecology, terminal, and effort terms.

    ``q1``, ``q2`` and ``r1`` price 0.1 m of road, whatever the step length.
    ``qv`` prices the terminal speed against the target speed ((v_K - v^d)^2
    per vehicle). At 0 the horizon end is free, which lets a finite-horizon
    plan profitably dump its kinetic energy in the last meters (the signed
    power proxy rewards shedding speed that is never rebuilt). A receding
    controller never executes that tail; one-shot plans need the anchor.

    ``power_floor``: when set (typically 0.0), each vehicle's traction power
    enters the ecology term through a smooth hinge max(P, floor) of width
    ``power_smoothing`` instead of its raw signed value. The signed form (the
    default) lets the planner book braking and descending as negative cost,
    which a fuel meter never refunds; converged signed-proxy plans brake
    into climbs and lose fuel against a constant-speed baseline. The floored
    proxy is the engine's view: power below the floor burns nothing and
    earns nothing. Shipped presets set the floor to 0.
    """

    q1: float = 500.0
    q2: float = 0.01
    q3: float = 5000.0
    r1: float = 50.0
    qv: float = 0.0
    power_floor: float | None = None
    power_smoothing: float = 500.0  # W, hinge half-width

    def __post_init__(self):
        for name in ("q1", "q2", "q3", "r1", "qv"):
            value = finite_float(getattr(self, name), name)
            if value < 0:
                raise ConfigError(f"{name} must be non-negative, got {value}")
            object.__setattr__(self, name, value)
        smoothing = finite_float(self.power_smoothing, "power_smoothing")
        object.__setattr__(self, "power_smoothing", smoothing)
        if self.power_floor is not None:
            object.__setattr__(self, "power_floor", finite_float(self.power_floor, "power_floor"))
            if smoothing <= 0:
                raise ConfigError(f"power_smoothing must be positive, got {smoothing}")


@dataclass
class CostBreakdown:
    """Accumulated cost by component; ``total`` is their sum."""

    cacc: float = 0.0
    ecology: float = 0.0
    effort: float = 0.0
    terminal: float = 0.0

    @property
    def total(self) -> float:
        return self.cacc + self.ecology + self.effort + self.terminal

    def as_dict(self) -> dict:
        return {
            "cacc": self.cacc,
            "ecology": self.ecology,
            "effort": self.effort,
            "terminal": self.terminal,
            "total": self.total,
        }


def _hinge(z, eps):
    """Smooth max(z, 0) of half-width ``eps``."""
    return 0.5 * (z + np.sqrt(z * z + eps * eps))


def _hinge_slopes(z, eps):
    """The first and second derivative of ``_hinge`` in z."""
    root = np.sqrt(z * z + eps * eps)
    return 0.5 * (1.0 + z / root), 0.5 * eps * eps / root**3


def ecology_power_cost(power, weights: CostWeights):
    """Per-vehicle ecology contribution of raw traction power (W).

    Returns the signed power itself under the default weights, or the
    smooth-hinged value when a power floor is configured.
    """
    if weights.power_floor is None:
        return power
    return weights.power_floor + _hinge(power - weights.power_floor, weights.power_smoothing)


def grade_force(config: PlatoonConfig, theta) -> np.ndarray:
    """Per-vehicle grade-plus-rolling force m g (sin(theta) + mu cos(theta)), N.

    ``theta`` may be a scalar or an array of step angles; the result
    broadcasts masses against it with shape (..., N).
    """
    theta = np.asarray(theta, dtype=float)
    g = config.gravity
    mu = config.rolling_coeff
    slope_term = g * (np.sin(theta) + mu * np.cos(theta))
    return np.multiply.outer(slope_term, config.masses)


def schedule_targets(config: PlatoonConfig, entry_times, grid=None) -> np.ndarray:
    """Per-vehicle terminal arrival targets: entry time plus route time at v^d.

    The route is ``config.route_length``, or ds times the sum of ``grid``.
    """
    entry = np.asarray(entry_times, dtype=float)
    steps = config.horizon_steps if grid is None else int(np.sum(grid))
    return entry + config.ds * steps / config.target_speed


def terminal_cost(t_final, config: PlatoonConfig, weights: CostWeights, targets, pi_final):
    """Mobility cost q3 * sum_i (t_i,K - target_i)^2 (+ optional speed anchor).

    ``targets`` are the per-vehicle arrival targets (see
    :func:`schedule_targets`). When ``weights.qv`` is positive, each vehicle
    additionally pays qv * (v_K - v^d)^2 on its final slowness ``pi_final``.
    """
    t_final = np.asarray(t_final, dtype=float)
    resid = t_final - np.asarray(targets, dtype=float)
    cost = weights.q3 * float(np.sum(resid**2))
    if weights.qv > 0.0:
        v_final = 1.0 / np.asarray(pi_final, dtype=float)
        cost += weights.qv * float(np.sum((v_final - config.target_speed) ** 2))
    return cost


def terminal_derivatives(t_final, config: PlatoonConfig, weights: CostWeights, targets, pi_final):
    """Per-vehicle derivatives of the terminal cost, each an (N,) array.

    Keys: ``t`` and ``pi`` (gradient in the arrival time and the slowness),
    ``tt`` and ``pipi`` (their curvatures). No term couples two vehicles or
    a vehicle's t with its pi.
    """
    t_final = np.asarray(t_final, dtype=float)
    resid = t_final - np.asarray(targets, dtype=float)
    grad_t = 2.0 * weights.q3 * resid
    curv_t = np.full(t_final.size, 2.0 * weights.q3)
    grad_pi = np.zeros(t_final.size)
    curv_pi = np.zeros(t_final.size)
    if weights.qv > 0.0:
        pi_f = np.asarray(pi_final, dtype=float)
        v_err = 1.0 / pi_f - config.target_speed
        grad_pi = -2.0 * weights.qv * v_err / pi_f**2
        curv_pi = 2.0 * weights.qv / pi_f**4 + 4.0 * weights.qv * v_err / pi_f**3
    return {"t": grad_t, "pi": grad_pi, "tt": curv_t, "pipi": curv_pi}


def step_weight(ds: float) -> float:
    """How much one step of length ``ds`` weighs against one of ``_DS_REF``."""
    return ds / _DS_REF


def _stage_weights(config: PlatoonConfig, weights: CostWeights):
    """(q1, q2, r1) for one step of ``config.ds``, each scaled by ``step_weight``."""
    scale = step_weight(config.ds)
    return weights.q1 * scale, weights.q2 * scale, weights.r1 * scale


def gap_hessian(n: int) -> np.ndarray:
    """The Hessian of one step's gap cost over arrival times at q1 = 1, (N, N).

    A step of gap weight q1 has the Hessian q1 times this pattern.
    """
    h_tt = np.zeros((n, n))
    h_tt[0, 0] = 2.0 * (n - 1)
    h_tt[0, 1:] = h_tt[1:, 0] = -2.0
    h_tt[range(1, n), range(1, n)] = 2.0
    return h_tt


def stage_derivatives_batch(
    t, pi, a, thetas, config: PlatoonConfig, weights: CostWeights, grid=None
):
    """Stage-cost derivatives for a whole trajectory at once, per (step, vehicle).

    Inputs are (N, K) state/control arrays, (K,) step grades and the step
    grid (None: uniform). Returns a dict of (K, N) series: ``t`` and ``pi``
    (state gradient), ``pipi`` (slowness curvature), ``a`` and ``aa``
    (control gradient and curvature) and ``api`` (the control-slowness
    cross term), plus ``q1``, each step's (K,) gap weight: the step's gap
    Hessian over arrival times is q1 times ``gap_hessian(N)``. Every other
    second derivative is zero: apart from the gap cost, no term couples two
    vehicles.
    """
    t = np.atleast_2d(np.asarray(t, dtype=float))
    pi = np.atleast_2d(np.asarray(pi, dtype=float))
    a = np.atleast_2d(np.asarray(a, dtype=float))
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    n, k_steps = t.shape
    m = config.masses
    # (K,) weights, each step's by its length; times 1 on a uniform grid
    multiples = step_multiples(grid, k_steps)
    q1, q2, r1 = (weight * multiples for weight in _stage_weights(config, weights))
    r1_col = r1[:, None]

    # Gap cost: linear/quadratic in arrival times only.
    gaps = t[0] - t[1:] - (np.arange(1, n) * config.headway)[:, None]  # (N-1, K)
    grad_t = np.empty((k_steps, n))
    grad_t[:, 0] = 2.0 * q1 * np.sum(gaps, axis=0)
    grad_t[:, 1:] = -2.0 * q1[:, None] * gaps.T

    # Ecology cost: depends on slowness (v = 1/pi) and acceleration. With a
    # power floor, chain the raw-power derivatives through the hinge.
    cg = grade_force(config, thetas).T  # (N, K)
    xi = config.drag_coeff
    inv_pi = 1.0 / pi
    inv_pi2 = inv_pi**2
    inv_pi3 = inv_pi**3
    drive = m[:, None] * a + cg  # m a + grade/rolling force
    p_pi = -(drive) * inv_pi2 - 3.0 * xi * inv_pi**4
    p_pipi = 2.0 * drive * inv_pi3 + 12.0 * xi * inv_pi**5
    p_a = m[:, None] * inv_pi
    p_api = -m[:, None] * inv_pi2
    if weights.power_floor is None:
        g1 = 1.0
        g2 = 0.0
    else:
        power = drive * inv_pi + xi * inv_pi3
        g1, g2 = _hinge_slopes(power - weights.power_floor, weights.power_smoothing)
    q2_g1 = q2 * g1
    r1_aa = 2.0 * r1_col

    # The ecology terms plus the control effort r1 a^2.
    return {
        "t": grad_t,
        "pi": (q2_g1 * p_pi).T,
        "pipi": (q2 * (g1 * p_pipi + g2 * p_pi**2)).T,
        "a": (q2_g1 * p_a).T + r1_aa * a.T,
        "aa": (q2 * g2 * p_a**2).T + r1_aa,
        "api": (q2 * (g1 * p_api + g2 * p_a * p_pi)).T,
        "q1": q1,
    }


def trajectory_cost(states_t, states_pi, accels, thetas, config, weights, targets, grid=None):
    """Total plan cost in one vectorized pass. Returns (total, CostBreakdown).

    Each step's running terms weigh its multiple in ``grid`` (None:
    uniform) before they are summed.
    """
    t = np.asarray(states_t, dtype=float)
    pi = np.asarray(states_pi, dtype=float)
    a = np.asarray(accels, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    k_steps = a.shape[1]
    q1, q2, r1 = _stage_weights(config, weights)
    multiples = step_multiples(grid, k_steps)
    v = 1.0 / pi[:, :k_steps]
    m = config.masses[:, None]
    gaps = (
        t[0, :k_steps]
        - t[1:, :k_steps]
        - (np.arange(1, config.n_vehicles) * config.headway)[:, None]
    )
    cacc = q1 * float(np.sum(gaps**2 * multiples))
    power = m * a * v + grade_force(config, thetas).T * v + config.drag_coeff * v**3
    ecology = q2 * float(np.sum(ecology_power_cost(power, weights) * multiples))
    effort = r1 * float(np.sum(a**2 * multiples))
    terminal = terminal_cost(t[:, -1], config, weights, targets, pi_final=pi[:, -1])
    breakdown = CostBreakdown(cacc=cacc, ecology=ecology, effort=effort, terminal=terminal)
    return breakdown.total, breakdown

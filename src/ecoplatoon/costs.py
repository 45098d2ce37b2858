"""Running and terminal cost of the platoon plan, with analytic derivatives.

The running cost at a spatial step sums three groups over the platoon:

* a gap cost q1 * (t_1 - t_i - (i-1)h)^2 for every follower,
* an ecology cost q2 * (m a v + m g sin(theta) v + mu m g cos(theta) v
  + xi v^3) per vehicle, i.e. q2 times the traction power in watts,
* a control effort cost r1 * a^2 per vehicle.

Step costs are summed over the horizon without a ds factor, so the effective
weighting depends on the step length; shipped presets assume ds = 0.1 m.
The ecology term prices traction power through a smooth hinge
max(P, power_floor) when ``CostWeights.power_floor`` is set, as in both
shipped presets (floor 0: braking and descending earn nothing); with no
floor it is signed, and braking or descending contribute negative power.
The fuel meter in :mod:`ecoplatoon.fuel` is a separate model (it clamps at
idle, as a consumption model must).

The terminal cost anchors mobility: q3 * (t_K - target_i)^2 per vehicle,
where target_i defaults to the route time at the target speed measured from
each vehicle's own entry time (identical to a single shared target when all
entry times are zero).

Derivatives use the flat interleaved state [t1, pi1, ..., tN, piN] and
control [a1, ..., aN]; note v = 1/pi makes the ecology term couple a_i with
pi_i, so the mixed control-state block is nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .platoon import PlatoonConfig


@dataclass(frozen=True)
class CostWeights:
    """Non-negative weights for the gap, ecology, terminal, and effort terms.

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
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(
                    f"cost weight {name} must be finite and non-negative, got {value}"
                )
        if self.power_floor is not None and not math.isfinite(self.power_floor):
            raise ConfigError(f"power_floor must be finite, got {self.power_floor}")
        if not math.isfinite(self.power_smoothing):
            raise ConfigError(f"power_smoothing must be finite, got {self.power_smoothing}")
        if self.power_floor is not None and self.power_smoothing <= 0:
            raise ConfigError("power_smoothing must be positive")


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

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        return CostBreakdown(
            cacc=self.cacc + other.cacc,
            ecology=self.ecology + other.ecology,
            effort=self.effort + other.effort,
            terminal=self.terminal + other.terminal,
        )

    def as_dict(self) -> dict:
        return {
            "cacc": self.cacc,
            "ecology": self.ecology,
            "effort": self.effort,
            "terminal": self.terminal,
            "total": self.total,
        }


def _hinge(z, eps):
    """Smooth max(z, 0): value, first, and second derivative."""
    root = np.sqrt(z * z + eps * eps)
    value = 0.5 * (z + root)
    d1 = 0.5 * (1.0 + z / root)
    d2 = 0.5 * eps * eps / root**3
    return value, d1, d2


def ecology_power_cost(power, weights: CostWeights):
    """Per-vehicle ecology contribution of raw traction power (W).

    Returns the signed power itself under the default weights, or the
    smooth-hinged value when a power floor is configured.
    """
    if weights.power_floor is None:
        return power
    value, _, _ = _hinge(power - weights.power_floor, weights.power_smoothing)
    return weights.power_floor + value


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


def running_cost(t, pi, a, theta, config: PlatoonConfig, weights: CostWeights):
    """Stage cost at one step. Returns (scalar, CostBreakdown increment)."""
    t = np.asarray(t, dtype=float)
    pi = np.asarray(pi, dtype=float)
    a = np.asarray(a, dtype=float)
    v = 1.0 / pi
    m = config.masses
    gaps = t[0] - t[1:] - np.arange(1, config.n_vehicles) * config.headway
    cacc = weights.q1 * float(np.sum(gaps**2))
    power = m * a * v + grade_force(config, theta) * v + config.drag_coeff * v**3
    ecology = weights.q2 * float(np.sum(ecology_power_cost(power, weights)))
    effort = weights.r1 * float(np.sum(a**2))
    inc = CostBreakdown(cacc=cacc, ecology=ecology, effort=effort)
    return inc.total, inc


def schedule_targets(config: PlatoonConfig, entry_times) -> np.ndarray:
    """Per-vehicle terminal arrival targets: entry time plus route time at v^d."""
    entry = np.asarray(entry_times, dtype=float)
    return entry + config.route_length / config.target_speed


def terminal_cost(
    t_final, config: PlatoonConfig, weights: CostWeights, targets=None, pi_final=None
):
    """Mobility cost q3 * sum_i (t_i,K - target_i)^2 (+ optional speed anchor).

    With ``targets`` omitted, every vehicle is held to the shared target
    K*ds/v^d (the entry-anchored schedule of a platoon whose clocks start
    at zero). When ``weights.qv`` is positive and ``pi_final`` given, each
    vehicle additionally pays qv * (v_K - v^d)^2.
    """
    t_final = np.asarray(t_final, dtype=float)
    if targets is None:
        targets = np.full(t_final.shape, config.route_length / config.target_speed)
    resid = t_final - np.asarray(targets, dtype=float)
    cost = weights.q3 * float(np.sum(resid**2))
    if weights.qv > 0.0 and pi_final is not None:
        v_final = 1.0 / np.asarray(pi_final, dtype=float)
        cost += weights.qv * float(np.sum((v_final - config.target_speed) ** 2))
    return cost


def terminal_derivatives(
    t_final, config: PlatoonConfig, weights: CostWeights, targets=None, pi_final=None
):
    """Gradient and Hessian of the terminal cost in flat-state coordinates."""
    t_final = np.asarray(t_final, dtype=float)
    n = t_final.size
    if targets is None:
        targets = np.full(n, config.route_length / config.target_speed)
    resid = t_final - np.asarray(targets, dtype=float)
    lf_x = np.zeros(2 * n)
    lf_xx = np.zeros((2 * n, 2 * n))
    ti = np.arange(n) * 2
    lf_x[ti] = 2.0 * weights.q3 * resid
    lf_xx[ti, ti] = 2.0 * weights.q3
    if weights.qv > 0.0 and pi_final is not None:
        pi_f = np.asarray(pi_final, dtype=float)
        v_err = 1.0 / pi_f - config.target_speed
        pj = ti + 1
        lf_x[pj] = -2.0 * weights.qv * v_err / pi_f**2
        lf_xx[pj, pj] = 2.0 * weights.qv / pi_f**4 + 4.0 * weights.qv * v_err / pi_f**3
    return lf_x, lf_xx


def _gap_hessian_tt(config: PlatoonConfig, weights: CostWeights) -> np.ndarray:
    """Constant Hessian of the gap cost over arrival-time coordinates."""
    n = config.n_vehicles
    h_tt = np.zeros((n, n))
    h_tt[0, 0] = 2.0 * weights.q1 * (n - 1)
    for i in range(1, n):
        h_tt[0, i] = h_tt[i, 0] = -2.0 * weights.q1
        h_tt[i, i] = 2.0 * weights.q1
    return h_tt


def stage_derivatives_batch(t, pi, a, thetas, config: PlatoonConfig, weights: CostWeights):
    """Stage-cost derivative blocks for a whole trajectory at once.

    Inputs are (N, K) state/control arrays and (K,) step grades. Returns a
    dict of stacked blocks: ``lx`` (K, 2N), ``lu`` (K, N), ``lxx``
    (K, 2N, 2N), ``luu`` (K, N, N), ``lux`` (K, N, 2N).
    """
    t = np.atleast_2d(np.asarray(t, dtype=float))
    pi = np.atleast_2d(np.asarray(pi, dtype=float))
    a = np.atleast_2d(np.asarray(a, dtype=float))
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    n, k_steps = t.shape
    m = config.masses
    q1, q2, r1 = weights.q1, weights.q2, weights.r1
    ti = np.arange(n) * 2
    pj = ti + 1

    lx = np.zeros((k_steps, 2 * n))
    lu = np.zeros((k_steps, n))
    lxx = np.zeros((k_steps, 2 * n, 2 * n))
    luu = np.zeros((k_steps, n, n))
    lux = np.zeros((k_steps, n, 2 * n))

    # Gap cost: linear/quadratic in arrival times only.
    gaps = t[0] - t[1:] - (np.arange(1, n) * config.headway)[:, None]  # (N-1, K)
    lx[:, ti[0]] = 2.0 * q1 * np.sum(gaps, axis=0)
    lx[:, ti[1:]] = -2.0 * q1 * gaps.T
    h_tt = _gap_hessian_tt(config, weights)
    lxx[:, ti[:, None], ti[None, :]] = h_tt

    # Ecology cost: depends on slowness (v = 1/pi) and acceleration. With a
    # power floor, chain the raw-power derivatives through the hinge.
    cg = grade_force(config, thetas).T  # (N, K)
    xi = config.drag_coeff
    inv_pi = 1.0 / pi
    drive = m[:, None] * a + cg  # m a + grade/rolling force
    p_pi = -(drive) * inv_pi**2 - 3.0 * xi * inv_pi**4
    p_pipi = 2.0 * drive * inv_pi**3 + 12.0 * xi * inv_pi**5
    p_a = m[:, None] * inv_pi
    p_api = -m[:, None] * inv_pi**2
    if weights.power_floor is None:
        g1 = 1.0
        g2 = 0.0
    else:
        power = drive * inv_pi + xi * inv_pi**3
        _, g1, g2 = _hinge(power - weights.power_floor, weights.power_smoothing)
    lx[:, pj] = (q2 * g1 * p_pi).T
    lxx[:, pj, pj] = (q2 * (g1 * p_pipi + g2 * p_pi**2)).T
    lu += (q2 * g1 * p_a).T
    luu[:, np.arange(n), np.arange(n)] += (q2 * g2 * p_a**2).T
    lux[:, np.arange(n), pj] = (q2 * (g1 * p_api + g2 * p_a * p_pi)).T

    # Control effort.
    lu += 2.0 * r1 * a.T
    luu[:, np.arange(n), np.arange(n)] += 2.0 * r1

    return {"lx": lx, "lu": lu, "lxx": lxx, "luu": luu, "lux": lux}


def cost_derivatives(t, pi, a, theta, config: PlatoonConfig, weights: CostWeights):
    """Derivative blocks (L_X, L_U, L_XX, L_UU, L_UX) at a single step."""
    blocks = stage_derivatives_batch(
        np.asarray(t)[:, None],
        np.asarray(pi)[:, None],
        np.asarray(a)[:, None],
        [theta],
        config,
        weights,
    )
    return (
        blocks["lx"][0],
        blocks["lu"][0],
        blocks["lxx"][0],
        blocks["luu"][0],
        blocks["lux"][0],
    )


def trajectory_cost(states_t, states_pi, accels, thetas, config, weights, targets=None):
    """Total plan cost in one vectorized pass. Returns (total, CostBreakdown)."""
    t = np.asarray(states_t, dtype=float)
    pi = np.asarray(states_pi, dtype=float)
    a = np.asarray(accels, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    k_steps = a.shape[1]
    v = 1.0 / pi[:, :k_steps]
    m = config.masses[:, None]
    gaps = (
        t[0, :k_steps]
        - t[1:, :k_steps]
        - (np.arange(1, config.n_vehicles) * config.headway)[:, None]
    )
    cacc = weights.q1 * float(np.sum(gaps**2))
    power = m * a * v + grade_force(config, thetas).T * v + config.drag_coeff * v**3
    ecology = weights.q2 * float(np.sum(ecology_power_cost(power, weights)))
    effort = weights.r1 * float(np.sum(a**2))
    terminal = terminal_cost(t[:, -1], config, weights, targets, pi_final=pi[:, -1])
    breakdown = CostBreakdown(cacc=cacc, ecology=ecology, effort=effort, terminal=terminal)
    return breakdown.total, breakdown

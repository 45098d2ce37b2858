"""Box constraints on speed and acceleration, in augmented-Lagrangian form.

Every vehicle contributes four scalar inequalities e <= 0 at every step,
ordered (speed cap, speed floor, accel cap, accel floor), so a platoon of N
vehicles has 4N constraint functions. The speed bounds act on v = 1/pi and
are therefore nonlinear in the slowness state; their curvature is kept in
the Hessian blocks. The acceleration bounds are affine in the control.

Each inequality is handled as the equality C = e + s with a non-negative
slack s. The penalized stage cost adds lambda*C + rho*C^2/2 per constraint.
Slack and multiplier updates follow the classical projected rules

    s      <- max(0, -lambda/rho - e)
    lambda <- max(0, lambda + rho*(e + s))

which for the slack above reduces to lambda <- max(0, lambda + rho*e).
A solve owns one ALState; multipliers, penalties, and slacks are arrays over
(step, constraint) because every step carries its own constraint instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .platoon import PlatoonConfig


@dataclass(frozen=True)
class ConstraintSet:
    """Per-vehicle box bounds evaluated as e <= 0 functions."""

    v_max: float
    v_floor: float
    a_max: np.ndarray  # (N,)
    a_min: np.ndarray  # (N,)

    @classmethod
    def from_config(cls, config: PlatoonConfig) -> "ConstraintSet":
        return cls(
            v_max=config.speed_limit,
            v_floor=config.speed_floor,
            a_max=np.array([veh.a_max for veh in config.vehicles]),
            a_min=np.array([veh.a_min for veh in config.vehicles]),
        )

    @property
    def n_vehicles(self) -> int:
        return self.a_max.size

    @property
    def n_constraints(self) -> int:
        return 4 * self.n_vehicles


@dataclass
class ALState:
    """Penalty weights, multipliers, and slacks, one triple per constraint.

    Arrays share a shape; the solver uses (K, 4N) so every step's constraint
    instances carry independent multipliers.
    """

    rho: np.ndarray
    lam: np.ndarray
    slack: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.lam = np.asarray(self.lam, dtype=float)
        self.slack = np.asarray(self.slack, dtype=float)
        if not (self.rho.shape == self.lam.shape == self.slack.shape):
            raise ConfigError("rho, lam, slack must share a shape")
        if np.any(self.rho <= 0):
            raise ConfigError("penalty weights must be positive")
        if np.any(self.lam < 0) or np.any(self.slack < 0):
            raise ConfigError("multipliers and slacks must be non-negative")

    @classmethod
    def initial(cls, n_steps: int, n_constraints: int, rho0: float = 10.0) -> "ALState":
        shape = (n_steps, n_constraints)
        return cls(rho=np.full(shape, rho0), lam=np.zeros(shape), slack=np.zeros(shape))


def evaluate(cset: ConstraintSet, pi, a) -> np.ndarray:
    """Constraint values for states (N, ...) -> (..., 4N); e <= 0 is satisfied.

    Accepts single-step vectors (N,) or whole trajectories (N, K).
    """
    pi = np.asarray(pi, dtype=float)
    a = np.asarray(a, dtype=float)
    single = pi.ndim == 1
    pi2 = pi[:, None] if single else pi
    a2 = a[:, None] if single else a
    v = 1.0 / pi2
    n, k_steps = pi2.shape
    e = np.empty((k_steps, 4 * n))
    e[:, 0::4] = (v - cset.v_max).T
    e[:, 1::4] = (cset.v_floor - v).T
    e[:, 2::4] = (a2 - cset.a_max[:, None]).T
    e[:, 3::4] = (cset.a_min[:, None] - a2).T
    return e[0] if single else e


def max_violation(e_values: np.ndarray) -> float:
    """Largest positive constraint value (0 when everything is satisfied)."""
    return float(np.maximum(e_values, 0.0).max(initial=0.0))


def penalty(e_values: np.ndarray, al: ALState) -> float:
    """Total penalty sum [lambda C + rho C^2 / 2] over constraint values, C = e + s."""
    c = e_values + al.slack
    return float(np.sum(al.lam * c) + 0.5 * np.sum(al.rho * c * c))


def al_derivative_batch(cset: ConstraintSet, al: ALState, pi, a, active_set: bool = False):
    """Vectorized AL derivative blocks over a trajectory.

    Returns stacked (lx, lu, lxx, luu, lux) with leading step axis. The force
    multiplier w = lambda + rho*(e + s) scales constraint gradients in the
    first-order blocks; Hessians keep both the Gauss-Newton outer product
    rho * de de^T and, for the curved speed bounds, the w-weighted second
    derivative of e itself.

    With ``active_set`` the Gauss-Newton curvature is dropped wherever the
    constraint force vanishes. That matches the penalty actually optimized
    when slacks are re-projected after every step (flat on inactive
    constraints) instead of the fixed-slack quadratic; the solver uses this
    variant to keep Newton steps from being damped by phantom curvature.
    """
    pi = np.asarray(pi, dtype=float)
    a = np.asarray(a, dtype=float)
    n, k_steps = pi.shape
    e = evaluate(cset, pi, a)  # (K, 4N)
    w = al.lam + al.rho * (e + al.slack)  # (K, 4N)
    rho_eff = np.where(w > 0.0, al.rho, 0.0) if active_set else al.rho

    inv_pi2 = (1.0 / pi**2).T  # (K, N)
    inv_pi3 = (1.0 / pi**3).T
    inv_pi4 = (1.0 / pi**4).T

    lx = np.zeros((k_steps, 2 * n))
    lu = np.zeros((k_steps, n))
    lxx = np.zeros((k_steps, 2 * n, 2 * n))
    luu = np.zeros((k_steps, n, n))
    lux = np.zeros((k_steps, n, 2 * n))

    pj = np.arange(n) * 2 + 1
    ai = np.arange(n)

    w_cap, w_floor = w[:, 0::4], w[:, 1::4]
    rho_cap, rho_floor = rho_eff[:, 0::4], rho_eff[:, 1::4]
    lx[:, pj] = (w_floor - w_cap) * inv_pi2
    lxx[:, pj, pj] = (rho_cap + rho_floor) * inv_pi4 + 2.0 * (w_cap - w_floor) * inv_pi3

    w_amax, w_amin = w[:, 2::4], w[:, 3::4]
    rho_amax, rho_amin = rho_eff[:, 2::4], rho_eff[:, 3::4]
    lu[:, ai] = w_amax - w_amin
    luu[:, ai, ai] = rho_amax + rho_amin

    return lx, lu, lxx, luu, lux


def update_slack(al: ALState, e_values: np.ndarray) -> ALState:
    """Recompute slacks from current constraint values, projected to s >= 0."""
    raw = -al.lam / al.rho - e_values
    return ALState(rho=al.rho, lam=al.lam, slack=np.maximum(0.0, raw))


def update_multipliers(al: ALState, e_values: np.ndarray) -> ALState:
    """Penalty-scaled multiplier step on C = e + s, projected to lambda >= 0."""
    lam = np.maximum(0.0, al.lam + al.rho * (e_values + al.slack))
    return ALState(rho=al.rho, lam=lam, slack=al.slack)


def escalate_penalty(al: ALState, e_values: np.ndarray, factor: float, tol: float = 1e-3) -> ALState:
    """Scale rho by ``factor`` on constraints still violated beyond ``tol``.

    A factor of 1 never escalates.
    """
    if not (np.isfinite(factor) and factor >= 1.0):
        raise ConfigError(f"penalty escalation factor must be finite and >= 1, got {factor}")
    rho = np.where(e_values > tol, al.rho * factor, al.rho)
    return ALState(rho=rho, lam=al.lam, slack=al.slack)

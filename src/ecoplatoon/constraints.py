"""Speed bounds in augmented-Lagrangian form.

Every vehicle contributes two scalar inequalities e <= 0 at every step,
ordered (speed cap, speed floor), so a platoon of N vehicles has 2N
constraint functions. They act on v = 1/pi and are therefore nonlinear in
the slowness state; their curvature is kept in the Hessian blocks. The
acceleration box is not here: the solver holds each vehicle's
``accel_bounds`` inside DDP itself (control-limited DDP, see
:mod:`ecoplatoon.solver`), so every plan it returns lies in the box by
construction.

Each inequality carries the closed-form Powell-Hestenes-Rockafellar (PHR)
penalty

    (w^2 - lambda^2) / (2 rho),    w = max(0, lambda + rho*e),

whose gradient is the force w times the gradient of e, and the multiplier
update is lambda <- w. The penalty is flat in e wherever lambda + rho*e <= 0.
The Gauss-Newton curvature rho de de^T is kept wherever lambda + rho*e > 0
or lambda > 0, the active set I_mu of ALTRO (Howell, Jackson & Manchester,
IROS 2019): a constraint that has earned a multiplier keeps its curvature
while the plan sits inside the bound.

The bounds are read from the ``PlatoonConfig`` every caller holds:
``speed_limit`` and ``speed_floor``. A solve owns one ALState; multipliers
and penalty weights are arrays over (step, constraint) because every step
carries its own constraint instances. One outer update,
:func:`update_multipliers`, takes the multiplier step and escalates rho on
the constraints still violated. The penalty's derivatives come per
(step, vehicle). Two functions know the solver's state layout:
:func:`ecoplatoon.platoon.rollout_steps`, which steps the dynamics in it,
and :func:`ecoplatoon.solver.backward_pass`, which places these terms in it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .platoon import PlatoonConfig


@dataclass
class ALState:
    """Penalty weights and multipliers, one pair per constraint.

    Arrays share a shape; the solver uses (K, 2N) so every step's constraint
    instances carry independent multipliers.
    """

    rho: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.lam = np.asarray(self.lam, dtype=float)
        if self.rho.shape != self.lam.shape:
            raise ConfigError("rho and lam must share a shape")
        # Negated so that NaN entries fail too.
        if not np.all(self.rho > 0):
            raise ConfigError("penalty weights must be positive")
        if not np.all(self.lam >= 0):
            raise ConfigError("multipliers must be non-negative")

    @classmethod
    def initial(cls, config: PlatoonConfig, n_steps: int, rho0) -> "ALState":
        """No multipliers and penalty weights ``rho0`` on each step's 2N constraints.

        ``rho0`` is a float or per step, (n_steps, 1).
        """
        shape = (n_steps, 2 * config.n_vehicles)
        return cls(rho=np.full(shape, rho0), lam=np.zeros(shape))

    def rows(self, steps: slice) -> "ALState":
        """The state of the steps in ``steps``, views of its rows.

        Rows of a checked state pass its checks, so they are not run again:
        the backward pass takes the rows of each of its chunks.
        """
        view = object.__new__(ALState)
        view.rho, view.lam = self.rho[steps], self.lam[steps]
        return view


def evaluate(config: PlatoonConfig, pi) -> np.ndarray:
    """Speed-bound values for slownesses (N, K) -> (K, 2N); e <= 0 is satisfied."""
    v = 1.0 / np.asarray(pi, dtype=float).T
    n = v.shape[1]
    e = np.empty((v.shape[0], 2 * n))
    e[:, 0::2] = v - config.speed_limit
    e[:, 1::2] = config.speed_floor - v
    return e


def max_violation(e_values: np.ndarray) -> float:
    """Largest positive constraint value (0 when everything is satisfied)."""
    return float(np.maximum(e_values, 0.0).max(initial=0.0))


def _force(e_values: np.ndarray, al: ALState) -> np.ndarray:
    """The PHR force w = max(0, lambda + rho e), the multiplier after an update."""
    return np.maximum(0.0, al.lam + al.rho * e_values)


def penalty(e_values: np.ndarray, al: ALState) -> float:
    """Total PHR penalty sum (w^2 - lambda^2) / (2 rho) over constraint values."""
    w = _force(e_values, al)
    return 0.5 * float(np.sum((w * w - al.lam * al.lam) / al.rho))


def al_derivative_batch(config: PlatoonConfig, al: ALState, pi):
    """Vectorized AL derivatives over a trajectory, per (step, vehicle).

    Returns a dict of (K, N) series: ``pi`` and ``pipi``, the slowness
    gradient and curvature of the speed bounds; every other derivative is
    zero. The gradient is the force w times the constraint gradient; the
    curvature keeps the w-weighted second derivative of the curved bounds
    and the Gauss-Newton outer product rho de de^T on the active set I_mu
    (lambda + rho e > 0 or lambda > 0).
    """
    pi = np.asarray(pi, dtype=float)
    w = _force(evaluate(config, pi), al)  # (K, 2N)
    if not (w.any() or al.lam.any()):
        # No bound of these steps is active: both series are +0.0, as the
        # formulas below give, without their powers of pi.
        return {"pi": np.zeros(pi.T.shape), "pipi": np.zeros(pi.T.shape)}
    rho_eff = np.where((w > 0.0) | (al.lam > 0.0), al.rho, 0.0)

    inv_pi2 = (1.0 / pi**2).T  # (K, N)
    inv_pi3 = (1.0 / pi**3).T
    inv_pi4 = (1.0 / pi**4).T

    w_cap, w_floor = w[:, 0::2], w[:, 1::2]
    rho_cap, rho_floor = rho_eff[:, 0::2], rho_eff[:, 1::2]
    return {
        "pi": (w_floor - w_cap) * inv_pi2,
        "pipi": (rho_cap + rho_floor) * inv_pi4 + 2.0 * (w_cap - w_floor) * inv_pi3,
    }


def update_multipliers(al: ALState, e_values: np.ndarray, factor: float, tol: float) -> ALState:
    """One outer update: the PHR step lambda <- max(0, lambda + rho e), and
    rho scaled by ``factor`` on constraints still violated beyond ``tol``.

    The multiplier step reads the old rho. A factor of 1 never escalates.
    """
    if not (np.isfinite(factor) and factor >= 1.0):
        raise ConfigError(f"penalty escalation factor must be finite and >= 1, got {factor}")
    rho = np.where(e_values > tol, al.rho * factor, al.rho)
    return ALState(rho=rho, lam=_force(e_values, al))

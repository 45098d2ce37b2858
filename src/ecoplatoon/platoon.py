"""Platoon configuration and the space-domain vehicle model.

The independent variable is longitudinal position. Each vehicle carries an
arrival time t (s) and a slowness pi = 1/v (s/m) at every spatial step, so
the per-vehicle state at step k is (t_k, pi_k) and the control is the
longitudinal acceleration a_k. One step of length ds advances

    t'  = t  + pi * ds
    pi' = pi - a * pi**3 * ds

which is the first-order space discretization of dt/ds = pi and
d(pi)/ds = -a * pi**3. The platoon-difference view used by the gap cost is
provided by :func:`diff_state`.

Everything here is a pure function over value types; concurrent evaluation
of independent rollouts is safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IntegrationError, StallError
from .terrain import SlopeProfile, grade_at

MPH_TO_MPS = 0.44704


@dataclass(frozen=True)
class VehicleParams:
    """Single-vehicle mass and acceleration envelope."""

    mass: float  # kg
    a_min: float  # m/s^2, < 0
    a_max: float  # m/s^2, > 0

    def __post_init__(self):
        if not self.mass > 0:
            raise ConfigError(f"vehicle mass must be positive, got {self.mass}")
        if not (self.a_min < 0 < self.a_max):
            raise ConfigError(
                f"acceleration bounds must straddle zero, got [{self.a_min}, {self.a_max}]"
            )


@dataclass(frozen=True)
class PlatoonConfig:
    """Platoon-level parameters shared by the planner, baseline, and meters.

    Speeds are SI (m/s); use :data:`MPH_TO_MPS` when converting inputs.
    ``speed_floor`` replaces the literal v >= 0 bound: slowness is singular
    at standstill, so the planner constrains v >= speed_floor instead.
    """

    vehicles: tuple  # VehicleParams, leader first, length N >= 2
    headway: float  # s
    target_speed: float  # m/s
    speed_limit: float  # m/s
    gravity: float = 9.8  # m/s^2
    rolling_coeff: float = 0.015
    drag_coeff: float = 0.000024  # kg/m
    ds: float = 0.1  # m
    horizon_steps: int = 8000
    speed_floor: float = 0.1  # m/s

    def __post_init__(self):
        if len(self.vehicles) < 2:
            raise ConfigError("platoon needs at least two vehicles")
        if not self.headway > 0:
            raise ConfigError(f"headway must be positive, got {self.headway}")
        if not 0 < self.target_speed <= self.speed_limit:
            raise ConfigError(
                f"need 0 < target_speed <= speed_limit, got {self.target_speed} vs {self.speed_limit}"
            )
        if not self.ds > 0:
            raise ConfigError(f"ds must be positive, got {self.ds}")
        if self.horizon_steps < 1:
            raise ConfigError(f"horizon_steps must be >= 1, got {self.horizon_steps}")
        if not 0 < self.speed_floor < self.target_speed:
            raise ConfigError(f"speed_floor must lie in (0, target_speed), got {self.speed_floor}")
        if not 0 < self.gravity < np.inf:
            raise ConfigError(f"gravity must be positive and finite, got {self.gravity}")
        for name in ("rolling_coeff", "drag_coeff"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigError(
                    f"{name} must be non-negative and finite, got {getattr(self, name)}"
                )
        object.__setattr__(self, "vehicles", tuple(self.vehicles))

    @property
    def n_vehicles(self) -> int:
        return len(self.vehicles)

    @property
    def masses(self) -> np.ndarray:
        return np.array([v.mass for v in self.vehicles])

    @property
    def route_length(self) -> float:
        return self.ds * self.horizon_steps


@dataclass
class PlatoonState:
    """Arrival times and slownesses on the spatial grid, shape (N, K+1)."""

    arrival_times: np.ndarray  # s
    slownesses: np.ndarray  # s/m, positive

    def __post_init__(self):
        self.arrival_times = np.asarray(self.arrival_times, dtype=float)
        self.slownesses = np.asarray(self.slownesses, dtype=float)
        if self.arrival_times.shape != self.slownesses.shape:
            raise ConfigError("arrival_times and slownesses must share a shape")
        if np.any(self.slownesses <= 0):
            raise ConfigError("slowness must be positive everywhere")

    @property
    def speeds(self) -> np.ndarray:
        return 1.0 / self.slownesses

    @property
    def n_vehicles(self) -> int:
        return self.arrival_times.shape[0]

    @property
    def n_steps(self) -> int:
        return self.arrival_times.shape[1] - 1


@dataclass
class ControlTrajectory:
    """Per-vehicle acceleration sequence, shape (N, K)."""

    accels: np.ndarray  # m/s^2

    def __post_init__(self):
        self.accels = np.asarray(self.accels, dtype=float)
        if not np.all(np.isfinite(self.accels)):
            raise ConfigError("accelerations must be finite")


def slowness(v):
    """Reciprocal speed (s/m). Undefined at or below standstill."""
    v_arr = np.asarray(v, dtype=float)
    if np.any(v_arr <= 0):
        raise ConfigError(f"slowness undefined for non-positive speed {v!r}")
    out = 1.0 / v_arr
    return float(out) if np.isscalar(v) or v_arr.ndim == 0 else out


def diff_state(state: PlatoonState, k: int, config: PlatoonConfig) -> np.ndarray:
    """Leader-relative difference vector at step k, length 2(N-1).

    Entries are [t1-t2-h, pi1-pi2, ..., t1-tN-(N-1)h, pi1-piN]; the gap-error
    components double as the longitudinal following errors.
    """
    t = state.arrival_times[:, k]
    pi = state.slownesses[:, k]
    n = config.n_vehicles
    out = np.empty(2 * (n - 1))
    ranks = np.arange(1, n)
    out[0::2] = t[0] - t[1:] - ranks * config.headway
    out[1::2] = pi[0] - pi[1:]
    return out


def step_dynamics(t, pi, a, ds):
    """Advance per-vehicle (t, pi) one spatial step of length ds.

    Raises IntegrationError if any updated slowness is non-positive, which
    means the step tried to push speed through +infinity.
    """
    t = np.asarray(t, dtype=float)
    pi = np.asarray(pi, dtype=float)
    a = np.asarray(a, dtype=float)
    if np.any(pi <= 0):
        raise IntegrationError("slowness must be positive before stepping")
    t_next = t + pi * ds
    pi_next = pi - a * pi**3 * ds
    if np.any(pi_next <= 0) or not np.all(np.isfinite(pi_next)):
        raise IntegrationError(
            "dynamics step drove slowness out of the positive domain; "
            "reduce ds or the commanded acceleration"
        )
    return t_next, pi_next


def rollout(t0, pi0, accels, ds) -> PlatoonState:
    """Roll per-vehicle dynamics over a whole control sequence (N, K).

    Same arithmetic as repeated :func:`step_dynamics`, so the states match it
    bit for bit, and the same IntegrationError when a slowness leaves the
    positive domain; the domain is checked once, after the loop, and arrival
    times are one running sum of pi * ds.
    """
    accels = np.asarray(accels, dtype=float)
    n, k_steps = accels.shape
    slows = np.empty((k_steps + 1, n))
    slows[0] = pi0
    if np.any(slows[0] <= 0):
        raise IntegrationError("slowness must be positive before stepping")
    # a blow-up overflows the cubic term; the domain check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for pi, pi_next, a in zip(slows, slows[1:], accels.T):
            pi_next[:] = pi - a * pi**3 * ds
    if not np.all(np.isfinite(slows)) or np.any(slows <= 0):
        raise IntegrationError(
            "dynamics step drove slowness out of the positive domain; "
            "reduce ds or the commanded acceleration"
        )
    times = np.empty((k_steps + 1, n))
    times[0] = t0
    times[1:] = slows[:-1] * ds
    np.cumsum(times, axis=0, out=times)
    return PlatoonState(
        arrival_times=np.ascontiguousarray(times.T), slownesses=np.ascontiguousarray(slows.T)
    )


def dynamics_jacobians(t, pi, a, ds):
    """Analytic derivatives of one dynamics step in flat-state coordinates.

    The flat state interleaves vehicles as [t1, pi1, ..., tN, piN] and the
    control vector is [a1, ..., aN]. Returns (f_x, f_u, f_xx, f_uu, f_ux)
    where the tensors hold second derivatives of each next-state component:
    f_xx[m, p, q] = d^2 f_m / dx_p dx_q, and similarly f_uu, f_ux.
    """
    pi = np.asarray(pi, dtype=float)
    a = np.asarray(a, dtype=float)
    n = pi.size
    dim = 2 * n
    f_x = np.zeros((dim, dim))
    f_u = np.zeros((dim, n))
    f_xx = np.zeros((dim, dim, dim))
    f_uu = np.zeros((dim, n, n))
    f_ux = np.zeros((dim, n, dim))
    ti = np.arange(n) * 2
    pj = ti + 1
    f_x[ti, ti] = 1.0
    f_x[ti, pj] = ds
    f_x[pj, pj] = 1.0 - 3.0 * a * pi**2 * ds
    f_u[pj, np.arange(n)] = -(pi**3) * ds
    f_xx[pj, pj, pj] = -6.0 * a * pi * ds
    f_ux[pj, np.arange(n), pj] = -3.0 * pi**2 * ds
    return f_x, f_u, f_xx, f_uu, f_ux


def resimulate_time_domain(
    state: PlatoonState,
    controls: ControlTrajectory,
    profile: SlopeProfile,
    ds: float,
    dt: float = 0.002,
):
    """Re-integrate a space-domain plan with a fixed time step.

    Controls are held piecewise constant in position (the same zero-order
    hold the spatial discretization assumes). Each vehicle is integrated from
    its own entry time until it crosses the end of the planned horizon.
    Returns a list of per-vehicle dicts with ``time``, ``position``,
    ``speed``, ``accel``, and ``grade`` arrays.

    Raises StallError if a vehicle's speed collapses before the route end.
    """
    accels = np.asarray(controls.accels, dtype=float)
    n, k_steps = accels.shape
    route_end = k_steps * ds
    traces = []
    max_steps = int(np.ceil(route_end / (min(1.0, ds) * dt))) * 100 + 10_000
    for i in range(n):
        t = float(state.arrival_times[i, 0])
        s = 0.0
        v = 1.0 / float(state.slownesses[i, 0])
        ts, ss, vs, accs = [t], [s], [v], [float(accels[i, 0])]
        steps = 0
        while s < route_end:
            a = float(accels[i, min(int(s / ds), k_steps - 1)])
            s += v * dt
            v += a * dt
            t += dt
            if v <= 0.0:
                raise StallError(
                    f"vehicle {i} stalled at position {s:.2f} m during resimulation"
                )
            steps += 1
            if steps > max_steps:
                raise StallError(
                    f"vehicle {i} failed to reach {route_end} m within the step budget"
                )
            ts.append(t)
            ss.append(s)
            vs.append(v)
            accs.append(a)
        position = np.array(ss)
        traces.append(
            {
                "time": np.array(ts),
                "position": position,
                "speed": np.array(vs),
                "accel": np.array(accs),
                "grade": grade_at(profile, np.clip(position, 0.0, profile.total_length)),
            }
        )
    return traces

"""Platoon configuration and the space-domain vehicle model.

The independent variable is longitudinal position. Each vehicle carries an
arrival time t (s) and a slowness pi = 1/v (s/m) at every spatial step, so
the per-vehicle state at step k is (t_k, pi_k) and the control is the
longitudinal acceleration a_k. One step of length ds advances

    t'  = t  + pi * ds
    pi' = pi - a * pi**3 * ds

which is the first-order space discretization of dt/ds = pi and
d(pi)/ds = -a * pi**3. A step grid (``step_grid``) lets each step span its
own whole number of ds: step k then has length ds * grid[k] and starts
ds * (grid[0] + ... + grid[k-1]) from the start of the plan. Every formula
here is elementwise in that length, and a grid of ones is the uniform grid
of ds bit for bit. ``rollout_steps`` is the one loop that steps these
dynamics: ``rollout`` runs it open loop and the solver's forward pass under
a feedback law, clamped to the acceleration box when a trial leaves it.

Everything here is a pure function over value types; concurrent evaluation
of independent rollouts is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .errors import (
    ConfigError,
    IntegrationError,
    StallError,
    finite_float,
    finite_vector,
    float_array,
    integer_at_least,
)
from .terrain import SlopeProfile, grade_at

MPH_TO_MPS = 0.44704

# The exponent of the cubic slowness term as a 0-d float64 array: np.power
# runs the same float64 pow loop on it as on the int 3, without converting a
# Python scalar on every step of a rollout. Read-only, as a shared constant.
_THREE = np.array(3.0)
_THREE.setflags(write=False)


@dataclass(frozen=True)
class VehicleParams:
    """Single-vehicle mass and acceleration envelope."""

    mass: float  # kg
    a_min: float = -5.0  # m/s^2, < 0
    a_max: float = 3.0  # m/s^2, > 0

    def __post_init__(self):
        for name in ("mass", "a_min", "a_max"):
            positive = name != "a_min"
            object.__setattr__(self, name, finite_float(getattr(self, name), name, positive))
        if self.a_min >= 0:
            raise ConfigError(f"a_min must be negative, got {self.a_min}")


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
        vehicles = self.vehicles
        if not isinstance(vehicles, (tuple, list)) or len(vehicles) < 2 or not all(
            isinstance(v, VehicleParams) for v in vehicles
        ):
            raise ConfigError(f"vehicles must be two or more VehicleParams, got {vehicles!r}")
        object.__setattr__(self, "vehicles", tuple(vehicles))
        for name in ("headway", "target_speed", "speed_limit", "gravity", "ds", "speed_floor"):
            object.__setattr__(self, name, finite_float(getattr(self, name), name, positive=True))
        for name in ("rolling_coeff", "drag_coeff"):
            value = finite_float(getattr(self, name), name)
            if value < 0:
                raise ConfigError(f"{name} must be non-negative, got {value}")
            object.__setattr__(self, name, value)
        steps = integer_at_least(self.horizon_steps, "horizon_steps", 1)
        object.__setattr__(self, "horizon_steps", steps)
        if self.target_speed > self.speed_limit:
            raise ConfigError(f"target_speed must lie in (0, speed_limit], got {self.target_speed}")
        if not self.speed_floor < self.target_speed:
            raise ConfigError(f"speed_floor must lie in (0, target_speed), got {self.speed_floor}")

    @property
    def n_vehicles(self) -> int:
        return len(self.vehicles)

    # The per-vehicle arrays are built on first access and kept, read-only:
    # a config is frozen, and ``dataclasses.replace`` builds a new one.
    @cached_property
    def masses(self) -> np.ndarray:
        return _frozen_array([v.mass for v in self.vehicles])

    @cached_property
    def accel_bounds(self):
        """Each vehicle's acceleration bounds: (a_min, a_max), two (N,) arrays."""
        return tuple(
            _frozen_array([getattr(v, b) for v in self.vehicles]) for b in ("a_min", "a_max")
        )

    @property
    def route_length(self) -> float:
        return self.ds * self.horizon_steps


def _frozen_array(values) -> np.ndarray:
    """``values`` as an array that refuses writes."""
    array = np.array(values)
    array.flags.writeable = False
    return array


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


@dataclass
class ControlTrajectory:
    """Per-vehicle acceleration sequence, shape (N, K)."""

    accels: np.ndarray  # m/s^2

    def __post_init__(self):
        self.accels = np.asarray(self.accels, dtype=float)
        if not np.all(np.isfinite(self.accels)):
            raise ConfigError("accelerations must be finite")


def step_grid(grid, k_steps):
    """A step grid as a (K,) integer array of multiples of ds; all ones when None.

    Raises ConfigError unless ``grid`` has shape (K,) and holds integers
    >= 1 (floats with integer values pass).
    """
    if grid is None:
        return np.ones(k_steps, dtype=np.int64)
    values = float_array("step grid", grid)
    if values.shape != (k_steps,):
        raise ConfigError(f"step grid must have shape ({k_steps},), got {values.shape}")
    # Negated so that NaN fails too; the cap keeps the integers exact.
    if not np.all((values >= 1) & (values < 2.0**53) & (values == np.floor(values))):
        raise ConfigError(f"step grid must hold integer multiples of ds >= 1, got {values}")
    return values.astype(np.int64)


def step_multiples(grid, k_steps):
    """The multiples of ds in ``grid`` as floats, (K,); all ones when ``grid`` is None.

    Step k is ds * step_multiples(grid, K)[k] long; times 1.0 is exact, so a
    uniform grid gives ds itself.
    """
    return np.ones(k_steps) if grid is None else np.asarray(grid, dtype=float)


def step_starts(grid):
    """Where each step of ``grid`` starts, in whole ds from the first: (K,) integers."""
    ends = np.cumsum(grid)
    return ends - grid


def rollout(t0, pi0, accels, ds, grid=None) -> PlatoonState:
    """Roll per-vehicle dynamics over a whole control sequence (N, K), open loop.

    Step k has length ds * grid[k] (``grid`` None: ds for every step); the
    steps are those of :func:`rollout_steps`.

    Raises ConfigError unless ``accels`` is a numeric (N, K) array, ``t0``
    and ``pi0`` are finite arrays of shape (N,), ``ds`` is finite and > 0
    and ``grid`` is a step grid (``step_grid``). Raises IntegrationError
    when an entry slowness is not positive, or when a step drives a
    slowness out of the positive domain (a blow-up, or a NaN control).
    """
    accels = float_array("accelerations", accels)
    if accels.ndim != 2:
        raise ConfigError(f"accelerations must have shape (N, K), got {accels.shape}")
    n, k_steps = accels.shape
    t0 = finite_vector("initial times", t0, n)
    pi0 = finite_vector("initial slownesses", pi0, n)
    ds = finite_float(ds, "ds", positive=True)
    grid = step_grid(grid, k_steps)
    if np.any(pi0 <= 0):
        raise IntegrationError("slowness must be positive before stepping")
    plan = rollout_steps(t0, pi0, accels, ds, grid)
    if plan is None:
        raise IntegrationError(
            "dynamics step drove slowness out of the positive domain; "
            "reduce ds or the commanded acceleration"
        )
    return PlatoonState(arrival_times=plan[0], slownesses=plan[1])


def rollout_steps(t0, pi0, accels, ds, grid=None, law=None, box=None):
    """The space-domain dynamics stepped K times from (t0, pi0): the one per-step loop.

    Step k has length h = ds * grid[k] (``grid`` None: ds). Without a
    ``law`` the controls are ``accels`` (N, K) as given. A law is a tuple
    (reference, gains, feedforward): a reference PlatoonState x_ref with
    (K, N, 2N) gains and (K, N) feedforward, which sets step k's control to
    u = accels[:, k] + gains[k] (x - x_ref) + feedforward[k], the affine
    law of DDP's forward pass. A ``box`` (a_min, a_max) of (N,) arrays
    clamps each step's control into [a_min, a_max] before the step is
    taken, so the states are those of the clamped controls. Returns
    contiguous (times (N, K+1), slownesses (N, K+1), controls (N, K)), or
    None when a slowness leaves the positive domain; the domain is checked
    once, after the loop, and no input is checked.

    The loop runs in the row-major interleaved state x = [t1, pi1, ..., tN,
    piN], the layout of the gains, and the state moves in one add per step,
    x' = x + w, with every operand an array. w = [pi1, pi1^3, ..., piN,
    piN^3] is scaled in place by the step's row of ``coef`` = [1, u1, ...,
    1, uN], whose odd slots hold the controls, and then by its row of
    ``signed`` = [h, -h, ..., h, -h]. That gives t' = t + (pi 1) h and
    pi' = pi + ((pi^3 u)(-h)), bit for bit the t + pi h and pi - u pi^3 h
    of the textbook step, for three exact IEEE identities: t + pi h is
    pi h + t, (pi^3 u)(-h) is -((pi^3 u) h), and pi + (-c) is pi - c. The
    cube's exponent is ``_THREE``. Each step reads row views that numpy
    makes in C by iterating the buffers and writes through positional
    outputs into preallocated rows, which changes where a result lands,
    not the operations that make it.
    """
    n, k_steps = accels.shape
    x = np.empty((k_steps + 1, 2 * n))
    x[0, 0::2] = t0
    x[0, 1::2] = pi0
    coef = np.ones((k_steps, 2 * n))
    controls = coef[:, 1::2]
    controls[:] = accels.T
    # times 1.0 and -1.0 are exact
    signed = (ds * step_multiples(grid, k_steps))[:, None] * np.tile([1.0, -1.0], n)
    slows = x[:, 1::2]
    feedback = law is not None
    if feedback:
        reference, gains, feedforward = law
        x_ref = np.empty_like(x)
        x_ref[:, 0::2] = reference.arrival_times.T
        x_ref[:, 1::2] = reference.slownesses.T
    else:
        x_ref = gains = feedforward = repeat(None)  # zipped, never read
    clamp = box is not None
    if clamp:
        a_min, a_max = box
    dx = np.empty(2 * n)
    w = np.empty(2 * n)
    w_t, w_p = w[0::2], w[1::2]
    # a blow-up or an overly aggressive trial step can overflow the cubic
    # term; the domain check below rejects it, so silence the warning
    with np.errstate(over="ignore", invalid="ignore"):
        for x_k, x_next, pi_k, u_k, c_k, s_k, xr_k, gain, ff_k in zip(
            x, x[1:], slows, controls, coef, signed, x_ref, gains, feedforward
        ):
            if feedback:
                np.subtract(x_k, xr_k, dx)
                u_k += gain.dot(dx)
                u_k += ff_k
            if clamp:
                np.minimum(u_k, a_max, out=u_k)
                np.maximum(u_k, a_min, out=u_k)
            np.power(pi_k, _THREE, w_p)
            np.copyto(w_t, pi_k)
            w *= c_k
            w *= s_k
            np.add(x_k, w, x_next)
    if not np.all(np.isfinite(slows)) or np.any(slows <= 0.0):
        return None
    return tuple(np.ascontiguousarray(a.T) for a in (x[:, 0::2], slows, controls))


def dynamics_derivatives(pi, accels, ds, grid=None):
    """Per-(step, vehicle) derivatives of the slowness update along a trajectory.

    ``pi`` and ``accels`` are (N, K): the slowness and acceleration at the
    start of each step, whose length is ds * grid[k]. Returns (K, N) arrays
    g = d pi'/d pi, fu = d pi'/d a, cxx = d2 pi'/d pi2 and
    cux = d2 pi'/d a d pi. The rest of the step Jacobian is d t'/d t = 1
    and d t'/d pi = the step length, and every other second derivative is
    zero.
    """
    pi = pi.T  # (K, N)
    a = accels.T
    h = ds * step_multiples(grid, a.shape[0])[:, None]  # step lengths, (K, 1)
    g = 1.0 - 3.0 * a * pi**2 * h
    fu = -(pi**3) * h
    cxx = -6.0 * a * pi * h
    cux = -3.0 * pi**2 * h
    return g, fu, cxx, cux


def resimulate_time_domain(
    state: PlatoonState,
    controls: ControlTrajectory,
    profile: SlopeProfile,
    ds: float,
    dt: float,
):
    """Re-integrate a space-domain plan with a fixed time step.

    Controls are held piecewise constant in position (the same zero-order
    hold the spatial discretization assumes). Each vehicle is integrated from
    its own entry time until it crosses the end of the planned horizon.
    Returns a list of per-vehicle dicts with ``time``, ``position``,
    ``speed``, ``accel``, and ``grade`` arrays.

    Raises ConfigError unless ``ds`` and ``dt`` are finite and > 0, and
    StallError if a vehicle's speed collapses before the route end.

    A vehicle's controls are read through a memoryview of its row, whose
    items are the Python floats ``float(accels[i, j])`` would make, without
    a numpy scalar per time step and without a K-long list of floats.
    """
    ds = finite_float(ds, "ds", positive=True)
    dt = finite_float(dt, "dt", positive=True)
    accels = np.asarray(controls.accels, dtype=float)
    n, k_steps = accels.shape
    route_end = k_steps * ds
    traces = []
    max_steps = int(np.ceil(route_end / (min(1.0, ds) * dt))) * 100 + 10_000
    for i in range(n):
        row = memoryview(accels[i])
        t = float(state.arrival_times[i, 0])
        s = 0.0
        v = 1.0 / float(state.slownesses[i, 0])
        ts, ss, vs, accs = [t], [s], [v], [row[0]]
        steps = 0
        while s < route_end:
            a = row[min(int(s / ds), k_steps - 1)]
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

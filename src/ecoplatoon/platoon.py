"""Platoon configuration and the space-domain vehicle model.

The independent variable is longitudinal position. Each vehicle carries an
arrival time t (s) and a slowness pi = 1/v (s/m) at every spatial step, so
the per-vehicle state at step k is (t_k, pi_k) and the control is the
longitudinal acceleration a_k, held over the step. Under a held
acceleration dt/ds = pi and d(pi)/ds = -a * pi**3 have a closed form,
v'^2 = v^2 + 2 a ds, so one step of length ds is the exact
constant-acceleration arc

    pi' = pi / sqrt(1 + 2 a ds pi**2)
    t'  = t + 2 ds pi / (1 + sqrt(1 + 2 a ds pi**2))

and a plan is exact for its own controls at any ds: m steps of ds under one
held control are one step of m ds, up to rounding. A step leaves the
positive-slowness domain only when braking stops the vehicle within it,
1 + 2 a ds pi**2 <= 0. A step grid (``step_grid``) lets each step span its
own whole number of ds: step k then has length ds * grid[k] and starts
ds * (grid[0] + ... + grid[k-1]) from the start of the plan. Every formula
here is elementwise in that length, and a grid of ones is the uniform grid
of ds bit for bit. ``rollout_steps`` is the one place these dynamics are
rolled out. An open loop (``rollout``, and each solve's starting plan) is
two prefix sums over the steps, v^2 and t, since with the controls known up
front each is a running sum. Only a feedback law, the solver's forward
pass, steps the dynamics one step at a time, clamped to the acceleration
box when a trial leaves it.

Everything here is a pure function over value types; concurrent evaluation
of independent rollouts is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    when an entry slowness is not positive, or when a step leaves the
    positive slowness domain: braking that stops a vehicle within the
    step, or a NaN control.
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
            "dynamics step drove slowness out of the positive domain: "
            "braking stops a vehicle within a step (v^2 + 2 a ds <= 0)"
        )
    return PlatoonState(arrival_times=plan[0], slownesses=plan[1])


def rollout_steps(t0, pi0, accels, ds, grid=None, law=None, box=None):
    """The space-domain dynamics over K steps from (t0, pi0): every rollout of the package.

    Step k has length h = ds * grid[k] (``grid`` None: ds). Without a
    ``law`` the controls are ``accels`` (N, K) as given. A law is a tuple
    (reference, gains, feedforward): a reference PlatoonState x_ref with
    (K, N, 2N) gains and (K, N) feedforward, which sets step k's control to
    u = (accels[:, k] + feedforward[k]) + gains[k] (x - x_ref), the affine
    law of DDP's forward pass. A ``box`` (a_min, a_max) of (N,) arrays
    clamps each step's control into [a_min, a_max] before the step is
    taken, so the states are those of the clamped controls. Returns
    contiguous (times (N, K+1), slownesses (N, K+1), controls (N, K)), or
    None when a slowness leaves the positive domain; the domain is checked
    once, after the rollout, and no input is checked.

    Each step is the exact motion under its held control, a
    constant-acceleration arc: v'^2 = v^2 + 2 a h, so

        pi' = 1 / v' = pi / sqrt(1 + 2 a h pi^2)
        t'  = t + 2 h / (v + v') = t + 2 h pi / (1 + sqrt(1 + 2 a h pi^2))

    in forms without cancellation at a = 0. A step leaves the domain only
    when braking stops the vehicle within it, v^2 + 2 a h <= 0: v' is then
    NaN or 0 and pi' NaN or inf.

    An open loop is two prefix sums (``_open_loop``): with the controls
    known up front, v_k^2 = v_0^2 + sum_j 2 h_j a_j and
    t_k = t_0 + sum_j 2 h_j / (v_j + v_j+1), each a sequential left fold
    of the same elementwise operations the step takes, so its result is
    that of stepping bit for bit. Only a feedback law steps (``_roll``),
    since each control reads the state before it.
    """
    n, k_steps = accels.shape
    twice = 2.0 * ds * step_multiples(grid, k_steps)  # 2 h, (K,)
    # a step that stops a vehicle takes the root of a negative v'^2 or
    # divides by v' = 0; the domain check below rejects it, so silence it
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        if law is None:
            plan = _open_loop(t0, pi0, accels, twice, box)
        else:
            plan = _closed_loop(t0, pi0, accels, twice, law, box)
    slows = plan[1]
    if not np.all(np.isfinite(slows)) or np.any(slows <= 0.0):
        return None
    return plan


def _open_loop(t0, pi0, accels, twice, box):
    """``rollout_steps`` without a law, in a fixed number of whole-array calls.

    Each (N, K+1) row is one vehicle. The box clamps every control at once;
    v^2 is ``np.add.accumulate`` of [v_0^2, 2 h a] along the steps, v' its
    root, pi' = 1 / v', and t is ``np.add.accumulate`` of
    [t_0, 2 h / (v + v')]. ``add.accumulate`` adds left to right, each
    partial sum rounded before the next term is added, as a step does.
    """
    controls = np.array(accels, order="C")
    if box is not None:
        a_min, a_max = box
        np.minimum(controls, a_max[:, None], out=controls)
        np.maximum(controls, a_min[:, None], out=controls)
    n, k_steps = controls.shape
    times = np.empty((n, k_steps + 1))
    slows = np.empty((n, k_steps + 1))
    speeds = np.empty((n, k_steps + 1))
    squares = np.empty((n, k_steps + 1))
    np.reciprocal(pi0, speeds[:, 0])
    np.multiply(speeds[:, 0], speeds[:, 0], squares[:, 0])
    np.multiply(controls, twice, squares[:, 1:])  # 2 h a
    np.add.accumulate(squares, axis=1, out=squares)  # v'^2 = v^2 + 2 h a
    np.sqrt(squares[:, 1:], speeds[:, 1:])
    slows[:, 0] = pi0
    np.reciprocal(speeds[:, 1:], slows[:, 1:])  # pi' = 1 / v'
    times[:, 0] = t0
    np.add(speeds[:, :-1], speeds[:, 1:], times[:, 1:])
    np.divide(twice, times[:, 1:], times[:, 1:])  # 2 h / (v + v')
    np.add.accumulate(times, axis=1, out=times)  # t' = t + 2 h / (v + v')
    return times, slows, controls


def _closed_loop(t0, pi0, accels, twice, law, box):
    """``rollout_steps`` under a feedback law, one step at a time (``_roll``).

    The loop runs in the row-major interleaved state x = [t1, pi1, ..., tN,
    piN], the layout of the gains, and carries v^2 and v beside it, one row
    per step, so a step is seven calls: 2 h a, v'^2, its root v',
    pi' = 1 / v', v + v', 2 h / (v + v') and t'. Each step reads row views
    that numpy makes in C by iterating the buffers and writes through
    positional outputs into preallocated rows, which changes where a result
    lands, not the operations that make it.

    With a ``box`` the law is rolled out unclamped first. The clamp is the
    identity inside the box, so the rollout up to the first step whose
    control leaves the box (or is NaN) is the clamped rollout bit for bit,
    and only the steps from there on are rolled out again, clamped, from
    the v^2, v and state stored at that step.
    """
    n, k_steps = accels.shape
    x = np.empty((k_steps + 1, 2 * n))
    x[0, 0::2] = t0
    x[0, 1::2] = pi0
    times, slows = x[:, 0::2], x[:, 1::2]
    speeds = np.empty((k_steps + 1, n))
    squares = np.empty((k_steps + 1, n))
    np.reciprocal(slows[0], speeds[0])
    np.multiply(speeds[0], speeds[0], squares[0])
    reference, gains, feedforward = law
    base = accels.T + feedforward
    x_ref = np.empty_like(x)
    x_ref[:, 0::2] = reference.arrival_times.T
    x_ref[:, 1::2] = reference.slownesses.T
    controls = np.array(base, order="C")  # the step's control rows, written in place
    twice = np.repeat(twice[:, None], n, axis=1)
    rows = (x, x_ref, gains, controls, twice, times, slows, speeds, squares)
    _roll(0, rows, None)
    if box is not None:
        a_min, a_max = box
        outside = ~((controls >= a_min) & (controls <= a_max)).all(axis=1)
        if outside.any():
            first = int(np.argmax(outside))
            controls[first:] = base[first:]
            _roll(first, rows, box)
    return tuple(np.ascontiguousarray(a.T) for a in (times, slows, controls))


def _roll(start, rows, box):
    """Step ``_closed_loop``'s rows in place from step ``start`` on, clamped to ``box`` if set."""
    x, x_ref, gains, controls, twice, times, slows, speeds, squares = rows
    n = controls.shape[1]
    dx = np.empty(2 * n)
    w = np.empty(n)
    clamp = box is not None
    if clamp:
        a_min, a_max = box
    nxt = start + 1
    for x_k, xr_k, gain, u_k, h2, t_k, t_n, p_n, v_k, v_n, e_k, e_n in zip(
        x[start:], x_ref[start:], gains[start:], controls[start:], twice[start:],
        times[start:], times[nxt:], slows[nxt:], speeds[start:], speeds[nxt:],
        squares[start:], squares[nxt:],
    ):
        np.subtract(x_k, xr_k, dx)
        u_k += gain.dot(dx)
        if clamp:
            np.minimum(u_k, a_max, out=u_k)
            np.maximum(u_k, a_min, out=u_k)
        np.multiply(u_k, h2, w)  # 2 h a
        np.add(e_k, w, e_n)  # v'^2 = v^2 + 2 h a
        np.sqrt(e_n, v_n)
        np.reciprocal(v_n, p_n)  # pi' = 1 / v'
        np.add(v_k, v_n, w)
        np.divide(h2, w, w)  # 2 h / (v + v')
        np.add(t_k, w, t_n)


def dynamics_derivatives(pi, accels, ds, grid=None):
    """Per-(step, vehicle) derivatives of one arc step along a trajectory.

    ``pi`` and ``accels`` are (N, K): the slowness and acceleration at the
    start of each step, whose length is h = ds * grid[k]. With
    s = sqrt(1 + 2 a h pi^2), the step of ``rollout_steps`` is
    pi' = pi / s and t' = t + 2 h pi / (1 + s). Returns (K, N) arrays
    t_pi = d t'/d pi, t_a = d t'/d a, g = d pi'/d pi and fu = d pi'/d a,
    and the (3, 2, K, N) curvature: curv[r, c] is the second derivative of
    t' (c = 0) or pi' (c = 1) by (pi, pi) (r = 0), (a, pi) (r = 1) or
    (a, a) (r = 2). d t'/d t is 1, and no derivative involves t otherwise:

        t_pi = 2 h / (s (1 + s)),     t_a = -2 h^2 pi^3 / (s (1 + s)^2),
        g    = 1 / s^3,               fu  = -h pi^3 / s^3,
        t'_pipi = -4 a h^2 pi c,      pi'_pipi = -6 a h pi / s^5,
        t'_api  = -2 h^2 pi^2 c,      pi'_api  = -3 h pi^2 / s^5,
        t'_aa   = 2 h^3 pi^5 (1 + 3 s) / (s^3 (1 + s)^3),
        pi'_aa  = 3 h^2 pi^5 / s^5,

    with c = (1 + 2 s) / (s^3 (1 + s)^2). At a = 0 (s = 1) the first row
    is h and -h^2 pi^3 / 2. The rows share factors, which the arithmetic
    uses: the (pi, pi) row is the (a, pi) row times 2 a / pi, pi'_aa is
    pi'_api times -h pi^3, and t'_aa is t'_api times
    -h pi^3 (1 + 3 s) / ((1 + 2 s) (1 + s)).
    """
    pi = pi.T  # (K, N)
    a = accels.T
    h = ds * step_multiples(grid, a.shape[0])[:, None]  # step lengths, (K, 1)
    hp2 = h * pi * pi  # h pi^2
    s = np.sqrt(2.0 * a * hp2 + 1.0)
    r = 1.0 / s
    ring = 1.0 / (1.0 + s)
    g = r * r * r
    down = -hp2 * pi  # -h pi^3
    fu = down * g
    t_pi = 2.0 * h * r * ring
    t_a = down * t_pi * ring
    curv = np.empty((3, 2) + a.shape)
    twice_s1 = 2.0 * s + 1.0
    np.multiply(-2.0 * h * hp2 * twice_s1 * g * ring, ring, out=curv[1, 0])
    np.multiply(-3.0 * hp2 * g * r, r, out=curv[1, 1])
    np.multiply(curv[1, 0] * down * (3.0 * s + 1.0) * ring, 1.0 / twice_s1, out=curv[2, 0])
    np.multiply(curv[1, 1], down, out=curv[2, 1])
    np.multiply(curv[1], 2.0 * a / pi, out=curv[0])
    return t_pi, t_a, g, fu, curv


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

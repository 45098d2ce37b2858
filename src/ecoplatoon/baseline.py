"""Constant-time-gap CACC baseline simulated in the time domain.

The comparison controller holds the platoon at the target speed and a
constant time gap regardless of grade: the front vehicle tracks the target
speed with a proportional law, each follower closes its spacing error with a
PD law on gap and relative speed, and the commanded acceleration is assumed
to be realized exactly by a low-level torque loop that compensates slope and
resistance; the traction that loop demands is
:func:`ecoplatoon.fuel.equivalent_traction_accel`, the signal the fuel meter
reads. It has no fuel term, which is exactly what makes it the reference
for the eco planner.

Vehicle 0 is the physical front vehicle here; followers are indexed in
driving order behind it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StallError, finite_float
from .platoon import PlatoonConfig
from .terrain import SlopeProfile, grade_at


@dataclass(frozen=True)
class CaccGains:
    """Feedback gains of the constant-time-gap law."""

    kp_gap: float = 0.45  # 1/s^2, spacing-error gain
    kd_gap: float = 1.2  # 1/s, relative-speed gain
    kp_speed: float = 0.8  # 1/s, leader speed-tracking gain

    def __post_init__(self):
        for name in ("kp_gap", "kd_gap", "kp_speed"):
            object.__setattr__(self, name, finite_float(getattr(self, name), name, positive=True))


def baseline_step(positions, speeds, config: PlatoonConfig, gains: CaccGains, dt: float):
    """Acceleration commands for one control period.

    Leader: a = kp_speed (v_d - v). Follower i: a = kp_gap (gap - h v)
    + kd_gap (v_prev - v). Commands are clamped to each vehicle's
    acceleration envelope and to rates that keep speed inside
    [speed_floor, speed_limit] over the period.
    """
    positions = np.asarray(positions, dtype=float)
    speeds = np.asarray(speeds, dtype=float)
    n = config.n_vehicles
    cmd = np.empty(n)
    cmd[0] = gains.kp_speed * (config.target_speed - speeds[0])
    gap = positions[:-1] - positions[1:]
    cmd[1:] = gains.kp_gap * (gap - config.headway * speeds[1:]) + gains.kd_gap * (
        speeds[:-1] - speeds[1:]
    )
    cmd = np.clip(
        cmd,
        (config.speed_floor - speeds) / dt,
        (config.speed_limit - speeds) / dt,
    )
    # the acceleration envelope is the actuator's hard limit, so it clamps last
    return np.clip(cmd, *config.accel_bounds)


def simulate_baseline(
    config: PlatoonConfig,
    gains: CaccGains,
    profile: SlopeProfile,
    dt: float = 0.05,
    initial_speed: float | None = None,
):
    """Time-step the baseline platoon until the last vehicle clears the route.

    Vehicles start at steady spacing h*v0 behind the front vehicle, which
    begins at position 0. Returns a list of per-vehicle dicts with ``time``,
    ``position``, ``speed``, ``accel``, and ``grade`` arrays (grades are
    clamped to the profile domain for the run-in stretch before position 0).

    Each control period applies ``baseline_step``.

    Raises ConfigError unless ``dt`` and a given ``initial_speed`` are
    finite and > 0.
    """
    dt = finite_float(dt, "dt", positive=True)
    if initial_speed is None:
        v0 = config.target_speed
    else:
        v0 = finite_float(initial_speed, "initial_speed", positive=True)
    route_length = config.route_length
    n = config.n_vehicles
    pos = -np.arange(n) * config.headway * v0
    vel = np.full(n, v0)
    t = 0.0
    hist_t, hist_s, hist_v, hist_a = [], [], [], []
    max_time = 50.0 * route_length / max(config.speed_floor, 0.5) + 1000.0
    while pos[-1] < route_length:
        acc = baseline_step(pos, vel, config, gains, dt)
        hist_t.append(t)
        hist_s.append(pos.copy())
        hist_v.append(vel.copy())
        hist_a.append(acc.copy())
        pos = pos + vel * dt
        vel = np.maximum(vel + acc * dt, 1e-9)
        t += dt
        if t > max_time:
            raise StallError("baseline platoon failed to clear the route")
    hist_t.append(t)
    hist_s.append(pos.copy())
    hist_v.append(vel.copy())
    hist_a.append(baseline_step(pos, vel, config, gains, dt))
    times = np.array(hist_t)
    s_arr = np.array(hist_s).T  # (N, steps)
    v_arr = np.array(hist_v).T
    a_arr = np.array(hist_a).T
    traces = []
    for i in range(n):
        s_clip = np.clip(s_arr[i], 0.0, profile.total_length)
        traces.append(
            {
                "time": times,
                "position": s_arr[i],
                "speed": v_arr[i],
                "accel": a_arr[i],
                "grade": grade_at(profile, s_clip),
            }
        )
    return traces

"""Fuel metering via a log-polynomial speed/acceleration regression.

The meter is intentionally separate from the planner's ecology cost: the
planner optimizes a traction-power proxy (hinged at a power floor of 0 in
both shipped presets, signed when no floor is set), while this module
measures what a conventional powertrain would actually burn. Rates are
driven by the equivalent traction acceleration (traction force over mass),
never credited for braking, and floored at the idle rate.

Coefficients live in a JSON data file (see ``data/vt_micro_ldv.json``) with
speed in km/h and acceleration in km/h/s; inputs here are SI and converted
internally. The model object is immutable after load and safe to share.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigError, StallError, finite_float, float_array, read_json
from .platoon import PlatoonConfig, VehicleParams
from .terrain import SlopeProfile, grade_at

MPS_TO_KMH = 3.6

_DEFAULT_RESOURCE = "vt_micro_ldv.json"


@dataclass(frozen=True)
class FuelModel:
    """4x4 log-rate coefficient matrices for accelerating / decelerating operation."""

    positive_accel: np.ndarray
    negative_accel: np.ndarray

    def __post_init__(self):
        for name in ("positive_accel", "negative_accel"):
            matrix = float_array(name, getattr(self, name))
            if matrix.shape != (4, 4):
                raise ConfigError(f"{name} must be a 4x4 matrix, got shape {matrix.shape}")
            if not np.all(np.isfinite(matrix)):
                raise ConfigError(f"{name} coefficients must be finite")
            matrix.setflags(write=False)
            object.__setattr__(self, name, matrix)

    @property
    def idle_rate(self) -> float:
        """Rate at standstill with zero acceleration, L/s."""
        return float(math.exp(self.positive_accel[0, 0]))

    @classmethod
    def from_dict(cls, raw: dict, origin: str = "<dict>") -> "FuelModel":
        """The model in a parsed fuel-model file; ``origin`` names the file in errors.

        Each matrix must be a list of 4 lists of 4 finite numbers. The
        file's other entries (``description``, ``provenance``, ``units``,
        ``envelope``) document it and are not read.
        """
        if not isinstance(raw, dict):
            raise ConfigError(f"{origin}: expected a JSON object")
        matrices = {}
        for key in ("positive_accel", "negative_accel"):
            if key not in raw:
                raise ConfigError(f"{origin}: missing field {key!r}")
            rows = raw[key]
            if not (
                isinstance(rows, list)
                and len(rows) == 4
                and all(isinstance(row, list) and len(row) == 4 for row in rows)
            ):
                raise ConfigError(f"{origin}: field {key!r} must be a 4x4 list of numbers")
            matrices[key] = np.array(
                [
                    [finite_float(c, f"{origin}: {key}[{i}][{j}]") for j, c in enumerate(row)]
                    for i, row in enumerate(rows)
                ]
            )
        return cls(**matrices)

    @classmethod
    def load(cls, path) -> "FuelModel":
        return cls.from_dict(read_json(path, "fuel model"), origin=str(path))

    @classmethod
    def default(cls) -> "FuelModel":
        raw = json.loads(
            resources.files("ecoplatoon").joinpath("data", _DEFAULT_RESOURCE).read_text()
        )
        return cls.from_dict(raw, origin=_DEFAULT_RESOURCE)


def equivalent_traction_accel(a, v, theta, mass, config: PlatoonConfig):
    """Traction force over mass: a + g sin(theta) + mu g cos(theta) + xi v^2 / m.

    ``mass`` is a scalar or an array that broadcasts against the others, such
    as a per-vehicle column (N, 1) against (N, K) accelerations.
    """
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)
    theta = np.asarray(theta, dtype=float)
    g = config.gravity
    out = (
        a
        + g * np.sin(theta)
        + config.rolling_coeff * g * np.cos(theta)
        + config.drag_coeff * v**2 / mass
    )
    return float(out) if out.ndim == 0 else out


def equivalent_accel_grid(states, controls, profile: SlopeProfile, config: PlatoonConfig):
    """Equivalent traction acceleration per vehicle on the control grid, (N, K)."""
    accels = controls.accels
    k_steps = accels.shape[1]
    grid = np.minimum(config.ds * np.arange(k_steps), profile.total_length)
    speeds = 1.0 / states.slownesses[:, :k_steps]
    return equivalent_traction_accel(
        accels, speeds, grade_at(profile, grid), config.masses[:, None], config
    )


def fuel_rate(model: FuelModel, v, a_eq):
    """Instantaneous fuel rate (L/s) at speed ``v`` (m/s) and equivalent accel ``a_eq`` (m/s^2).

    Decelerating operation uses the negative-branch coefficients; the result
    never falls below the idle rate (no regenerative credit).
    """
    v = np.asarray(v, dtype=float)
    a_eq = np.asarray(a_eq, dtype=float)
    v_k = np.maximum(v, 0.0) * MPS_TO_KMH
    a_k = a_eq * MPS_TO_KMH
    v_pow = np.stack([np.ones_like(v_k), v_k, v_k**2, v_k**3])
    a_pow = np.stack([np.ones_like(a_k), a_k, a_k**2, a_k**3])
    log_pos = np.einsum("ij,i...,j...->...", model.positive_accel, v_pow, a_pow)
    log_neg = np.einsum("ij,i...,j...->...", model.negative_accel, v_pow, a_pow)
    rate = np.exp(np.where(a_k >= 0.0, log_pos, log_neg))
    rate = np.maximum(rate, model.idle_rate)
    return float(rate) if rate.ndim == 0 else rate


def trajectory_fuel(
    model: FuelModel,
    trace: dict,
    params: VehicleParams,
    config: PlatoonConfig,
    route_length: float,
):
    """Fuel burned by one vehicle while its position lies in [0, route_length].

    ``trace`` is a time-indexed dict with ``time``, ``position``, ``speed``,
    ``accel``, ``grade`` arrays (as produced by the time-domain resimulator
    and the baseline simulator). Returns (total_liters, positions, cumulative)
    where the cumulative series is aligned with the in-route samples.
    """
    t = np.asarray(trace["time"], dtype=float)
    s = np.asarray(trace["position"], dtype=float)
    v = np.asarray(trace["speed"], dtype=float)
    a = np.asarray(trace["accel"], dtype=float)
    theta = np.asarray(trace["grade"], dtype=float)
    if t.size < 2:
        return 0.0, np.array([]), np.array([])
    if s[-1] < route_length - 1e-6:
        raise StallError("trace ends before the route does; cannot meter fuel")
    a_eq = equivalent_traction_accel(a, v, theta, params.mass, config)
    rate = fuel_rate(model, v, a_eq)
    dt = np.diff(t)
    seg_fuel = rate[:-1] * dt
    inside = (s[:-1] >= 0.0) & (s[:-1] < route_length)
    cum = np.cumsum(np.where(inside, seg_fuel, 0.0))
    positions = s[1:][inside]
    cumulative = cum[inside]
    total = float(cum[-1])
    return total, positions, cumulative


def platoon_fuel(model: FuelModel, traces: list, config: PlatoonConfig):
    """Total and per-vehicle fuel over ``config.route_length`` for per-vehicle traces."""
    per_vehicle = []
    series = []
    for trace, params in zip(traces, config.vehicles):
        total, positions, cumulative = trajectory_fuel(
            model, trace, params, config, config.route_length
        )
        per_vehicle.append(total)
        series.append((positions, cumulative))
    return float(sum(per_vehicle)), per_vehicle, series


def cumulative_at(series: list, positions):
    """Each vehicle's cumulative fuel at ``positions``, shape (N, len(positions)).

    ``series`` holds (positions, cumulative) pairs per vehicle, as
    :func:`platoon_fuel` returns them. Fuel reads zero before a vehicle's
    first sample and everywhere for an empty series.
    """
    return np.array(
        [
            np.interp(positions, s, c, left=0.0) if s.size else np.zeros_like(positions)
            for s, c in series
        ]
    )


def segment_fuel_deltas(
    series_a: list,
    series_b: list,
    profile: SlopeProfile,
):
    """Per-terrain-segment fuel difference (a - b), summed over the platoon.

    Both series lists hold (positions, cumulative) pairs per vehicle. Returns
    a list of (segment_start, segment_end, grade, delta_liters).
    """
    bp = profile.breakpoints
    fuel_a, fuel_b = (
        np.diff(cumulative_at(series, bp), axis=1).sum(axis=0) for series in (series_a, series_b)
    )
    return [
        (float(bp[j]), float(bp[j + 1]), float(theta), float(fuel_a[j] - fuel_b[j]))
        for j, theta in enumerate(profile.grades)
    ]

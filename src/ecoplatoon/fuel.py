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

from .errors import ConfigError, StallError
from .platoon import PlatoonConfig, VehicleParams
from .terrain import SlopeProfile, grade_at

MPS_TO_KMH = 3.6

_DEFAULT_RESOURCE = "vt_micro_ldv.json"


@dataclass(frozen=True)
class FuelModel:
    """4x4 log-rate coefficient matrices for accelerating / decelerating operation."""

    positive_accel: np.ndarray
    negative_accel: np.ndarray
    units: dict

    def __post_init__(self):
        pos = np.asarray(self.positive_accel, dtype=float)
        neg = np.asarray(self.negative_accel, dtype=float)
        if pos.shape != (4, 4) or neg.shape != (4, 4):
            raise ConfigError("fuel coefficient matrices must be 4x4")
        pos.setflags(write=False)
        neg.setflags(write=False)
        object.__setattr__(self, "positive_accel", pos)
        object.__setattr__(self, "negative_accel", neg)

    @property
    def idle_rate(self) -> float:
        """Rate at standstill with zero acceleration, L/s."""
        return float(math.exp(self.positive_accel[0, 0]))

    @classmethod
    def from_dict(cls, raw: dict, origin: str = "<dict>") -> "FuelModel":
        for key in ("positive_accel", "negative_accel"):
            if key not in raw:
                raise ConfigError(f"{origin}: missing field {key!r}")
        return cls(
            positive_accel=np.asarray(raw["positive_accel"], dtype=float),
            negative_accel=np.asarray(raw["negative_accel"], dtype=float),
            units=raw.get("units", {}),
        )

    @classmethod
    def load(cls, path) -> "FuelModel":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"{path}: fuel model file not found")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})")
        return cls.from_dict(raw, origin=str(path))

    @classmethod
    def default(cls) -> "FuelModel":
        raw = json.loads(
            resources.files("ecoplatoon").joinpath("data", _DEFAULT_RESOURCE).read_text()
        )
        return cls.from_dict(raw, origin=_DEFAULT_RESOURCE)


def equivalent_traction_accel(a, v, theta, params: VehicleParams, config: PlatoonConfig):
    """Traction force over mass: a + g sin(theta) + mu g cos(theta) + xi v^2 / m."""
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)
    theta = np.asarray(theta, dtype=float)
    g = config.gravity
    out = (
        a
        + g * np.sin(theta)
        + config.rolling_coeff * g * np.cos(theta)
        + config.drag_coeff * v**2 / params.mass
    )
    return float(out) if out.ndim == 0 else out


def equivalent_accel_grid(states, controls, profile: SlopeProfile, config: PlatoonConfig):
    """Equivalent traction acceleration per vehicle on the control grid, (N, K)."""
    accels = controls.accels
    k_steps = accels.shape[1]
    grid = np.minimum(config.ds * np.arange(k_steps), profile.total_length)
    thetas = grade_at(profile, grid)
    speeds = 1.0 / states.slownesses[:, :k_steps]
    out = np.empty_like(accels)
    for i, params in enumerate(config.vehicles):
        out[i] = equivalent_traction_accel(accels[i], speeds[i], thetas, params, config)
    return out


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
    a_eq = equivalent_traction_accel(a, v, theta, params, config)
    rate = fuel_rate(model, v, a_eq)
    dt = np.diff(t)
    seg_fuel = rate[:-1] * dt
    inside = (s[:-1] >= 0.0) & (s[:-1] < route_length)
    cum = np.cumsum(np.where(inside, seg_fuel, 0.0))
    positions = s[1:][inside]
    cumulative = cum[inside]
    total = float(cum[-1])
    return total, positions, cumulative


def platoon_fuel(
    model: FuelModel,
    traces: list,
    config: PlatoonConfig,
    route_length: float | None = None,
):
    """Total and per-vehicle route fuel for a list of per-vehicle traces."""
    route_length = config.route_length if route_length is None else float(route_length)
    per_vehicle = []
    series = []
    for trace, params in zip(traces, config.vehicles):
        total, positions, cumulative = trajectory_fuel(model, trace, params, config, route_length)
        per_vehicle.append(total)
        series.append((positions, cumulative))
    return float(sum(per_vehicle)), per_vehicle, series


def segment_fuel_deltas(
    series_a: list,
    series_b: list,
    profile: SlopeProfile,
):
    """Per-terrain-segment fuel difference (a - b), summed over the platoon.

    Both series lists hold (positions, cumulative) pairs per vehicle. Returns
    a list of (segment_start, segment_end, grade, delta_liters).
    """

    def seg_total(series, lo, hi):
        total = 0.0
        for positions, cumulative in series:
            if positions.size == 0:
                continue
            lo_val = float(np.interp(lo, positions, cumulative, left=0.0))
            hi_val = float(np.interp(hi, positions, cumulative, left=0.0))
            total += hi_val - lo_val
        return total

    out = []
    bp = profile.breakpoints
    for j, theta in enumerate(profile.grades):
        lo, hi = float(bp[j]), float(bp[j + 1])
        delta = seg_total(series_a, lo, hi) - seg_total(series_b, lo, hi)
        out.append((lo, hi, float(theta), delta))
    return out

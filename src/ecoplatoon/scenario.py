"""Scenario files: JSON experiment descriptions plus shipped presets.

A scenario bundles everything one run needs: the road (a named preset or a
profile file), platoon parameters, cost weights, solver options, baseline
gains, the fuel-model file, an optional perturbation, and the horizon mode
(one-shot over the whole route, or receding with a window and replan
interval).

Unit policy: all quantities are SI except speeds, which must carry an
explicit unit tag {"value": ..., "units": "mph" | "m/s"} and are converted
to m/s at load time. Percent grades in profile files are converted to
angles. The preset search path honors the ECOPLATOON_PRESET_DIR environment
variable before falling back to the packaged presets.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .baseline import CaccGains
from .costs import CostWeights, schedule_targets
from .errors import ConfigError
from .fuel import FuelModel
from .platoon import MPH_TO_MPS, PlatoonConfig, VehicleParams
from .solver import SolverOptions
from .stability import PerturbationSpec
from .terrain import PRESET_NAMES, SlopeProfile, build_preset, load_profile

_SPEED_UNITS = {"m/s": 1.0, "mph": MPH_TO_MPS}


@dataclass
class Scenario:
    """One fully-resolved experiment description."""

    name: str
    profile: SlopeProfile
    config: PlatoonConfig
    weights: CostWeights
    solver_options: SolverOptions
    gains: CaccGains
    fuel_model: FuelModel
    perturbation: PerturbationSpec | None
    horizon_mode: str  # "one_shot" | "receding"
    window_m: float
    replan_m: float
    initial_speed: float  # m/s
    initial_time_errors: np.ndarray  # s, per vehicle
    baseline_dt: float

    def initial_state(self):
        """Entry times (with configured errors), slownesses, and ideal arrival targets."""
        n = self.config.n_vehicles
        ideal = -np.arange(n) * self.config.headway
        t0 = ideal + self.initial_time_errors
        pi0 = np.full(n, 1.0 / self.initial_speed)
        return t0, pi0, schedule_targets(self.config, ideal)


def _speed(node, where: str) -> float:
    if isinstance(node, dict):
        try:
            value = float(node["value"])
            unit = node["units"]
        except (KeyError, TypeError, ValueError):
            raise ConfigError(f"{where}: expected {{'value': <num>, 'units': 'mph'|'m/s'}}")
        if unit not in _SPEED_UNITS:
            raise ConfigError(f"{where}: unknown speed unit {unit!r}")
        speed = value * _SPEED_UNITS[unit]
        if not 0 < speed < math.inf:
            raise ConfigError(f"{where}: speed must be positive and finite, got {speed} m/s")
        return speed
    raise ConfigError(f"{where}: speeds must carry an explicit unit tag")


def _section(raw: dict, name: str, path) -> dict:
    """The optional JSON object ``raw[name]`` (empty when absent)."""
    sec = raw.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"{path}: {name} must be a JSON object")
    return sec


def _number(sec: dict, key: str, default, where: str, positive: bool = False) -> float:
    """``sec[key]`` (or ``default``) as a finite float, optionally > 0."""
    try:
        value = float(sec.get(key, default))
    except (TypeError, ValueError):
        raise ConfigError(f"{where}.{key} must be a number, got {sec.get(key)!r}")
    if not math.isfinite(value) or (positive and value <= 0):
        kind = "positive and finite" if positive else "finite"
        raise ConfigError(f"{where}.{key} must be {kind}, got {value}")
    return value


def preset_dir_candidates():
    env = os.environ.get("ECOPLATOON_PRESET_DIR")
    dirs = []
    if env:
        dirs.append(Path(env))
    dirs.append(Path(str(resources.files("ecoplatoon").joinpath("presets"))))
    return dirs


def resolve_scenario_path(spec: str) -> Path:
    """Resolve a --scenario argument: an existing file, or a preset name."""
    p = Path(spec)
    if p.is_file():
        return p
    stem = spec[:-5] if spec.endswith(".json") else spec
    for d in preset_dir_candidates():
        candidate = d / f"{stem}.json"
        if candidate.is_file():
            return candidate
    raise ConfigError(
        f"scenario not found: {spec!r} (searched as a file and in "
        + ", ".join(str(d) for d in preset_dir_candidates())
        + ")"
    )


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario JSON file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"{path}: scenario file not found")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    base_dir = path.parent

    road = raw.get("road")
    if isinstance(road, dict) and "preset" in road:
        if road["preset"] not in PRESET_NAMES:
            raise ConfigError(f"{path}: road.preset must be one of {PRESET_NAMES}")
        profile = build_preset(road["preset"])
    elif isinstance(road, dict) and "profile_file" in road:
        profile = load_profile(base_dir / road["profile_file"])
    else:
        raise ConfigError(f"{path}: road must give either 'preset' or 'profile_file'")

    plat = raw.get("platoon")
    if not isinstance(plat, dict):
        raise ConfigError(f"{path}: missing 'platoon' section")
    try:
        n = int(plat["n_vehicles"])
        mass = plat.get("mass_kg", 1400.0)
        masses = list(mass) if isinstance(mass, list) else [float(mass)] * n
        if len(masses) != n:
            raise ConfigError(f"{path}: platoon.mass_kg must have {n} entries")
        vehicles = tuple(
            VehicleParams(
                mass=float(masses[i]),
                a_min=float(plat.get("a_min", -5.0)),
                a_max=float(plat.get("a_max", 3.0)),
            )
            for i in range(n)
        )
        ds = float(plat.get("ds_m", 0.1))
        route_length = float(plat.get("route_length_m", 800.0))
        config = PlatoonConfig(
            vehicles=vehicles,
            headway=float(plat.get("headway_s", 1.0)),
            target_speed=_speed(plat["target_speed"], f"{path}: platoon.target_speed"),
            speed_limit=_speed(plat["speed_limit"], f"{path}: platoon.speed_limit"),
            gravity=float(plat.get("gravity", 9.8)),
            rolling_coeff=float(plat.get("rolling_coeff", 0.015)),
            drag_coeff=float(plat.get("drag_coeff", 0.000024)),
            ds=ds,
            horizon_steps=_horizon_steps(route_length, ds),
            speed_floor=float(plat.get("speed_floor", 0.1)),
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: platoon section missing {exc.args[0]!r}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: platoon section malformed ({exc})")
    if route_length > profile.total_length + 1e-9:
        raise ConfigError(
            f"{path}: route length {route_length} m exceeds profile length "
            f"{profile.total_length} m"
        )

    wsec = _section(raw, "weights", path)
    where = f"{path}: weights"
    weights = CostWeights(
        q1=_number(wsec, "q1", 500.0, where),
        q2=_number(wsec, "q2", 0.01, where),
        q3=_number(wsec, "q3", 5000.0, where),
        r1=_number(wsec, "r1", 50.0, where),
        qv=_number(wsec, "qv", 0.0, where),
        power_floor=(
            None if wsec.get("power_floor") is None else _number(wsec, "power_floor", None, where)
        ),
        power_smoothing=_number(wsec, "power_smoothing", 500.0, where),
    )

    ssec = _section(raw, "solver", path)
    known = {f for f in SolverOptions.__dataclass_fields__}
    if "ilqr" in ssec and "use_second_order" in ssec:
        raise ConfigError(f"{path}: solver gives both 'ilqr' and 'use_second_order'")
    opts_kwargs = {}
    for key, val in ssec.items():
        if key == "ilqr":
            if not isinstance(val, bool):
                raise ConfigError(f"{path}: solver.ilqr must be true or false, got {val!r}")
            opts_kwargs["use_second_order"] = not val
        elif key in known:
            opts_kwargs[key] = val
        else:
            raise ConfigError(f"{path}: unknown solver option {key!r}")
    solver_options = SolverOptions(**opts_kwargs)

    bsec = _section(raw, "baseline", path)
    where = f"{path}: baseline"
    gains = CaccGains(
        kp_gap=_number(bsec, "kp_gap", 0.45, where),
        kd_gap=_number(bsec, "kd_gap", 1.2, where),
        kp_speed=_number(bsec, "kp_speed", 0.8, where),
    )
    baseline_dt = _number(bsec, "dt_s", 0.05, where, positive=True)

    fm = raw.get("fuel_model", "default")
    fuel_model = FuelModel.default() if fm == "default" else FuelModel.load(base_dir / fm)

    perturbation = None
    if raw.get("perturbation") is not None:
        psec = _section(raw, "perturbation", path)
        where = f"{path}: perturbation"
        if "magnitude_mps" not in psec:
            raise ConfigError(f"{where} section missing 'magnitude_mps'")
        perturbation = PerturbationSpec(
            magnitude=_number(psec, "magnitude_mps", None, where),
            shape=psec.get("shape", "step"),
            onset_position=_number(psec, "onset_m", 0.0, where),
            duration=_number(psec, "duration_m", 0.0, where),
        )

    hsec = _section(raw, "horizon", path)
    mode = hsec.get("mode", "one_shot")
    if mode not in ("one_shot", "receding"):
        raise ConfigError(f"{path}: horizon.mode must be 'one_shot' or 'receding'")
    where = f"{path}: horizon"
    window_m = _number(hsec, "window_m", 40.0, where, positive=True)
    replan_m = _number(hsec, "replan_m", 10.0, where, positive=True)

    try:
        errs = np.asarray(raw.get("initial_time_errors_s", [0.0] * n), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: initial_time_errors_s malformed ({exc})")
    if errs.shape != (n,):
        raise ConfigError(f"{path}: initial_time_errors_s must have {n} entries")
    if not np.all(np.isfinite(errs)):
        raise ConfigError(f"{path}: initial_time_errors_s must be finite, got {errs.tolist()}")

    init_speed = (
        _speed(plat["initial_speed"], f"{path}: platoon.initial_speed")
        if "initial_speed" in plat
        else config.target_speed
    )

    return Scenario(
        name=str(raw.get("name", path.stem)),
        profile=profile,
        config=config,
        weights=weights,
        solver_options=solver_options,
        gains=gains,
        fuel_model=fuel_model,
        perturbation=perturbation,
        horizon_mode=mode,
        window_m=window_m,
        replan_m=replan_m,
        initial_speed=init_speed,
        initial_time_errors=errs,
        baseline_dt=baseline_dt,
    )


def _horizon_steps(route_length: float, ds: float) -> int:
    """The nearest whole number of ``ds`` steps in ``route_length``, both finite and > 0."""
    for name, value in (("ds", ds), ("route length", route_length)):
        if not 0 < value < math.inf:
            raise ConfigError(f"{name} must be positive and finite, got {value}")
    return int(round(route_length / ds))


def override_ds(scenario: Scenario, ds: float) -> Scenario:
    """Rebuild a scenario on a different spatial step, keeping the route length."""
    cfg = scenario.config
    new_cfg = replace(cfg, ds=ds, horizon_steps=_horizon_steps(cfg.route_length, ds))
    return replace(scenario, config=new_cfg)

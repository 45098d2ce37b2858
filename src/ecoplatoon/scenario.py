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
import os
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .baseline import CaccGains
from .costs import CostWeights
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
    tire_radius: float
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
        targets = ideal + self.config.route_length / self.config.target_speed
        return t0, pi0, targets


def _speed(node, where: str) -> float:
    if isinstance(node, dict):
        try:
            value = float(node["value"])
            unit = node["units"]
        except (KeyError, TypeError, ValueError):
            raise ConfigError(f"{where}: expected {{'value': <num>, 'units': 'mph'|'m/s'}}")
        if unit not in _SPEED_UNITS:
            raise ConfigError(f"{where}: unknown speed unit {unit!r}")
        return value * _SPEED_UNITS[unit]
    raise ConfigError(f"{where}: speeds must carry an explicit unit tag")


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
            horizon_steps=int(round(route_length / ds)),
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

    wsec = raw.get("weights", {})
    floor = wsec.get("power_floor")
    weights = CostWeights(
        q1=float(wsec.get("q1", 500.0)),
        q2=float(wsec.get("q2", 0.01)),
        q3=float(wsec.get("q3", 5000.0)),
        r1=float(wsec.get("r1", 50.0)),
        qv=float(wsec.get("qv", 0.0)),
        power_floor=None if floor is None else float(floor),
        power_smoothing=float(wsec.get("power_smoothing", 500.0)),
    )

    ssec = raw.get("solver", {})
    known = {f for f in SolverOptions.__dataclass_fields__}
    opts_kwargs = {}
    for key, val in ssec.items():
        if key == "ilqr":
            opts_kwargs["use_second_order"] = not bool(val)
        elif key in known:
            opts_kwargs[key] = val
        else:
            raise ConfigError(f"{path}: unknown solver option {key!r}")
    solver_options = SolverOptions(**opts_kwargs)

    bsec = raw.get("baseline", {})
    gains = CaccGains(
        kp_gap=float(bsec.get("kp_gap", 0.45)),
        kd_gap=float(bsec.get("kd_gap", 1.2)),
        kp_speed=float(bsec.get("kp_speed", 0.8)),
    )
    tire_radius = float(bsec.get("tire_radius_m", 0.3))
    baseline_dt = float(bsec.get("dt_s", 0.05))

    fm = raw.get("fuel_model", "default")
    fuel_model = FuelModel.default() if fm == "default" else FuelModel.load(base_dir / fm)

    psec = raw.get("perturbation")
    perturbation = None
    if psec is not None:
        try:
            perturbation = PerturbationSpec(
                magnitude=float(psec["magnitude_mps"]),
                shape=psec.get("shape", "step"),
                onset_position=float(psec.get("onset_m", 0.0)),
                duration=float(psec.get("duration_m", 0.0)),
            )
        except KeyError as exc:
            raise ConfigError(f"{path}: perturbation section missing {exc.args[0]!r}")

    hsec = raw.get("horizon", {"mode": "one_shot"})
    mode = hsec.get("mode", "one_shot")
    if mode not in ("one_shot", "receding"):
        raise ConfigError(f"{path}: horizon.mode must be 'one_shot' or 'receding'")

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
        tire_radius=tire_radius,
        fuel_model=fuel_model,
        perturbation=perturbation,
        horizon_mode=mode,
        window_m=float(hsec.get("window_m", 40.0)),
        replan_m=float(hsec.get("replan_m", 10.0)),
        initial_speed=init_speed,
        initial_time_errors=errs,
        baseline_dt=baseline_dt,
    )


def override_ds(scenario: Scenario, ds: float) -> Scenario:
    """Rebuild a scenario on a different spatial step, keeping the route length."""
    cfg = scenario.config
    route = cfg.route_length
    new_cfg = replace(cfg, ds=ds, horizon_steps=int(round(route / ds)))
    return replace(scenario, config=new_cfg)

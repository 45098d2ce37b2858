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

import os
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .baseline import CaccGains
from .costs import CostWeights, schedule_targets
from .errors import ConfigError, finite_float, integer_at_least, read_json
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
        if "value" not in node or "units" not in node:
            raise ConfigError(f"{where}: expected {{'value': <num>, 'units': 'mph'|'m/s'}}")
        unit = node["units"]
        if not isinstance(unit, str) or unit not in _SPEED_UNITS:
            raise ConfigError(f"{where}: unknown speed unit {unit!r}")
        # Both factors are at most 1, so a finite value stays finite.
        return finite_float(node["value"], f"{where}: speed", positive=True) * _SPEED_UNITS[unit]
    raise ConfigError(f"{where}: speeds must carry an explicit unit tag")


def _section(raw: dict, name: str, path) -> dict:
    """The optional JSON object ``raw[name]`` (empty when absent)."""
    sec = raw.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"{path}: {name} must be a JSON object")
    return sec


def _field(sec: dict, key: str, default, where: str, positive: bool = False) -> float:
    """``sec[key]`` (or ``default``) through :func:`finite_float`."""
    return finite_float(sec.get(key, default), f"{where}.{key}", positive)


def _path_field(value, name: str, base_dir: Path) -> Path:
    """A file named relative to the scenario file; ``name`` names the field in errors."""
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a file name, got {value!r}")
    return base_dir / value


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
    raw = read_json(path, "scenario")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    base_dir = path.parent

    road = raw.get("road")
    if isinstance(road, dict) and "preset" in road:
        if road["preset"] not in PRESET_NAMES:
            raise ConfigError(f"{path}: road.preset must be one of {PRESET_NAMES}")
        profile = build_preset(road["preset"])
    elif isinstance(road, dict) and "profile_file" in road:
        name = f"{path}: road.profile_file"
        profile = load_profile(_path_field(road["profile_file"], name, base_dir))
    else:
        raise ConfigError(f"{path}: road must give either 'preset' or 'profile_file'")

    plat = raw.get("platoon")
    if not isinstance(plat, dict):
        raise ConfigError(f"{path}: missing 'platoon' section")
    where = f"{path}: platoon"
    try:
        n = integer_at_least(plat["n_vehicles"], f"{where}.n_vehicles", 2)
        mass = plat.get("mass_kg", 1400.0)
        if isinstance(mass, list):
            if len(mass) != n:
                raise ConfigError(f"{where}.mass_kg must have {n} entries")
            masses = [finite_float(m, f"{where}.mass_kg[{i}]") for i, m in enumerate(mass)]
        else:
            masses = [finite_float(mass, f"{where}.mass_kg")] * n
        a_min = _field(plat, "a_min", -5.0, where)
        a_max = _field(plat, "a_max", 3.0, where)
        vehicles = tuple(VehicleParams(mass=m, a_min=a_min, a_max=a_max) for m in masses)
        ds = finite_float(plat.get("ds_m", 0.1), "ds", positive=True)
        route_length = finite_float(
            plat.get("route_length_m", 800.0), "route length", positive=True
        )
        config = PlatoonConfig(
            vehicles=vehicles,
            headway=_field(plat, "headway_s", 1.0, where),
            target_speed=_speed(plat["target_speed"], f"{where}.target_speed"),
            speed_limit=_speed(plat["speed_limit"], f"{where}.speed_limit"),
            gravity=_field(plat, "gravity", 9.8, where),
            rolling_coeff=_field(plat, "rolling_coeff", 0.015, where),
            drag_coeff=_field(plat, "drag_coeff", 0.000024, where),
            ds=ds,
            horizon_steps=_horizon_steps(route_length, ds),
            speed_floor=_field(plat, "speed_floor", 0.1, where),
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: platoon section missing {exc.args[0]!r}")
    if route_length > profile.total_length + 1e-9:
        raise ConfigError(
            f"{path}: route length {route_length} m exceeds profile length "
            f"{profile.total_length} m"
        )

    wsec = _section(raw, "weights", path)
    where = f"{path}: weights"
    weights = CostWeights(
        q1=_field(wsec, "q1", 500.0, where),
        q2=_field(wsec, "q2", 0.01, where),
        q3=_field(wsec, "q3", 5000.0, where),
        r1=_field(wsec, "r1", 50.0, where),
        qv=_field(wsec, "qv", 0.0, where),
        power_floor=(
            None if wsec.get("power_floor") is None else _field(wsec, "power_floor", None, where)
        ),
        power_smoothing=_field(wsec, "power_smoothing", 500.0, where),
    )

    ssec = _section(raw, "solver", path)
    for key in ssec:
        if key not in SolverOptions.__dataclass_fields__:
            raise ConfigError(f"{path}: unknown solver option {key!r}")
    solver_options = SolverOptions(**ssec)

    bsec = _section(raw, "baseline", path)
    where = f"{path}: baseline"
    gains = CaccGains(
        kp_gap=_field(bsec, "kp_gap", 0.45, where),
        kd_gap=_field(bsec, "kd_gap", 1.2, where),
        kp_speed=_field(bsec, "kp_speed", 0.8, where),
    )
    baseline_dt = _field(bsec, "dt_s", 0.05, where, positive=True)

    fm = raw.get("fuel_model", "default")
    fuel_model = (
        FuelModel.default()
        if fm == "default"
        else FuelModel.load(_path_field(fm, f"{path}: fuel_model", base_dir))
    )

    perturbation = None
    if raw.get("perturbation") is not None:
        psec = _section(raw, "perturbation", path)
        where = f"{path}: perturbation"
        if "magnitude_mps" not in psec:
            raise ConfigError(f"{where} section missing 'magnitude_mps'")
        perturbation = PerturbationSpec(
            magnitude=_field(psec, "magnitude_mps", None, where),
            shape=psec.get("shape", "step"),
            onset_position=_field(psec, "onset_m", 0.0, where),
            duration=_field(psec, "duration_m", 0.0, where),
        )

    hsec = _section(raw, "horizon", path)
    mode = hsec.get("mode", "one_shot")
    if mode not in ("one_shot", "receding"):
        raise ConfigError(f"{path}: horizon.mode must be 'one_shot' or 'receding'")
    where = f"{path}: horizon"
    window_m = _field(hsec, "window_m", 40.0, where, positive=True)
    replan_m = _field(hsec, "replan_m", 10.0, where, positive=True)

    errs = raw.get("initial_time_errors_s", [0.0] * n)
    if not isinstance(errs, list) or len(errs) != n:
        raise ConfigError(f"{path}: initial_time_errors_s must have {n} entries")
    errs = np.array(
        [finite_float(e, f"{path}: initial_time_errors_s[{i}]") for i, e in enumerate(errs)]
    )

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
    ds = finite_float(ds, "ds", positive=True)
    return int(round(finite_float(route_length, "route length", positive=True) / ds))


def override_ds(scenario: Scenario, ds: float) -> Scenario:
    """Rebuild a scenario on a different spatial step, keeping the route length."""
    cfg = scenario.config
    new_cfg = replace(cfg, ds=ds, horizon_steps=_horizon_steps(cfg.route_length, ds))
    return replace(scenario, config=new_cfg)

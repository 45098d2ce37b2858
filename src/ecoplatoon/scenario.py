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
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .baseline import CaccGains
from .costs import CostWeights, schedule_targets
from .errors import ConfigError, finite_float, integer_at_least, read_json, whole_steps
from .fuel import FuelModel
from .platoon import MPH_TO_MPS, PlatoonConfig, VehicleParams
from .solver import SolverOptions
from .stability import PerturbationSpec
from .terrain import PRESET_NAMES, SlopeProfile, build_preset, load_profile

_SPEED_UNITS = {"m/s": 1.0, "mph": MPH_TO_MPS}

# The keys a scenario file may give, by section ("" is the top level). A key
# named as a value type's field passes through to the type, which owns its
# default and its check; the loader converts the keys it must rename.
_CONFIG_PASSED = ("gravity", "rolling_coeff", "drag_coeff", "speed_floor")
_VEHICLE_PASSED = ("a_min", "a_max")
_GAIN_KEYS = {f.name for f in fields(CaccGains)}
_KEYS = {
    "": {"name", "road", "platoon", "weights", "solver", "baseline", "fuel_model",
         "perturbation", "horizon", "initial_time_errors_s"},
    "road": {"preset", "profile_file"},
    "platoon": {"n_vehicles", "mass_kg", "headway_s", "target_speed", "speed_limit",
                "initial_speed", "ds_m", "route_length_m", *_CONFIG_PASSED, *_VEHICLE_PASSED},
    "weights": {f.name for f in fields(CostWeights)},
    "solver": {f.name for f in fields(SolverOptions)},
    # tire_radius_m is the one retired key: older files carry it, and nothing reads it.
    "baseline": {*_GAIN_KEYS, "dt_s", "tire_radius_m"},
    "perturbation": {"magnitude_mps", "shape", "onset_m", "duration_m"},
    "horizon": {"mode", "window_m", "replan_m"},
}


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
    """The optional JSON object ``raw[name]`` (empty when absent), of known keys only."""
    sec = raw.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"{path}: {name} must be a JSON object")
    return _known(sec, name, path)


def _known(sec: dict, name: str, path) -> dict:
    """``sec``, the ``name`` section, when ``_KEYS[name]`` holds each of its keys."""
    unknown = [key for key in sec if key not in _KEYS[name]]
    if unknown:
        what = "option" if name == "solver" else "key"
        raise ConfigError(f"{path}: unknown {name or 'top-level'} {what} {unknown[0]!r}")
    return sec


def _build(cls, where: str, **kwargs):
    """``cls(**kwargs)``, a ConfigError it raises reworded as ``<where>.<message>``."""
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{where}.{exc}") from None


def _field(sec: dict, key: str, default, where: str, positive: bool = False) -> float:
    """``sec[key]`` (or ``default``) through :func:`finite_float`."""
    return finite_float(sec.get(key, default), f"{where}.{key}", positive)


def _given(sec: dict, keys) -> dict:
    """The entries of ``sec`` under ``keys`` that the file gives."""
    return {key: sec[key] for key in keys if key in sec}


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
    _known(raw, "", path)
    base_dir = path.parent

    road = raw.get("road")
    if isinstance(road, dict) and "preset" in _known(road, "road", path):
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
    _known(plat, "platoon", path)
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
        bounds = _given(plat, _VEHICLE_PASSED)
        vehicles = tuple(_build(VehicleParams, where, mass=m, **bounds) for m in masses)
        ds = _field(plat, "ds_m", 0.1, where, positive=True)
        route_length = _field(plat, "route_length_m", 800.0, where, positive=True)
        config = _build(
            PlatoonConfig,
            where,
            vehicles=vehicles,
            headway=_field(plat, "headway_s", 1.0, where),
            target_speed=_speed(plat["target_speed"], f"{where}.target_speed"),
            speed_limit=_speed(plat["speed_limit"], f"{where}.speed_limit"),
            ds=ds,
            horizon_steps=_horizon_steps(route_length, ds, f"{where}: "),
            **_given(plat, _CONFIG_PASSED),
        )
    except KeyError as exc:
        raise ConfigError(f"{path}: platoon section missing {exc.args[0]!r}")
    if route_length > profile.total_length + 1e-9:
        raise ConfigError(
            f"{path}: route length {route_length} m exceeds profile length "
            f"{profile.total_length} m"
        )

    weights = _build(CostWeights, f"{path}: weights", **_section(raw, "weights", path))
    solver_options = _build(SolverOptions, f"{path}: solver", **_section(raw, "solver", path))

    bsec = _section(raw, "baseline", path)
    where = f"{path}: baseline"
    gains = _build(CaccGains, where, **_given(bsec, _GAIN_KEYS))
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
        perturbation = _build(
            PerturbationSpec,
            where,
            magnitude=_field(psec, "magnitude_mps", None, where),
            onset_position=_field(psec, "onset_m", 0.0, where),
            duration=_field(psec, "duration_m", 0.0, where),
            **_given(psec, ("shape",)),
        )

    hsec = _section(raw, "horizon", path)
    mode = hsec.get("mode", "one_shot")
    if mode not in ("one_shot", "receding"):
        raise ConfigError(f"{path}: horizon.mode must be 'one_shot' or 'receding'")
    where = f"{path}: horizon"
    window_m = _field(hsec, "window_m", 40.0, where, positive=True)
    replan_m = _field(hsec, "replan_m", 10.0, where, positive=True)
    for key, length in (("window_m", window_m), ("replan_m", replan_m)):
        whole_steps(length, ds, f"{where}.{key}")

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


def _horizon_steps(route_length: float, ds: float, where: str = "") -> int:
    """The number of ``ds`` steps in ``route_length``, both finite and > 0.

    Raises ConfigError, its message led by ``where``, unless that many
    steps cover the route to a relative 1e-9: a step that does not divide
    the route would plan a route of another length.
    """
    ds = finite_float(ds, "ds", positive=True)
    route_length = finite_float(route_length, "route length", positive=True)
    return whole_steps(route_length, ds, f"{where}route length")


def override_ds(scenario: Scenario, ds: float) -> Scenario:
    """Rebuild a scenario on a different spatial step, keeping the route length.

    Raises ConfigError when ``ds`` is not finite and > 0 or does not divide
    the route length.
    """
    cfg = scenario.config
    new_cfg = replace(cfg, ds=ds, horizon_steps=_horizon_steps(cfg.route_length, ds))
    return replace(scenario, config=new_cfg)

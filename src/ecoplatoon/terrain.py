"""Piecewise-constant road grade as a function of longitudinal position.

Grades are stored internally as angles in radians; configuration files and
presets speak percent grade (100 * tan(angle)) and are converted on load.
Profiles are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, finite_float, read_json

PRESET_NAMES = ("major_arterial", "collector")

# Peak percent grade per road class.
_PRESET_PEAK_PERCENT = {"major_arterial": 6.0, "collector": 15.0}


@dataclass(frozen=True)
class SlopeProfile:
    """Road grade defined on [0, total_length] by segment breakpoints.

    breakpoints: strictly increasing positions in meters; first is 0, last is
        total_length. Segment j spans [breakpoints[j], breakpoints[j+1]).
    grades: one angle (rad) per segment, len(breakpoints) - 1 entries.

    Queries are right-continuous at breakpoints; the final breakpoint belongs
    to the last segment.
    """

    breakpoints: np.ndarray
    grades: np.ndarray
    total_length: float = field(init=False)

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        gr = np.asarray(self.grades, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ConfigError("breakpoints: need at least two positions")
        if gr.ndim != 1 or gr.size != bp.size - 1:
            raise ConfigError(
                f"grades: expected {bp.size - 1} segment angles, got {gr.size}"
            )
        if not np.all(np.isfinite(bp)):
            j = int(np.flatnonzero(~np.isfinite(bp))[0])
            raise ConfigError(f"breakpoints[{j}]: position must be finite, got {bp[j]}")
        if bp[0] != 0.0:
            raise ConfigError(f"breakpoints[0]: must be 0, got {bp[0]}")
        if np.any(np.diff(bp) <= 0):
            j = int(np.flatnonzero(np.diff(bp) <= 0)[0]) + 1
            raise ConfigError(f"breakpoints[{j}]: positions must be strictly increasing")
        # Negated so that NaN angles fail too.
        if not np.all(np.abs(gr) < math.pi / 2):
            j = int(np.flatnonzero(~(np.abs(gr) < math.pi / 2))[0])
            raise ConfigError(f"grades[{j}]: |angle| must be below pi/2, got {gr[j]}")
        bp.setflags(write=False)
        gr.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "grades", gr)
        object.__setattr__(self, "total_length", float(bp[-1]))


def grade_at(profile: SlopeProfile, s):
    """Grade angle (rad) at position ``s`` (m); scalar or array.

    Right-continuous at breakpoints. Raises ConfigError when any queried
    position is NaN or falls outside [0, total_length].
    """
    s_arr = np.asarray(s, dtype=float)
    # Negated so that NaN positions fail too.
    if not np.all((s_arr >= 0.0) & (s_arr <= profile.total_length)):
        raise ConfigError(
            f"position out of range [0, {profile.total_length}]: {s!r}"
        )
    idx = np.searchsorted(profile.breakpoints, s_arr, side="right") - 1
    idx = np.clip(idx, 0, profile.grades.size - 1)
    out = profile.grades[idx]
    return float(out) if np.isscalar(s) or s_arr.ndim == 0 else out


def build_preset(kind: str) -> SlopeProfile:
    """Construct an 800 m rolling-terrain profile for a road class.

    Both presets use 8 equal 100 m segments at alternating +/- peak grade
    (starting uphill), which yields 4 up-down undulations and zero net
    elevation change over the route. Peak grade is 6% for ``major_arterial``
    and 15% for ``collector``.
    """
    if kind not in _PRESET_PEAK_PERCENT:
        raise ConfigError(f"unknown road-class preset {kind!r}; expected one of {PRESET_NAMES}")
    peak = math.atan(_PRESET_PEAK_PERCENT[kind] / 100.0)
    breakpoints = np.arange(0.0, 900.0, 100.0)
    grades = np.array([peak if j % 2 == 0 else -peak for j in range(8)])
    return SlopeProfile(breakpoints=breakpoints, grades=grades)


def load_profile(path) -> SlopeProfile:
    """Load a profile from JSON ``{"breakpoints_m": [...], "percent_grades": [...]}``.

    Malformed files are rejected with a diagnostic naming the file and the
    offending field or JSON location.
    """
    raw = read_json(path, "profile")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    fields = {}
    for key in ("breakpoints_m", "percent_grades"):
        if key not in raw:
            raise ConfigError(f"{path}: missing field {key!r}")
        if not isinstance(raw[key], list):
            raise ConfigError(f"{path}: field {key!r} must be a list of numbers")
        fields[key] = np.array(
            [finite_float(x, f"{path}: {key}[{i}]") for i, x in enumerate(raw[key])]
        )
    grades = np.arctan(fields["percent_grades"] / 100.0)
    try:
        return SlopeProfile(breakpoints=fields["breakpoints_m"], grades=grades)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}")

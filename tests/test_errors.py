"""The shared input checks: every outside number goes through these two."""

import math
from dataclasses import fields

import numpy as np
import pytest

from ecoplatoon.baseline import CaccGains
from ecoplatoon.costs import CostWeights
from ecoplatoon.errors import (
    ConfigError,
    finite_float,
    finite_vector,
    float_array,
    integer_at_least,
)
from ecoplatoon.platoon import PlatoonConfig, VehicleParams
from ecoplatoon.solver import SolverOptions
from ecoplatoon.stability import PerturbationSpec

# Each value type that checks its own fields, with the fields it requires.
VALID = {
    CostWeights: {},
    CaccGains: {},
    VehicleParams: {"mass": 1400.0},
    PlatoonConfig: {
        "vehicles": (VehicleParams(1400.0),) * 2,
        "headway": 1.0,
        "target_speed": 20.0,
        "speed_limit": 30.0,
    },
    SolverOptions: {},
    PerturbationSpec: {"magnitude": 0.5},
}
NUMBER_FIELDS = [
    (cls, f.name)
    for cls in VALID
    for f in fields(cls)
    if f.type in ("float", "int", "float | None")
]


@pytest.mark.parametrize(
    "value, expected", [(3, 3.0), (-2.5, -2.5), (np.float64(0.1), 0.1), (np.int32(7), 7.0)]
)
def test_finite_float_returns_a_float(value, expected):
    got = finite_float(value, "x")
    assert type(got) is float and got == expected


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "x must be a number, got True"),
        ("1.0", "x must be a number, got '1.0'"),
        (None, "x must be a number, got None"),
        ([1.0], r"x must be a number, got \[1.0\]"),
        (math.nan, "x must be finite, got nan"),
        (-math.inf, "x must be finite, got -inf"),
    ],
)
def test_finite_float_rejects_non_numbers_and_non_finite(value, message):
    with pytest.raises(ConfigError, match=message):
        finite_float(value, "x")


@pytest.mark.parametrize("value", [0, -1e-300, math.inf])
def test_positive_finite_float_rejects_non_positive(value):
    with pytest.raises(ConfigError, match="x must be positive and finite"):
        finite_float(value, "x", positive=True)


@pytest.mark.parametrize("value", [2, 9, np.int64(5)])
def test_integer_at_least_returns_an_int(value):
    got = integer_at_least(value, "n", 2)
    assert type(got) is int and got == value


@pytest.mark.parametrize("value", [1, True, 2.0, "3", None])
def test_integer_at_least_rejects(value):
    with pytest.raises(ConfigError, match=f"n must be an integer >= 2, got {value!r}"):
        integer_at_least(value, "n", 2)


@pytest.mark.parametrize(
    "values",
    [
        ["a", 0, 0],
        {"a": 1},
        "abc",
        [[1.0], [1.0, 2.0]],
        ["1", "2", "3"],
        np.array(["1", "2", "3"]),
        [True, False, True],
        [1.0, None, 2.0],
    ],
)
def test_finite_vector_rejects_non_numeric_values(values):
    # np.asarray raised ValueError or TypeError on the first four, and
    # converted numeric strings and bools to floats and None to nan: a
    # string or a bool is not a number here either, as in finite_float
    with pytest.raises(ConfigError, match="^v must be numeric, got"):
        finite_vector("v", values, 3)


@pytest.mark.parametrize(
    "values",
    [[1, 2, 3], np.arange(3, dtype=np.uint8), np.arange(3, dtype=np.float32), []],
    ids=["ints", "unsigned", "float32", "empty"],
)
def test_float_array_accepts_integer_and_real_float_dtypes(values):
    got = float_array("v", values)
    assert got.dtype == float and np.array_equal(got, np.asarray(values, dtype=float))


def test_float_array_returns_a_new_float_array():
    values = np.arange(3.0)
    got = float_array("v", values)
    assert got.dtype == float and np.array_equal(got, values)
    assert not np.shares_memory(got, values)


@pytest.mark.parametrize("value", [True, "1", math.nan], ids=["bool", "string", "nan"])
@pytest.mark.parametrize(
    "cls, name", NUMBER_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in NUMBER_FIELDS]
)
def test_value_types_check_every_number_field(cls, name, value):
    # a bool passed as 0 or 1 and a string raised TypeError in several of these
    with pytest.raises(ConfigError, match=rf"^{name} must be"):
        cls(**{**VALID[cls], name: value})


def test_value_types_store_numbers_as_floats():
    assert type(CostWeights(q1=500).q1) is float
    assert type(CaccGains(kp_gap=1).kp_gap) is float
    assert type(VehicleParams(mass=np.int64(1400)).mass) is float

"""The shared input checks: every outside number goes through these two."""

import math

import numpy as np
import pytest

from ecoplatoon.errors import ConfigError, finite_float, integer_at_least


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

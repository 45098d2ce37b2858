"""Exception hierarchy shared across the package, and the input checks that raise it.

Numbers read from scenario, profile and fuel-model files and CLI flags,
the solver's own arguments and the number fields of the value types go
through :func:`finite_float` or :func:`integer_at_least`, so all of them
obey one rule: a bool or a string is not a number, whatever Python's types
say. Per-vehicle vectors go through :func:`finite_vector`, and every
numeric array through :func:`float_array`, which holds arrays to the same
rule and raises ConfigError where numpy would raise ValueError or TypeError.
"""

import json
import math
import numbers

import numpy as np


class EcoPlatoonError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(EcoPlatoonError):
    """A scenario, profile, or model file is missing, malformed, or inconsistent."""


class IntegrationError(EcoPlatoonError):
    """A dynamics step produced a non-physical state (slowness left the positive domain)."""


class StallError(EcoPlatoonError):
    """A time-domain rollout lost all forward speed before reaching the route end."""


class BackwardPassError(EcoPlatoonError):
    """The control-Hessian could not be made positive definite within the regularization budget."""


def read_json(path, what):
    """The JSON value in the file at ``path``, the package's ``what`` file.

    Raises ConfigError naming the file when it is missing, cannot be read
    (a directory, say) or is not valid JSON.
    """
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{path}: {what} file not found")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read {what} file ({exc.strerror})")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})")


def finite_float(value, name, positive=False):
    """``value`` as a float when it is a finite real number, and > 0 when ``positive``.

    Raises ConfigError naming ``name`` otherwise; a bool or a string is not
    a number.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value) or (positive and value <= 0):
        kind = "positive and finite" if positive else "finite"
        raise ConfigError(f"{name} must be {kind}, got {value}")
    return value


def integer_at_least(value, name, minimum):
    """``value`` as an int when it is an integer >= ``minimum``; a bool is not one.

    Raises ConfigError naming ``name`` otherwise.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def whole_steps(length, ds, name):
    """The number of steps of ``ds`` in ``length``, both finite and > 0.

    Raises ConfigError, its message led by ``name``, unless that many steps
    cover ``length`` to a relative 1e-9: a rounded count would plan a
    length of another size.
    """
    steps = round(length / ds)
    if abs(steps * ds - length) > 1e-9 * length:
        raise ConfigError(
            f"{name} {length} m is not a whole number of steps of ds {ds} m "
            f"({length / ds:.6g} steps)"
        )
    return steps


def float_array(name, values):
    """``values`` as a new float array; ConfigError naming ``name`` unless numeric.

    Numeric means an array of integers or real floats: text, bools and
    objects (None, say) are not converted.
    """
    try:
        array = np.asarray(values)
        if array.dtype.kind in "iuf":
            return np.array(array, dtype=float)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{name} must be numeric, got {values!r}")


def finite_vector(name, values, n):
    """``values`` as a float array of shape (n,); ConfigError unless all finite."""
    out = float_array(name, values)
    if out.shape != (n,):
        raise ConfigError(f"{name} must have shape ({n},), got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"{name} must be finite, got {out}")
    return out

"""Exception hierarchy shared across the package, and the JSON file reader that raises it."""

import json


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

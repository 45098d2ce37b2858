"""Exception hierarchy shared across the package."""


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

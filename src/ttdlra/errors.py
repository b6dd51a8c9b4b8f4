"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition (shape, range, flags)."""


class OversizeError(ValueError):
    """A dense-ambient computation was requested above the supported size."""


class DegeneratePointError(ValueError):
    """A tensor is numerically rank deficient where exact rank is required."""


class NotOnManifoldError(ValueError):
    """A candidate point fails the manifold membership checks."""


class ConfigError(ValueError):
    """An experiment or problem configuration is malformed."""


class BreakdownError(RuntimeError):
    """A time step could not be completed because the rank structure collapsed."""

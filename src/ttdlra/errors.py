"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition (shape, range, flags)."""


class OversizeError(ValueError):
    """A dense-ambient computation was requested above the supported size."""


class DegeneratePointError(ValueError):
    """A tensor is numerically rank deficient where exact rank is required."""


class NotOnManifoldError(ValueError):
    """A candidate point fails the manifold membership checks.

    ``gap`` is the boundary gap the failing check measured; it is 0.0 where
    the rank was found deficient without a spectrum (a short unfolding, a
    singular factor Gramian).
    """

    def __init__(self, message, gap=0.0):
        super().__init__(message)
        self.gap = float(gap)


class ConfigError(ValueError):
    """An experiment or problem configuration is malformed."""


class BreakdownError(RuntimeError):
    """A time step could not be completed because the rank structure collapsed.

    ``gap`` is the boundary gap measured at the collapse.
    """

    def __init__(self, message, gap=0.0):
        super().__init__(message)
        self.gap = float(gap)

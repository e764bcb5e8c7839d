"""Exception types shared across the package."""


class ColdstartError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ColdstartError, ValueError):
    """Refused input; the message names the file, flag or field. It is also a
    ValueError, so Python callers that catch ValueError keep working."""


class DegenerateInputError(ColdstartError):
    """A physical quantity left its meaningful domain (e.g. fuel flow at zero)."""


class SingularGainError(ColdstartError):
    """An input gain collapsed; the affected control channel cannot be inverted."""


class SingularMatrixError(ColdstartError):
    """Matrix too ill-conditioned to invert at the requested tolerance."""


class IdentificationError(ColdstartError):
    """Time-series fit failed; message carries regression diagnostics."""


class SimulationAbort(ColdstartError):
    """Closed-loop run left the valid state region and was stopped."""

    def __init__(self, message, step=None):
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)
        self.step = step

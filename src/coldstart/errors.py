"""Exception types shared across the package."""


class ColdstartError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ColdstartError, ValueError):
    """Refused input; the message names the file, flag or field. It is also a
    ValueError, so Python callers that catch ValueError keep working."""


class DegenerateInputError(ColdstartError):
    """A physical quantity left its meaningful domain (e.g. fuel flow at zero)."""


class SingularGainError(ColdstartError):
    """A channel response 1/(j*omega*tau + k) is singular (``rga.freq_response``)."""


class SingularMatrixError(ColdstartError):
    """Matrix too ill-conditioned to invert at the requested tolerance."""


class IdentificationError(ColdstartError):
    """A time-series fit could not be made; message carries regression diagnostics."""


class SimulationAbort(ColdstartError):
    """Closed-loop run left the valid state region and was stopped."""

    def __init__(self, message, step=None):
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)
        self.step = step

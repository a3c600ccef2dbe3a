"""Exception types shared across the package."""

from __future__ import annotations


class ReflectSPDEError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(ReflectSPDEError):
    """Raised when coefficient arrays disagree with the declared space."""


class ConfigurationError(ReflectSPDEError, ValueError):
    """Raised for an invalid scheme, experiment or study argument."""


class UnsupportedParameterError(ReflectSPDEError):
    """Raised when a model builder receives parameters outside its domain."""


class ModelEvaluationError(ReflectSPDEError):
    """Raised when a drift or noise evaluation receives an invalid state."""


class BlowUpError(ReflectSPDEError):
    """A trajectory left the finite range representable by the scheme.

    Carries enough context to report which step diverged without keeping
    the whole path alive.
    """

    def __init__(self, step: int, time: float, h_norm: float):
        self.step = int(step)
        self.time = float(time)
        self.h_norm = float(h_norm)
        super().__init__(
            f"trajectory blew up at step {self.step} (t={self.time:g}, |x|_H={self.h_norm:g})"
        )

"""Shared exception types."""


class YangLeeError(Exception):
    """Base class for numerical failures raised by this package."""


class DomainError(YangLeeError, ValueError):
    """Input lies outside the mathematical domain of an operation."""


class QuadratureError(YangLeeError):
    """Requested tolerance not reached; carries the partial result."""

    def __init__(self, message: str, value=None, estimate: float | None = None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate

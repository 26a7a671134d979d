"""Shared exception types."""


class YangLeeError(Exception):
    """Base class for numerical failures raised by this package."""


class DomainError(YangLeeError, ValueError):
    """Input lies outside the mathematical domain of an operation."""


class CertificateError(YangLeeError):
    """A result missed its gate; carries the best iterate and its residual."""

    def __init__(self, message: str, best=None, residual: float | None = None):
        super().__init__(message)
        self.best = best
        self.residual = residual

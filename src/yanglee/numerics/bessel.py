"""Modified Bessel function K0 of the second kind, from scipy.special."""

from __future__ import annotations

from ..errors import DomainError


def bessel_k0(x: float) -> float:
    """K0(x) for real x > 0."""
    x = float(x)
    if not x > 0.0:
        raise DomainError("bessel_k0 requires x > 0")
    # Imported here: scipy.special adds 55-85 ms to the CLI's start-up.
    import scipy.special
    return float(scipy.special.k0(x))

"""Modified Bessel function K0 of the second kind, from scipy.special."""

from __future__ import annotations

import numpy as np

from ..errors import DomainError


def bessel_k0(x):
    """K0(x) elementwise for real x > 0: a float for a scalar, else an array.

    Raises ``DomainError`` when any entry is <= 0 or NaN.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise DomainError("bessel_k0 requires x > 0")
    # Imported here: scipy.special adds 55-85 ms to the CLI's start-up.
    import scipy.special
    k = scipy.special.k0(x)
    return float(k) if k.ndim == 0 else k

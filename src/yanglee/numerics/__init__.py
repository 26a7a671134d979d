"""Self-contained numerical kernels used throughout the package."""

from .bessel import bessel_k0
from .eig import (EigenDecompositionError, EigenSystem, block_eigvals, dense_eig,
                  dense_eigvals, hermitian_eigvals, inverse_iteration)
from .newton import NewtonError, newton_system
from .polynomials import ComplexPolynomial, RootFindingError, roots_of_polynomial
from .quadrature import QuadratureError, QuadratureResult, adaptive_integrate

__all__ = [
    "ComplexPolynomial",
    "EigenDecompositionError",
    "EigenSystem",
    "NewtonError",
    "QuadratureError",
    "QuadratureResult",
    "RootFindingError",
    "adaptive_integrate",
    "bessel_k0",
    "block_eigvals",
    "dense_eig",
    "dense_eigvals",
    "hermitian_eigvals",
    "inverse_iteration",
    "newton_system",
    "roots_of_polynomial",
]

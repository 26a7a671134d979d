"""Roots of complex polynomials.

The solver takes eigenvalues of the companion matrix of the monic
normalization and then polishes all roots simultaneously with
Aberth-Ehrlich iterations.  This stays robust for the sparse,
high-degree polynomials produced by the partition-function analysis
(degree up to L^2/4) where single-root Newton polishing can stall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, YangLeeError


class RootFindingError(YangLeeError):
    """Root refinement failed; carries the best iterate seen."""

    def __init__(self, message: str, best=None, residual: float | None = None):
        super().__init__(message)
        self.best = best
        self.residual = residual


@dataclass
class ComplexPolynomial:
    """Polynomial sum_m coeffs[m] * z**m; index m holds the coefficient of z^m.

    Trailing zero coefficients are stripped on construction so that the
    leading coefficient is nonzero and ``degree`` is the highest index
    with a nonzero coefficient.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise DomainError("coefficient list must be a nonempty 1-d sequence")
        top = c.size - 1
        while top > 0 and c[top] == 0:
            top -= 1
        self.coeffs = c[: top + 1]

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, z):
        """Evaluate by Horner's scheme; accepts scalars or arrays."""
        z = np.asarray(z, dtype=complex)
        acc = np.full_like(z, self.coeffs[-1])
        for c in self.coeffs[-2::-1]:
            acc = acc * z + c
        return acc if acc.ndim else complex(acc)

    def derivative(self) -> "ComplexPolynomial":
        if self.degree == 0:
            return ComplexPolynomial(np.zeros(1, dtype=complex))
        m = np.arange(1, self.coeffs.size)
        return ComplexPolynomial(self.coeffs[1:] * m)


def _aberth_polish(monic: np.ndarray, z: np.ndarray, target: float):
    """Simultaneous refinement of all roots of a monic polynomial, 80 steps at most."""
    p = ComplexPolynomial(monic)
    dp = p.derivative()
    best = z.copy()
    best_res = np.max(np.abs(p(best)))
    for _ in range(80):
        pv = p(z)
        res = np.max(np.abs(pv))
        if res < best_res:
            best, best_res = z.copy(), res
        if res <= target:
            break
        dv = dp(z)
        dv = np.where(np.abs(dv) < 1e-300, 1e-300, dv)
        newton = pv / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        inv = 1.0 / diff
        np.fill_diagonal(inv, 0.0)
        denom = 1.0 - newton * inv.sum(axis=1)
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        step = newton / denom
        step = np.where(np.isfinite(step), step, 0.0)
        z = z - step
    return best, best_res


def roots_of_polynomial(p: ComplexPolynomial, tol: float = 1e-10) -> np.ndarray:
    """All ``degree`` roots of ``p`` (with multiplicity), sorted by (Re, Im).

    Every returned root r satisfies |p(r)| <= tol * max|coeff|; otherwise a
    RootFindingError carrying the best iterate is raised.  Raises
    DomainError before any work above degree 1024: the companion matrix
    and the Aberth pair table grow as degree^2 in memory and the companion
    eigensolve as degree^3 in time.
    """
    if not 1 <= p.degree <= 1024:
        raise DomainError(f"root finding needs 1 <= degree <= 1024, got {p.degree}")
    if tol <= 0:
        raise DomainError("tol must be positive")
    monic = p.coeffs / p.coeffs[-1]
    # numpy's roots() is companion-matrix based; it provides the starting set.
    z = np.roots(monic[::-1]).astype(complex)
    # Coincident starting points break the Aberth update; split them slightly
    # (fixed generator state, so the roots are reproducible).
    rng = np.random.default_rng(0)
    for i in range(z.size):
        while np.any(np.abs(z[:i] - z[i]) == 0.0):
            z[i] += (rng.standard_normal() + 1j * rng.standard_normal()) * 1e-12
    scale = float(np.max(np.abs(p.coeffs)))
    target = 0.01 * tol * float(np.max(np.abs(monic)))
    z, _ = _aberth_polish(monic, z, target)
    residual = float(np.max(np.abs(p(z))))
    if residual > tol * scale:
        raise RootFindingError(
            f"root residual {residual:.3e} above {tol * scale:.3e}",
            best=z,
            residual=residual,
        )
    return z[np.lexsort((z.imag, z.real))]

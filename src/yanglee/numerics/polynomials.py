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

from ..errors import CertificateError, DomainError


@dataclass
class ComplexPolynomial:
    """Polynomial sum_m coeffs[m] * z**m; index m holds the coefficient of z^m.

    Trailing zero coefficients are stripped on construction so that the
    leading coefficient is nonzero and ``degree`` is the highest index
    with a nonzero coefficient.  DomainError for a non-finite coefficient.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise DomainError("coefficient list must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise DomainError("coefficients must be finite")
        nonzero = np.flatnonzero(c)
        self.coeffs = c[: nonzero[-1] + 1] if nonzero.size else c[:1]

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1


def _backward_error(high: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|p(z)| / sum_m |c_m| |z|^m at each z, ``high`` highest power first.

    Where the sums overflow, the same ratio of the reversed coefficients at
    1/z: both sums scale by |z|^degree.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        value, size = np.abs(np.polyval(high, z)), np.polyval(np.abs(high), np.abs(z))
    far = ~np.isfinite(size)  # |p(z)| <= size: finite where size is
    rev, w = high[::-1], 1.0 / z[far]
    value[far], size[far] = np.abs(np.polyval(rev, w)), np.polyval(np.abs(rev), np.abs(w))
    return value / size


def _aberth_polish(monic: np.ndarray, z: np.ndarray, target: float):
    """Simultaneous refinement of all roots of a monic polynomial, 80 steps at most.

    Stops once the largest |p(z)| is at most ``target``.  Returns the
    iterate of least worst backward error (``_backward_error``), the
    quantity that ``roots_of_polynomial`` gates, and that error.
    """
    high = monic[::-1]  # np.polyval's order: highest power first
    d_high = np.polyder(high)
    best, best_err = z, np.inf
    # p(z) and p'(z) may overflow at large |z|; such a root then takes no step
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(80):
            err = np.max(_backward_error(high, z))
            if err < best_err:
                best, best_err = z, err
            pv = np.polyval(high, z)
            if np.max(np.abs(pv)) <= target:
                break
            dv = np.polyval(d_high, z)
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
    return best, best_err


def roots_of_polynomial(p: ComplexPolynomial) -> np.ndarray:
    """All ``degree`` roots of ``p`` (with multiplicity), sorted by (Re, Im).

    A factor z^low of p gives low exact zeros.  Every other root r has a
    backward error |p(r)| / sum_m |c_m| |r|^m <= 4 (degree - low + 1) eps:
    p(r) is zero to within the rounding floor of Horner's scheme at r
    (Higham, Accuracy and Stability of Numerical Algorithms, sec. 5.1);
    otherwise a CertificateError carries the best iterate and its worst
    backward error.  Raises DomainError before any work above degree
    1024: the companion matrix and the Aberth pair table grow as
    degree^2 in memory and the companion eigensolve as degree^3 in time;
    and when dividing by the leading coefficient overflows.
    """
    if not 1 <= p.degree <= 1024:
        raise DomainError(f"root finding needs 1 <= degree <= 1024, got {p.degree}")
    low = int(np.flatnonzero(p.coeffs)[0])
    q = p.coeffs[low:]
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        monic = q / q[-1]
    if not np.all(np.isfinite(monic)):
        raise DomainError(f"the monic normalization overflows (leading coefficient {q[-1]})")
    # numpy's roots() is companion-matrix based; it provides the starting set.
    z = np.roots(monic[::-1]).astype(complex)
    # Coincident starting points break the Aberth update; split them slightly
    # (fixed generator state, so the roots are reproducible).
    rng = np.random.default_rng(0)
    for i in range(z.size):
        while np.any(np.abs(z[:i] - z[i]) == 0.0):
            z[i] += (rng.standard_normal() + 1j * rng.standard_normal()) * 1e-12
    if z.size:
        z, _ = _aberth_polish(monic, z, 1e-14 * float(np.max(np.abs(monic))))
    # the divisor is at least |q(0)| > 0
    worst = float(np.max(_backward_error(q[::-1], z), initial=0.0))
    bound = 4 * q.size * np.finfo(float).eps
    if not worst <= bound:
        raise CertificateError(f"root backward error {worst:.3e} above {bound:.3e}",
                               best=z, residual=worst)
    z = np.concatenate([z, np.zeros(low)])
    return z[np.lexsort((z.imag, z.real))]

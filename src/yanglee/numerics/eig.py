"""Dense eigenproblems of general complex matrices, with a residual gate.

``dense_eig`` is a thin wrapper over LAPACK (scipy.linalg.eig) that
returns the eigenvalues sorted by (Re, Im) with their right
eigenvectors, each of unit norm.  Its relative residual is
max_i |A r_i - lambda_i r_i| / |A|_F.

``dense_eigvals`` returns the sorted eigenvalues alone, read off the
diagonal of the complex Schur form A = Z T Z^H.  Its certificate is the
backward error |A Z - Z T|_F / |A|_F of that factorization.  For a
non-normal A a small backward error does not bound the forward error of
the eigenvalues.

Both raise EigenDecompositionError when the residual exceeds 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy  # scipy.linalg loads on first use, not at import

from ..errors import DomainError, YangLeeError


class EigenDecompositionError(YangLeeError):
    pass


@dataclass
class EigenSystem:
    """values[i] with the unit right eigenvector right_vectors[:, i]."""

    values: np.ndarray
    right_vectors: np.ndarray
    residual: float


def _square_finite(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DomainError(f"{name} needs a square matrix of dimension >= 1")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    return a


def _check_residual(residual: float, dim: int) -> None:
    if not np.isfinite(residual) or (dim <= 5000 and residual > 1e-10):
        raise EigenDecompositionError(
            f"residual {residual:.3e} too large for dimension {dim}"
        )


def dense_eig(a) -> EigenSystem:
    """Eigendecomposition with eigenvalues sorted by real part, then imaginary."""
    a = _square_finite(a, "dense_eig")
    try:
        values, vr = scipy.linalg.eig(a, left=False, right=True)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigenDecompositionError(
            f"eigendecomposition failed for dimension {a.shape[0]}: {exc}"
        ) from exc
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vr = vr[:, order]
    vr = vr / np.linalg.norm(vr, axis=0)
    norm_a = np.linalg.norm(a)
    if norm_a == 0.0:
        residual = 0.0
    else:
        residual = float(
            np.max(np.linalg.norm(a @ vr - vr * values[None, :], axis=0)) / norm_a
        )
    _check_residual(residual, a.shape[0])
    return EigenSystem(values=values, right_vectors=vr, residual=residual)


def dense_eigvals(a) -> np.ndarray:
    """Eigenvalues sorted by (Re, Im), certified by the Schur backward error."""
    a = _square_finite(a, "dense_eigvals")
    try:
        t, z = scipy.linalg.schur(a, output="complex")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigenDecompositionError(
            f"Schur decomposition failed for dimension {a.shape[0]}: {exc}"
        ) from exc
    norm_a = np.linalg.norm(a)
    residual = (0.0 if norm_a == 0.0
                else float(np.linalg.norm(a @ z - z @ t) / norm_a))
    _check_residual(residual, a.shape[0])
    values = np.diag(t)
    return values[np.lexsort((values.imag, values.real))]

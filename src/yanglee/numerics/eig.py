"""Dense eigenproblems of general matrices, with a residual gate.

``dense_eig`` is a thin wrapper over LAPACK (scipy.linalg.eig) that
returns the eigenvalues sorted by (Re, Im) with their right
eigenvectors, each of unit norm.  Its relative residual is
max_i |A r_i - lambda_i r_i| / |A|_F.

``dense_eigvals`` returns the sorted eigenvalues alone, read off a Schur
form A = Z T Z^H.  A complex A takes the complex Schur form, whose
diagonal holds the eigenvalues.  A real A takes the real Schur form in
LAPACK's standardized layout: 1x1 diagonal blocks are real eigenvalues,
and each 2x2 block [[a, b], [c, a]] with b c < 0 holds the exactly
conjugate pair a +- i sqrt|b| sqrt|c|.  It works in real arithmetic on
half the bytes, and the spectrum it returns is closed under conjugation.
The certificate is the backward error |A Z - Z T|_F / |A|_F.  A caller
that passes the real part of a nearly real matrix names the Frobenius
norm of the dropped imaginary part; it is added to the numerator, and
the denominator becomes the norm of the whole matrix, so the gate still
bounds the backward error of that matrix.  For a non-normal A a small
backward error does not bound the forward error of the eigenvalues.

Both raise EigenDecompositionError when the residual exceeds 1e-10.
"""

from __future__ import annotations

import math
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


def _square_finite(a, name: str, keep_real: bool = False) -> np.ndarray:
    """a as a finite square complex array; float64 if ``keep_real`` and a is real."""
    a = np.asarray(a)
    a = a.astype(float if keep_real and a.dtype.kind in "biuf" else complex,
                 copy=False)
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


def _real_schur_eigvals(t: np.ndarray) -> np.ndarray:
    """Eigenvalues of a standardized real Schur form, pairs exactly conjugate."""
    values = np.diag(t).astype(complex)
    top = np.flatnonzero(np.diag(t, -1))  # first row of each 2x2 block
    values.imag[top] = (np.sqrt(np.abs(t[top, top + 1]))
                        * np.sqrt(np.abs(t[top + 1, top])))
    values[top + 1] = values[top].conj()
    return values


def dense_eigvals(a, dropped: float = 0.0) -> np.ndarray:
    """Eigenvalues sorted by (Re, Im), certified by the Schur backward error.

    A real ``a`` takes the real Schur form.  ``dropped`` is the Frobenius
    norm of an imaginary part already taken off ``a``; it counts toward
    the backward error.
    """
    a = _square_finite(a, "dense_eigvals", keep_real=True)
    real = a.dtype == float
    try:
        t, z = scipy.linalg.schur(a, output="real" if real else "complex")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise EigenDecompositionError(
            f"Schur decomposition failed for dimension {a.shape[0]}: {exc}"
        ) from exc
    norm = math.hypot(np.linalg.norm(a), dropped)
    # scipy's BLAS, which the Schur routines already use: numpy's matmul
    # would map a second BLAS library's kernels.  A C-ordered a goes in
    # as its transpose, so that it is not copied.
    gemm = scipy.linalg.blas.get_blas_funcs("gemm", (a, z))
    r = (gemm(1.0, a.T, z, trans_a=1) if a.flags.c_contiguous
         else gemm(1.0, a, z))
    r = gemm(-1.0, z, t, beta=1.0, c=r, overwrite_c=True)
    residual = 0.0 if norm == 0.0 else float((np.linalg.norm(r) + dropped) / norm)
    _check_residual(residual, a.shape[0])
    values = _real_schur_eigvals(t) if real else np.diag(t)
    return values[np.lexsort((values.imag, values.real))]

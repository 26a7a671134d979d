"""Dense eigenproblems, with one residual gate.

Three kernels, each certified by a relative residual that must not
exceed 1e-10 (``_check_residual``, at every dimension):

``dense_eigvals`` returns the eigenvalues of a general matrix, sorted by
(Re, Im), read off a Schur form A = Z T Z^H.  A complex A takes the
complex Schur form, whose diagonal holds the eigenvalues.  A real A takes
the real Schur form in LAPACK's standardized layout: 1x1 diagonal blocks
are real eigenvalues, and each 2x2 block [[a, b], [c, a]] with b c < 0
holds the exactly conjugate pair a +- i sqrt|b| sqrt|c|.  It works in
real arithmetic on half the bytes, and the spectrum it returns is closed
under conjugation.  The certificate is the backward error
|A Z - Z T|_F / |A|_F.  A caller that passes the real part of a nearly
real matrix names the Frobenius norm of the dropped imaginary part; it is
added to the numerator, and the denominator becomes the norm of the whole
matrix, so the gate still bounds the backward error of that matrix.  For
a non-normal A a small backward error does not bound the forward error
of the eigenvalues.

``hermitian_eigvals`` returns the real eigenvalues, ascending, of every
matrix in a stack that its caller knows to be Hermitian up to rounding.
It solves the Hermitian part H = (A + A^H)/2; the caller answers for
A - A^H.  By default the values come from ``eigvalsh`` and the
certificate is the pair of trace identities sum w = tr H and
sum w^2 = |H|_F^2, as |sum w - tr H| / |H|_F + |sum w^2 - |H|_F^2| / |H|_F^2.
A backward-stable solver meets them to about n eps, and they cost O(n^2)
against the O(n^3) solve; they catch a non-finite, truncated or grossly
wrong spectrum, but unlike a residual they do not bound each eigenvalue's
error.  With ``backward_error`` the values come from ``eigh`` and the
certificate is the backward error |H V - V diag(w)|_F / |H|_F of its
vectors, at about twice the cost.

``inverse_iteration`` returns one unit eigenvector at an eigenvalue the
caller already holds, from one LU at a shift perturbed off it (Ipsen,
SIAM Rev. 39, 254 (1997)).  The certificate is |A v - lambda v| / |A|_F.

All three raise ``CertificateError``, carrying the residual, on a miss.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import scipy  # scipy.linalg loads on first use, not at import

from ..errors import CertificateError, DomainError


def _square_finite(a, name: str, keep_real: bool = False,
                   stacked: bool = False) -> np.ndarray:
    """a as a finite square complex array; float64 if ``keep_real`` and a is real.

    With ``stacked``, a may carry leading stack axes before the last two.
    """
    a = np.asarray(a)
    a = a.astype(float if keep_real and a.dtype.kind in "biuf" else complex,
                 copy=False)
    if ((a.ndim < 2 if stacked else a.ndim != 2)
            or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1):
        raise DomainError(f"{name} needs a square matrix of dimension >= 1")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    return a


def _check_residual(residual: float, dim: int) -> None:
    """Raise unless residual <= 1e-10: the same bound at every dimension.

    A backward-stable solver leaves a relative residual of about
    dim * eps, below the bound for every dim up to about 4.5e5; a nan or
    inf residual always fails.
    """
    if not residual <= 1e-10:
        raise CertificateError(f"residual {residual:.3e} too large for dimension {dim}",
                               residual=residual)


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
    except scipy.linalg.LinAlgError as exc:
        raise CertificateError(
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


def hermitian_eigvals(a, backward_error: bool = False) -> np.ndarray:
    """Eigenvalues, ascending, of the Hermitian part H of each matrix in a stack (..., n, n).

    By default ``eigvalsh``, gated on the trace identities; with
    ``backward_error``, ``eigh``, gated on the backward error from its
    vectors (see the module docstring).  The largest residual over the
    stack is gated.  A real stack stays real.
    """
    a = _square_finite(a, "hermitian_eigvals", keep_real=True, stacked=True)
    h = np.add(a, a.conj().swapaxes(-1, -2), order="C")  # 2H: halving is exact
    # |2H|_F^2 per matrix in one pass over the real and imaginary parts
    parts = h.view(float)
    norm2 = np.einsum("...ij,...ij->...", parts, parts)
    scale2 = np.where(norm2 > 0, norm2, 1.0)  # a zero H has w = 0 exactly
    if backward_error:
        w, v = np.linalg.eigh(h)
        r = h @ v - v * w[..., None, :]
        r = r.view(float)
        residuals = np.sqrt(np.einsum("...ij,...ij->...", r, r) / scale2)
    else:
        w = np.linalg.eigvalsh(h)
        trace = np.einsum("...ii->...", h).real
        residuals = (np.abs(w.sum(axis=-1) - trace) / np.sqrt(scale2)
                     + np.abs(np.einsum("...i,...i->...", w, w) - norm2) / scale2)
    _check_residual(float(residuals.max(initial=0.0)), h.shape[-1])
    return 0.5 * w


def inverse_iteration(a, value: complex) -> np.ndarray:
    """Unit eigenvector of ``a`` at its known eigenvalue ``value``.

    One LU of a - sigma I, sigma = value + eps |a|_F, with any pivot
    below eps |a|_F raised to it (as LAPACK's xLAEIN does); two solves
    from the all-ones vector.  When the start has no component along the
    eigenvector (the residual then fails the gate), the column of
    (a - sigma I)^-1 of largest norm is taken instead, from the same LU:
    some column has norm >= |(a - sigma I)^-1|_2 / sqrt(n), so its
    residual is at most about sqrt(n) times the backward error of
    ``value``.  At a defective eigenvalue the iterates still converge to
    the eigenvector (for a Jordan block, its single one) and the residual
    stays at the size of the shift.  Gated on |a v - value v| / |a|_F.
    """
    a = _square_finite(a, "inverse_iteration")
    if not cmath.isfinite(value):
        raise DomainError(f"eigenvalue must be finite, got {value}")
    n = a.shape[0]
    norm = float(np.linalg.norm(a))
    tiny = np.finfo(float).eps * (norm or 1.0)
    shifted = np.array(a, order="F")
    shifted[np.diag_indices(n)] -= value + tiny
    getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (shifted,))
    lu, piv, _ = getrf(shifted, overwrite_a=True)
    # sigma can still land on the exact eigenvalue of the rounded matrix:
    # a pivot below eps |a|_F becomes eps |a|_F, a perturbation of that size
    small = np.flatnonzero(np.abs(np.diagonal(lu)) < tiny)
    lu[small, small] = tiny

    def residual(v):
        return float(np.linalg.norm(a @ v - value * v) / norm) if norm else 0.0

    v = np.ones(n, dtype=complex)
    for _ in range(2):
        v = getrs(lu, piv, v)[0]
        v /= np.linalg.norm(v)
    r = residual(v)
    if not r <= 1e-10:
        cols = getrs(lu, piv, np.eye(n, dtype=complex))[0]
        sizes = np.linalg.norm(cols, axis=0)
        v = cols[:, np.argmax(sizes)] / sizes.max()
        r = residual(v)
    _check_residual(r, n)
    return v

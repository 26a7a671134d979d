"""Biorthogonal ground-state entanglement entropy.

Free-fermion route: the two-point function of the filled Bloch band,
restricted to a subsystem of L_A cells, gives a 2 L_A x 2 L_A matrix C.
With gamma = I - 2C the entropy is S = sum_j h(lambda_j) over the
eigenvalues of gamma, where

    h(x) = -((1+x)/2) ln((1+x)/2) - ((1-x)/2) ln((1-x)/2).

For the left/right (LR) ground pair of a PT-symmetric chain the filled
band is the one with negative real energy; on the PT-broken arc, where
both bands are purely imaginary, the band choice is a convention
(``im_pos`` or ``im_neg``) that the scaling tests fix empirically.
gamma is then non-normal, its eigenvalues wander off [-1, 1], and h is
taken with principal-branch logarithms; Re S carries the scaling.
(Chang, You, Wen & Ryu, Phys. Rev. Research 2, 033069 (2020).)

The filled band itself lives in ``ssh``, shared with the correlator rows
of ``ssh.corr_row``: ``ssh.filled_projector`` gives the projector of
either convention at every momentum of the grid (the LR projector
P = (H + lam)/(2 lam) and, for the right state alone (RR),
P P^dag / tr(P P^dag)), and ``ssh.fourier_table`` the 2x2 blocks g(d) of
C for every cell distance d from one FFT over the grid.  This module
gathers C and takes the entropy:
* C is one gather g[i - j] over the cell indices;
* gamma's eigenvalues come from a Schur form (``dense_eigvals``), gated
  on the backward error |A Z - Z T|_F / |A|_F <= 1e-10, or, for a
  Hermitian gamma, from ``hermitian_eigvals`` under the same gate;
* h is summed over all eigenvalues as one array expression.

Real route.  With S = diag(1, i, 1, i, ...), gamma = S (i K) S^-1 for
K = -i S^-1 gamma S.  K is real when every band energy on the grid is
real and the grid is symmetric under k -> -k (1/lam and f/lam then have
real Fourier coefficients): both PT-unbroken phases, u = 0, and the
exceptional point |v - w| = u on the half-integer grid.  When
|Im K|_F <= 1e-14 |K|_F, gamma's eigenvalues are i eig(Re K) from the
real Schur form, whose gate adds |Im K|_F to the backward error, so it
still bounds the backward error of gamma itself (S is unitary).

Hermitian route.  Otherwise, when |gamma - gamma^dag|_F <= 1e-14
|gamma|_F, gamma's eigenvalues come from ``eigh``, gated on the backward
error of its vectors like the Schur forms: they are real and,
for a C that is a restricted projector, lie in [-1, 1].  The RR
convention gives such a C (each P P^dag / tr(P P^dag) is Hermitian, so
g(-d) = g(d)^dag).  LR's C is Hermitian only at u = 0, where K is real
and the real route comes first.  Any other C (the PT-broken arc, the
quarter-shifted grid, an arbitrary C) takes the complex Schur form of
gamma.

Branch convention.  At an exceptional point gamma has real eigenvalues
below -1, where (1 + x)/2 lies on the branch cut of the principal
logarithm.  On the real route the spectrum of Re K is closed under
conjugation bit for bit, so gamma's is closed under x -> -conj(x), and
``binary_entropy_sum`` gives each such pair conjugate branches: their
+-i pi terms cancel, and Im S is zero to rounding.  The complex route
has no such convention: an eigenvalue on the cut takes the branch that
its rounding-level imaginary part picks, so Im S there is set by
rounding while Re S is not.  The Schur gate passes either way, since it
bounds the backward error only.

Many-body route: Schmidt decomposition of an explicit state vector over
the 2^L spin basis (used for the interacting chain).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .numerics.eig import dense_eigvals, hermitian_eigvals
from .ssh import SSHParams, filled_projector, fourier_table, near_exceptional

# perfbench's span recorder patches this name; nothing calls it; ROADMAP item 1b removes it.
dense_eig = None

_FILLINGS = ("im_neg", "im_pos")
_DEGENERACY_EPS = 1e-14
_REAL_ROUTE_TOL = 1e-14
_HERMITIAN_ROUTE_TOL = 1e-14
# Momentum cells of a correlation matrix.  At the cap ssh-ee takes 0.5 s
# and peaks at 305 MB RSS (2 vCPU, BLAS on 1 thread).
_MAX_CELLS = 1 << 20
# Subsystem cells L_A of a correlation matrix (gamma is 2 L_A x 2 L_A).  At
# the cap on the PT-broken arc (complex Schur form) ssh-ee takes 7.4 s and
# peaks at 455 MB RSS, gapped (real route) 2.8 s and 287 MB (2 vCPU, BLAS
# on 1 thread).
_MAX_SUBSYSTEM_CELLS = 1 << 10


def binary_entropy_sum(x) -> complex:
    """sum_j h(x_j) with principal logs; terms with |q| < 1e-14 are exact zeros.

    q = (1 +- x)/2 is built per component, so the sign of a zero Im x
    survives: (1 + x)/2 and (1 - y)/2 are exact conjugates for y = -conj(x),
    and on the cut their logarithms take -+i pi as a pair.
    """
    x = np.asarray(x, dtype=complex)
    n = x.size
    q = np.empty(2 * n, dtype=complex)
    q.real[:n] = 0.5 * (1.0 + x.real)
    q.real[n:] = 0.5 * (1.0 - x.real)
    q.imag[:n] = 0.5 * x.imag
    q.imag[n:] = -0.5 * x.imag
    q = q[np.abs(q) >= _DEGENERACY_EPS]
    return complex(-np.sum(q * np.log(q)))


def _momentum_grid(p: SSHParams, cells: int) -> tuple[np.ndarray, float]:
    """k_m = 2 pi (m + offset) / cells, offset 0.5 or (near an EP) 0.75."""
    for offset in (0.5, 0.75):
        grid = 2.0 * math.pi * (np.arange(cells) + offset) / cells
        if not near_exceptional(p, grid):
            return grid, offset
    raise DomainError("momentum grid keeps hitting an exceptional point")


def ssh_correlation_matrix(p: SSHParams, cells: int, subsystem_cells: int,
                           filling: str = "im_neg",
                           convention: str = "LR") -> np.ndarray:
    """(2 L_A, 2 L_A) subsystem two-point matrix from the half-integer momentum grid.

    C[2 i + a, 2 j + b] = (1/L) sum_m exp(i k_m (i - j)) P(k_m)_{ab} for
    cells i, j and sublattices a, b, with k_m = 2 pi (m + 1/2) / L and
    one filled band per momentum.  The offset grid avoids band
    degeneracies; if a grid point still falls within 1e-8 of an
    exceptional momentum the grid is shifted by a quarter cell, and a
    DomainError is raised if that fails too (and for more than 2^20 cells
    or 2^10 subsystem cells).
    """
    if cells > _MAX_CELLS:
        raise DomainError(f"{cells} cells exceed the cap of {_MAX_CELLS}")
    if subsystem_cells > _MAX_SUBSYSTEM_CELLS:
        raise DomainError(f"{subsystem_cells} subsystem cells exceed the cap of "
                          f"{_MAX_SUBSYSTEM_CELLS}")
    if cells % 2 != 0:
        raise DomainError("total cell count must be even")
    if not 1 <= subsystem_cells <= cells // 2:
        raise DomainError("need 1 <= subsystem_cells <= cells/2")
    if filling not in _FILLINGS:
        raise DomainError(f"filling must be one of {_FILLINGS}")
    if convention not in ("LR", "RR"):
        raise DomainError("convention must be 'LR' or 'RR'")
    grid, offset = _momentum_grid(p, cells)
    g = fourier_table(filled_projector(p, grid, filling, convention), offset,
                      np.arange(1 - subsystem_cells, subsystem_cells))
    cell = np.arange(subsystem_cells)
    blocks = g[cell[:, None] - cell[None, :] + subsystem_cells - 1]
    n = 2 * subsystem_cells
    return blocks.transpose(0, 2, 1, 3).reshape(n, n)


def _real_rotated_gamma(c: np.ndarray) -> tuple[np.ndarray, float] | None:
    """(Re K, |Im K|_F) for K = -i S^-1 (I - 2C) S, S = diag(1, i, 1, i, ...),
    or None when |Im K|_F > 1e-14 |K|_F.

    gamma = I - 2C = S (i K) S^-1.  Entry by entry, K = 2i C - i on one
    sublattice, -2C in the (even row, odd column) blocks and 2C in the
    (odd, even) ones.  One real buffer holds Im K for its norm, then Re K.
    """
    n = c.shape[0]
    cr, ci = c.real, c.imag
    ev, od = slice(0, None, 2), slice(1, None, 2)
    k = np.empty((n, n))
    for rows, cols, src, scale in ((ev, ev, cr, 2.0), (od, od, cr, 2.0),
                                   (ev, od, ci, -2.0), (od, ev, ci, 2.0)):
        np.multiply(src[rows, cols], scale, out=k[rows, cols])
    k.ravel()[::n + 1] -= 1.0
    im_norm = float(np.linalg.norm(k))
    for rows, cols, src, scale in ((ev, ev, ci, -2.0), (od, od, ci, -2.0),
                                   (ev, od, cr, -2.0), (od, ev, cr, 2.0)):
        np.multiply(src[rows, cols], scale, out=k[rows, cols])
    if im_norm > _REAL_ROUTE_TOL * math.hypot(np.linalg.norm(k), im_norm):
        return None
    return k, im_norm


def ee_from_correlation(c: np.ndarray) -> complex:
    """Complex entropy sum over the eigenvalues of gamma = I - 2C.

    When K (see ``_real_rotated_gamma``) is real to |Im K|_F <= 1e-14 |K|_F,
    gamma's eigenvalues are i eig(Re K) from the real Schur form, whose
    gate counts |Im K|_F.  Otherwise a gamma that is Hermitian to
    |gamma - gamma^dag|_F <= 1e-14 |gamma|_F takes ``eigh``, and any other
    C the complex Schur form of gamma.  DomainError unless C is square 2-D.
    """
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DomainError(f"C must be a square matrix, got shape {c.shape}")
    rotated = _real_rotated_gamma(c)
    if rotated is None:
        gamma = np.eye(c.shape[0]) - 2.0 * c
        if (np.linalg.norm(gamma - gamma.conj().T)
                <= _HERMITIAN_ROUTE_TOL * np.linalg.norm(gamma)):
            return binary_entropy_sum(hermitian_eigvals(gamma, backward_error=True))
        return binary_entropy_sum(dense_eigvals(gamma))
    k, im_norm = rotated
    mu = dense_eigvals(k, dropped=im_norm)
    x = np.empty_like(mu)  # i mu, each zero keeping its sign
    x.real = -mu.imag
    x.imag = mu.real
    return binary_entropy_sum(x)


def ssh_entropies(p: SSHParams, cells: int, sizes: Sequence[int],
                  filling: str = "im_neg", convention: str = "LR") -> np.ndarray:
    """Complex S(L_A) for each subsystem size, in the order given.

    Every size is checked before any work.  C is built once, at the
    largest size; C(L_A) is its leading 2 L_A x 2 L_A block, entry for
    entry, since each entry depends only on the cell distance.
    """
    sizes = [int(la) for la in sizes]
    out = np.empty(len(sizes), dtype=complex)
    if not sizes:
        return out
    if min(sizes) < 1:
        raise DomainError("need 1 <= subsystem_cells <= cells/2")
    full = ssh_correlation_matrix(p, cells, max(sizes), filling=filling,
                                  convention=convention)
    for i, la in enumerate(sizes):
        out[i] = ee_from_correlation(full[:2 * la, :2 * la])
    return out


@dataclass
class EEScalingFit:
    slope: float
    classification: str  # "SubareaLaw" or "AreaLaw"
    filling: str


def ee_scaling_fit(p: SSHParams, cells: int, subsystem_sizes: Sequence[int],
                   filling: str = "im_neg") -> EEScalingFit:
    """Least-squares fit of Re S against ln L_A and an area/subarea verdict."""
    sizes = np.asarray(sorted(subsystem_sizes), dtype=int)
    if sizes.size < 5 or sizes[-1] < 4 * sizes[0]:
        raise DomainError("need >= 5 subsystem sizes spanning a factor of 4")
    entropies = ssh_entropies(p, cells, sizes, filling)
    slope = np.polyfit(np.log(sizes), entropies.real, 1)[0]
    label = "SubareaLaw" if slope > 0.05 else "AreaLaw"
    return EEScalingFit(slope=float(slope), classification=label, filling=filling)


def state_ee(state, length: int, cut: int) -> float:
    """Von Neumann entropy of sites [0, cut) of a 2^length state vector.

    Site i maps to bit i of the basis index.  The state is normalized
    first (with a warning if it was not already); zero Schmidt weights
    are skipped.
    """
    if not 1 <= cut < length:
        raise DomainError("cut must satisfy 1 <= cut < length")
    psi = np.asarray(state, dtype=complex).ravel()
    if psi.size != 2 ** length:
        raise DomainError(f"state must have dimension 2^{length}")
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise DomainError("state vector is zero")
    if abs(norm - 1.0) > 1e-10:
        warnings.warn("state was not normalized; normalizing", stacklevel=2)
        psi = psi / norm
    # Index n = sum_i b_i 2^i: rows run over sites >= cut, columns over A.
    mat = psi.reshape(2 ** (length - cut), 2 ** cut)
    if mat.shape[0] < mat.shape[1]:
        # canonical orientation makes the cut <-> length-cut symmetry exact
        mat = mat.T
    sv = np.linalg.svd(mat, compute_uv=False)
    probs = sv * sv
    probs = probs[probs > 1e-18]
    return float(-np.sum(probs * np.log(probs)))

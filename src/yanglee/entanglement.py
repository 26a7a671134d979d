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
from .numerics.eig import dense_eig
from .ssh import SSHParams, bloch_hamiltonian, dispersion, exceptional_momentum

_FILLINGS = ("im_neg", "im_pos")
_DEGENERACY_EPS = 1e-14


def binary_entropy(x) -> complex:
    """h(x) with principal logs; exact zeros at x = +-1, h(0) = ln 2."""
    x = complex(x)
    out = 0.0 + 0.0j
    for sign in (1.0, -1.0):
        q = 0.5 * (1.0 + sign * x)
        if abs(q) < _DEGENERACY_EPS:
            continue
        out -= q * np.log(q)
    return complex(out)


@dataclass
class CorrelationMatrix:
    """Filled-band two-point function on a subsystem.

    entries[2*i + a, 2*j + b] couples (cell i, sublattice a) to
    (cell j, sublattice b); convention is "LR" for the biorthogonal
    ground pair or "RR" for the right state alone.
    """

    entries: np.ndarray
    convention: str
    filling: str
    subsystem_cells: int


@dataclass
class EEResult:
    entropy: complex
    entropy_real: float
    eigenvalues: np.ndarray
    subsystem_length: int


def _filled_projectors(p: SSHParams, grid: np.ndarray, filling: str,
                       convention: str) -> np.ndarray:
    """Spectral projectors of the filled band, one 2x2 matrix per momentum.

    Fills the -E branch (negative real part, or negative imaginary part
    on the broken arc); ``im_pos`` flips the choice on the arc only.
    LR projectors (H + lam) / (2 lam) are one array expression over the
    grid; RR projectors need each right eigenvector from ``dense_eig``.
    """
    h = bloch_hamiltonian(p, grid)
    e = dispersion(p, grid)
    if np.min(np.abs(e)) < 1e-12:
        raise DomainError("projector undefined at a band degeneracy")
    fill_upper = (filling == "im_pos") & (np.abs(e.real) < 1e-12)
    lam = np.where(fill_upper, e, -e)
    if convention == "LR":
        return ((h + lam[:, None, None] * np.eye(2))
                / (2.0 * lam)[:, None, None])
    projectors = np.empty_like(h)
    for i, (hk, lk) in enumerate(zip(h, lam)):
        es = dense_eig(hk)
        r = es.right_vectors[:, int(np.argmin(np.abs(es.values - lk)))]
        projectors[i] = np.outer(r, r.conj()) / np.vdot(r, r)
    return projectors


def ssh_correlation_matrix(p: SSHParams, cells: int, subsystem_cells: int,
                           filling: str = "im_neg",
                           convention: str = "LR") -> CorrelationMatrix:
    """Subsystem two-point matrix from the half-integer momentum grid.

    C[(i,a),(j,b)] = (1/L) sum_m exp(i k_m (i - j)) P(k_m)_{ab} with
    k_m = 2 pi (m + 1/2) / L, one filled band per momentum.  The offset
    grid avoids band degeneracies; if a grid point still falls within
    1e-8 of an exceptional momentum the grid is shifted by a quarter
    cell, and a DomainError is raised if that fails too.
    """
    if cells % 2 != 0:
        raise DomainError("total cell count must be even")
    if not 1 <= subsystem_cells <= cells // 2:
        raise DomainError("need 1 <= subsystem_cells <= cells/2")
    if filling not in _FILLINGS:
        raise DomainError(f"filling must be one of {_FILLINGS}")
    if convention not in ("LR", "RR"):
        raise DomainError("convention must be 'LR' or 'RR'")
    k_e = exceptional_momentum(p)
    grid = None
    for offset in (0.5, 0.75):
        cand = 2.0 * math.pi * (np.arange(cells) + offset) / cells
        # Compare against both +-k_E folded into [0, 2 pi).
        if k_e is None:
            grid = cand
            break
        dist = np.minimum(np.abs(cand - k_e),
                          np.abs(cand - (2.0 * math.pi - k_e)))
        if np.min(dist) > 1e-8 and np.min(np.abs(dispersion(p, cand))) > 1e-10:
            grid = cand
            break
    if grid is None:
        raise DomainError("momentum grid keeps hitting an exceptional point")
    projectors = _filled_projectors(p, grid, filling, convention)
    dists = np.arange(-(subsystem_cells - 1), subsystem_cells)
    phases = np.exp(1j * np.outer(dists, grid))  # (n_dist, L)
    g = np.tensordot(phases, projectors, axes=(1, 0)) / cells  # (n_dist, 2, 2)
    n = 2 * subsystem_cells
    c = np.empty((n, n), dtype=complex)
    for i in range(subsystem_cells):
        for j in range(subsystem_cells):
            c[2 * i: 2 * i + 2, 2 * j: 2 * j + 2] = g[(i - j) + subsystem_cells - 1]
    return CorrelationMatrix(entries=c, convention=convention, filling=filling,
                             subsystem_cells=subsystem_cells)


def ee_from_correlation(c: CorrelationMatrix) -> EEResult:
    """Entropy sum over the eigenvalues of gamma = I - 2C."""
    gamma = np.eye(c.entries.shape[0]) - 2.0 * c.entries
    es = dense_eig(gamma)
    s = sum(binary_entropy(lam) for lam in es.values)
    return EEResult(entropy=complex(s), entropy_real=float(np.real(s)),
                    eigenvalues=es.values,
                    subsystem_length=c.subsystem_cells)


@dataclass
class EEScalingFit:
    slope: float
    intercept: float
    classification: str  # "SubareaLaw" or "AreaLaw"
    filling: str
    subsystem_cells: np.ndarray
    entropies: np.ndarray  # complex S per subsystem size


def ee_scaling_fit(p: SSHParams, cells: int, subsystem_sizes: Sequence[int],
                   filling: str = "im_neg",
                   convention: str = "LR") -> EEScalingFit:
    """Least-squares fit of Re S against ln L_A and an area/subarea verdict."""
    sizes = np.asarray(sorted(subsystem_sizes), dtype=int)
    if sizes.size < 5 or sizes[-1] < 4 * sizes[0]:
        raise DomainError("need >= 5 subsystem sizes spanning a factor of 4")
    entropies = []
    for la in sizes:
        c = ssh_correlation_matrix(p, cells, int(la), filling=filling,
                                   convention=convention)
        entropies.append(ee_from_correlation(c).entropy)
    entropies = np.array(entropies)
    slope, intercept = np.polyfit(np.log(sizes), entropies.real, 1)
    label = "SubareaLaw" if slope > 0.05 else "AreaLaw"
    return EEScalingFit(slope=float(slope), intercept=float(intercept),
                        classification=label, filling=filling,
                        subsystem_cells=sizes, entropies=entropies)


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

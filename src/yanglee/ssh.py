"""Two-band PT-symmetric chain with an imaginary staggered potential.

The single-particle Bloch matrix is

    H_k = [[ i*u,            v + w*exp(-i*k) ],
           [ v + w*exp(i*k), -i*u            ]]

with intracell hopping v, intercell hopping w and gain/loss strength u,
all nonnegative.  The bands are +-E_k with E_k^2 = |v + w e^{ik}|^2 - u^2,
which is real: the spectrum at each momentum is either a real pair or a
purely imaginary pair.  Three phases meet at |w - v| = u: two PT-unbroken
gapped phases (trivial for w - v < -u, topological for w - v > u) and a
PT-broken gapless phase in between, where an arc of imaginary energies
stretches between exceptional momenta +-k_E with
cos k_E = (u^2 - v^2 - w^2) / (2 v w).

The grand-canonical partition function at mu = 0 factorizes over momenta,
Z = prod_k (1 + e^{-beta E_k})(1 + e^{beta E_k}), so Z = 0 exactly when
some mode satisfies Re E_k = 0 and Im E_k = (2n+1) pi / beta.  Those
mode zeros, their count chi, the finite-temperature region scan (chi
per cell and the zero region's edges per temperature), and the
correlation functions of the gapped phases, at T = 0 only, live here.

Closed forms replace iteration where one exists.  The mode momenta
solve cos k_n = (u^2 - t_n^2 - v^2 - w^2) / (2 v w) with
t_n = (2n+1) pi / beta, and the admissible n have closed-form bounds.
The region scan is one array pass: the bounds of every (T, w - v) cell
come from one broadcast call of the routine that ``chi_count`` calls
with scalars.

The T = 0 two-point function of the filled band is built once, here,
for both the correlator rows and the entanglement engine:
``filled_projector`` gives the band projector at any array of momenta,
``near_exceptional`` is the one test for a momentum too close to +-k_E,
and ``fourier_table`` turns projector values on an equispaced grid into
the two-point function at a list of cell distances by one FFT.  A whole
row of correlators C(1..x_max) is that trapezoidal sum for one channel.
In the gapped phases the momentum integrand is periodic and analytic in
the strip |Im k| < 1/xi, so the sum converges geometrically in the node
count (Trefethen and Weideman, SIAM Rev. 56, 385 (2014)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CertificateError, DomainError

# perfbench's span recorder patches this name; nothing calls it; ROADMAP item 1b removes it.
adaptive_integrate = None

_EXCEPTIONAL_RADIUS = 1e-8


@dataclass(frozen=True)
class SSHParams:
    """Hopping pair (v, w) and imaginary staggered potential u, all >= 0."""

    u: float
    v: float
    w: float

    def __post_init__(self):
        _check_params(self.u, self.v, self.w)


def _check_params(u, v, w) -> None:
    """DomainError unless u, v, w are finite and >= 0, v and w not both 0.

    Elementwise over arrays, so a scan checks its whole grid at once.
    """
    u, v, w = (np.asarray(a, dtype=float) for a in (u, v, w))
    if not (np.isfinite(u).all() and np.isfinite(v).all() and np.isfinite(w).all()):
        raise DomainError("u, v, w must be finite")
    if (u < 0).any() or (v < 0).any() or (w < 0).any():
        raise DomainError("u, v, w must be nonnegative")
    if ((v == 0) & (w == 0)).any():
        raise DomainError("at least one of v, w must be positive")


@dataclass
class SSHZeroSet:
    """Solutions (k, n) of Re E_k = 0, Im E_k = (2n+1) pi / beta with n >= 0."""

    beta: float
    entries: list[tuple[float, int]]
    chi: int


def bloch_hamiltonian(p: SSHParams, k) -> np.ndarray:
    """Bloch matrix H_k; an array of momenta gives a stack of shape (..., 2, 2)."""
    off = p.v + p.w * np.exp(-1j * np.asarray(k, dtype=float))
    h = np.empty(off.shape + (2, 2), dtype=complex)
    h[..., 0, 0] = 1j * p.u
    h[..., 0, 1] = off
    h[..., 1, 0] = np.conj(off)
    h[..., 1, 1] = -1j * p.u
    return h


def dispersion(p: SSHParams, k):
    """Principal band energy E_k: Re >= 0, and Im >= 0 where Re = 0.

    Accepts scalar or ndarray momenta.
    """
    arg = p.v * p.v + p.w * p.w + 2.0 * p.v * p.w * np.cos(k) - p.u * p.u
    e = np.sqrt(np.asarray(arg, dtype=complex))
    return e if e.ndim else complex(e)


def _exceptional_cosine(u, v, w):
    """(c, exists): c = (u^2 - v^2 - w^2) / (2 v w) = cos k_E, elementwise.

    ``exists`` marks where k_E = arccos c is a gap closing in (0, pi]:
    v w > 0 and -1 <= c < 1 (arccos c > 0 for every float c < 1).
    """
    u, v, w = (np.asarray(a, dtype=float) for a in (u, v, w))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = (u * u - v * v - w * w) / (2.0 * v * w)
    return c, (v * w > 0) & (-1.0 <= c) & (c < 1.0)


def exceptional_momentum(p: SSHParams) -> Optional[float]:
    """Positive momentum of the gap closing, if one exists in (0, pi]."""
    c, exists = _exceptional_cosine(p.u, p.v, p.w)
    return float(np.arccos(c)) if exists else None


def mode_partition_factor(p: SSHParams, k: float, beta: float) -> complex:
    """(1 + e^{-w})(1 + e^{w}) = 4 cosh^2(w/2), w = beta E_k, for the single mode k.

    Raises ``DomainError`` unless beta is finite and positive, and when
    |Re w| > 709, where the value overflows float64.
    """
    if not (math.isfinite(beta) and beta > 0):
        raise DomainError("beta must be finite and positive")
    w = beta * dispersion(p, k)
    if abs(w.real) > 709.0:
        raise DomainError(f"|Re beta E_k| = {abs(w.real):.4g} > 709 overflows float64")
    return complex(4.0 * np.cosh(0.5 * w) ** 2)


def _square(x) -> np.ndarray:
    """x ** 2 elementwise, rounded as ``float.__pow__`` (libm pow) rounds it.

    libm's pow can differ from x * x in the last bit; squaring through it
    keeps E_max, and so every count, on the bits of the scalar formula.
    """
    return np.asarray(np.asarray(x, dtype=float).astype(object) ** 2, dtype=float)


def _broken_band_edges(u, v, w):
    """(broken, im_lo, e_max) elementwise over broadcast u, v, w.

    ``broken`` marks the PT-broken points |v - w| < u; there im_lo and
    e_max are Im E at the start and the end of the imaginary arc, and
    both are 0 elsewhere.
    """
    u, v, w = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (u, v, w)))
    broken = np.abs(v - w) < u
    e_max = np.sqrt(np.where(broken, u * u - _square(v - w), 0.0))
    _, from_ep = _exceptional_cosine(u, v, w)
    # Without an exceptional momentum the whole zone is imaginary
    # (u >= v + w), and the arc starts at Im E(k = 0).
    im_k0 = np.sqrt((v * v + w * w + 2.0 * v * w - u * u).astype(complex)).imag
    im_lo = np.where(broken & ~from_ep, im_k0, 0.0)
    return broken, im_lo, e_max


_EXACT_INDEX = 2.0 ** 53
# Scan grid cells and zero-mode list entries.  At the cap (2 vCPU) the scan
# takes 0.3 s and ssh-zeros-scan 4 s at a peak RSS near 230 MB, printing a
# 142 MB table; ssh-chi takes 1.2 s and peaks at 771 MB.
_SIZE_CAP = 1 << 22


def _mode_range(u, v, w, beta) -> tuple[np.ndarray, np.ndarray]:
    """(n_lo, n_hi) elementwise: mode n >= 0 is a zero mode when n_lo <= n <= n_hi.

    Mode n is admissible when t_n = (2n+1) pi / beta lies on the
    imaginary arc, between Im E at its start and E_max.  The closed-form
    bounds are settled on the computed t_n, which increases with n, so a
    t_n that rounds onto an arc edge is in or out for every caller alike;
    each settling step repeats on the points it still moves.  The range
    is empty (n_hi < n_lo) when no t_n fits; in the flat band v w = 0
    rounding can put Im E at the arc's start above E_max.  Raises
    ``DomainError`` unless beta is finite and positive, and where
    beta E_max / pi reaches 2^53, past which t_n is no longer exact.
    """
    beta = np.asarray(beta, dtype=float)
    if not np.all(np.isfinite(beta) & (beta > 0)):
        raise DomainError("beta must be finite and positive")
    broken, im_lo, e_max = _broken_band_edges(u, v, w)
    broken, im_lo, e_max, beta = np.broadcast_arrays(broken, im_lo, e_max, beta)
    n_lo = np.zeros(broken.shape, dtype=np.int64)
    n_hi = np.full(broken.shape, -1, dtype=np.int64)
    im_lo, e_max, beta = im_lo[broken], e_max[broken], beta[broken]
    x_lo, x_hi = beta * im_lo / math.pi, beta * e_max / math.pi
    if np.any(np.maximum(x_lo, x_hi) >= _EXACT_INDEX):
        raise DomainError("beta E_max / pi reaches 2^53: mode energies "
                          "(2n+1) pi / beta are no longer exact")
    lo = np.maximum(0.0, np.ceil((x_lo - 1.0) / 2.0)).astype(np.int64)
    hi = np.floor((x_hi - 1.0) / 2.0).astype(np.int64)

    def t(n):
        return (2 * n + 1) * math.pi / beta

    while (step := (lo > 0) & (t(lo - 1) >= im_lo)).any():
        lo -= step
    while (step := t(lo) < im_lo).any():
        lo += step
    while (step := t(hi + 1) <= e_max).any():
        hi += step
    while (step := (hi >= 0) & (t(hi) > e_max)).any():
        hi -= step
    n_lo[broken], n_hi[broken] = lo, hi
    return n_lo, n_hi


def chi_count(p: SSHParams, beta: float) -> int:
    """Number of mode zeros, counting n >= 0 only.

    Equals len(yang_lee_root_count(...).entries); Im E_k is monotone on
    the imaginary arc, so each admissible n pairs with exactly one
    momentum.
    """
    n_lo, n_hi = _mode_range(p.u, p.v, p.w, beta)
    return max(0, int(n_hi - n_lo + 1))


def yang_lee_root_count(p: SSHParams, beta: float) -> SSHZeroSet:
    """Enumerate the (k, n) zero modes at inverse temperature beta.

    The admissible n come from ``_mode_range``.  On the arc
    E_k = i sqrt(u^2 - |v + w e^{ik}|^2), so Im E_k = t_n has the one
    solution cos k_n = (u^2 - t_n^2 - v^2 - w^2) / (2 v w) in [0, pi].
    In the flat band v w = 0 every momentum solves it and k = 0 is
    reported.  Raises ``DomainError``, before the list, above 2^22 entries.
    """
    n_lo, n_hi = _mode_range(p.u, p.v, p.w, beta)
    if n_hi - n_lo >= _SIZE_CAP:
        raise DomainError(f"{n_hi - n_lo + 1} zero modes exceed the cap of {_SIZE_CAP}")
    n = np.arange(int(n_lo), int(n_hi) + 1)
    t = (2 * n + 1) * math.pi / beta
    if p.v * p.w > 0:
        c = (p.u * p.u - t * t - p.v * p.v - p.w * p.w) / (2.0 * p.v * p.w)
        k = np.arccos(np.clip(c, -1.0, 1.0))
    else:
        k = np.zeros(t.shape)
    entries = list(zip(k.tolist(), n.tolist()))
    return SSHZeroSet(beta=beta, entries=entries, chi=len(entries))


@dataclass
class RegionScan:
    """Zero count over a (w - v, T) grid at fixed u; a cell has zeros where chi > 0."""

    chi: np.ndarray  # int, shape (len(T), len(wv))
    boundary: list[tuple[float, Optional[float], Optional[float]]]


def _detuning_hoppings(wv):
    """(v, w) with w - v = wv elementwise, the smaller of the two at 1."""
    wv = np.asarray(wv, dtype=float)
    up = wv >= 0
    return np.where(up, 1.0, 1.0 - wv), np.where(up, 1.0 + wv, 1.0)


def params_from_detuning(u: float, wv: float) -> SSHParams:
    """Hoppings with w - v = wv, the smaller of the two at 1, both nonnegative.

    The zero condition depends on the hoppings only through |v - w|, so
    the embedding is immaterial for the scan.
    """
    v, w = _detuning_hoppings(wv)
    return SSHParams(u=u, v=float(v), w=float(w))


def _check_scan_cells(cells: int) -> None:
    if cells > _SIZE_CAP:
        raise DomainError(f"scan grid of {cells} cells exceeds the cap of {_SIZE_CAP}")


def zeros_region_scan(u: float, wv_values, temperatures) -> RegionScan:
    """chi over the grid plus the per-row detuning edges of the zero region.

    One array pass: the hoppings of ``params_from_detuning``, the arc
    edges and the settled mode range of every (T, w - v) cell come from
    the broadcast routines that ``chi_count`` calls with scalars, so each
    cell holds chi_count(params_from_detuning(u, wv), 1 / T).  Raises
    ``DomainError`` before any work for a grid of more than 2^22 cells.
    """
    wv_values = np.asarray(wv_values, dtype=float)
    temperatures = np.asarray(temperatures, dtype=float)
    _check_scan_cells(wv_values.size * temperatures.size)
    if np.any(temperatures <= 0):
        raise DomainError("temperatures must be positive")
    v, w = _detuning_hoppings(wv_values)
    _check_params(u, v, w)
    n_lo, n_hi = _mode_range(u, v, w, 1.0 / temperatures[:, None])
    chi = np.maximum(n_hi - n_lo + 1, 0)
    boundary: list[tuple[float, Optional[float], Optional[float]]] = []
    for t, row in zip(temperatures.tolist(), chi > 0):
        idx = np.flatnonzero(row)
        if idx.size:
            boundary.append((t, float(wv_values[idx[0]]), float(wv_values[idx[-1]])))
        else:
            boundary.append((t, None, None))
    return RegionScan(chi=chi, boundary=boundary)


# --- the filled band: projector and Fourier table --------------------------

def near_exceptional(p: SSHParams, k) -> bool:
    """Whether some momentum in k lies within 1e-8 of +-k_E (mod 2 pi)."""
    k_e = exceptional_momentum(p)
    if k_e is None:
        return False
    folded = np.abs(np.mod(np.asarray(k, dtype=float) + math.pi,
                           2.0 * math.pi) - math.pi)
    return bool(np.min(np.abs(folded - k_e)) < _EXCEPTIONAL_RADIUS)


def filled_projector(p: SSHParams, k, filling: str = "im_neg",
                     convention: str = "LR") -> np.ndarray:
    """Spectral projector of the filled band at momenta k, shape k.shape + (2, 2).

    Fills the -E branch (negative real part, or negative imaginary part
    on the broken arc); ``im_pos`` flips the choice on the arc only.
    The LR projector P = (H + lam) / (2 lam) = r l^dag / (l^dag r) is one
    array expression over the momenta.  P P^dag is proportional to
    r r^dag, so the RR projector r r^dag / (r^dag r) is P P^dag / tr(P P^dag).
    """
    h = bloch_hamiltonian(p, k)
    e = np.asarray(dispersion(p, k))
    if np.min(np.abs(e)) < 1e-12:
        raise DomainError("projector undefined at a band degeneracy")
    fill_upper = (filling == "im_pos") & (np.abs(e.real) < 1e-12)
    lam = np.where(fill_upper, e, -e)[..., None, None]
    lr = (h + lam * np.eye(2)) / (2.0 * lam)
    if convention == "LR":
        return lr
    pp = lr @ lr.conj().swapaxes(-1, -2)
    return pp / np.trace(pp, axis1=-2, axis2=-1)[..., None, None]


def fourier_table(values: np.ndarray, offset: float, dists: np.ndarray) -> np.ndarray:
    """(1/N) sum_m exp(i k_m d) values[m] for each distance d in ``dists``.

    On the grid k_m = 2 pi (m + offset) / N, with m running over axis 0 of
    ``values``, this is exp(2 pi i offset d / N) * ifft(values)[d mod N].
    Row j of the result holds distance dists[j]; the trailing axes of
    ``values`` are kept.
    """
    n = values.shape[0]
    phase = np.exp(2j * math.pi * offset * dists / n)
    table = np.fft.ifft(values, axis=0)[dists % n]
    return phase.reshape(phase.shape + (1,) * (values.ndim - 1)) * table


# --- correlation functions ------------------------------------------------

_CHANNELS = ("AA", "AB", "BA", "BB")


def corr_momentum(p: SSHParams, k, channel: str):
    """T = 0 two-point function <c_alpha^dag c_beta> at momentum k (LR ground pair).

    The entry P[beta, alpha] of the LR ``filled_projector``.  The lower
    band is fully occupied and the upper one empty, which needs a real
    gap at k.  Vectorized in k.
    """
    if channel not in _CHANNELS:
        raise DomainError(f"channel must be one of {_CHANNELS}")
    if near_exceptional(p, k):
        raise DomainError(
            "momentum within the exclusion radius of an exceptional point")
    e = dispersion(p, k)
    if np.min(np.real(e)) <= _EXCEPTIONAL_RADIUS:
        raise DomainError("T = 0 correlators need a real gap (PT-unbroken mode)")
    alpha, beta = ("AB".index(s) for s in channel)
    out = filled_projector(p, k)[..., beta, alpha]
    return out if out.ndim else complex(out)


_FIRST_NODES = 64
_MAX_NODES = 2 ** 18


def corr_row(p: SSHParams, x_max: int, channel: str,
             tol: float = 1e-9) -> np.ndarray:
    """Zero-temperature correlators C(1..x_max) from one trapezoidal FFT.

    C(x) = (1/2 pi) int_0^{2 pi} corr_momentum(k) e^{ikx} dk.  On N
    equispaced nodes k_j = 2 pi j / N the trapezoidal rule gives
    C(x) = ``fourier_table`` of the node values at offset 0, every x at
    once.  N starts at the larger of 64 and the power of two >= 4 x_max
    and doubles until two successive rows differ by at most tol, an
    absolute tolerance on the k-integral: 2 pi max_x |row_N - row_2N|
    <= tol.  The check also catches aliasing of C(N - x) onto C(x).
    Each doubling evaluates only the new midpoints.  Returns the finer
    row, indexed by x - 1.  Raises CertificateError, carrying that row and
    its estimate, once 2^18 nodes are not enough, and DomainError before
    any work when the first grid would already reach 2^18 nodes (x_max >
    32768).

    Valid in the gapped phases |v - w| > u.
    """
    if x_max < 1:
        raise DomainError("x must be a positive lattice distance")
    if abs(p.v - p.w) <= p.u:
        raise DomainError("T = 0 correlators need the gapped regime |v - w| > u")
    if not tol > 0:
        raise DomainError("tol must be positive")
    n = max(_FIRST_NODES, 1 << (4 * x_max - 1).bit_length())
    if n >= _MAX_NODES:
        raise DomainError(f"x_max must be at most {_MAX_NODES // 8}")
    dists = np.arange(1, x_max + 1)
    f = corr_momentum(p, 2.0 * math.pi * np.arange(n) / n, channel)
    row = fourier_table(f, 0.0, dists)
    while True:
        mid = corr_momentum(p, math.pi * (2 * np.arange(n) + 1) / n, channel)
        f = np.stack([f, mid], axis=1).ravel()
        n *= 2
        finer = fourier_table(f, 0.0, dists)
        estimate = 2.0 * math.pi * float(np.max(np.abs(finer - row)))
        row = finer
        if estimate <= tol:
            return row
        if n >= _MAX_NODES:
            raise CertificateError(
                f"correlator row estimate {estimate:.3e} above tol {tol:.3e} "
                f"with {n} nodes", best=row, residual=estimate)


def corr_real(p: SSHParams, x: int, channel: str, tol: float = 1e-9) -> complex:
    """Zero-temperature correlator at lattice distance x >= 1: corr_row's entry.

    Valid in the gapped phases |v - w| > u.
    """
    return complex(corr_row(p, x, channel, tol)[x - 1])


def correlation_length(p: SSHParams) -> float:
    """Exact decay length 1/kappa with cosh(kappa) = (v^2+w^2-u^2)/(2vw).

    kappa is the imaginary part of the analytically continued gap-closing
    momentum; to leading order in delta = |v - w| - u it reduces to
    1/sqrt(2 u delta / (v w)).
    """
    if p.v * p.w <= 0:
        raise DomainError("correlation length needs v w > 0")
    c = (p.v * p.v + p.w * p.w - p.u * p.u) / (2.0 * p.v * p.w)
    if c <= 1.0:
        raise DomainError("correlation length defined in the gapped phase only")
    return 1.0 / float(np.arccosh(c))


def bessel_k0(x):
    """The modified Bessel function K0, elementwise: ``scipy.special.k0``."""
    import scipy.special  # here: it adds 55-85 ms to the CLI's start-up

    return scipy.special.k0(x)


def corr_asymptotic(p: SSHParams, x, channel: str):
    """Near-critical closed form of the gapped T = 0 correlator.

    All four channels decay as exp(-x/xi)/sqrt(x) through K0(x/xi) with
    the correlation length xi of ``correlation_length``, at integer
    distances x.  The staggered factor (-1)^x reflects the band minimum
    sitting at k = pi.  AA and BB carry the prefactor -+ i u / (2 pi
    sqrt(vw)), so they are imaginary; the real off-diagonal channels
    combine neighboring-distance K0 terms through the intracell/intercell
    split of the hopping structure factor.

    ``x`` is an integer >= 1 or an array of them; the result is complex, of
    the same shape.  Each K0 term is one elementwise ``bessel_k0`` call
    over every distance.  BA at x = 1 would need K0(0): that entry is nan + nan i.
    """
    if channel not in _CHANNELS:
        raise DomainError(f"channel must be one of {_CHANNELS}")
    delta = abs(p.v - p.w) - p.u
    if delta <= 0:
        raise DomainError("corr_asymptotic needs delta = |v - w| - u > 0")
    x = np.asarray(x)
    if p.u <= 0 or not np.all((x > 0) & (x % 1 == 0)):
        raise DomainError("corr_asymptotic needs u > 0 and an integer x > 0")
    xi = correlation_length(p)
    kappa = 1.0 / xi
    amp = 2.0 / math.sqrt(p.v * p.w * math.sinh(kappa) / kappa)  # at 1/E_k's branch point

    def kernel(y):
        return amp * bessel_k0(y / xi)

    # -(1/4pi) (-1)^x [a K(x) + b K(x + d)]; AB is -(1/4pi) [v I(x) + w I(x + 1)]
    # with I(y) = (-1)^y K(y) the staggered K0 transform, BA the same at x - 1
    a, b, d = {"AA": (1j * p.u, 0.0, 0), "BB": (-1j * p.u, 0.0, 0),
               "AB": (p.v, -p.w, 1), "BA": (p.v, -p.w, -1)}[channel]
    y = np.maximum(x, 1 - d)  # BA's x = 1 is evaluated at 2, then set to nan
    c = (-(1.0 / (4.0 * math.pi)) * np.where(x % 2, -1.0, 1.0)
         * (a * kernel(y) + (b * kernel(y + d) if d else 0.0)))
    # + 0.0: an exact zero is 0, not -0
    c = np.where(x + d > 0, c + 0.0, complex(math.nan, math.nan))
    return c if c.ndim else complex(c)


@dataclass
class CorrelationSample:
    """T = 0 correlators along integer distances at one detuning delta."""

    delta: float
    params: SSHParams
    xs: np.ndarray
    values: np.ndarray
    xi_closed: float


def collect_correlation_samples(u: float, w: float, deltas) -> list[CorrelationSample]:
    """Sample the T = 0 AA correlator on x in [2 xi, 6 xi], v = u + w + delta.

    Each detuning takes its values from one ``corr_row`` call, to 1e-11.
    """
    samples = []
    for delta in deltas:
        p = SSHParams(u=u, v=u + w + delta, w=w)
        xi = correlation_length(p)
        xs = np.arange(max(1, math.ceil(2.0 * xi)), math.ceil(6.0 * xi) + 1)
        vals = corr_row(p, int(xs[-1]), "AA", tol=1e-11)[xs - 1]
        samples.append(CorrelationSample(delta=float(delta), params=p, xs=xs,
                                         values=vals, xi_closed=xi))
    return samples


@dataclass
class ExponentFit:
    nu: float
    eta: float
    decay_power: float
    xi_table: list[tuple[float, float, float]]  # (delta, xi_fitted, xi_closed)
    warning: Optional[str]


_RESIDUAL_THRESHOLD = 0.05


def fit_exponents(samples: list[CorrelationSample]) -> ExponentFit:
    """Correlation-length exponent nu and anomalous power from sampled data.

    Per delta: fit ln(|C(x)| sqrt(x)) = c - x/xi to extract the decay
    length, then fit the residual power of x.  nu is the log-log slope of
    1/xi against delta; the decay power -p gives eta = 1 + p through the
    one-dimensional scaling form C ~ exp(-x/xi) / x^(eta - 1).
    """
    if len(samples) < 2:
        raise DomainError("need at least two detunings to fit nu")
    xi_fit = []
    powers = []
    max_resid = 0.0
    for s in samples:
        y = np.log(np.abs(s.values)) + 0.5 * np.log(s.xs)
        coef, res = np.polyfit(s.xs, y, 1, full=True)[:2]
        slope = coef[0]
        if slope >= 0:
            raise DomainError(f"no decay at delta={s.delta}")
        xi_fit.append(-1.0 / slope)
        rms = math.sqrt(res[0] / len(s.xs)) if len(res) else 0.0
        max_resid = max(max_resid, rms)
        z = np.log(np.abs(s.values)) + s.xs / xi_fit[-1]
        powers.append(float(np.polyfit(np.log(s.xs), z, 1)[0]))
    deltas = np.array([s.delta for s in samples])
    nu = float(np.polyfit(np.log(deltas), np.log(1.0 / np.array(xi_fit)), 1)[0])
    power = float(np.mean(powers))
    warning = None
    if max_resid > _RESIDUAL_THRESHOLD:
        warning = f"decay fit rms residual {max_resid:.3g} above threshold"
    xi_table = [(s.delta, float(xf), s.xi_closed)
                for s, xf in zip(samples, xi_fit)]
    return ExponentFit(nu=nu, eta=1.0 - power, decay_power=power,
                       xi_table=xi_table, warning=warning)

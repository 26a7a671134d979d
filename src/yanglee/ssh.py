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
mode zeros, their count chi, the finite-temperature region scan, and the
zero-temperature correlation functions of the gapped phases live here.

Closed forms replace iteration where one exists: the mode momenta solve
cos k_n = (u^2 - t_n^2 - v^2 - w^2) / (2 v w) with t_n = (2n+1) pi / beta,
and a whole row of correlators C(1..x_max) is one trapezoidal sum over
an equispaced momentum grid, taken by one FFT.  In the gapped phases the
momentum integrand is periodic and analytic in the strip |Im k| < 1/xi,
so that sum converges geometrically in the node count (Trefethen and
Weideman, SIAM Rev. 56, 385 (2014)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import DomainError, YangLeeError
from .numerics.bessel import bessel_k0
# adaptive_integrate is not called here; perfbench's span recorder wraps
# ssh.adaptive_integrate.
from .numerics.quadrature import QuadratureError, adaptive_integrate  # noqa: F401

CHEMICAL_POTENTIAL = 0.0  # half filling throughout

_EXCEPTIONAL_RADIUS = 1e-8


class SingularPointError(YangLeeError):
    """Evaluation at (or too close to) an exceptional momentum."""


@dataclass(frozen=True)
class SSHParams:
    """Hopping pair (v, w) and imaginary staggered potential u, all >= 0."""

    u: float
    v: float
    w: float

    def __post_init__(self):
        if self.u < 0 or self.v < 0 or self.w < 0:
            raise DomainError("u, v, w must be nonnegative")
        if self.v == 0 and self.w == 0:
            raise DomainError("at least one of v, w must be positive")


class PhaseLabel(str, Enum):
    TRIVIAL_PT_UNBROKEN = "TrivialPTUnbroken"
    PT_BROKEN_GAPLESS = "PTBrokenGapless"
    TOPOLOGICAL_PT_UNBROKEN = "TopologicalPTUnbroken"
    BOUNDARY = "Boundary"


@dataclass
class PhaseDiagnosis:
    label: PhaseLabel
    gap: float
    exceptional_momenta: Optional[tuple[float, float]]


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


def exceptional_momentum(p: SSHParams) -> Optional[float]:
    """Positive momentum of the gap closing, if one exists in (0, pi]."""
    if p.v * p.w <= 0:
        return None
    c = (p.u * p.u - p.v * p.v - p.w * p.w) / (2.0 * p.v * p.w)
    if not -1.0 <= c < 1.0:
        return None
    k = float(np.arccos(c))
    return k if k > 0.0 else None


def phase_diagnostics(p: SSHParams) -> PhaseDiagnosis:
    d = p.w - p.v
    if abs(abs(d) - p.u) <= 1e-12:
        return PhaseDiagnosis(PhaseLabel.BOUNDARY, 0.0, None)
    if abs(d) > p.u:
        gap = 2.0 * math.sqrt(d * d - p.u * p.u)
        label = (PhaseLabel.TOPOLOGICAL_PT_UNBROKEN if d > 0
                 else PhaseLabel.TRIVIAL_PT_UNBROKEN)
        return PhaseDiagnosis(label, gap, None)
    k_e = exceptional_momentum(p)
    momenta = (k_e, -k_e) if k_e is not None else None
    return PhaseDiagnosis(PhaseLabel.PT_BROKEN_GAPLESS, 0.0, momenta)


def mode_partition_factor(p: SSHParams, k: float, beta: float) -> complex:
    """(1 + e^{-beta E_k})(1 + e^{beta E_k}) for the single mode k.

    Evaluated in the log domain when beta*|Re E_k| > 300; the magnitude
    saturates at exp(700) instead of overflowing (the value is then only
    meaningful as "very far from zero").
    """
    if beta <= 0:
        raise DomainError("beta must be positive")
    w = beta * dispersion(p, k)
    if abs(w.real) <= 300.0:
        return complex((1.0 + np.exp(-w)) * (1.0 + np.exp(w)))
    s = 1.0 if w.real > 0 else -1.0
    tail = np.exp(-2.0 * s * w) + 2.0 * np.exp(-s * w)
    log_z = s * w + np.log(1.0 + tail)
    mag = math.exp(min(log_z.real, 700.0))
    return complex(mag * np.exp(1j * log_z.imag))


def _broken_band_edges(p: SSHParams):
    """Im E at both ends of the imaginary arc, (im_lo, e_max); None when gapped."""
    if abs(p.v - p.w) >= p.u:
        return None
    e_max = math.sqrt(p.u * p.u - (p.v - p.w) ** 2)
    if exceptional_momentum(p) is not None:
        return 0.0, e_max
    # Whole zone imaginary (u >= v + w): the arc starts at k = 0.
    return float(dispersion(p, 0.0).imag), e_max


def chi_count(p: SSHParams, beta: float) -> int:
    """Number of mode zeros, counting n >= 0 only.

    Equals len(yang_lee_root_count(...).entries); Im E_k is monotone on
    the imaginary arc, so each admissible n pairs with exactly one
    momentum and the count reduces to counting odd integers below
    beta * E_max / pi.
    """
    if beta <= 0:
        raise DomainError("beta must be positive")
    edges = _broken_band_edges(p)
    if edges is None:
        return 0
    im_lo, e_max = edges
    m_hi = beta * e_max / math.pi
    m_lo = beta * im_lo / math.pi
    if m_hi < 1.0:
        return 0
    n_hi = int(math.floor((m_hi - 1.0) / 2.0))
    n_lo = 0 if m_lo <= 1.0 else int(math.ceil((m_lo - 1.0) / 2.0))
    return max(0, n_hi - n_lo + 1)


def yang_lee_root_count(p: SSHParams, beta: float) -> SSHZeroSet:
    """Enumerate the (k, n) zero modes at inverse temperature beta.

    Mode n >= 0 is admissible when t_n = (2n+1) pi / beta lies on the
    imaginary arc, between Im E at its start and E_max.  On the arc
    E_k = i sqrt(u^2 - |v + w e^{ik}|^2), so Im E_k = t_n has the one
    solution cos k_n = (u^2 - t_n^2 - v^2 - w^2) / (2 v w) in [0, pi].
    In the flat band v w = 0 every momentum solves it and k = 0 is
    reported.
    """
    if beta <= 0:
        raise DomainError("beta must be positive")
    edges = _broken_band_edges(p)
    if edges is None:
        return SSHZeroSet(beta=beta, entries=[], chi=0)
    im_lo, e_max = edges
    n = np.arange(int(beta * e_max / (2.0 * math.pi)) + 1)
    t = (2 * n + 1) * math.pi / beta
    keep = (t >= im_lo) & (t <= e_max)
    n, t = n[keep], t[keep]
    if p.v * p.w > 0:
        c = (p.u * p.u - t * t - p.v * p.v - p.w * p.w) / (2.0 * p.v * p.w)
        k = np.arccos(np.clip(c, -1.0, 1.0))
    else:
        k = np.zeros(t.shape)
    entries = list(zip(k.tolist(), n.tolist()))
    return SSHZeroSet(beta=beta, entries=entries, chi=len(entries))


@dataclass
class RegionScan:
    """Zero-presence table over a (w - v, T) grid at fixed u."""

    u: float
    wv_values: np.ndarray
    temperatures: np.ndarray
    has_zeros: np.ndarray  # bool, shape (len(T), len(wv))
    chi: np.ndarray  # int, same shape
    boundary: list[tuple[float, Optional[float], Optional[float]]]


def params_from_detuning(u: float, wv: float, base: float = 1.0) -> SSHParams:
    """Hoppings with w - v = wv, keeping both nonnegative around ``base``.

    The zero condition depends on the hoppings only through |v - w|, so
    the embedding is immaterial for the scan.
    """
    if wv >= 0:
        return SSHParams(u=u, v=base, w=base + wv)
    return SSHParams(u=u, v=base - wv, w=base)


def zeros_region_scan(u: float, wv_values, temperatures) -> RegionScan:
    """chi over the grid plus the per-row detuning edges of the zero region."""
    wv_values = np.asarray(wv_values, dtype=float)
    temperatures = np.asarray(temperatures, dtype=float)
    if np.any(temperatures <= 0):
        raise DomainError("temperatures must be positive")
    chi = np.zeros((temperatures.size, wv_values.size), dtype=int)
    for it, t in enumerate(temperatures):
        beta = 1.0 / t
        for iw, wv in enumerate(wv_values):
            chi[it, iw] = chi_count(params_from_detuning(u, wv), beta)
    has = chi > 0
    boundary: list[tuple[float, Optional[float], Optional[float]]] = []
    for it, t in enumerate(temperatures):
        row = has[it]
        if not row.any():
            boundary.append((float(t), None, None))
            continue
        idx = np.nonzero(row)[0]
        boundary.append((float(t), float(wv_values[idx[0]]), float(wv_values[idx[-1]])))
    return RegionScan(u=u, wv_values=wv_values, temperatures=temperatures,
                      has_zeros=has, chi=chi, boundary=boundary)


# --- correlation functions ------------------------------------------------

_CHANNELS = ("AA", "AB", "BA", "BB")


def _occupations(e, beta):
    """Mode occupations (f_plus, f_minus) of the +E and -E bands."""
    if beta is None:
        return 0.0, 1.0
    w = beta * e
    # Re e >= 0 by the branch convention, so exp(-w) never overflows.
    em = np.exp(-w)
    return em / (1.0 + em), 1.0 / (1.0 + em)


def corr_momentum(p: SSHParams, k, beta: Optional[float], channel: str):
    """Two-point function <c_alpha^dag c_beta> at momentum k (LR ground pair).

    beta None means the zero-temperature limit, where the lower band is
    fully occupied; that limit assumes a real gap at k.  Vectorized in k.
    """
    if channel not in _CHANNELS:
        raise DomainError(f"channel must be one of {_CHANNELS}")
    if beta is not None and beta <= 0:
        raise DomainError("beta must be positive (or None for T = 0)")
    k_e = exceptional_momentum(p)
    if k_e is not None:
        folded = np.abs(np.mod(np.asarray(k, dtype=float) + math.pi,
                               2.0 * math.pi) - math.pi)
        if np.min(np.abs(folded - k_e)) < _EXCEPTIONAL_RADIUS:
            raise SingularPointError(
                "momentum within the exclusion radius of an exceptional point")
    e = dispersion(p, k)
    if np.min(np.abs(e)) < 1e-12:
        raise SingularPointError("dispersion vanishes: exceptional momentum")
    if beta is None and np.min(np.real(e)) <= _EXCEPTIONAL_RADIUS:
        raise DomainError("T = 0 correlators need a real gap (PT-unbroken mode)")
    vk = p.v + p.w * np.exp(-1j * np.asarray(k, dtype=float))
    f_plus, f_minus = _occupations(e, beta)
    cos_phi = 1j * p.u / e
    cos_half_sq = 0.5 * (1.0 + cos_phi)
    sin_half_sq = 0.5 * (1.0 - cos_phi)
    if channel == "AA":
        out = cos_half_sq * f_plus + sin_half_sq * f_minus
    elif channel == "BB":
        out = sin_half_sq * f_plus + cos_half_sq * f_minus
    else:
        # sin(phi)/2 = |v_k| / (2 E_k)
        cross = (np.abs(vk) / (2.0 * e)) * (f_plus - f_minus)
        phase = np.conj(vk) / np.abs(vk) if channel == "AB" else vk / np.abs(vk)
        out = phase * cross
    out = np.asarray(out)
    return out if out.ndim else complex(out)


_FIRST_NODES = 64
_MAX_NODES = 2 ** 18


def corr_row(p: SSHParams, x_max: int, channel: str,
             tol: float = 1e-9) -> np.ndarray:
    """Zero-temperature correlators C(1..x_max) from one trapezoidal FFT.

    C(x) = (1/2 pi) int_{-pi}^{pi} corr_momentum(k) e^{ikx} dk.  On N
    equispaced nodes k_j = -pi + 2 pi j / N the trapezoidal rule gives
    C(x) = (-1)^x ifft(f)[x] for every x at once.  N starts at the
    larger of 64 and the power of two >= 4 x_max and doubles until two
    successive rows differ by at most tol, an absolute tolerance on the
    k-integral: 2 pi max_x |row_N - row_2N| <= tol.  The check also
    catches aliasing of C(N - x) onto C(x).  Each doubling evaluates
    only the new midpoints.  Returns the finer row, indexed by x - 1.
    Raises QuadratureError, carrying that row and its estimate, once
    2^18 nodes are not enough.

    Valid in the gapped phases |v - w| > u.
    """
    if x_max < 1:
        raise DomainError("x must be a positive lattice distance")
    if abs(p.v - p.w) <= p.u:
        raise DomainError("T = 0 correlators need the gapped regime |v - w| > u")
    if tol <= 0:
        raise DomainError("tol must be positive")
    n = max(_FIRST_NODES, 1 << (4 * x_max - 1).bit_length())
    f = corr_momentum(p, -math.pi + 2.0 * math.pi * np.arange(n) / n, None,
                      channel)
    sign = (-1.0) ** np.arange(1, x_max + 1)

    def row_of(values):
        return sign * np.fft.ifft(values)[1:x_max + 1]

    row = row_of(f)
    while True:
        mid = corr_momentum(p, -math.pi + math.pi * (2 * np.arange(n) + 1) / n,
                            None, channel)
        f = np.stack([f, mid], axis=1).ravel()
        n *= 2
        finer = row_of(f)
        estimate = 2.0 * math.pi * float(np.max(np.abs(finer - row)))
        row = finer
        if estimate <= tol:
            return row
        if n >= _MAX_NODES:
            raise QuadratureError(
                f"correlator row estimate {estimate:.3e} above tol {tol:.3e} "
                f"with {n} nodes", value=row, estimate=estimate)


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


def _k0_matched_amplitude(p: SSHParams) -> float:
    """Amplitude of K0 matched to the exact branch point of 1/E_k."""
    kappa = 1.0 / correlation_length(p)
    return 2.0 / math.sqrt(p.v * p.w * math.sinh(kappa) / kappa)


def corr_asymptotic(p: SSHParams, x: float, channel: str) -> complex:
    """Near-critical closed form of the gapped T = 0 correlator.

    All four channels decay as exp(-x/xi)/sqrt(x) through K0(x/xi) with
    the correlation length xi of ``correlation_length``.  The staggered
    factor exp(i pi x) reflects the band minimum sitting at k = pi.
    AA and BB carry the prefactor -+ i u / (2 pi sqrt(vw)); the
    off-diagonal channels combine neighboring-distance K0 terms through
    the intracell/intercell split of the hopping structure factor.
    """
    if channel not in _CHANNELS:
        raise DomainError(f"channel must be one of {_CHANNELS}")
    delta = abs(p.v - p.w) - p.u
    if delta <= 0:
        raise DomainError("corr_asymptotic needs delta = |v - w| - u > 0")
    if p.u <= 0 or x <= 0:
        raise DomainError("corr_asymptotic needs u > 0 and x > 0")
    if channel == "BA" and x <= 1:
        raise DomainError("BA asymptotic needs x > 1")
    xi = correlation_length(p)
    amp = _k0_matched_amplitude(p)
    stagger = np.exp(1j * math.pi * x)

    def kernel(y: float) -> float:
        return amp * bessel_k0(y / xi)

    if channel == "AA":
        return complex(-stagger * (1j * p.u / (4.0 * math.pi)) * kernel(x))
    if channel == "BB":
        return complex(+stagger * (1j * p.u / (4.0 * math.pi)) * kernel(x))
    if channel == "AB":
        # -(1/4pi) [v I(x) + w I(x+1)] with I the staggered K0 transform
        return complex(-(1.0 / (4.0 * math.pi))
                       * (p.v * stagger * kernel(x)
                          + p.w * stagger * np.exp(1j * math.pi) * kernel(x + 1)))
    return complex(-(1.0 / (4.0 * math.pi))
                   * (p.v * stagger * kernel(x)
                      + p.w * stagger * np.exp(-1j * math.pi) * kernel(x - 1)))


@dataclass
class CorrelationSample:
    """T = 0 correlators along integer distances at one detuning delta."""

    delta: float
    params: SSHParams
    xs: np.ndarray
    values: np.ndarray
    xi_closed: float


def collect_correlation_samples(u: float, w: float, deltas, channel: str = "AA",
                                x_lo: float = 2.0, x_hi: float = 6.0,
                                tol: float = 1e-11) -> list[CorrelationSample]:
    """Sample the T = 0 correlator on x in [x_lo*xi, x_hi*xi], v = u + w + delta.

    Each detuning takes its values from one ``corr_row`` call.
    """
    samples = []
    for delta in deltas:
        p = SSHParams(u=u, v=u + w + delta, w=w)
        xi = correlation_length(p)
        xs = np.arange(max(1, math.ceil(x_lo * xi)), math.ceil(x_hi * xi) + 1)
        vals = corr_row(p, int(xs[-1]), channel, tol=tol)[xs - 1]
        samples.append(CorrelationSample(delta=float(delta), params=p, xs=xs,
                                         values=vals, xi_closed=xi))
    return samples


@dataclass
class ExponentFit:
    nu: float
    eta: float
    decay_power: float
    xi_table: list[tuple[float, float, float]]  # (delta, xi_fitted, xi_closed)
    max_fit_residual: float
    warning: Optional[str]


def fit_exponents(samples: list[CorrelationSample],
                  residual_threshold: float = 0.05) -> ExponentFit:
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
    if max_resid > residual_threshold:
        warning = f"decay fit rms residual {max_resid:.3g} above threshold"
    xi_table = [(s.delta, float(xf), s.xi_closed)
                for s, xf in zip(samples, xi_fit)]
    return ExponentFit(nu=nu, eta=1.0 - power, decay_power=power,
                       xi_table=xi_table, max_fit_residual=max_resid,
                       warning=warning)

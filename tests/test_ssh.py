import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, linalg, special

from yanglee import ssh
from yanglee.errors import CertificateError, DomainError
from yanglee.ssh import (
    SSHParams,
    bloch_hamiltonian,
    chi_count,
    collect_correlation_samples,
    corr_asymptotic,
    corr_momentum,
    corr_real,
    corr_row,
    correlation_length,
    dispersion,
    exceptional_momentum,
    fit_exponents,
    mode_partition_factor,
    params_from_detuning,
    yang_lee_root_count,
    zeros_region_scan,
)


def _oracle_eigvals(a):
    """scipy.linalg.eig's values, sorted by (Re, Im), residual <= 1e-10 |a|_F."""
    values, vectors = linalg.eig(a)
    assert (np.max(np.linalg.norm(a @ vectors - vectors * values, axis=0))
            <= 1e-10 * np.linalg.norm(a))
    return values[np.lexsort((values.imag, values.real))]


# --- dispersion -------------------------------------------------------------

def test_dispersion_examples():
    assert abs(dispersion(SSHParams(0, 1, 2), 0.0) - 3.0) < 1e-12
    assert abs(dispersion(SSHParams(1, 1, 1), math.pi) - 1j) < 1e-12
    k_e = 2.0 * math.pi / 3.0  # cos k_E = -1/2 at u = v = w = 1
    assert abs(dispersion(SSHParams(1, 1, 1), k_e)) < 1e-7


def test_branch_identity_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = SSHParams(*rng.uniform(0.0, 3.0, 3))
        k = rng.uniform(-math.pi, math.pi)
        e = dispersion(p, k)
        vk2 = abs(p.v + p.w * np.exp(1j * k)) ** 2
        assert abs(e * e + p.u ** 2 - vk2) <= 1e-12 * max(1.0, vk2)
        assert e.real >= 0.0
        if abs(e.real) < 1e-14:
            assert e.imag >= 0.0


def test_particle_hole_pairing():
    p = SSHParams(0.8, 1.1, 0.6)
    h = bloch_hamiltonian(p, 0.7)
    assert abs(np.trace(h)) < 1e-14
    values = _oracle_eigvals(h)
    assert abs(values[0] + values[1]) < 1e-12


# --- phases: PT-broken where |v - w| < u ------------------------------------

def _phase(p):
    """(broken, e_max) from the one phase rule, ``ssh._broken_band_edges``."""
    broken, _, e_max = ssh._broken_band_edges(p.u, p.v, p.w)
    return bool(broken), float(e_max)


def test_phase_trivial_gapped():
    p = SSHParams(1.0, 2.5, 1.0)
    assert _phase(p) == (False, 0.0)
    assert abs(2.0 * dispersion(p, math.pi) - 2.0 * math.sqrt(1.5 ** 2 - 1.0)) < 1e-12
    assert exceptional_momentum(p) is None


def test_phase_topological_gapped():
    p = SSHParams(1.0, 1.0, 2.5)
    assert _phase(p) == (False, 0.0)
    assert abs(2.0 * dispersion(p, math.pi) - 2.0 * math.sqrt(1.5 ** 2 - 1.0)) < 1e-12


def test_phase_broken_with_exceptional_momenta():
    p = SSHParams(1.0, 1.0, 1.5)
    broken, e_max = _phase(p)
    assert broken and abs(e_max - math.sqrt(1.0 - 0.5 ** 2)) < 1e-12
    assert (2.0 * dispersion(p, math.pi)).real == 0.0
    k_e = exceptional_momentum(p)
    assert abs(k_e - math.acos(-0.75)) < 1e-12
    assert abs(dispersion(p, k_e)) < 1e-7


def test_phase_boundary():
    p = SSHParams(1.0, 1.0, 2.0)
    assert _phase(p) == (False, 0.0)
    assert 2.0 * dispersion(p, math.pi) == 0.0


# --- single-mode partition factor -------------------------------------------

def test_mode_factor_real_energy():
    val = mode_partition_factor(SSHParams(0, 1, 2), 0.0, 1.0)
    assert abs(val - (2.0 + 2.0 * math.cosh(3.0))) < 1e-12


def test_mode_factor_vanishes_at_zero_condition():
    # u = v = w = 1 at k = pi gives E = i; beta = pi puts Im(beta E) at pi
    val = mode_partition_factor(SSHParams(1, 1, 1), math.pi, math.pi)
    assert abs(val) < 1e-12


def test_mode_factor_fock_trace_oracle():
    # single-mode many-body spectrum {0, E, -E, 0} assembled from the Bloch
    # matrix in second quantization; its Boltzmann trace must reproduce the
    # product form exactly
    rng = np.random.default_rng(123)
    for _ in range(20):
        p = SSHParams(*rng.uniform(0.1, 2.0, 3))
        k = rng.uniform(-math.pi, math.pi)
        beta = rng.uniform(0.2, 5.0)
        h = bloch_hamiltonian(p, k)
        fock = np.zeros((4, 4), dtype=complex)
        fock[1:3, 1:3] = h
        fock[3, 3] = h[0, 0] + h[1, 1]
        z_fock = np.exp(-beta * _oracle_eigvals(fock)).sum()
        z_mode = mode_partition_factor(p, k, beta)
        assert abs(z_fock - z_mode) <= 1e-12 * abs(z_mode)


def test_mode_factor_overflow_guard():
    # E = 3 at k = 0: |Re beta E| = 708 is below the float64 limit, 711 above
    val = mode_partition_factor(SSHParams(0, 1, 2), 0.0, 236.0)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    assert val == pytest.approx(math.exp(708.0), rel=1e-12)
    with pytest.raises(DomainError, match="709"):
        mode_partition_factor(SSHParams(0, 1, 2), 0.0, 237.0)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf, 0.0])
def test_mode_factor_rejects_bad_beta(beta):
    with pytest.raises(DomainError, match="finite and positive"):
        mode_partition_factor(SSHParams(1, 1, 1), 0.3, beta)


# --- zero counting ----------------------------------------------------------

def test_chi_example_beta_100():
    zero_set = yang_lee_root_count(SSHParams(1, 1, 1), 100.0)
    assert zero_set.chi == 16
    assert chi_count(SSHParams(1, 1, 1), 100.0) == 16


def test_chi_density_limit():
    for beta in (50.0, 100.0, 400.0):
        chi = chi_count(SSHParams(1, 1, 1), beta)
        assert abs(chi / beta - 1.0 / (2.0 * math.pi)) <= 1.0 / beta


def test_chi_gapped_zero():
    assert yang_lee_root_count(SSHParams(1.0, 2.5, 1.0), 100.0).chi == 0


def test_zero_entries_satisfy_zero_condition():
    p = SSHParams(1.0, 1.2, 0.8)
    zero_set = yang_lee_root_count(p, 80.0)
    assert zero_set.chi > 0
    for k, n in zero_set.entries:
        e = dispersion(p, k)
        assert abs(e.real) <= 1e-10
        assert abs(e.imag - (2 * n + 1) * math.pi / 80.0) <= 1e-8
        assert abs(mode_partition_factor(p, k, 80.0)) <= 1e-8


def _bisection_modes(p, beta):
    """Mode indices n and momenta k by bisection on the imaginary arc.

    The reference for the closed form: n runs up while t_n = (2n+1) pi / beta
    stays below E_max, keeping t_n >= Im E at the start of the arc, and each
    Im E_k = t_n is bisected on [start, pi] (vectorized over n).
    """
    if abs(p.v - p.w) >= p.u:
        return [], np.array([])
    e_max = math.sqrt(p.u ** 2 - (p.v - p.w) ** 2)
    k_e = exceptional_momentum(p)
    if k_e is not None:
        k_lo, im_lo = k_e, 0.0
    else:
        k_lo, im_lo = 0.0, float(dispersion(p, 0.0).imag)
    modes, targets = [], []
    n = 0
    while (2 * n + 1) * math.pi / beta <= e_max:
        target = (2 * n + 1) * math.pi / beta
        if target >= im_lo:
            modes.append(n)
            targets.append(target)
        n += 1
    t = np.array(targets)
    lo, hi = np.full(t.shape, k_lo), np.full(t.shape, math.pi)
    f_lo = dispersion(p, lo).imag - t
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f_mid = dispersion(p, mid).imag - t
        left = f_lo * f_mid <= 0
        hi = np.where(left, mid, hi)
        lo, f_lo = np.where(left, lo, mid), np.where(left, f_lo, f_mid)
    return modes, 0.5 * (lo + hi)


def test_closed_form_modes_match_bisection():
    rng = np.random.default_rng(11)
    cases = [(SSHParams(1.0, 1.0, 1.0), 1e5), (SSHParams(1.0, 0.97, 1.02), 1e5),
             (SSHParams(2.5, 0.6, 0.9), 1e5),  # whole zone on the arc
             (SSHParams(1.0, 0.0, 0.6), math.pi / 0.8)]  # flat band, t_0 = E
    for _ in range(200):
        u, v, w = rng.uniform(0.2, 2.0), *rng.uniform(0.05, 2.0, 2)
        cases.append((SSHParams(u, v, w), 10.0 ** rng.uniform(0.0, 4.0)))
    for p, beta in cases:
        zero_set = yang_lee_root_count(p, beta)
        modes, k_ref = _bisection_modes(p, beta)
        assert [n for _, n in zero_set.entries] == modes
        k_new = np.array([k for k, _ in zero_set.entries])
        assert np.all(np.abs(np.cos(k_new) - np.cos(k_ref)) <= 1e-12)
        assert zero_set.chi == len(modes) == chi_count(p, beta)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(u=st.floats(0.0, 3.0), v=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
       w=st.floats(0.01, 2.0), beta=st.floats(0.1, 1e3),
       edge=st.sampled_from((None, "im_lo", "e_max")), n=st.integers(0, 40),
       ulps=st.integers(-1, 1))
def test_mode_count_property(u, v, w, beta, edge, n, ulps):
    # with ``edge`` set, beta puts t_n = (2n+1) pi / beta on that end of the
    # arc, give or take one step in beta (``ulps``), where rounding decides
    # the count
    p = SSHParams(u, v, w)
    if edge is not None:
        assume(abs(v - w) < u)
        if edge == "e_max":
            end = math.sqrt(u * u - (v - w) ** 2)
        else:
            end = (0.0 if exceptional_momentum(p) is not None
                   else float(dispersion(p, 0.0).imag))
        assume(end > 1e-6)
        beta = (2 * n + 1) * math.pi / end
        if ulps:
            beta = math.nextafter(beta, math.copysign(math.inf, ulps))
    zero_set = yang_lee_root_count(p, beta)
    modes, _ = _bisection_modes(p, beta)
    assert [m for _, m in zero_set.entries] == modes
    assert zero_set.chi == len(modes) == chi_count(p, beta)


def test_mode_range_lowers_n_lo_onto_an_arc_start_tie():
    # u >= v + w: the arc starts at Im E(k = 0), and at this beta t_6 equals
    # it exactly, while beta Im E / pi rounds above 13, so the closed form
    # alone puts n_lo at 7; t_6 lies on the arc, so it is a zero mode
    u, v, w, beta = 1.9706733169075723, 0.25, 0.25, 21.425326857885153
    p = SSHParams(u, v, w)
    start = float(dispersion(p, 0.0).imag)
    end = math.sqrt(u * u - (v - w) ** 2)
    assert (2 * 6 + 1) * math.pi / beta == start
    assert math.ceil((beta * start / math.pi - 1.0) / 2.0) == 7
    n_lo, n_hi = ssh._mode_range(u, v, w, beta)
    modes = [n for n in range(100) if start <= (2 * n + 1) * math.pi / beta <= end]
    assert (int(n_lo), int(n_hi)) == (modes[0], modes[-1]) and modes[0] == 6
    assert [n for _, n in yang_lee_root_count(p, beta).entries] == modes
    assert chi_count(p, beta) == len(modes)


def test_chi_monotone_in_beta():
    p = SSHParams(1.0, 1.3, 0.9)
    counts = [chi_count(p, b) for b in (5.0, 20.0, 80.0, 320.0)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


# --- region scan ------------------------------------------------------------

def test_region_scan_low_temperature_boundary():
    wv = np.linspace(-2.0, 2.0, 201)
    scan = zeros_region_scan(1.0, wv, np.array([1.0 / 200.0]))
    _, lo, hi = scan.boundary[0]
    cell = wv[1] - wv[0]
    assert abs(hi - 1.0) <= 2 * cell
    assert abs(lo + 1.0) <= 2 * cell


def test_region_scan_shrinks_at_high_temperature():
    wv = np.linspace(-2.0, 2.0, 201)
    cold = zeros_region_scan(1.0, wv, np.array([0.01]))
    hot = zeros_region_scan(1.0, wv, np.array([0.25]))
    assert (hot.chi > 0).sum() < (cold.chi > 0).sum()
    # high-T presence condition: sqrt(u^2 - wv^2) >= pi/beta
    beta = 4.0
    expected = np.sqrt(np.maximum(1.0 - wv ** 2, 0.0)) >= math.pi / beta
    assert np.array_equal(hot.chi[0] > 0, expected)


def test_region_scan_hermitian_row_empty():
    scan = zeros_region_scan(0.0, np.linspace(-2, 2, 41), np.array([0.05, 0.2]))
    assert not scan.chi.any()


def _brute_force_chi(u, wv, beta):
    """Mode count by enumeration: n counts when cos k_n lies in [-1, 1].

    cos k_n = (u^2 - t_n^2 - v^2 - w^2) / (2 v w), t_n = (2n+1) pi / beta,
    with the hoppings v = 1, w = 1 + wv (wv >= 0) or v = 1 - wv, w = 1;
    t_n <= u is necessary, which bounds n.
    """
    v, w = (1.0, 1.0 + wv) if wv >= 0 else (1.0 - wv, 1.0)
    t = (2 * np.arange(math.ceil(beta * u / math.pi) + 1) + 1) * math.pi / beta
    c = (u * u - t * t - v * v - w * w) / (2.0 * v * w)
    return int(np.sum((c >= -1.0) & (c <= 1.0)))


@st.composite
def _scan_inputs(draw):
    """(u, wv list, T list, edge T list) with u = 0, u > v + w, |w - v| = u, or any u.

    An edge T puts some t_n on an end of one column's arc, give or take
    one step in beta, where rounding decides the count.
    """
    kind = draw(st.sampled_from(("zero", "whole_zone", "edge", "uniform")))
    wv = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8))
    if kind == "zero":
        u = 0.0
    elif kind == "whole_zone":
        wv = [x / 3.0 for x in wv]
        u = 2.0 + max(abs(x) for x in wv) + draw(st.floats(1e-3, 1.0))
    elif kind == "edge":
        edge = draw(st.floats(1e-3, 2.5))
        p = params_from_detuning(0.0, edge)
        u = p.w - p.v  # the computed |w - v| of both +-edge columns
        wv += [edge, -edge]
    else:
        u = draw(st.floats(0.0, 3.0))
    temps = draw(st.lists(st.floats(-4.0, math.log10(3.0)).map(lambda x: 10.0 ** x),
                          min_size=1, max_size=6))
    edge_temps = []
    for _ in range(draw(st.integers(0, 3))):
        p = params_from_detuning(u, draw(st.sampled_from(wv)))
        if abs(p.v - p.w) >= p.u:
            continue
        ends = [math.sqrt(p.u * p.u - (p.v - p.w) ** 2)]
        if exceptional_momentum(p) is None:
            ends.append(float(dispersion(p, 0.0).imag))
        end = draw(st.sampled_from(ends))
        if end > 1e-3:
            beta = (2 * draw(st.integers(0, 30)) + 1) * math.pi / end
            beta = math.nextafter(beta, draw(st.sampled_from((0.0, beta, math.inf))))
            edge_temps.append(1.0 / beta)
    return u, wv, temps, edge_temps


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_scan_inputs())
def test_region_scan_matches_scalar_and_brute_force_counts(inputs):
    # the brute force rounds differently on an arc edge, so edge rows are
    # compared with the scalar count only
    u, wv, temps, edge_temps = inputs
    scan = zeros_region_scan(u, wv, temps + edge_temps)
    assert scan.chi.shape == (len(temps) + len(edge_temps), len(wv))
    for it, t in enumerate(temps + edge_temps):
        for iw, x in enumerate(wv):
            chi = int(scan.chi[it, iw])
            assert chi == chi_count(params_from_detuning(u, x), 1.0 / t)
            if it < len(temps):
                assert chi == _brute_force_chi(u, x, 1.0 / t)


@pytest.mark.parametrize("u, v, w", [(math.nan, 1.0, 1.0), (1.0, math.inf, 1.0),
                                     (1.0, 1.0, -math.inf)])
def test_params_reject_non_finite(u, v, w):
    with pytest.raises(DomainError, match="finite"):
        SSHParams(u, v, w)


@pytest.mark.parametrize("beta", [math.nan, math.inf, 0.0, -2.0])
@pytest.mark.parametrize("p", [SSHParams(1.0, 1.0, 1.0), SSHParams(1.0, 3.0, 1.0)])
def test_mode_count_rejects_bad_beta(p, beta):
    for count in (chi_count, yang_lee_root_count):
        with pytest.raises(DomainError, match="beta must be finite and positive"):
            count(p, beta)


def test_mode_index_guard_at_two_to_53():
    # E_max = 1: beta / pi counts the modes, and t_n stops being exact at 2^53
    p = SSHParams(1.0, 1.0, 1.0)
    beta = math.pi * 2.0 ** 52
    assert abs(chi_count(p, beta) - 2.0 ** 51) <= 1
    for big in (math.pi * 2.0 ** 53, 1e25):
        with pytest.raises(DomainError, match="2\\^53"):
            chi_count(p, big)
        with pytest.raises(DomainError, match="2\\^53"):
            yang_lee_root_count(p, big)
    assert chi_count(SSHParams(1.0, 3.0, 1.0), 1e25) == 0  # gapped: no arc


@pytest.mark.parametrize("u, wv, temps", [
    (math.nan, [0.0], [0.1]),
    (-1.0, [0.0], [0.1]),
    (1.0, [0.0, math.nan], [0.1]),
    (1.0, [0.0, math.inf], [0.1]),
    (1.0, [0.0], [0.1, math.inf]),
    (1.0, [0.0], [math.nan]),
    (1.0, [0.0], [0.0]),
    (1.0, [0.0], [1e-20]),
])
def test_region_scan_rejects_bad_inputs(u, wv, temps):
    with pytest.raises(DomainError):
        zeros_region_scan(u, wv, temps)


def test_region_scan_cell_cap(monkeypatch):
    # 2048 x 2048 cells is the cap: that grid reaches the mode ranges,
    # one more row is refused before them
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(ssh, "_mode_range", reached)
    with pytest.raises(Reached):
        zeros_region_scan(1.0, np.zeros(2048), np.ones(2048))
    with pytest.raises(DomainError, match="cap"):
        zeros_region_scan(1.0, np.zeros(2048), np.ones(2049))


def test_params_from_detuning_nonnegative():
    for wv in (-1.7, -0.2, 0.0, 0.4, 1.9):
        p = params_from_detuning(1.0, wv)
        assert p.w - p.v == pytest.approx(wv)
        assert p.v >= 0 and p.w >= 0


# --- correlators ------------------------------------------------------------

def test_corr_momentum_hermitian_values():
    p = SSHParams(0.0, 2.0, 1.0)
    k = 1.3
    assert abs(corr_momentum(p, k, "AA") - 0.5) < 1e-14
    vk = p.v + p.w * np.exp(-1j * k)
    expect = -0.5 * np.conj(vk) / abs(vk)
    assert abs(corr_momentum(p, k, "AB") - expect) < 1e-14


def test_corr_momentum_channel_relations():
    p = SSHParams(1.0, 2.0, 1.0)
    k = 1.0
    vk = p.v + p.w * np.exp(-1j * k)
    ab = corr_momentum(p, k, "AB")
    ba = corr_momentum(p, k, "BA")
    assert abs(ab / ba - np.conj(vk) / vk) < 1e-12
    aa = corr_momentum(p, k, "AA")
    bb = corr_momentum(p, k, "BB")
    assert abs(aa + bb - 1.0) < 1e-12
    # the Hermitian limit kills the u-dependent part of AA
    p_small = SSHParams(1e-6, 2.0, 1.0)
    assert abs(corr_momentum(p_small, k, "AA") - 0.5) < 1e-5


def _closed_form_corr_momentum(p, k, channel):
    # the per-channel closed forms in terms of the Bloch angle phi,
    # cos phi = i u / E_k, kept as a reference for the projector entries
    e = dispersion(p, k)
    vk = p.v + p.w * np.exp(-1j * np.asarray(k, dtype=float))
    cos_phi = 1j * p.u / e
    if channel == "AA":
        return 0.5 * (1.0 - cos_phi)  # sin^2(phi/2)
    if channel == "BB":
        return 0.5 * (1.0 + cos_phi)  # cos^2(phi/2)
    # -sin(phi)/2 = -|v_k| / (2 E_k)
    cross = (np.abs(vk) / (2.0 * e)) * -1.0
    phase = np.conj(vk) / np.abs(vk) if channel == "AB" else vk / np.abs(vk)
    return phase * cross


@pytest.mark.parametrize("uvw", [(0.0, 2.0, 1.0), (0.0, 1.0, 2.5), (1.0, 2.05, 1.0),
                                 (0.5, 1.0, 2.0), (1.0, 3.0, 0.7)])
@pytest.mark.parametrize("channel", ["AA", "AB", "BA", "BB"])
def test_corr_momentum_matches_closed_forms(uvw, channel):
    p = SSHParams(*uvw)
    k = 2.0 * math.pi * np.arange(256) / 256
    got = corr_momentum(p, k, channel)
    assert np.max(np.abs(got - _closed_form_corr_momentum(p, k, channel))) <= 1e-15
    assert abs(corr_momentum(p, 1.3, channel)
               - _closed_form_corr_momentum(p, 1.3, channel)) <= 1e-15


def test_corr_momentum_singularity_guard():
    with pytest.raises(DomainError, match="exceptional point"):
        corr_momentum(SSHParams(1, 1, 1), 2.0 * math.pi / 3.0, "AA")


def test_corr_real_hermitian_is_local():
    p = SSHParams(0.0, 1.0, 2.0)
    for x in (1, 2, 5):
        assert abs(corr_real(p, x, "AA")) <= 1e-9


def test_corr_real_requires_gap():
    with pytest.raises(DomainError):
        corr_real(SSHParams(1.0, 1.0, 1.0), 3, "AA")


def test_corr_real_matches_asymptotic():
    p = SSHParams(1.0, 2.05, 1.0)  # delta = 0.05
    xi = correlation_length(p)
    for x in range(math.ceil(3 * xi), math.ceil(3 * xi) + 8, 2):
        c = corr_real(p, x, "AA", tol=1e-12)
        a = corr_asymptotic(p, float(x), "AA")
        assert abs(c / a - 1.0) <= 0.02


def test_corr_real_staggered_sign():
    # near criticality the k = pi region dominates: C_AA(x) ~ -i (-1)^x |...|
    p = SSHParams(1.0, 2.05, 1.0)
    vals = [corr_real(p, x, "AA", tol=1e-12) for x in (6, 7, 8, 9)]
    signs = [np.sign(v.imag) for v in vals]
    assert signs == [1.0, -1.0, 1.0, -1.0] or signs == [-1.0, 1.0, -1.0, 1.0]


def _quad_correlator(p, x, channel):
    """(1/2 pi) int P(k)_{ba} e^{ikx} dk over the filled-band projector."""
    a, b = "AB".index(channel[0]), "AB".index(channel[1])

    def part(k, real):
        h = bloch_hamiltonian(p, k)
        e = np.sqrt(complex(-np.linalg.det(h)))
        e = -e if e.real < 0 else e
        val = ((e * np.eye(2) - h) / (2.0 * e))[b, a]
        return val.real if real else val.imag

    out = 0j
    for real, coef in ((True, 1.0), (False, 1j)):
        cos, sin = (integrate.quad(part, -math.pi, math.pi, args=(real,),
                                   weight=weight, wvar=x, limit=400,
                                   epsabs=1e-13)[0]
                    for weight in ("cos", "sin"))
        out += coef * (cos + 1j * sin)
    return out / (2.0 * math.pi)


@pytest.mark.parametrize("u", [0.0, 1.0])
@pytest.mark.parametrize("delta", [1e-3, 0.05])
def test_corr_row_matches_quad(u, delta):
    p = SSHParams(u, u + 1.0 + delta, 1.0)
    for channel in ("AA", "AB", "BA", "BB"):
        row = corr_row(p, 25, channel, tol=1e-12)
        assert row.shape == (25,)
        for x in (1, 4, 25):
            assert abs(row[x - 1] - _quad_correlator(p, x, channel)) <= 1e-10


def test_corr_real_is_an_entry_of_corr_row():
    p = SSHParams(1.0, 2.05, 1.0)
    for channel in ("AA", "AB"):
        row = corr_row(p, 30, channel)
        for x in (1, 7, 30):
            assert abs(corr_real(p, x, channel) - row[x - 1]) <= 1e-9


def test_corr_row_unreachable_tolerance():
    p = SSHParams(1.0, 2.05, 1.0)
    with pytest.raises(CertificateError) as err:
        corr_row(p, 10, "AB", tol=1e-30)
    assert err.value.best.shape == (10,)
    assert err.value.residual > 1e-30
    assert np.max(np.abs(err.value.best - corr_row(p, 10, "AB"))) <= 1e-9
    with pytest.raises(DomainError):
        corr_row(p, 0, "AB")


@pytest.mark.parametrize("x_max, tol", [(10, float("nan")), (10, 0.0),
                                        (10, -1e-9), (32769, 1e-9)])
def test_corr_row_rejects_before_any_work(monkeypatch, x_max, tol):
    # a NaN tol used to run to the node cap; x_max > 32768 used to
    # allocate a first grid of 2^18 nodes or more before the cap was read
    calls = []
    monkeypatch.setattr(ssh, "corr_momentum", lambda *args: calls.append(args))
    with pytest.raises(DomainError):
        corr_row(SSHParams(1.0, 2.05, 1.0), x_max, "AA", tol=tol)
    assert calls == []


def test_corr_row_largest_first_grid_below_the_cap():
    row = corr_row(SSHParams(1.0, 2.05, 1.0), 32768, "AA")
    assert row.shape == (32768,)
    assert abs(row[-1]) <= 1e-9


def test_corr_asymptotic_bb_is_minus_aa():
    p = SSHParams(1.0, 2.0, 0.9)
    for x in (5.0, 11.0):
        assert corr_asymptotic(p, x, "BB") == pytest.approx(
            -corr_asymptotic(p, x, "AA"))


def test_corr_asymptotic_domain():
    with pytest.raises(DomainError):
        corr_asymptotic(SSHParams(1.0, 1.5, 1.0), 5.0, "AA")  # delta < 0
    with pytest.raises(DomainError):
        corr_asymptotic(SSHParams(1.0, 2.5, 1.0), 5.5, "AA")  # not an integer
    with pytest.raises(DomainError):
        corr_asymptotic(SSHParams(0.0, 2.5, 1.0), [1, 2, 3], "AA")  # u = 0
    for xs in ([1, 0, 2], [1.0, 2.5], [3, -1]):
        with pytest.raises(DomainError):
            corr_asymptotic(SSHParams(1.0, 2.5, 1.0), xs, "AB")


def _asymptote_loop(p, x, channel):
    """The K0 closed form at one distance in Python float and complex arithmetic."""
    xi = correlation_length(p)
    kappa = 1.0 / xi
    amp = 2.0 / math.sqrt(p.v * p.w * math.sinh(kappa) / kappa)
    a, b, d = {"AA": (1j * p.u, 0.0, 0), "BB": (-1j * p.u, 0.0, 0),
               "AB": (p.v, -p.w, 1), "BA": (p.v, -p.w, -1)}[channel]
    if x + d < 1:
        return complex(math.nan, math.nan)

    def kernel(y):
        return amp * float(special.k0(y / xi))

    c = (-(1.0 / (4.0 * math.pi)) * (-1.0 if x % 2 else 1.0)
         * (a * kernel(x) + (b * kernel(x + d) if d else 0.0)))
    return complex(c.real + 0.0, c.imag + 0.0)


@pytest.mark.parametrize("u, v, w", [(1.0, 2.05, 1.0), (0.7, 1.83, 1.1)])
@pytest.mark.parametrize("channel", ["AA", "AB", "BA", "BB"])
def test_corr_asymptotic_array_equals_scalar_calls(u, v, w, channel):
    # one call over every distance rounds like one call per distance and
    # like the per-distance loop in Python arithmetic, bit for bit, signed
    # zeros and NaN payloads included
    p = SSHParams(u, v, w)
    xs = np.arange(1, 301)
    row = corr_asymptotic(p, xs, channel)
    assert row.shape == xs.shape and row.dtype == complex
    scalars = [corr_asymptotic(p, int(x), channel) for x in xs]
    assert all(type(a) is complex for a in scalars)
    loop = [_asymptote_loop(p, int(x), channel) for x in xs]
    bits = row.view(np.uint64).tolist()
    assert bits == np.array(scalars).view(np.uint64).tolist()
    assert bits == np.array(loop).view(np.uint64).tolist()


def test_corr_asymptotic_ba_at_one_is_nan():
    # BA at x = 1 would need K0(0): the entry is undefined in both parts,
    # and the rest of the row is not
    p = SSHParams(1.0, 2.05, 1.0)
    row = corr_asymptotic(p, range(1, 5), "BA")
    for a in (row[0], corr_asymptotic(p, 1, "BA")):
        assert math.isnan(a.real) and math.isnan(a.imag)
    assert np.isfinite(row[1:]).all()


@pytest.mark.parametrize("channel", ["AA", "BB", "AB", "BA"])
def test_corr_asymptotic_component_zero_by_symmetry_is_exact(channel):
    # AA and BB are imaginary, AB and BA real; the other part is +0, not
    # the rounding residue of exp(i pi x), and the nonzero part is the
    # e^{i pi x} closed form
    p = SSHParams(1.0, 2.05, 0.9)
    xi = correlation_length(p)
    amp = 2.0 / math.sqrt(p.v * p.w * math.sinh(1.0 / xi) * xi)
    for x in range(2, 14):
        k = [amp * special.k0(y / xi) for y in (x - 1, x, x + 1)]
        stagger = np.exp(1j * math.pi * x)
        expected = {"AA": -stagger * 1j * p.u / (4 * math.pi) * k[1],
                    "BB": stagger * 1j * p.u / (4 * math.pi) * k[1],
                    "AB": -stagger / (4 * math.pi) * (p.v * k[1] - p.w * k[2]),
                    "BA": -stagger / (4 * math.pi) * (p.v * k[1] - p.w * k[0])}[channel]
        a = corr_asymptotic(p, float(x), channel)
        zero, part = (a.real, a.imag) if channel in ("AA", "BB") else (a.imag, a.real)
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
        assert part == pytest.approx(
            expected.imag if channel in ("AA", "BB") else expected.real, rel=1e-14)


def test_correlation_length_small_delta_limit():
    p = SSHParams(1.0, 2.0 + 1e-4, 1.0)
    xi = correlation_length(p)
    delta = abs(p.v - p.w) - p.u
    leading = math.sqrt(p.v * p.w / (2.0 * p.u * delta))
    assert abs(xi / leading - 1.0) < 1e-3


def test_decay_power_fit():
    p = SSHParams(1.0, 2.05, 1.0)
    xi = correlation_length(p)
    xs = np.arange(math.ceil(2 * xi), math.ceil(6 * xi) + 1)
    vals = np.array([corr_real(p, int(x), "AA", tol=1e-12) for x in xs])
    resid = np.log(np.abs(vals)) + xs / xi
    power = np.polyfit(np.log(xs), resid, 1)[0]
    assert abs(power - (-0.5)) <= 0.05


def test_fit_exponents_tables_and_eta():
    samples = collect_correlation_samples(1.0, 1.0, [0.02, 0.05, 0.1])
    fit = fit_exponents(samples)
    for delta, xi_fit, xi_closed in fit.xi_table:
        assert abs(xi_fit / xi_closed - 1.0) <= 0.05
    assert abs(fit.eta - 1.5) <= 0.08
    # the decay length scales as delta^(-1/2): the measured exponent sits
    # at one half, not at one
    assert abs(fit.nu - 0.5) <= 0.05
    assert fit.warning is None


def test_fit_exponents_needs_two_samples():
    samples = collect_correlation_samples(1.0, 1.0, [0.05])
    for few in (samples, []):
        with pytest.raises(DomainError):
            fit_exponents(few)

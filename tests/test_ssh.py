import math

import numpy as np
import pytest
from scipy import integrate

from yanglee.errors import DomainError
from yanglee.numerics import QuadratureError, dense_eig
from yanglee.ssh import (
    PhaseLabel,
    SingularPointError,
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
    phase_diagnostics,
    yang_lee_root_count,
    zeros_region_scan,
)


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
    es = dense_eig(h)
    assert abs(es.values[0] + es.values[1]) < 1e-12


# --- phases -----------------------------------------------------------------

def test_phase_trivial_gapped():
    d = phase_diagnostics(SSHParams(1.0, 2.5, 1.0))
    assert d.label is PhaseLabel.TRIVIAL_PT_UNBROKEN
    assert abs(d.gap - 2.0 * math.sqrt(1.5 ** 2 - 1.0)) < 1e-12
    assert d.exceptional_momenta is None


def test_phase_topological_gapped():
    d = phase_diagnostics(SSHParams(1.0, 1.0, 2.5))
    assert d.label is PhaseLabel.TOPOLOGICAL_PT_UNBROKEN


def test_phase_broken_with_exceptional_momenta():
    d = phase_diagnostics(SSHParams(1.0, 1.0, 1.5))
    assert d.label is PhaseLabel.PT_BROKEN_GAPLESS
    assert d.gap == 0.0
    k_e, k_e_neg = d.exceptional_momenta
    assert abs(k_e - math.acos(-0.75)) < 1e-12
    assert k_e_neg == -k_e
    assert abs(dispersion(SSHParams(1.0, 1.0, 1.5), k_e)) < 1e-7


def test_phase_boundary():
    d = phase_diagnostics(SSHParams(1.0, 1.0, 2.0))
    assert d.label is PhaseLabel.BOUNDARY
    assert d.gap == 0.0


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
        es = dense_eig(fock)
        z_fock = np.exp(-beta * es.values).sum()
        z_mode = mode_partition_factor(p, k, beta)
        assert abs(z_fock - z_mode) <= 1e-12 * abs(z_mode)


def test_mode_factor_overflow_guard():
    val = mode_partition_factor(SSHParams(0, 1, 2), 0.0, 300.0)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    assert abs(val) > 1e290


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
    assert hot.has_zeros.sum() < cold.has_zeros.sum()
    # high-T presence condition: sqrt(u^2 - wv^2) >= pi/beta
    beta = 4.0
    expected = np.sqrt(np.maximum(1.0 - wv ** 2, 0.0)) >= math.pi / beta
    assert np.array_equal(hot.has_zeros[0], expected)


def test_region_scan_hermitian_row_empty():
    scan = zeros_region_scan(0.0, np.linspace(-2, 2, 41), np.array([0.05, 0.2]))
    assert not scan.has_zeros.any()


def test_params_from_detuning_nonnegative():
    for wv in (-1.7, -0.2, 0.0, 0.4, 1.9):
        p = params_from_detuning(1.0, wv)
        assert p.w - p.v == pytest.approx(wv)
        assert p.v >= 0 and p.w >= 0


# --- correlators ------------------------------------------------------------

def test_corr_momentum_hermitian_values():
    p = SSHParams(0.0, 2.0, 1.0)
    k = 1.3
    assert abs(corr_momentum(p, k, None, "AA") - 0.5) < 1e-14
    vk = p.v + p.w * np.exp(-1j * k)
    expect = -0.5 * np.conj(vk) / abs(vk)
    assert abs(corr_momentum(p, k, None, "AB") - expect) < 1e-14


def test_corr_momentum_channel_relations():
    p = SSHParams(1.0, 2.0, 1.0)
    k = 1.0
    vk = p.v + p.w * np.exp(-1j * k)
    ab = corr_momentum(p, k, None, "AB")
    ba = corr_momentum(p, k, None, "BA")
    assert abs(ab / ba - np.conj(vk) / vk) < 1e-12
    aa = corr_momentum(p, k, None, "AA")
    bb = corr_momentum(p, k, None, "BB")
    assert abs(aa + bb - 1.0) < 1e-12
    # the Hermitian limit kills the u-dependent part of AA
    p_small = SSHParams(1e-6, 2.0, 1.0)
    assert abs(corr_momentum(p_small, k, None, "AA") - 0.5) < 1e-5


def test_corr_momentum_singularity_guard():
    with pytest.raises(SingularPointError):
        corr_momentum(SSHParams(1, 1, 1), 2.0 * math.pi / 3.0, 2.0, "AA")


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
    with pytest.raises(QuadratureError) as err:
        corr_row(p, 10, "AB", tol=1e-30)
    assert err.value.value.shape == (10,)
    assert err.value.estimate > 1e-30
    assert np.max(np.abs(err.value.value - corr_row(p, 10, "AB"))) <= 1e-9
    with pytest.raises(DomainError):
        corr_row(p, 0, "AB")


def test_corr_asymptotic_bb_is_minus_aa():
    p = SSHParams(1.0, 2.0, 0.9)
    for x in (5.0, 11.0):
        assert corr_asymptotic(p, x, "BB") == pytest.approx(
            -corr_asymptotic(p, x, "AA"))


def test_corr_asymptotic_domain():
    with pytest.raises(DomainError):
        corr_asymptotic(SSHParams(1.0, 1.5, 1.0), 5.0, "AA")  # delta < 0


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
    samples = collect_correlation_samples(1.0, 1.0, [0.02, 0.05, 0.1], "AA")
    fit = fit_exponents(samples)
    for delta, xi_fit, xi_closed in fit.xi_table:
        assert abs(xi_fit / xi_closed - 1.0) <= 0.05
    assert abs(fit.eta - 1.5) <= 0.08
    # the decay length scales as delta^(-1/2): the measured exponent sits
    # at one half, not at one
    assert abs(fit.nu - 0.5) <= 0.05
    assert fit.warning is None

import math

import numpy as np
import pytest

from yanglee import entanglement
from yanglee.entanglement import (
    _momentum_grid,
    binary_entropy_sum,
    ee_from_correlation,
    ee_scaling_fit,
    ssh_correlation_matrix,
    ssh_entropies,
    state_ee,
)
from yanglee.errors import CertificateError, DomainError
from yanglee.numerics.eig import dense_eigvals, hermitian_eigvals
from yanglee.ssh import (
    SSHParams,
    bloch_hamiltonian,
    corr_row,
    dispersion,
    filled_projector,
    fourier_table,
)


# --- h function ---------------------------------------------------------------

def test_binary_entropy_pointwise():
    assert binary_entropy_sum([1.0]) == 0.0
    assert binary_entropy_sum([-1.0]) == 0.0
    assert abs(binary_entropy_sum([0.0]) - math.log(2.0)) < 1e-15


def test_binary_entropy_even_for_real_arguments():
    for x in (0.1, 0.5, 0.99):
        assert abs(binary_entropy_sum([x]) - binary_entropy_sum([-x])) < 1e-14


def test_binary_entropy_pairs_branches_of_mirrored_arguments():
    # x and -conj(x) put conjugate q on the cut, zero signs included, so
    # their +-i pi terms cancel; one real x alone takes +i pi
    for a in (0.0, -0.0, 1e-17, -1e-17):
        s = binary_entropy_sum([complex(-3.0, a), complex(3.0, a)])
        assert s.imag == 0.0
        assert abs(s.real - 2.0 * binary_entropy_sum([-3.0]).real) <= 1e-15
    assert binary_entropy_sum([-3.0]).imag == math.pi


# --- correlation-matrix route ---------------------------------------------------

def test_fully_filled_diagnostic_gives_zero_entropy():
    # C = identity means gamma = -I and every mode contributes h(-1) = 0
    assert abs(ee_from_correlation(np.eye(8, dtype=complex))) <= 1e-10


def test_half_filled_single_modes():
    c = 0.5 * np.eye(2, dtype=complex)
    assert abs(ee_from_correlation(c) - 2.0 * math.log(2.0)) < 1e-12
    assert np.allclose(dense_eigvals(np.eye(2) - 2.0 * c), 0.0)


def test_hermitian_gapped_matrix_properties():
    p = SSHParams(0.0, 1.0, 2.0)
    c = ssh_correlation_matrix(p, 120, 12)
    gamma = np.eye(24) - 2.0 * c
    assert np.max(np.abs(gamma - gamma.conj().T)) < 1e-10
    vals = np.linalg.eigvalsh(gamma)
    assert vals.min() >= -1.0 - 1e-10 and vals.max() <= 1.0 + 1e-10


def test_half_filling_sum_rule():
    c = ssh_correlation_matrix(SSHParams(1.0, 1.0, 1.0), 200, 20)
    assert abs(np.trace(c) - 20.0) <= 1e-8


def test_hermitian_two_route_cross_check():
    # same C, two formulas: h over eig(I - 2C) vs binary entropy over eig(C)
    p = SSHParams(0.0, 1.0, 1.0)
    c = ssh_correlation_matrix(p, 80, 8)
    s = ee_from_correlation(c)
    occ = np.linalg.eigvalsh(c)
    occ = np.clip(occ, 1e-15, 1.0 - 1e-15)
    direct = float(-np.sum(occ * np.log(occ) + (1 - occ) * np.log(1 - occ)))
    assert abs(s.real - direct) <= 1e-8
    assert abs(s.imag) <= 1e-10


def test_hermitian_critical_log_scaling():
    # gapless free fermions with two Fermi points: slope 1/3 in ln L_A
    fit = ee_scaling_fit(SSHParams(0.0, 1.0, 1.0), 400,
                         [10, 14, 18, 24, 32, 40, 50])
    assert fit.classification == "SubareaLaw"
    assert abs(fit.slope - 1.0 / 3.0) <= 0.05


def test_hermitian_critical_point_has_central_charge_one():
    # c = 3 dS / d ln N at fixed L_A = N/4 (Calabrese & Cardy, J. Stat.
    # Mech. P06002 (2004)).  Measured c - 1 over the doublings from N = 40
    # to 640: -1.11e-4, -2.78e-5, -6.95e-6, -1.74e-6, shrinking 4x each.
    p = SSHParams(0.0, 1.0, 1.0)
    s = [ssh_entropies(p, n, [n // 4])[0].real for n in 40 * 2 ** np.arange(5)]
    c = 3.0 * np.diff(s) / math.log(2.0)
    assert np.all(np.abs(c - 1.0) <= 1.5e-4), c
    assert abs(c[-1] - 1.0) <= 2.5e-6


def test_broken_phase_conventions_are_conjugate():
    p = SSHParams(1.0, 1.0, 1.0)
    c_neg = ssh_correlation_matrix(p, 120, 10, filling="im_neg")
    c_pos = ssh_correlation_matrix(p, 120, 10, filling="im_pos")
    s_neg = ee_from_correlation(c_neg)
    s_pos = ee_from_correlation(c_pos)
    assert abs(s_neg - np.conj(s_pos)) < 1e-8


def test_gapped_phase_area_law():
    fit = ee_scaling_fit(SSHParams(1.0, 2.5, 1.0), 240,
                         [8, 12, 16, 24, 32, 40])
    assert fit.classification == "AreaLaw"
    assert abs(fit.slope) <= 0.05


def test_rr_convention_is_hermitian_state():
    p = SSHParams(1.0, 2.5, 1.0)
    s = ee_from_correlation(ssh_correlation_matrix(p, 80, 6, convention="RR"))
    assert abs(s.imag) < 1e-9
    assert s.real >= -1e-12


# u^2 = 2 + 2 cos(5 pi / 8) puts k_E = 5 pi / 8 on the 8-cell half-integer
# grid, so the quarter-shifted grid is used.
_QUARTER_GRID = SSHParams(math.sqrt(2.0 + 2.0 * math.cos(5.0 * math.pi / 8.0)),
                          1.0, 1.0)


@pytest.mark.parametrize("p, cells, expected_offset", [
    (SSHParams(1.0, 1.05, 1.0), 200, 0.5),
    (SSHParams(0.5, 1.3, 1.0), 200, 0.5),
    (_QUARTER_GRID, 8, 0.75),
])
def test_fft_distance_table_matches_phase_sum(p, cells, expected_offset):
    grid, offset = _momentum_grid(p, cells)
    assert offset == expected_offset
    projectors = filled_projector(p, grid, "im_neg", "LR")
    la = cells // 2
    dists = np.arange(-(la - 1), la)
    direct = np.tensordot(np.exp(1j * np.outer(dists, grid)), projectors,
                          axes=(1, 0)) / cells
    assert np.max(np.abs(fourier_table(projectors, offset, dists) - direct)) <= 1e-13


@pytest.mark.parametrize("p, cells, la", [
    (SSHParams(1.0, 1.0, 1.0), 120, 17),
    (_QUARTER_GRID, 8, 4),
])
def test_gathered_matrix_equals_block_loop(p, cells, la):
    grid, offset = _momentum_grid(p, cells)
    g = fourier_table(filled_projector(p, grid, "im_neg", "LR"), offset,
                      np.arange(1 - la, la))
    loop = np.empty((2 * la, 2 * la), dtype=complex)
    for i in range(la):
        for j in range(la):
            loop[2 * i: 2 * i + 2, 2 * j: 2 * j + 2] = g[(i - j) + la - 1]
    assert np.array_equal(ssh_correlation_matrix(p, cells, la), loop)


@pytest.mark.parametrize("uvw", [(0.0, 2.0, 1.0), (0.0, 1.0, 2.5), (1.0, 2.05, 1.0),
                                 (0.5, 1.0, 2.0), (1.0, 3.0, 0.7)])
def test_correlation_matrix_column_is_the_correlator_row(uvw):
    # both read the one filled-band two-point function: C[2x + b, a] is
    # channel ab at distance x, summed on 1000 cells against corr_row's
    # converged trapezoid
    p = SSHParams(*uvw)
    c = ssh_correlation_matrix(p, 1000, 41)
    x = np.arange(1, 41)
    for a, alpha in enumerate("AB"):
        for b, beta in enumerate("AB"):
            row = corr_row(p, 40, alpha + beta, tol=1e-13)
            assert np.max(np.abs(c[2 * x + b, a] - row[x - 1])) <= 1e-14


def _entropy_by_numpy(c: np.ndarray) -> complex:
    lam = np.linalg.eigvals(np.eye(c.shape[0]) - 2.0 * c)
    total = 0.0 + 0.0j
    for x in lam:
        for q in (0.5 * (1.0 + x), 0.5 * (1.0 - x)):
            if abs(q) >= 1e-14:
                total -= q * np.log(q)
    return total


_UVW = [(1.0, 1.0, 1.0), (1.0, 2.5, 1.0), (1.0, 0.9, 1.0), (0.5, 1.3, 1.0),
        (0.0, 1.0, 2.0)]


@pytest.mark.parametrize("uvw", _UVW)
@pytest.mark.parametrize("filling", ["im_neg", "im_pos"])
def test_rr_projectors_match_per_momentum_eig(uvw, filling):
    # reference: the right eigenvector r of the filled band at each momentum,
    # r r^dag / (r^dag r), from an independent eigensolver
    p = SSHParams(*uvw)
    grid, _ = _momentum_grid(p, 200)
    e = dispersion(p, grid)
    lam = np.where((filling == "im_pos") & (np.abs(e.real) < 1e-12), e, -e)
    want = np.empty((grid.size, 2, 2), dtype=complex)
    for i, (h, target) in enumerate(zip(bloch_hamiltonian(p, grid), lam)):
        values, vectors = np.linalg.eig(h)
        r = vectors[:, np.argmin(np.abs(values - target))]
        want[i] = np.outer(r, r.conj()) / np.vdot(r, r)
    got = filled_projector(p, grid, filling, "RR")
    assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("uvw", _UVW)
@pytest.mark.parametrize("filling", ["im_neg", "im_pos"])
@pytest.mark.parametrize("convention", ["LR", "RR"])
def test_entropies_match_numpy_eigvals_route(uvw, filling, convention):
    p = SSHParams(*uvw)
    sizes = [20, 5, 50]
    got = ssh_entropies(p, 200, sizes, filling, convention)
    for la, s in zip(sizes, got):
        c = ssh_correlation_matrix(p, 200, la, filling=filling,
                                   convention=convention)
        assert abs(s - _entropy_by_numpy(c)) <= 1e-10


@pytest.mark.parametrize("uvw", [(1.0, 2.5, 1.0), (1.0, 0.9, 1.0)])  # gapped, PT-broken
@pytest.mark.parametrize("filling", ["im_neg", "im_pos"])
@pytest.mark.parametrize("convention", ["LR", "RR"])
def test_entropies_equal_per_size_route_bitwise(uvw, filling, convention):
    # one C at the largest size, sliced: the same bits as building C per size
    p = SSHParams(*uvw)
    sizes = [20, 5, 50, 5, 1, 20]
    got = ssh_entropies(p, 200, sizes, filling, convention)
    want = [ee_from_correlation(ssh_correlation_matrix(
        p, 200, la, filling=filling, convention=convention)) for la in sizes]
    assert got.tobytes() == np.array(want, dtype=complex).tobytes()


# --- real route: gamma = S (i K) S^-1 with K real ------------------------------

def _spy_solver(monkeypatch):
    """Record (dtype, dropped) of every dense_eigvals call of the entanglement module."""
    calls = []

    def spy(a, dropped=0.0):
        calls.append((np.asarray(a).dtype, dropped))
        return dense_eigvals(a, dropped=dropped)

    monkeypatch.setattr(entanglement, "dense_eigvals", spy)
    return calls


@pytest.mark.parametrize("uvw", [(1.0, 2.5, 1.0),  # gapped
                                 (0.0, 2.5, 1.0),  # Hermitian
                                 (1.0, 2.0, 1.0)])  # exceptional point
@pytest.mark.parametrize("filling", ["im_neg", "im_pos"])
def test_real_route_matches_complex_schur(monkeypatch, uvw, filling):
    calls = _spy_solver(monkeypatch)
    full = ssh_correlation_matrix(SSHParams(*uvw), 400, 60, filling=filling)
    for la in (10, 25, 60):
        c = full[:2 * la, :2 * la]
        s = ee_from_correlation(c)
        forced = binary_entropy_sum(dense_eigvals(np.eye(2 * la) - 2.0 * c))
        assert abs(s.real - forced.real) <= 1e-11
        assert abs(s.imag) <= 1e-12
    assert [dtype for dtype, _ in calls] == [np.dtype(float)] * 3


def test_exceptional_point_branches_cancel_in_pairs():
    # gamma has real eigenvalues below -1 here; the complex route leaves Im S
    # to the sign of rounding, the real route pairs the branches
    c = ssh_correlation_matrix(SSHParams(1.0, 2.0, 1.0), 1000, 80)
    x = dense_eigvals(np.eye(160) - 2.0 * c)
    assert np.sum(x.real < -1.0 - 1e-6) >= 2
    assert abs(ee_from_correlation(c).imag) <= 1e-15


@pytest.mark.parametrize("uvw", [(1.0, 1.0, 1.0), (1.0, 0.9, 1.0)])
def test_pt_broken_point_takes_complex_route(monkeypatch, uvw):
    calls = _spy_solver(monkeypatch)
    ee_from_correlation(ssh_correlation_matrix(SSHParams(*uvw), 200, 20))
    assert calls == [(np.dtype(complex), 0.0)]


def test_quarter_grid_takes_complex_route(monkeypatch):
    calls = _spy_solver(monkeypatch)
    assert _momentum_grid(_QUARTER_GRID, 8)[1] == 0.75
    ee_from_correlation(ssh_correlation_matrix(_QUARTER_GRID, 8, 4))
    assert calls == [(np.dtype(complex), 0.0)]


def test_imaginary_part_above_threshold_falls_back(monkeypatch):
    calls = _spy_solver(monkeypatch)
    c = ssh_correlation_matrix(SSHParams(1.0, 2.5, 1.0), 200, 20)
    ee_from_correlation(c)
    # a real shift of C's diagonal is an imaginary shift of K's diagonal
    ee_from_correlation(c + 1e-9 * np.eye(40))
    assert [dtype for dtype, _ in calls] == [np.dtype(float), np.dtype(complex)]
    assert 0.0 < calls[0][1] <= 1e-14 * np.linalg.norm(np.eye(40) - 2.0 * c)


def test_dropped_imaginary_part_counts_toward_the_gate(monkeypatch):
    c = ssh_correlation_matrix(SSHParams(1.0, 2.5, 1.0), 200, 20)
    monkeypatch.setattr(entanglement, "_REAL_ROUTE_TOL", 1.0)
    assert abs(ee_from_correlation(c + 1e-13 * np.eye(40))
               - ee_from_correlation(c)) <= 1e-11
    with pytest.raises(CertificateError):
        ee_from_correlation(c + 1e-9 * np.eye(40))


# --- Hermitian route: RR's C is Hermitian ---------------------------------------

def _spy_hermitian(monkeypatch):
    """Record the backward_error flag of every hermitian_eigvals call of the module."""
    calls = []

    def spy(a, backward_error=False):
        calls.append(backward_error)
        return hermitian_eigvals(a, backward_error=backward_error)

    monkeypatch.setattr(entanglement, "hermitian_eigvals", spy)
    return calls


@pytest.mark.parametrize("uvw", [(1.0, 2.5, 1.0), (1.0, 2.0, 1.0)])  # gapped, EP
def test_rr_takes_hermitian_route_matching_complex_schur(monkeypatch, uvw):
    calls = _spy_hermitian(monkeypatch)
    sizes = [10, 25, 60]
    got = ssh_entropies(SSHParams(*uvw), 400, sizes, convention="RR")
    full = ssh_correlation_matrix(SSHParams(*uvw), 400, 60, convention="RR")
    for la, s in zip(sizes, got):
        gamma = np.eye(2 * la) - 2.0 * full[:2 * la, :2 * la]
        assert abs(s - binary_entropy_sum(dense_eigvals(gamma))) <= 1e-12
        assert s.imag == 0.0
        x = hermitian_eigvals(gamma, backward_error=True)
        # real, and in [-1, 1] up to the rounding of a backward-stable eigh
        assert x.dtype == float and np.all(np.abs(x) <= 1.0 + 1e-13)
    assert calls == [True] * len(sizes)


@pytest.mark.parametrize("uvw", [(1.0, 2.5, 1.0), (1.0, 0.9, 1.0), (0.0, 2.5, 1.0)])
def test_lr_never_takes_hermitian_route(monkeypatch, uvw):
    # LR's C is Hermitian only at u = 0, where the real route comes first
    calls = _spy_hermitian(monkeypatch)
    ssh_entropies(SSHParams(*uvw), 200, [5, 20])
    assert calls == []


def test_entropies_build_one_correlation_matrix(monkeypatch):
    built = []

    def counted(*args, **kwargs):
        built.append(args[2])
        return ssh_correlation_matrix(*args, **kwargs)

    monkeypatch.setattr(entanglement, "ssh_correlation_matrix", counted)
    ssh_entropies(SSHParams(1.0, 1.0, 1.0), 100, [10, 30, 5, 30])
    assert built == [30]


@pytest.mark.parametrize("cells, sizes", [(100, [10, 60]), (100, [10, 0]),
                                          (100, [10, -3]), (101, [10])])
def test_entropies_check_every_size_before_solving(monkeypatch, cells, sizes):
    solved = []
    monkeypatch.setattr(entanglement, "dense_eigvals", solved.append)
    with pytest.raises(DomainError):
        ssh_entropies(SSHParams(1.0, 1.0, 1.0), cells, sizes)
    assert solved == []


def test_entropies_of_no_sizes_are_empty():
    out = ssh_entropies(SSHParams(1.0, 1.0, 1.0), 100, [])
    assert out.shape == (0,) and out.dtype == complex


@pytest.mark.parametrize("sizes", [
    [8, 12, 16, 24],  # fewer than 5 sizes
    [8, 10, 12, 16, 24, 31],  # span below 4x
])
def test_scaling_fit_size_checks(monkeypatch, sizes):
    solved = []
    monkeypatch.setattr(entanglement, "dense_eigvals", solved.append)
    with pytest.raises(DomainError):
        ee_scaling_fit(SSHParams(1.0, 2.5, 1.0), 240, sizes)
    assert solved == []


def test_grid_validation():
    with pytest.raises(DomainError):
        ssh_correlation_matrix(SSHParams(1, 1, 1), 121, 10)  # odd cell count
    with pytest.raises(DomainError):
        ssh_correlation_matrix(SSHParams(1, 1, 1), 100, 60)  # subsystem too big


@pytest.mark.parametrize("option, message", [
    ({"filling": "bogus"}, "filling must be one of"),
    ({"filling": "IM_NEG"}, "filling must be one of"),
    ({"convention": "lr"}, "convention must be 'LR' or 'RR'"),
    ({"convention": "bogus"}, "convention must be 'LR' or 'RR'"),
])
def test_unknown_filling_or_convention_refused(option, message):
    # the projector is the one reader of both options: an unknown value
    # would otherwise select the im_neg filling or the RR convention
    p = SSHParams(1.0, 0.9, 1.0)  # PT-broken: the fillings differ here
    grid = 2.0 * math.pi * (np.arange(8) + 0.5) / 8
    with pytest.raises(DomainError, match=message):
        filled_projector(p, grid, **option)
    with pytest.raises(DomainError, match=message):
        ssh_correlation_matrix(p, 8, 2, **option)


@pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 2, 2), ()])
def test_entropy_needs_a_square_matrix(shape):
    # a 1-d C used to give (-0-0j) and a (2, 3) C numpy's broadcast ValueError
    with pytest.raises(DomainError, match="square matrix"):
        ee_from_correlation(np.zeros(shape))

# --- Schmidt route ---------------------------------------------------------------

def test_product_state_has_zero_entropy():
    psi = np.zeros(2 ** 6)
    psi[0] = 1.0
    assert state_ee(psi, 6, 3) == 0.0


def test_singlet_gives_log_two():
    psi = np.zeros(4, dtype=complex)
    psi[0b01] = 1.0 / math.sqrt(2.0)
    psi[0b10] = -1.0 / math.sqrt(2.0)
    assert abs(state_ee(psi, 2, 1) - math.log(2.0)) < 1e-12


def test_cut_reflection_symmetry():
    # purity gives S(A) = S(complement); combined with site reversal the
    # first-cut and first-(L-cut) entropies coincide for mirror-symmetric
    # states (as the translation-invariant ground states used here are)
    length = 8
    rng = np.random.default_rng(17)
    psi = rng.standard_normal(2 ** length) + 1j * rng.standard_normal(2 ** length)
    rev = np.array([int(format(n, f"0{length}b")[::-1], 2)
                    for n in range(2 ** length)])
    psi = psi + psi[rev]
    psi /= np.linalg.norm(psi)
    for cut in (1, 3, 4):
        assert abs(state_ee(psi, length, cut)
                   - state_ee(psi, length, length - cut)) <= 1e-10


def test_unnormalized_input_warns_and_normalizes():
    psi = np.zeros(4, dtype=complex)
    psi[0b01] = 3.0
    psi[0b10] = -3.0
    with pytest.warns(UserWarning):
        s = state_ee(psi, 2, 1)
    assert abs(s - math.log(2.0)) < 1e-12


def test_cut_bounds():
    psi = np.zeros(4)
    psi[0] = 1.0
    with pytest.raises(DomainError):
        state_ee(psi, 2, 0)
    with pytest.raises(DomainError):
        state_ee(psi, 2, 2)

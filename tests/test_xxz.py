import itertools
import math
import re
import warnings
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.special import roots_gegenbauer

from yanglee import xxz
from yanglee.entanglement import state_ee
from yanglee.errors import CertificateError, DomainError, YangLeeError
from yanglee.numerics.eig import hermitian_eigvals, inverse_iteration
from yanglee.xxz import (
    analytic_zeros,
    build_sector_hamiltonian,
    full_spectrum,
    ground_state,
    locate_zeros_numeric,
    magnon_sector,
    multiplet_gap,
    partition_scaled,
    sector_blocks,
    solve_bethe_roots,
    susceptibility_scaling,
    verify_analytic_zeros,
    zero_density,
    zero_polynomial,
    zero_polynomial_terms,
)
from yanglee.numerics.polynomials import roots_of_polynomial


# --- sector Hamiltonians -----------------------------------------------------

def test_l2_single_magnon_block():
    d = 1.7 + 0.3j
    h = build_sector_hamiltonian(magnon_sector(2, 1), 1.0, d)
    vals = np.sort_complex(scipy.linalg.eigvals(h))
    expect = np.sort_complex(np.array([d / 2.0 - 1.0, d / 2.0 + 1.0]))
    assert np.allclose(vals, expect, atol=1e-12)


def test_polarized_sector_energy():
    for length in (2, 5, 9):
        h = build_sector_hamiltonian(magnon_sector(length, 0), 1.3, 0.8 + 0.1j)
        assert h.shape == (1, 1)
        assert abs(h[0, 0] - (-1.3 * length * (0.8 + 0.1j) / 4.0)) < 1e-12


def test_l4_two_magnon_dimension_and_trace():
    sector = magnon_sector(4, 2)
    assert sector.dimension == 6
    h = build_sector_hamiltonian(sector, 1.0, 1.4)
    # combinatorial oracle: Ising energy of every arrangement of 2 down spins
    diag = []
    for word in sector.basis:
        bits = [(int(word) >> i) & 1 for i in range(4)]
        e = sum(0.25 if bits[i] == bits[(i + 1) % 4] else -0.25 for i in range(4))
        diag.append(-1.0 * 1.4 * e)
    assert abs(np.trace(h) - sum(diag)) < 1e-12


def test_l2_delta2_full_spectrum():
    vals = np.concatenate([v for _, v in full_spectrum(2, 1.0, 2.0)])
    vals = np.sort(vals.real)
    assert np.allclose(vals, [-1.0, -1.0, 0.0, 2.0], atol=1e-12)


def test_sector_completeness_and_trace():
    spectra = full_spectrum(7, 1.0, 1.2 + 0.3j)
    vals = np.concatenate([v for _, v in spectra])
    assert vals.size == 2 ** 7
    trace = sum(np.trace(build_sector_hamiltonian(magnon_sector(7, m), 1.0, 1.2 + 0.3j))
                for m in range(8))
    assert abs(vals.sum() - trace) < 1e-8


def test_heisenberg_ground_degeneracy():
    vals = np.concatenate([v for _, v in full_spectrum(6, 1.0, 1.0)])
    gs = vals.real.min()
    assert np.sum(np.abs(vals - gs) < 1e-9) == 7


def test_spin_flip_symmetry():
    aniso = 0.7 + 0.2j
    spectra = dict(full_spectrum(8, 1.0, aniso))
    for m in range(9):
        a, b = spectra[m], spectra[8 - m]
        assert np.max(np.abs(a - b)) <= 1e-10
        # full_spectrum builds M > L/2 from L - M, so the line above holds
        # by construction; the plain sectors measure the symmetry itself
        cost = np.abs(np.subtract.outer(_oracle_spectrum(8, 1.0, aniso, m),
                                        _oracle_spectrum(8, 1.0, aniso, 8 - m)))
        assert cost[linear_sum_assignment(cost)].max() <= 1e-10


def test_hermitian_limit_real_spectrum():
    vals = np.concatenate([v for _, v in full_spectrum(8, 1.0, 1.3)])
    assert np.max(np.abs(vals.imag)) <= 1e-10


# --- momentum-blocked engine against the sector oracle ---------------------------

ENGINE_ANISOTROPIES = (1.0, 0.97 + 0.13j, 1.3 - 0.4j)


def _oracle_spectrum(L: int, J: float, aniso: complex, m: int) -> np.ndarray:
    return scipy.linalg.eigvals(build_sector_hamiltonian(magnon_sector(L, m), J, aniso))


@pytest.mark.parametrize("L", range(2, 11))
@pytest.mark.parametrize("J", [1.0, 0.7])
def test_momentum_blocks_match_sector_oracle(L, J):
    blocks = sector_blocks(L, J)
    for m in range(L + 1):
        # sector M is built as min(M, L - M); each q < L/2 block stands for -q too
        mine = blocks.magnons == min(m, L - m)
        assert blocks.repeats[mine].sum() == math.comb(L, m)
    for aniso in ENGINE_ANISOTROPIES:
        for m, vals in full_spectrum(L, J, aniso):
            cost = np.abs(np.subtract.outer(vals, _oracle_spectrum(L, J, aniso, m)))
            rows, cols = linear_sum_assignment(cost)
            assert cost[rows, cols].max() <= 1e-10
    # a point of a batch has the bits of the scalar call: the zero search
    # polishes in batches and must print what serial polishing printed
    anisos = np.array(ENGINE_ANISOTROPIES, dtype=complex)
    batch = partition_scaled(L, J, 100.0, anisos)
    for aniso, z in zip(anisos, batch):
        scalar = partition_scaled(L, J, 100.0, complex(aniso))
        assert z.tobytes() == np.complex128(scalar).tobytes()


@pytest.mark.parametrize("shape", [(0,), (0, 3), (4, 0)])
def test_partition_scaled_empty_batch(shape):
    # an empty batch has no eigenvalues to reshape by; it gives an empty result
    out = partition_scaled(6, 1.0, 10.0, np.zeros(shape, dtype=complex))
    assert out.shape == shape and out.dtype == complex


def test_sector_eigvals_route_read_from_delta():
    # a real Delta makes every block Hermitian: its points take the
    # Hermitian kernel, the others the general one, in one mixed batch
    blocks = sector_blocks(6, 1.0)
    anisos = np.array([0.5, 0.9 + 0.1j, 1.0, 2.0 - 0.3j, -0.4, 1.0 - 1e-300j])
    got = blocks.eigvals(anisos)
    assert got.shape == anisos.shape + blocks.magnons.shape
    for aniso, vals in zip(anisos, got):
        solve = hermitian_eigvals if aniso.imag == 0 else np.linalg.eigvals
        want = np.concatenate([solve(xxz._block_matrices(a, d, aniso)).ravel()
                               for a, d, *_ in blocks.stacks])
        assert vals.tobytes() == want.astype(complex).tobytes()
    # a 0-d real call takes the Hermitian kernel as well
    scalar = blocks.eigvals(np.asarray(1.0))
    assert scalar.tobytes() == got[2].tobytes()


@pytest.mark.parametrize("L", [2, 6, 8])
def test_partition_scaled_matches_sector_oracle(L):
    # one point is an L = 6 partition zero, where only the absolute
    # deviation of the normalized sum is meaningful
    beta = 100.0
    for delta in (0.0, -0.03 + 0.13j, 0.3 - 0.4j, -0.019729884 - 0.155731195j):
        vals = np.concatenate([_oracle_spectrum(L, 1.0, 1.0 + delta, m) for m in range(L + 1)])
        expect = np.exp(-beta * (vals - vals.real.min())).sum()
        assert abs(partition_scaled(L, 1.0, beta, 1.0 + delta) - expect) <= 1e-10


@lru_cache(maxsize=None)
def _oracle_sector_parts(L: int, m: int, J: float):
    """(H(0), H(1) - H(0)) of the plain M sector, so H(Delta) = H(0) + Delta (H(1) - H(0))."""
    sector = magnon_sector(L, m)
    h0, h1 = (build_sector_hamiltonian(sector, J, aniso) for aniso in (0.0, 1.0))
    return h0, h1 - h0


@pytest.mark.parametrize("L", range(2, 11))
@settings(max_examples=6, deadline=None, database=None, derandomize=True)
@given(J=st.sampled_from([1.0, 0.7]), re=st.floats(-2.0, 2.0),
       im=st.floats(-1.0, 1.0), beta=st.floats(0.0, 100.0, exclude_min=True))
def test_folded_partition_matches_unfolded_sum(L, J, re, im, beta):
    # Odd L has no self-paired M = L/2 and even L has the self-paired
    # q = L/2.  Measured over 1,500 random draws in this range (J = 1,
    # L = 2..10): the deviation relative to sum |terms| is at most 2.0e-12.
    aniso = complex(re, im)
    vals = np.concatenate([scipy.linalg.eigvals(h0 + aniso * d)
                           for h0, d in (_oracle_sector_parts(L, m, J)
                                         for m in range(L + 1))])
    terms = np.exp(-beta * (vals - vals.real.min()))
    folded = partition_scaled(L, J, beta, aniso)
    assert abs(folded - terms.sum()) <= 1e-10 * np.abs(terms).sum()


# --- reflection-parity and spin-inversion sub-blocks ------------------------------

def _rotate(x, r: int, L: int):
    return ((x << r) | (x >> (L - r))) & ((1 << L) - 1)


def _mirror(x, L: int):
    return sum(((x >> i) & 1) << (L - 1 - i) for i in range(L))


def _sub_blocks(blocks, m: int, q: int):
    """[(A, d, words, coefs)] of the sub-blocks split from the (M, k = 2 pi q / L) block."""
    return [(a[i], d[i], w[i], c[i])
            for a, d, ms, qs, w, c in blocks.stacks
            for i in np.flatnonzero((ms == m) & (qs == q))]


@lru_cache(maxsize=None)
def _momentum_basis(L: int, m: int, q: int) -> np.ndarray:
    """Columns |a, k>, k = 2 pi q / L, over the plain M-sector basis."""
    sector = magnon_sector(L, m)
    columns = []
    for a in sector.basis.tolist():
        orbit = [_rotate(a, r, L) for r in range(L)]
        period = orbit[1:].index(a) + 1 if a in orbit[1:] else L
        if a != min(orbit) or q * period % L:
            continue
        v = np.zeros(sector.dimension, dtype=complex)
        for r in range(period):
            v[sector.index[orbit[r]]] += np.exp(-2j * math.pi * q * r / L)
        columns.append(v / math.sqrt(period))
    return np.array(columns, dtype=complex).reshape(-1, sector.dimension).T


def _parent_block(L: int, J: float, aniso: complex, m: int, q: int) -> np.ndarray:
    """The (M, k) block of the plain M sector in the momentum states |a, k>."""
    h0, d = _oracle_sector_parts(L, m, J)
    basis = _momentum_basis(L, m, q)
    return basis.conj().T @ (h0 + aniso * d) @ basis


@pytest.mark.parametrize("L", range(2, 11))
@settings(max_examples=4, deadline=None, database=None, derandomize=True)
@given(J=st.sampled_from([1.0, 0.7]), re=st.floats(-3.0, 3.0), im=st.floats(-1.0, 1.0))
def test_sub_block_spectra_join_to_parent_block(L, J, re, im):
    # the parent (M, k) block is projected here from the plain M sector,
    # so this also checks the sub-blocks against the magnon_sector oracle
    aniso = complex(re, im)
    blocks = sector_blocks(L, J)
    for m in range(L // 2 + 1):
        for q in range(L // 2 + 1):
            subs = _sub_blocks(blocks, m, q)
            parent = _parent_block(L, J, aniso, m, q)
            assert sum(d.size for _, d, _, _ in subs) == parent.shape[0]
            if not subs:
                continue
            joined = np.concatenate([np.linalg.eigvals(a + aniso * np.diag(d))
                                     for a, d, _, _ in subs])
            cost = np.abs(np.subtract.outer(joined, np.linalg.eigvals(parent)))
            assert cost[linear_sum_assignment(cost)].max() <= 1e-10 * max(1.0, abs(aniso))


def _character_dims(L: int, m: int, q: int) -> list[int]:
    """Sorted nonzero dimensions of the (M, k) eigenspaces of P and Z, by characters.

    P (reflection) splits k in {0, pi} and Z (spin inversion) M = L/2.
    A space's dimension is (1/|G|) sum_g chi(g) tr g, and the trace of a
    permutation of the M-magnon words is its number of fixed words.
    """
    words = np.array([w for w in range(1 << L) if bin(w).count("1") == m])
    ops = [f for f, on in ((lambda x: _mirror(x, L), 2 * q % L == 0),
                           (lambda x: x ^ ((1 << L) - 1), 2 * m == L)) if on]
    dims = []
    for signs in itertools.product((1, -1), repeat=len(ops)):
        total = 0.0
        for used in itertools.product((0, 1), repeat=len(ops)):
            image, chi = words, 1
            for u, op, sign in zip(used, ops, signs):
                if u:
                    image, chi = op(image), chi * sign
            for r in range(L):
                fixed = np.count_nonzero(_rotate(image, r, L) == words)
                total += chi * fixed * math.cos(2 * math.pi * q * r / L)
        dims.append(round(total / (L * 2 ** len(ops))))
    return sorted(d for d in dims if d)


@pytest.mark.parametrize("L", range(2, 13))
def test_sub_block_dimensions_match_character_formula(L):
    blocks = sector_blocks(L, 1.0)
    for m in range(L // 2 + 1):
        for q in range(L // 2 + 1):
            dims = sorted(d.size for _, d, _, _ in _sub_blocks(blocks, m, q))
            assert dims == _character_dims(L, m, q)


@pytest.mark.parametrize("L", range(2, 13))
def test_weyl_bound_below_bendixson_bound(L):
    blocks = sector_blocks(L, 1.0)
    for re in (*np.linspace(-3.0, 3.0, 25), 1.0, 1.0 + 1e-9, 1.0 - 1e-9):
        exact = np.concatenate([
            np.linalg.eigvalsh(0.5 * (a + a.conj().swapaxes(-1, -2))
                               + re * d[:, None, :] * np.eye(d.shape[-1]))[:, 0]
            for a, d, *_ in blocks.stacks])
        assert np.all(blocks.weyl_bounds(re) <= exact + 1e-12 * max(1.0, abs(re)))


@pytest.mark.parametrize("L", range(2, 13))
def test_least_level_at_real_part_is_bendixson_bound(L):
    # ground_state's exact Bendixson bound: the Hermitian part of
    # A + Delta D is A + Re Delta D, the same block at the real Re Delta
    blocks = sector_blocks(L, 1.0)
    for aniso in (0.95 + 0.01j, 1.05 - 0.03j, -2.5 + 0.7j, 3.5 - 1.2j, 0.3j):
        want = [np.linalg.eigvalsh(0.5 * (h + h.conj().T))[0]
                for a, d, *_ in blocks.stacks
                for h in xxz._block_matrices(a, d, np.asarray(aniso))]
        vals = blocks.eigvals(aniso.real).real
        got = vals[blocks.first]  # ascending per block: the first is the least
        assert np.array_equal(got, np.minimum.reduceat(vals, blocks.first))
        assert np.allclose(got, want, rtol=0.0, atol=1e-12 * max(1.0, abs(aniso)))


# --- partition function -------------------------------------------------------

def test_partition_infinite_temperature():
    # beta -> 0+: every Boltzmann weight tends to 1, so Z counts the 2^L states
    assert partition_scaled(5, 1.0, 1e-300, 1.1 + 0.2j) == pytest.approx(2.0 ** 5, rel=1e-15)


def test_partition_ground_doublet_dominates():
    scaled = partition_scaled(6, 1.0, 60.0, 1.5)
    assert abs(scaled - 2.0) < 1e-6  # both polarized states survive


def test_partition_zero_l2_closed_form():
    # scaled partition sum 2 + z^{-1}(1 + e^{-2 beta J}) vanishes where
    # exp(-beta J delta) = -2 up to the e^{-2 beta J} correction
    beta = 100.0
    delta = (-math.log(2.0) + 1j * math.pi) / beta
    assert abs(partition_scaled(2, 1.0, beta, 1.0 + delta)) <= 1e-6


@pytest.mark.parametrize("beta", [math.inf, math.nan, 0.0, -1.0])
def test_partition_rejects_bad_beta(beta):
    # beta = inf gave nan + nan i after two RuntimeWarnings
    with pytest.raises(DomainError, match="beta must be positive and finite"):
        partition_scaled(4, 1.0, beta, 1.01 + 0.1j)


@pytest.mark.parametrize("aniso", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                   complex(1.0, math.inf), complex(math.inf, 0.0)])
def test_non_finite_anisotropy_rejected_by_block_solve(aniso):
    # the complex values leaked numpy's LinAlgError, and nan + 0j failed in
    # the Hermitian kernel; the block solve refuses them before any warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: partition_scaled(4, 1.0, 10.0, aniso),
                     lambda: partition_scaled(4, 1.0, 10.0, np.array([1.0, aniso])),
                     lambda: full_spectrum(4, 1.0, aniso),
                     lambda: ground_state(4, 1.0, aniso)):
            with pytest.raises(DomainError, match="anisotropy Delta must be finite"):
                call()


# --- zero polynomial and analytic zeros ----------------------------------------

def test_zero_polynomial_small_sizes():
    assert np.allclose(zero_polynomial(2).coeffs, [2, 1])
    p3 = zero_polynomial(3)
    assert np.allclose(p3.coeffs, [2, 0, 2])
    assert np.allclose(sorted(roots_of_polynomial(p3), key=lambda z: z.imag),
                       [-1j, 1j], atol=1e-12)
    p4 = zero_polynomial(4)
    assert p4.degree == 4
    assert np.allclose(p4.coeffs, [2, 0, 0, 2, 1])


def test_zero_polynomial_coefficient_structure():
    for length in range(2, 13):
        poly = zero_polynomial(length)
        assert poly.coeffs[0] == 2.0
        expected_degree = (length // 2) ** 2 if length % 2 == 0 \
            else (length * length - 1) // 4
        assert poly.degree == expected_degree
        assert poly.coeffs[-1] == (1.0 if length % 2 == 0 else 2.0)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(length=st.integers(2, 300), beta=st.floats(1e-3, 1e3), j=st.floats(1e-3, 1e3))
def test_zero_polynomial_terms_match_dense_form(length, beta, j):
    # oracle: one unit per M = 0..L scattered into the dense coefficient list
    dense = np.zeros(length * length // 4 + 1)
    for m in range(length + 1):
        dense[m * (length - m)] += 1.0
    exponents = np.flatnonzero(dense)
    assert zero_polynomial_terms(length) == [(int(e), int(dense[e])) for e in exponents]
    assert np.array_equal(zero_polynomial(length).coeffs, dense.astype(complex))
    assert zero_density(length, beta, j) == \
        beta * j * (dense.size - 1) / (2.0 * math.pi * (length - 1))


@pytest.mark.parametrize("length", [18, 20, 24, 30, 31])
def test_analytic_zeros_certified_by_backward_error(length):
    # each of these failed an absolute residual gate of 1e-12 max|c_m|:
    # roots off the unit circle make |z|^degree, and so |p(z)|, large
    zeros = analytic_zeros(length, 100.0)
    assert len(zeros) == length * length // 4
    p = zero_polynomial(length)
    z = roots_of_polynomial(p)
    high = p.coeffs[::-1]
    backward = np.abs(np.polyval(high, z)) / np.polyval(np.abs(high), np.abs(z))
    assert np.max(backward) <= 4 * (p.degree + 1) * np.finfo(float).eps
    assert np.allclose(zeros, 1.0 - (length - 1) / 100.0 * np.log(z), rtol=0, atol=1e-12)


def test_analytic_zeros_l2_position():
    # the root z = -2 is a Boltzmann weight, so the zero sits at
    # Delta = 1 - ln(2)/beta + i pi / beta (and its conjugate images)
    zeros = analytic_zeros(2, 100.0, 1.0)
    assert len(zeros) == 1
    z = zeros[0]
    assert abs(z.real - (1.0 - math.log(2.0) / 100.0)) < 1e-12
    assert abs(abs(z.imag) - math.pi / 100.0) < 1e-12


@pytest.mark.parametrize("L", [2, 6, 10, 14, 18])
def test_real_negative_root_takes_the_upper_side_of_the_cut(L):
    # at L = 2 mod 4 the degree is odd, so one root is real and negative;
    # Log takes it from above, so its n = 0 zero lies at Im Delta =
    # -pi (L - 1)/(beta J), not at the conjugate.  The Im z of the computed
    # root had either sign at the rounding scale (-6.7e-41 at L = 10).
    beta, j = 100.0, 0.5
    scale = (L - 1) / (beta * j)
    ims = np.array([z.imag for z in analytic_zeros(L, beta, j)])
    assert np.sum(np.abs(ims + math.pi * scale) <= 1e-14) == 1
    assert not np.any(np.abs(ims - math.pi * scale) <= 1e-6)


def test_analytic_zeros_beta_scaling():
    re_1 = sorted(z.real - 1.0 for z in analytic_zeros(6, 100.0, 1.0))
    re_2 = sorted(z.real - 1.0 for z in analytic_zeros(6, 200.0, 1.0))
    assert np.allclose(np.array(re_1), 2.0 * np.array(re_2), atol=1e-12)


def test_analytic_zero_count_per_window():
    assert len(analytic_zeros(6, 100.0, 1.0, n_window=(0,))) == 9  # (L/2)^2 for even L


def test_numeric_zero_near_analytic_l2():
    locus = locate_zeros_numeric(2, 100.0, 1.0, (0.95, 1.05), (0.0, 0.05),
                                 grid_n=40)
    assert len(locus.zeros) == 1
    target = analytic_zeros(2, 100.0, 1.0)[0]
    target = complex(target.real, abs(target.imag))
    assert abs(locus.zeros[0] - target) < 1e-4
    assert locus.residuals[0] <= 1e-8


def test_numeric_window_far_from_line_is_empty():
    locus = locate_zeros_numeric(6, 100.0, 1.0, (1.5, 1.6), (0.0, 0.05),
                                 grid_n=25)
    assert locus.zeros == []


@pytest.mark.parametrize("L", range(4, 9))
def test_nearest_zero_approaches_the_transition_at_rate_one_over_beta(L):
    # The ED zero nearest Delta = 1 lies at beta |z_min - 1| = c_L + e(beta),
    # c_L = (L - 1) min_j |Log z_j| over the multiplet polynomial's roots
    # (the first-order map's constant), with an O(1/beta) excess: e halves
    # with each doubling of beta.  Measured: e(beta) / e(2 beta) in
    # 1.980-2.004, beta e(beta) between 0.124 (L = 4) and 0.444 (L = 8).
    c_l = (L - 1) * np.min(np.abs(np.log(roots_of_polynomial(zero_polynomial(L)))))
    betas = 50.0 * 2.0 ** np.arange(5)
    excess = []
    for beta in betas:
        locus = locate_zeros_numeric(L, beta, 1.0, (1 - 10 / beta, 1 + 10 / beta),
                                     (0.0, 20 / beta), grid_n=80)
        z_min = min(locus.zeros, key=lambda z: abs(z - 1))
        excess.append(beta * abs(z_min - 1) - c_l)
    excess = np.array(excess)
    assert np.all((excess > 0) & (betas * excess < 0.5))
    ratios = excess[:-1] / excess[1:]
    assert np.all((ratios > 1.95) & (ratios < 2.05)), ratios


def _scan_cells(grid: np.ndarray) -> list[tuple[int, int]]:
    """(cells, negative): the full scan of every plaquette of ``grid``.

    ``grid[i, j]`` is Z at (res[i], ims[j]); a plaquette's winding sums
    the four wrapped phase steps counterclockwise from its corner (i, j).
    ``cells`` lists the plaquettes with |W| >= pi in (i, j) order, and
    ``negative`` says whether any plaquette winds by <= -pi.
    """
    phase = np.angle(grid)

    def wrap(d):
        return (d + math.pi) % (2.0 * math.pi) - math.pi

    winding = (wrap(phase[1:, :-1] - phase[:-1, :-1])
               + wrap(phase[1:, 1:] - phase[1:, :-1])
               + wrap(phase[:-1, 1:] - phase[1:, 1:])
               + wrap(phase[:-1, :-1] - phase[:-1, 1:]))
    negative = bool((winding <= -math.pi).any())
    return [(int(i), int(j)) for i, j in np.argwhere(np.abs(winding) >= math.pi)], negative


@settings(max_examples=15, deadline=None, database=None, derandomize=True)
@given(L=st.integers(2, 8), beta=st.floats(25.0, 100.0), grid_n=st.integers(2, 90),
       re0=st.floats(0.85, 1.0), re_width=st.floats(0.01, 0.25),
       im0=st.floats(-0.3, 0.3), im_width=st.floats(0.01, 0.4))
def test_bisected_cells_equal_full_scan(L, beta, grid_n, re0, re_width, im0, im_width):
    res = np.linspace(re0, re0 + re_width, grid_n)
    ims = np.linspace(im0, im0 + im_width, grid_n)
    grid = partition_scaled(L, 1.0, beta, res[:, None] + 1j * ims[None, :])
    visited = np.zeros(grid.shape, dtype=int)

    def lookup(aniso):
        i = np.searchsorted(res, aniso.real)
        j = np.searchsorted(ims, aniso.imag)
        visited[i, j] += 1
        return grid[i, j]

    cells = xxz._winding_cells(lookup, res, ims)
    expect, negative = _scan_cells(grid)
    # a bisected cell is a plaquette the scan flags; a plaquette that winds
    # by -2 pi (aliasing on a coarse lattice) can cancel a zero's +2 pi in
    # a larger rectangle, and only then may the bisection flag fewer
    assert set(cells) <= set(expect)
    if not negative:
        assert cells == expect
    assert visited.max() <= 1  # no lattice point is evaluated twice


@pytest.mark.parametrize("L", [4, 6, 8])
def test_lockstep_secant_equals_serial(L):
    def f(d):
        return partition_scaled(L, 1.0, 100.0, 1.0 + d)

    seeds = [z - 1.0 for z in analytic_zeros(L, 100.0)]
    step = 1e-4 * (1.0 + 1j)

    def counted(calls):
        def g(d):
            calls.append(d.size)
            return f(d)
        return g

    lockstep_calls: list[int] = []
    lockstep = xxz._drive(counted(lockstep_calls),
                          [xxz._secant_refine(z, step) for z in seeds])
    serial, serial_calls = [], []
    for z in seeds:
        calls: list[int] = []
        serial += xxz._drive(counted(calls), [xxz._secant_refine(z, step)])
        serial_calls.append(len(calls))
    assert lockstep == serial
    # one call per step, over every seed still running
    assert len(lockstep_calls) == max(serial_calls)
    assert sum(lockstep_calls) == sum(serial_calls)
    # the reported residual is |Z| at the returned root
    for root, residual in lockstep:
        assert residual == abs(partition_scaled(L, 1.0, 100.0, 1.0 + root))


def _secant_points(f, z0, step):
    """(result, points): ``_secant_refine`` on f(z) from z0, and every point it evaluated."""
    points = []

    def g(z):
        points.extend(z.tolist())
        return f(z)

    return xxz._drive(g, [xxz._secant_refine(z0, step)])[0], points


def test_secant_stops_before_a_non_finite_step():
    # Z = 1 at the start and inf at the second point: the secant step is
    # nan, and the iteration returns None without evaluating it
    result, points = _secant_points(lambda z: np.where(z == 0.5, 1.0, np.inf), 0.5, 0.1)
    assert result is None
    assert points == [0.5, 0.6]


def test_secant_gives_up_after_sixty_steps():
    # z^2 + 1 from a real start: the secant stays on the real axis, where
    # |f| >= 1, so it neither converges nor meets a flat or non-finite step
    result, points = _secant_points(lambda z: z * z + 1.0, 0.3, 0.1)
    assert result is None
    assert len(points) == 62 and all(abs(z * z + 1.0) >= 1.0 for z in points)


def test_zero_search_drops_unconverged_and_duplicate_candidates(monkeypatch):
    args = (6, 100.0, 1.0, (0.9, 1.1), (0.0, 0.2), 40)
    real_drive = xxz._drive
    polished = []

    def drive(f, iterations):
        polished[:] = real_drive(f, iterations)
        return list(polished)

    monkeypatch.setattr(xxz, "_drive", drive)
    base = locate_zeros_numeric(*args)
    assert len(polished) >= 3 and len(base.zeros) == len(polished) and not base.dropped

    def altered(f, iterations):
        results = real_drive(f, iterations)
        # candidate 0 does not converge; candidate 2 lands 5e-7 from candidate 1
        results[0] = None
        results[2] = (results[1][0] + 5e-7, results[1][1])
        return results

    monkeypatch.setattr(xxz, "_drive", altered)
    locus = locate_zeros_numeric(*args)
    kept = [k for k in range(len(polished)) if k not in (0, 2)]
    assert sorted(locus.zeros, key=lambda z: (z.real, z.imag)) == sorted(
        (1.0 + polished[k][0] for k in kept), key=lambda z: (z.real, z.imag))
    assert sorted(locus.residuals) == sorted(polished[k][1] for k in kept)
    # the unconverged candidate is reported at the center of its cell
    res = np.linspace(*args[3], args[5])
    ims = np.linspace(*args[4], args[5])
    i, j = xxz._winding_cells(lambda a: partition_scaled(6, 1.0, 100.0, a), res, ims)[0]
    center = complex(0.5 * (res[i] + res[i + 1]), 0.5 * (ims[j] + ims[j + 1]))
    assert len(locus.dropped) == 1 and abs(locus.dropped[0] - center) <= 1e-15


def test_verify_pairing_l4():
    pairing = verify_analytic_zeros(4, 100.0)
    assert pairing.max_distance <= 5e-3
    assert max(pairing.residuals) <= 1e-8


@pytest.mark.parametrize("L", [6, 8])
def test_verify_pairing_one_to_one(L):
    # at beta = 100 the secant roots from two analytic-zero seeds coincide
    # at both sizes; the deflated re-polish must give each its own partner
    pairing = verify_analytic_zeros(L, 100.0)
    assert len(pairing.numeric) == zero_polynomial(L).degree
    for i, z in enumerate(pairing.numeric):
        assert all(abs(z - w) > 1e-8 for w in pairing.numeric[:i])
    assert max(pairing.residuals) <= 1e-8


def test_verify_pairing_raises_without_distinct_partner(monkeypatch):
    # a residual with a single zero cannot supply four distinct partners
    monkeypatch.setattr(xxz, "partition_scaled",
                        lambda L, J, beta, aniso: aniso - 1.0)
    with pytest.raises(YangLeeError, match="no distinct partition zero"):
        verify_analytic_zeros(4, 100.0)


def test_verify_pairing_shrinks_with_beta():
    eps = {beta: verify_analytic_zeros(5, beta).max_distance
           for beta in (25.0, 50.0, 100.0)}
    assert eps[25.0] / eps[50.0] >= 1.8
    assert eps[50.0] / eps[100.0] >= 1.8


# --- reduced Bethe roots --------------------------------------------------------

def test_bethe_single_magnon():
    roots = solve_bethe_roots(6, 1)
    assert np.allclose(roots.zeta, [0.0])


def test_bethe_l4_m2_closed_form():
    roots = solve_bethe_roots(4, 2)
    expect = np.array([-1j, 1j]) / math.sqrt(3.0)
    assert np.allclose(np.sort_complex(roots.zeta), np.sort_complex(expect),
                       atol=1e-10)


def test_bethe_l5_m2_sum_rule():
    roots = solve_bethe_roots(5, 2)
    assert abs(np.sum(roots.zeta ** 2) + 0.5) <= 1e-9


def test_bethe_roots_distinct_and_symmetric():
    roots = solve_bethe_roots(10, 4)
    z = roots.zeta
    dist = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(dist, np.inf)
    assert dist.min() > 1e-8
    # root set closed under zeta -> -zeta
    for zi in z:
        assert np.min(np.abs(z + zi)) < 1e-8


def test_bethe_invalid_sector():
    # M > L/2 is the spin-flipped copy E_M = E_{L-M}
    for length, m in ((4, 0), (4, 3), (4, 4), (12, 7), (11, 6)):
        with pytest.raises(DomainError):
            solve_bethe_roots(length, m)


def test_bethe_roots_are_gegenbauer_zeros():
    # scipy's Gegenbauer nodes are an independent kernel for the closed form;
    # past L = 62 closed-form residuals exceed 1e-12, and at L = 128, 200 and
    # 221 the Jacobi nodes miss the gate and take a Newton step
    worst = 0.0
    for length in (*range(2, 63), 63, 92, 128, 200, 221):
        for m in range(1, length // 2 + 1):
            t, _ = roots_gegenbauer(m, (length - 2 * m + 1) / 2.0)
            worst = max(worst, np.max(np.abs(solve_bethe_roots(length, m).zeta
                                             - 1j * np.sort(t))))
    assert worst <= 5e-15


def _bethe_g(length, t):
    return length * t + 2.0 * xxz._bethe_terms(t).sum(axis=1)


@pytest.mark.parametrize("length, m", [(128, 38), (200, 54), (221, 63)])
def test_bethe_polished_sectors(length, m, monkeypatch):
    # the Jacobi nodes of these sectors miss the gate; one closed-form
    # Newton step certifies them, and the roots stay exactly imaginary
    steps = []
    jacobian = xxz._bethe_jacobian
    monkeypatch.setattr(xxz, "_bethe_jacobian",
                        lambda *args: steps.append(args) or jacobian(*args))
    z = solve_bethe_roots(length, m).zeta
    assert len(steps) == 1
    assert np.all(z.real == 0.0) and not np.any(np.signbit(z.real))
    nodes = steps[0][1]
    scale = np.max(length * np.abs(nodes)
                   + 2.0 * np.abs(xxz._bethe_terms(nodes)).sum(axis=1))
    assert np.max(np.abs(_bethe_g(length, z.imag))) <= (m + 8) * np.finfo(float).eps * scale
    t, _ = roots_gegenbauer(m, (length - 2 * m + 1) / 2.0)
    assert np.max(np.abs(z.imag - np.sort(t))) <= 5e-15


def test_bethe_jacobian_matches_central_differences():
    rng = np.random.default_rng(7)
    length, t, h = 23, np.sort(rng.uniform(-1.0, 1.0, 9)), 1e-6
    fd = np.empty((t.size, t.size))
    for l in range(t.size):
        e = np.zeros(t.size)
        e[l] = h
        fd[:, l] = (_bethe_g(length, t + e) - _bethe_g(length, t - e)) / (2.0 * h)
    jac = xxz._bethe_jacobian(length, t)
    assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(jac))


@pytest.mark.parametrize("nodes, jacobian", [
    (lambda d, e: np.array([-0.5, -0.5, 0.5, 0.5]), None),  # coincident
    (lambda d, e: 1e3 * np.linspace(-1.0, 1.0, d.size), None),  # far off
    (lambda d, e: 1e3 * np.linspace(-1.0, 1.0, d.size), np.zeros((4, 4))),
])
def test_bethe_failed_polish_raises_with_last_iterate(nodes, jacobian, monkeypatch):
    monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", nodes)
    if jacobian is not None:
        monkeypatch.setattr(xxz, "_bethe_jacobian", lambda *args: jacobian)
    with np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(CertificateError, match="L = 9, M = 4") as info:
        solve_bethe_roots(9, 4)
    assert info.value.best.shape == (4,) and np.all(info.value.best.real == 0.0)
    gate = float(re.search(r"gate (\S+) after", str(info.value)).group(1))
    # the gate also needs a finite residual: coincident nodes make both inf
    assert info.value.residual > gate or not math.isfinite(info.value.residual)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_bethe_closed_form_property(data):
    length = data.draw(st.integers(2, 62))
    m = data.draw(st.integers(1, length // 2))
    roots = solve_bethe_roots(length, m)
    z = roots.zeta
    assert z.shape == (m,)
    assert np.max(np.abs(_bethe_g(length, z.imag))) <= 1e-12
    assert np.all(z.real == 0.0) and not np.any(np.signbit(z.real))
    assert np.all(np.diff(z.imag) > 0.0)
    assert np.array_equal(z.imag, -z.imag[::-1])  # the exact set is odd
    assert roots.sum_rule_linear <= 1e-12
    assert roots.sum_rule_quadratic <= 1e-12 * max(1.0, m * m / length)


# --- energies, gaps, response ----------------------------------------------------

def test_gap_formulas():
    assert abs(multiplet_gap(6, 1.0, -0.05) - 0.01) < 1e-12
    assert abs(multiplet_gap(6, 0.5, -0.05) - 0.005) < 1e-12


def test_gapless_spacing_doubles_at_odd_length():
    # at odd L the lowest multiplets M = (L -+ 1)/2 are degenerate, so the
    # gap is to M = (L -+ 3)/2, twice the even-L spacing; at L = 3 the
    # first-order levels are exact
    assert multiplet_gap(5, 1.0, -0.03) == pytest.approx(0.015)
    assert multiplet_gap(6, 1.0, -0.03) == pytest.approx(0.006)
    for length, rel in ((3, 1e-12), (5, 0.01), (7, 0.02), (9, 0.02)):
        pred = multiplet_gap(length, 1.0, -0.03)
        assert abs(xxz.ed_gap(length, 1.0, -0.03) / pred - 1.0) < rel, length


def test_first_order_slope_from_ed():
    # d(sector minimum)/d(delta) at the isotropic point, with the polarized
    # drift -J L / 4 removed, must equal J M (L - M) / (L - 1)
    length, m = 4, 2
    sector = magnon_sector(length, m)
    h_step = 1e-4
    vals = []
    for d in (h_step, -h_step):
        h = build_sector_hamiltonian(sector, 1.0, 1.0 + d)
        vals.append(scipy.linalg.eigvals(h).real.min())
    slope = (vals[0] - vals[1]) / (2.0 * h_step) + length / 4.0
    target = m * (length - m) / (length - 1)
    assert abs(slope - target) <= 1e-6 * target


@pytest.mark.parametrize("L", range(4, 15))
def test_second_order_multiplet_energies(L):
    # E_M(1 + delta) = -L/4 + a_M delta + b_M delta^2 + O(delta^3) at J = 1,
    # by Rayleigh-Schroedinger on H(1) + delta diag(d) in the one q = 0 block
    # whose least level is the Dicke level -L/4.  The largest deviation
    # measured over L = 4..14 is 4.4e-14 (b_M at L = 14, M = 7).
    blocks = sector_blocks(L, 1.0)
    for m in range(1, L // 2 + 1):
        found = []
        for a, d, ms, qs, *_ in blocks.stacks:
            for i in np.flatnonzero((ms == m) & (qs == 0)):
                e, v = np.linalg.eigh(a[i] + np.diag(d[i]))
                if abs(e[0] + L / 4.0) <= 1e-10:
                    found.append((e, v, d[i]))
        assert len(found) == 1, m
        e, v, d = found[0]
        coupling = v.conj().T @ (d * v[:, 0])  # <n|d|0>
        a_m = coupling[0].real
        b_m = np.sum(np.abs(coupling[1:]) ** 2 / (e[0] - e[1:]))
        assert abs(a_m - (-L / 4.0 + m * (L - m) / (L - 1))) <= 2e-13, m
        assert abs(b_m + m * (m - 1) * (L - m) * (L - m - 1) / (6.0 * (L - 1) ** 2)) <= 2e-13, m


@pytest.mark.parametrize("L, measured", [(4, 5.66e-5), (5, 3.41e-7), (6, 7.15e-4),
                                         (7, 1.75e-4)])
def test_second_order_zero_map_against_ed(L, measured):
    # The zeros of sum_M exp(-beta (delta a_M + eps delta^2 b_M)), J = 1,
    # with a_M and b_M of test_second_order_multiplet_energies less the
    # common -L/4 delta, continued by Newton from each first-order zero
    # (eps = 0) to eps = 1 in 50 steps.  Paired one-to-one with the ED
    # zeros, their worst distance at beta = 100 was measured as
    # ``measured``, against 4.19e-3, 6.16e-4, 1.79e-2 and 4.66e-3 for the
    # first-order map at L = 4..7; the bound is twice the measurement.
    # At L = 8 (lambda = L^2/beta = 0.64) the two maps are 1.9e-2 and
    # 2.3e-2 away, so it is not asserted.
    beta = 100.0
    m = np.arange(L + 1)
    a = m * (L - m) / (L - 1)
    b = -m * (m - 1) * (L - m) * (L - m - 1) / (6.0 * (L - 1) ** 2)
    second = []
    for z in analytic_zeros(L, beta):
        d = z - 1.0
        for eps in np.arange(1, 51) / 50:
            for _ in range(20):
                w = np.exp(-beta * (d * a + eps * d * d * b))
                step = np.sum(w) / np.sum(-beta * (a + 2.0 * eps * d * b) * w)
                d -= step
                if abs(step) < 1e-15:
                    break
        second.append(1.0 + d)
    pairing = verify_analytic_zeros(L, beta, 1.0)
    apart = np.abs(np.subtract.outer(second, second)) + np.diag(np.full(len(second), np.inf))
    assert apart.min() > 1e-3  # a distinct set
    dist = np.abs(np.subtract.outer(second, pairing.numeric))
    worst = dist[linear_sum_assignment(dist)].max()
    assert worst < pairing.max_distance
    assert worst <= 2.0 * measured


@pytest.mark.parametrize("L", range(2, 11))
@pytest.mark.parametrize("delta_re", [-0.05, 0.3])
@pytest.mark.parametrize("J", [1.0, 0.7])
def test_ed_gap_matches_sector_oracle(L, delta_re, J):
    # oracle: eigvalsh of every plain M sector; the largest difference
    # measured over these cases is 1.1e-14
    levels = np.sort(np.concatenate([
        np.linalg.eigvalsh(build_sector_hamiltonian(magnon_sector(L, m), J, 1.0 + delta_re))
        for m in range(L + 1)]))
    oracle = levels[levels > levels[0] + 1e-12][0] - levels[0]
    assert abs(xxz.ed_gap(L, J, delta_re) - oracle) <= 5e-14


def test_zero_density_value_and_scaling():
    g = zero_density(6, 100.0, 1.0)
    assert abs(g - 100.0 * 9.0 / (2.0 * math.pi * 5.0)) < 1e-12
    assert zero_density(6, 200.0, 1.0) / g == pytest.approx(2.0)


def test_zero_density_against_analytic_count():
    length, beta = 6, 100.0
    period = 2.0 * math.pi * (length - 1) / beta
    window = 3.5 * period
    n_max = int(window / period) + 2
    zeros = analytic_zeros(length, beta, 1.0, n_window=range(-1, n_max + 1))
    count = sum(1 for z in zeros if 0.0 <= z.imag <= window)
    g = zero_density(length, beta, 1.0)
    assert abs(count / window - g) / g <= 0.1


def test_susceptibility_scaling():
    scan = susceptibility_scaling(12, 1.0, [-0.02, -0.05, -0.1])
    assert abs(scan.sigma_fit - 1.0) <= 0.02
    chis = dict(scan.table)
    assert all(c > 0 for c in chis.values())
    assert chis[0.05] / chis[0.1] == pytest.approx(2.0, abs=1e-10)


def test_susceptibility_closed_form():
    for length, j in ((2, 1.0), (7, 0.3), (12, 2.5)):
        deltas = [-0.001, -0.02, -0.3]
        scan = susceptibility_scaling(length, j, deltas)
        for (mag, chi), d in zip(scan.table, deltas):
            assert mag == abs(d)
            assert chi == pytest.approx(-(length - 1) / (length * j * d), rel=1e-15)
        assert scan.sigma_fit == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("length,j", [(1, 1.0), (8, 0.0), (8, -1.0)])
def test_susceptibility_rejects_bad_chain(length, j):
    with pytest.raises(DomainError):
        susceptibility_scaling(length, j, [-0.02, -0.05])
    with pytest.raises(DomainError):
        multiplet_gap(length, j, -0.05)


def test_analytic_zeros_degree_cap():
    # L = 2000 has degree 10^6: its companion matrix would need 14.6 TiB
    with pytest.raises(DomainError, match="degree <= 1024"):
        analytic_zeros(2000, 100.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_coupling_and_temperature_rejected(bad):
    # NaN and inf passed the sign checks and reached LAPACK or a fit
    for call in (lambda: ground_state(4, bad, 0.9),
                 lambda: sector_blocks(4, bad),
                 lambda: analytic_zeros(4, bad),
                 lambda: analytic_zeros(4, 50.0, bad),
                 lambda: zero_density(4, bad),
                 lambda: zero_density(4, 50.0, bad),
                 lambda: susceptibility_scaling(4, bad, [-0.02, -0.05]),
                 lambda: susceptibility_scaling(4, 1.0, [-bad, -0.05]),
                 lambda: multiplet_gap(4, bad, -0.05),
                 lambda: multiplet_gap(4, 1.0, bad)):
        with pytest.raises(DomainError, match="finite"):
            call()


def test_susceptibility_needs_gapless_side():
    with pytest.raises(DomainError):
        susceptibility_scaling(8, 1.0, [0.05])


@pytest.mark.parametrize("deltas", [[], [-0.05], [-0.05, -0.05]])
def test_susceptibility_fit_needs_two_points(deltas):
    # a slope through fewer than two distinct |delta| is not an exponent
    with pytest.raises(DomainError, match="two distinct"):
        susceptibility_scaling(8, 1.0, deltas)


# --- ground state -----------------------------------------------------------------

def test_gapped_ground_state_is_polarized_product():
    m, energy, psi = ground_state(10, 1.0, 1.05)
    assert m == 0
    assert abs(energy - (-10 * 1.05 / 4.0)) < 1e-10
    assert state_ee(psi, 10, 5) <= 1e-10


def test_gapless_ground_state_sector():
    m, energy, psi = ground_state(8, 1.0, 0.99 + 0.01j)
    assert m == 4
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


# --- ground state through the (M, k) blocks against the sector oracle -------------

# 1.0: the whole multiplet is degenerate, so every sector's q = 0 block
# ties for the lowest level; -2.5 + 0.2j and 3.5 - 0.3j lie deep on the
# gapless and gapped sides; 0.6 + 0.4j puts odd L far onto the gapless side
GROUND_ANISOTROPIES = (0.95 + 0.03j, 1.04 + 0.02j, 0.9, 1.1, 1.0,
                       -2.5 + 0.2j, 3.5 - 0.3j, 0.6 + 0.4j)


def _oracle_eig(a):
    """scipy.linalg.eig sorted by (Re, Im): values and unit right vectors.

    Every column's residual |a r - lambda r| is at most 1e-10 |a|_F.
    """
    values, vectors = scipy.linalg.eig(a)
    assert (np.max(np.linalg.norm(a @ vectors - vectors * values, axis=0))
            <= 1e-10 * np.linalg.norm(a))
    order = np.lexsort((values.imag, values.real))
    return values[order], vectors[:, order]


def _oracle_ground_state(L: int, J: float, aniso: complex):
    """(M, energy, sector spectrum, vector) from every plain M sector.

    The least eigenvalue by (Re, Im) of each sector is a candidate; a
    later M wins only when its real part is lower by more than 1e-12.
    """
    best = None
    for m in range(L + 1):
        h0, d = _oracle_sector_parts(L, m, J)
        vals = scipy.linalg.eigvals(h0 + aniso * d)
        low = vals[np.lexsort((vals.imag, vals.real))[0]]
        if best is None or low.real < best[1].real - 1e-12:
            best = (m, low)
    h0, d = _oracle_sector_parts(L, best[0], J)
    values, vectors = _oracle_eig(h0 + aniso * d)
    return best[0], values[0], values, vectors[:, 0]


@pytest.mark.parametrize("L", range(2, 11))
@pytest.mark.parametrize("J", [1.0, 0.7])
def test_ground_state_matches_sector_oracle(L, J):
    for aniso in GROUND_ANISOTROPIES:
        m_ref, e_ref, spectrum, vec_ref = _oracle_ground_state(L, J, aniso)
        m, energy, psi = ground_state(L, J, aniso)
        assert m == m_ref
        assert abs(energy - e_ref) <= 1e-10
        if aniso.real < 1:  # gapless side: for odd L spin flip ties M with L - M
            assert m == L // 2
        sector = magnon_sector(L, m)
        h0, d = _oracle_sector_parts(L, m, J)
        h = h0 + aniso * d
        v = psi[sector.basis]
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-12  # psi lies in the M sector
        assert np.linalg.norm(h @ v - energy * v) <= 1e-10 * np.linalg.norm(h)
        if np.sum(np.abs(spectrum - e_ref) <= 1e-8) == 1:
            overlap = np.vdot(vec_ref, v) / np.linalg.norm(vec_ref)
            assert abs(overlap) >= 1.0 - 1e-10


def _exhaustive_ground_state(L: int, J: float, aniso: complex):
    """ground_state's selection over the eigenvalues of every (M, k) block.

    (M, energy, psi, winning block matrix, its words, coefs, q).  The vector
    comes from the same inverse iteration as in ground_state, so that a
    byte comparison isolates the pruning.
    """
    blocks = sector_blocks(L, J)
    vals, mags = blocks.eigvals(aniso), blocks.magnons
    win = None
    for m in np.unique(mags):
        mine = np.flatnonzero(mags == m)
        c = mine[np.lexsort((vals[mine].imag, vals[mine].real))[0]]
        if win is None or vals[c].real < vals[win].real - 1e-12:
            win = c
    b = np.flatnonzero(blocks.first <= win)[-1]  # the block that holds column win
    a, d, q, words, coefs = blocks.block(b)
    assert win < blocks.first[b] + d.size
    h = xxz._block_matrices(a[None], d[None], np.asarray(aniso, dtype=complex))[0]
    psi = xxz._momentum_state(L, words, coefs, q, inverse_iteration(h, vals[win]))
    return (int(mags[win]), complex(vals[win]), psi / np.linalg.norm(psi),
            h, words, coefs, q)


@pytest.mark.parametrize("L", range(2, 13))
@settings(max_examples=8, deadline=None, database=None, derandomize=True)
@given(J=st.sampled_from([1.0, 0.7]),
       re=st.one_of(st.floats(-3.0, 3.0), st.floats(0.9, 1.1), st.just(1.0)),
       im=st.one_of(st.floats(-1.0, 1.0), st.floats(-0.05, 0.05), st.just(0.0)))
def test_pruned_ground_state_equals_exhaustive(L, J, re, im):
    # ground_state solves only the blocks whose Bendixson bound can reach
    # the lowest level; the result must be the one the full spectrum picks
    aniso = complex(re, im)
    m, energy, psi = ground_state(L, J, aniso)
    m_ref, energy_ref, psi_ref, h, words, coefs, q = _exhaustive_ground_state(L, J, aniso)
    assert m == m_ref
    assert np.array([energy]).tobytes() == np.array([energy_ref]).tobytes()
    assert psi.tobytes() == psi_ref.tobytes()
    # independently of inverse iteration: where the level is simple in its
    # block, psi is the vector of a full eigendecomposition of that block
    values, vectors = _oracle_eig(h)
    near = np.abs(values - energy) <= 1e-8
    if np.sum(near) == 1:
        vec = xxz._momentum_state(L, words, coefs, q, vectors[:, np.argmax(near)])
        assert abs(np.vdot(vec, psi)) / np.linalg.norm(vec) >= 1.0 - 1e-10


def _general_kernel_nonempty(monkeypatch) -> list:
    """Make the general kernel fail on an empty stack; the list records its calls."""
    general, calls = np.linalg.eigvals, []

    def nonempty(a):
        assert a.size, "general kernel called with an empty stack"
        calls.append(a.shape)
        return general(a)

    monkeypatch.setattr(np.linalg, "eigvals", nonempty)
    return calls


@pytest.mark.parametrize("L, solves", [(10, 6), (12, 7), (14, 8)])
def test_real_ground_state_solves_each_candidate_once(L, solves, monkeypatch):
    # at real Delta a block is its own Hermitian part, so the eigvalsh that
    # gives its exact Bendixson bound is already its spectrum; at Delta = 1
    # the whole multiplet is degenerate, so many blocks are candidates
    m_ref, energy_ref, psi_ref = _exhaustive_ground_state(L, 1.0, 1.0)[:3]
    blocks = sector_blocks(L, 1.0)
    blocks.bounds  # the cached Delta = 1 floors are not part of the call
    # distinct blocks may hold equal matrices (1 x 1 ones at L = 10, 12, 14)
    held = Counter(h.tobytes() for a, d, *_ in blocks.stacks
                   for h in xxz._block_matrices(a, d, np.asarray(1.0 + 0j)))
    seen = []
    hermitian = xxz.hermitian_eigvals

    def counted(a, *args, **kwargs):
        seen.extend(h.tobytes() for h in a.reshape(-1, *a.shape[-2:]))
        return hermitian(a, *args, **kwargs)

    monkeypatch.setattr(xxz, "hermitian_eigvals", counted)
    _general_kernel_nonempty(monkeypatch)
    m, energy, psi = ground_state(L, 1.0, 1.0)
    assert len(seen) == solves
    assert not Counter(seen) - held  # no matrix more often than the blocks hold it
    assert m == m_ref
    assert np.array([energy]).tobytes() == np.array([energy_ref]).tobytes()
    assert psi.tobytes() == psi_ref.tobytes()


@pytest.mark.parametrize("L", [10, 12])
def test_complex_ground_state_solves_no_empty_stack(L, monkeypatch):
    # at Re Delta = 0.95 most stacks hold no block near the lowest level
    m_ref, energy_ref, psi_ref = _exhaustive_ground_state(L, 1.0, 0.95 + 0.01j)[:3]
    calls = _general_kernel_nonempty(monkeypatch)
    m, energy, psi = ground_state(L, 1.0, 0.95 + 0.01j)
    assert calls  # the hook sits where the general kernel is called
    assert m == m_ref
    assert np.array([energy]).tobytes() == np.array([energy_ref]).tobytes()
    assert psi.tobytes() == psi_ref.tobytes()


@pytest.mark.parametrize("L", [10, 12])
@pytest.mark.parametrize("aniso, hermitian, general", [(0.95 + 0.01j, 2, 1),
                                                       (1.05 + 0.03j, 0, 1)])
def test_complex_ground_state_solve_counts(L, aniso, hermitian, general, monkeypatch):
    # the matrices each kernel receives per call: the Weyl bound keeps two
    # blocks besides the first at 0.95 + 0.01j and none at 1.05 + 0.03j,
    # and the exact Bendixson bound then excludes both
    m_ref, energy_ref, psi_ref = _exhaustive_ground_state(L, 1.0, aniso)[:3]
    sector_blocks(L, 1.0).bounds  # the cached Delta = 1 floors are not part of the call
    seen = {"hermitian": 0, "general": 0}

    def counted(kind, kernel):
        def call(a, *args, **kwargs):
            seen[kind] += a.size // (a.shape[-1] * a.shape[-2])
            return kernel(a, *args, **kwargs)
        return call

    monkeypatch.setattr(xxz, "hermitian_eigvals", counted("hermitian", xxz.hermitian_eigvals))
    monkeypatch.setattr(np.linalg, "eigvals", counted("general", np.linalg.eigvals))
    m, energy, psi = ground_state(L, 1.0, aniso)
    assert seen == {"hermitian": hermitian, "general": general}
    assert m == m_ref
    assert np.array([energy]).tobytes() == np.array([energy_ref]).tobytes()
    assert psi.tobytes() == psi_ref.tobytes()


@pytest.mark.parametrize("L", range(2, 9))
def test_momentum_state_expansion_matches_sector_oracle(L):
    # Every ground level above sits in a k = 0 or k = pi block, where the
    # sign of the momentum phase is invisible, so every eigenvector of
    # every (M, k) block is expanded here.
    blocks = sector_blocks(L, 1.0)
    for aniso in ENGINE_ANISOTROPIES:
        sectors = [magnon_sector(L, m) for m in range(L + 1)]
        hams = [build_sector_hamiltonian(s, 1.0, aniso) for s in sectors]
        for a, d, ms, momenta, words, coefs in blocks.stacks:
            for i, m in enumerate(ms):
                vals, vecs = np.linalg.eig(a[i] + aniso * np.diag(d[i]))
                h = hams[m]
                for val, vec in zip(vals, vecs.T):
                    psi = xxz._momentum_state(L, words[i], coefs[i], momenta[i], vec)
                    v = psi[sectors[m].basis]
                    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
                    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
                    assert np.linalg.norm(h @ v - val * v) <= 1e-10 * np.linalg.norm(h)

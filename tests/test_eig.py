import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from yanglee.errors import CertificateError, DomainError
from yanglee.numerics.eig import (
    _check_residual,
    dense_eigvals,
    hermitian_eigvals,
    inverse_iteration,
)
from yanglee.ssh import SSHParams, bloch_hamiltonian


def _oracle_eigvals(a):
    """scipy.linalg.eig's values, sorted by (Re, Im), residual <= 1e-10 |a|_F."""
    values, vectors = scipy.linalg.eig(a)
    assert (np.max(np.linalg.norm(a @ vectors - vectors * values, axis=0))
            <= 1e-10 * np.linalg.norm(a))
    return values[np.lexsort((values.imag, values.real))]


def test_bloch_matrix_at_band_touching():
    # u = v = w = 1, k = pi: |v + w e^{ik}| = 0, so eigenvalues are -+ i u
    h = bloch_hamiltonian(SSHParams(1.0, 1.0, 1.0), np.pi)
    assert np.allclose(dense_eigvals(h), [-1.0j, 1.0j], atol=1e-12)


def test_trace_and_determinant_identities():
    rng = np.random.default_rng(7)
    for n in (3, 20, 100):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a /= np.sqrt(n)
        values = dense_eigvals(a)
        assert abs(values.sum() - np.trace(a)) < 1e-8
        sign, logdet = np.linalg.slogdet(a)
        log_prod = np.sum(np.log(values))
        assert abs(np.exp(log_prod - logdet) - sign) < 1e-8


def test_eigvals_match_dense_eig():
    rng = np.random.default_rng(11)
    for n in (1, 4, 30, 80):
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
        assert np.max(np.abs(dense_eigvals(a) - _oracle_eigvals(a))) <= 1e-12


def test_eigvals_sorting_convention():
    vals = np.array([1.0 + 1.0j, 1.0 - 1.0j, -2.0, 0.5])
    expect = sorted(vals, key=lambda z: (z.real, z.imag))
    assert np.allclose(dense_eigvals(np.diag(vals)), expect)


def test_eigvals_gate_fires_on_bad_schur_form(monkeypatch):
    real_schur = scipy.linalg.schur

    def perturbed(a, output):
        t, z = real_schur(a, output=output)
        return t + 1e-6 * np.eye(t.shape[0]), z

    monkeypatch.setattr(scipy.linalg, "schur", perturbed)
    rng = np.random.default_rng(3)
    with pytest.raises(CertificateError) as info:
        dense_eigvals(rng.standard_normal((6, 6)))
    assert info.value.residual > 1e-10 and info.value.best is None


def test_failed_schur_raises_the_certificate_error(monkeypatch):
    def failing(a, output):
        raise scipy.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(scipy.linalg, "schur", failing)
    with pytest.raises(CertificateError, match="Schur decomposition failed") as info:
        dense_eigvals(np.eye(3))
    assert isinstance(info.value.__cause__, scipy.linalg.LinAlgError)


def test_eigvals_rejects_bad_input():
    with pytest.raises(DomainError):
        dense_eigvals(np.ones((2, 3)))
    with pytest.raises(DomainError):
        dense_eigvals(np.array([[np.nan, 0], [0, 1]]))


# --- real Schur path -----------------------------------------------------------

def _matched_distance(got, want):
    """Largest |got_i - want_j| over the closest one-to-one pairing."""
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


@pytest.mark.parametrize("n", [1, 2, 4, 30, 80])
def test_real_eigvals_match_dense_eig(n):
    rng = np.random.default_rng(100 + n)
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    got = dense_eigvals(a)
    assert got.dtype == complex
    assert _matched_distance(got, _oracle_eigvals(a)) <= 1e-12
    assert np.count_nonzero(got.imag) == np.count_nonzero(
        np.diag(scipy.linalg.schur(a, output="real")[0], -1)) * 2


def test_real_eigvals_of_last_two_by_two_block():
    # already in real Schur form: eigenvalue 5, then 1 +- i sqrt(6) in the
    # last 2x2 block, which LAPACK standardizes in place
    a = np.array([[5.0, 1.0, 1.0], [0.0, 1.0, 2.0], [0.0, -3.0, 1.0]])
    t, _ = scipy.linalg.schur(a, output="real")
    assert t[-1, -2] != 0.0
    got = dense_eigvals(a)
    want = [1.0 - 1j * np.sqrt(6.0), 1.0 + 1j * np.sqrt(6.0), 5.0]
    assert np.max(np.abs(got - want)) <= 1e-14
    assert _matched_distance(got, _oracle_eigvals(a)) <= 1e-12


def test_real_eigvals_pairs_are_exact_conjugates_in_sort_order():
    rng = np.random.default_rng(8)
    for n in (2, 7, 40):
        got = dense_eigvals(rng.standard_normal((n, n)))
        assert np.array_equal(np.lexsort((got.imag, got.real)), np.arange(n))
        # the spectrum is closed under conjugation, bit for bit
        assert sorted(map(complex, got.conj()), key=lambda z: (z.real, z.imag)) \
            == list(map(complex, got))


def test_real_eigvals_sorting_convention():
    rot = np.array([[1.0, 1.0], [-1.0, 1.0]])  # eigenvalues 1 +- i
    a = scipy.linalg.block_diag(0.5, rot, -2.0, 2.0)
    got = dense_eigvals(a)
    assert np.allclose(got, [-2.0, 0.5, 1.0 - 1.0j, 1.0 + 1.0j, 2.0], atol=1e-14)


@pytest.mark.parametrize("output", ["real", "complex"])
def test_eigvals_gate_fires_on_either_schur_form(monkeypatch, output):
    real_schur = scipy.linalg.schur
    seen = []

    def perturbed(a, output):
        seen.append(output)
        t, z = real_schur(a, output=output)
        return t + 1e-6 * np.eye(t.shape[0]), z

    monkeypatch.setattr(scipy.linalg, "schur", perturbed)
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6))
    if output == "complex":
        a = a + 1j * rng.standard_normal((6, 6))
    with pytest.raises(CertificateError) as info:
        dense_eigvals(a)
    assert seen == [output]
    assert info.value.residual > 1e-10


def test_dropped_norm_counts_toward_the_gate():
    a = np.random.default_rng(4).standard_normal((20, 20))
    norm = np.linalg.norm(a)
    assert np.array_equal(dense_eigvals(a, dropped=1e-12 * norm), dense_eigvals(a))
    with pytest.raises(CertificateError) as info:
        dense_eigvals(a, dropped=1e-9 * norm)
    assert info.value.residual >= 1e-9 / np.hypot(1.0, 1e-9)


def test_real_input_stays_real():
    calls = []
    real_schur = scipy.linalg.schur

    def spy(a, output):
        calls.append((a.dtype, output))
        return real_schur(a, output=output)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.linalg, "schur", spy)
        dense_eigvals(np.eye(3, dtype=int))
        dense_eigvals(np.eye(3) + 0j)
    assert calls == [(np.dtype(float), "real"), (np.dtype(complex), "complex")]


# --- one gate at every dimension -------------------------------------------------

def test_gate_holds_above_five_thousand():
    # the bound is 1e-10 at every dimension; only a nan or inf used to fail
    # above 5,000
    _check_residual(5e-11, 6000)
    for bad in (2e-10, np.nan, np.inf):
        with pytest.raises(CertificateError) as info:
            _check_residual(bad, 6000)
        assert info.value.residual is bad
    with pytest.raises(CertificateError):
        _check_residual(2e-10, 10)


# --- Hermitian kernel ------------------------------------------------------------

def _random_hermitian(rng, shape, n):
    a = rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n))
    return a + a.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("backward_error", [False, True])
def test_hermitian_eigvals_match_scipy_on_a_stack(backward_error):
    rng = np.random.default_rng(21)
    a = _random_hermitian(rng, (2, 3), 12)
    got = hermitian_eigvals(a, backward_error=backward_error)
    assert got.shape == (2, 3, 12) and got.dtype == float
    for idx in np.ndindex(2, 3):
        want = scipy.linalg.eigvalsh(a[idx])
        assert np.max(np.abs(got[idx] - want)) <= 1e-12 * np.max(np.abs(want))
    # any memory layout: a Fortran-ordered stack gives the same values
    fortran = hermitian_eigvals(np.asfortranarray(a), backward_error=backward_error)
    assert np.array_equal(fortran, got)


def test_hermitian_eigvals_per_matrix_bits_do_not_depend_on_the_stack():
    a = _random_hermitian(np.random.default_rng(5), (6,), 9)
    whole = hermitian_eigvals(a)
    for i in range(6):
        assert hermitian_eigvals(a[i:i + 1]).tobytes() == whole[i:i + 1].tobytes()


def test_hermitian_eigvals_solve_the_hermitian_part():
    # a block that is zero but for rounding noise off the Hermitian part
    # passes: its Hermitian part is exactly zero
    assert np.array_equal(hermitian_eigvals(np.array([[[1e-17j]]])), [[0.0]])
    a = np.array([[2.0, 1.0 + 1e-17j], [1.0, 2.0]])
    assert np.allclose(hermitian_eigvals(a), [1.0, 3.0], atol=1e-15)


@pytest.mark.parametrize("backward_error", [False, True])
def test_hermitian_gate_fires_on_a_wrong_spectrum(monkeypatch, backward_error):
    a = _random_hermitian(np.random.default_rng(9), (3,), 8)
    if backward_error:
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda h: (real_eigh(h)[0] * (1 + 1e-6), real_eigh(h)[1]))
    else:
        real_eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: real_eigvalsh(h) * (1 + 1e-6))
    with pytest.raises(CertificateError) as info:
        hermitian_eigvals(a, backward_error=backward_error)
    assert info.value.residual > 1e-10


def test_hermitian_eigvals_reject_bad_input():
    with pytest.raises(DomainError):
        hermitian_eigvals(np.ones((3, 2, 3)))
    with pytest.raises(DomainError):
        hermitian_eigvals(np.array([[[np.nan, 0], [0, 1]]]))


# --- inverse iteration -------------------------------------------------------------

def _unit_overlap(u, v):
    return abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))


def test_inverse_iteration_one_by_one():
    # the unperturbed shift would make the only pivot exactly zero
    for value in (3.0, 0.0, -2.5 + 1.5j):
        v = inverse_iteration(np.array([[value]]), value)
        assert v.shape == (1,) and abs(abs(v[0]) - 1.0) <= 1e-15


def test_inverse_iteration_start_orthogonal_to_the_eigenvector():
    # the all-ones start lies along the eigenvector of +1, orthogonal to
    # the one wanted at -1
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    v = inverse_iteration(a, -1.0)
    assert _unit_overlap(v, [1.0, -1.0]) >= 1.0 - 1e-15
    assert np.linalg.norm(a @ v + v) <= 1e-15
    assert _unit_overlap(inverse_iteration(a, 1.0), [1.0, 1.0]) >= 1.0 - 1e-15


def test_inverse_iteration_jordan_block():
    # documented behaviour at a defective eigenvalue: the single eigenvector
    # e_1, with a residual at the size of the shift
    a = np.array([[2.0, 1.0], [0.0, 2.0]])
    v = inverse_iteration(a, 2.0)
    assert _unit_overlap(v, [1.0, 0.0]) >= 1.0 - 1e-15
    assert np.linalg.norm(a @ v - 2.0 * v) <= 1e-14 * np.linalg.norm(a)


@pytest.mark.parametrize("n", range(2, 41))
def test_inverse_iteration_matches_scipy_up_to_phase(n):
    rng = np.random.default_rng(1000 + n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    values, vectors = scipy.linalg.eig(a)
    for k in (0, n // 2, n - 1):
        v = inverse_iteration(a, values[k])
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-14
        assert np.linalg.norm(a @ v - values[k] * v) <= 1e-10 * np.linalg.norm(a)
        assert _unit_overlap(v, vectors[:, k]) >= 1.0 - 1e-10


def test_inverse_iteration_gate_fires_away_from_the_spectrum():
    with pytest.raises(CertificateError) as info:
        inverse_iteration(np.diag([1.0, 2.0, 3.0]), 1.5)
    assert info.value.residual > 1e-10


def test_inverse_iteration_rejects_bad_input():
    for bad in (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.array([[np.inf]])):
        with pytest.raises(DomainError):
            inverse_iteration(bad, 1.0)
    with pytest.raises(DomainError):
        inverse_iteration(np.eye(2), complex("nan"))
    with pytest.raises(DomainError):
        inverse_iteration(np.ones((2, 3)), 1.0)

import numpy as np
import pytest
import scipy.linalg

from yanglee.errors import DomainError
from yanglee.numerics import EigenDecompositionError, dense_eig, dense_eigvals
from yanglee.ssh import SSHParams, bloch_hamiltonian


def test_diagonal_matrix_sorted():
    es = dense_eig(np.diag([3.0, 1.0 + 2.0j]))
    assert np.allclose(es.values, [1.0 + 2.0j, 3.0])


def test_bloch_matrix_at_band_touching():
    # u = v = w = 1, k = pi: |v + w e^{ik}| = 0, so eigenvalues are -+ i u
    h = bloch_hamiltonian(SSHParams(1.0, 1.0, 1.0), np.pi)
    es = dense_eig(h)
    assert np.allclose(es.values, [-1.0j, 1.0j], atol=1e-12)


def test_random_matrix_residual_and_trace():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    es = dense_eig(a)
    assert es.residual <= 1e-10
    assert np.allclose(np.linalg.norm(es.right_vectors, axis=0), 1.0)
    assert abs(es.values.sum() - np.trace(a)) <= 1e-9 * np.abs(np.trace(a)) + 1e-9


def test_trace_and_determinant_identities():
    rng = np.random.default_rng(7)
    for n in (3, 20, 100):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a /= np.sqrt(n)
        es = dense_eig(a)
        assert abs(es.values.sum() - np.trace(a)) < 1e-8
        sign, logdet = np.linalg.slogdet(a)
        log_prod = np.sum(np.log(es.values.astype(complex)))
        assert abs(np.exp(log_prod - logdet) - sign) < 1e-8


def test_sorting_convention():
    vals = np.array([1.0 + 1.0j, 1.0 - 1.0j, -2.0, 0.5])
    es = dense_eig(np.diag(vals))
    expect = sorted(vals, key=lambda z: (z.real, z.imag))
    assert np.allclose(es.values, expect)


def test_rejects_bad_input():
    with pytest.raises(DomainError):
        dense_eig(np.ones((2, 3)))
    with pytest.raises(DomainError):
        dense_eig(np.array([[np.inf, 0], [0, 1]]))


def test_eigvals_match_dense_eig():
    rng = np.random.default_rng(11)
    for n in (1, 4, 30, 80):
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
        assert np.max(np.abs(dense_eigvals(a) - dense_eig(a).values)) <= 1e-12


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
    with pytest.raises(EigenDecompositionError):
        dense_eigvals(rng.standard_normal((6, 6)))


def test_eigvals_rejects_bad_input():
    with pytest.raises(DomainError):
        dense_eigvals(np.ones((2, 3)))
    with pytest.raises(DomainError):
        dense_eigvals(np.array([[np.nan, 0], [0, 1]]))

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

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
    assert _matched_distance(got, dense_eig(a).values) <= 1e-12
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
    assert _matched_distance(got, dense_eig(a).values) <= 1e-12


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
    with pytest.raises(EigenDecompositionError):
        dense_eigvals(a)
    assert seen == [output]


def test_dropped_norm_counts_toward_the_gate():
    a = np.random.default_rng(4).standard_normal((20, 20))
    norm = np.linalg.norm(a)
    assert np.array_equal(dense_eigvals(a, dropped=1e-12 * norm), dense_eigvals(a))
    with pytest.raises(EigenDecompositionError):
        dense_eigvals(a, dropped=1e-9 * norm)


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

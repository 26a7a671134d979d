import warnings

import numpy as np
import pytest

from yanglee.errors import CertificateError, DomainError
from yanglee.numerics import polynomials
from yanglee.numerics.polynomials import (
    ComplexPolynomial, roots_of_polynomial)


def test_quadratic_roots():
    roots = roots_of_polynomial(ComplexPolynomial([1, 0, 1]))
    assert np.allclose(sorted(roots, key=lambda z: z.imag), [-1j, 1j], atol=1e-12)


def test_multiplet_polynomial_l2():
    # exponents M(L-M) for L=2 are {0, 1, 0}: polynomial z + 2
    roots = roots_of_polynomial(ComplexPolynomial([2, 1]))
    assert np.allclose(roots, [-2.0])


def _backward_errors(coeffs, roots):
    high = np.asarray(coeffs, dtype=complex)[::-1]
    return np.abs(np.polyval(high, roots)) / np.polyval(np.abs(high), np.abs(roots))


def test_multiplet_polynomial_l4_residuals():
    p = ComplexPolynomial([2, 0, 0, 2, 1])  # z^4 + 2 z^3 + 2
    roots = roots_of_polynomial(p)
    assert roots.size == 4
    assert np.max(np.abs(np.polyval(p.coeffs[::-1], roots))) <= 1e-10


def test_residual_contract_scales_with_coefficients():
    # the certificate is relative: |p(r)| <= 4 (degree + 1) eps sum |c_m| |r|^m,
    # the same for p and for any multiple of p
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    bound = 4 * 9 * np.finfo(float).eps
    for scale in (1.0, 1e-8, 1e8):
        roots = roots_of_polynomial(ComplexPolynomial(scale * coeffs))
        assert np.max(_backward_errors(scale * coeffs, roots)) <= bound


def test_coincident_starting_roots_are_split(monkeypatch):
    # np.roots gives this (z - a)^2 its double root twice, bit for bit; the
    # Aberth update needs distinct starts, split from a fixed generator state
    a = -2.002881094626152
    coeffs = np.poly([a, a])[::-1]
    first = np.roots(coeffs[::-1].astype(complex))
    assert first[0] == first[1]
    real_polish = polynomials._aberth_polish
    starts = []

    def spy(monic, z, target):
        starts.append(z.copy())
        return real_polish(monic, z, target)

    monkeypatch.setattr(polynomials, "_aberth_polish", spy)
    roots = roots_of_polynomial(ComplexPolynomial(coeffs))
    assert starts[0][0] != starts[0][1] and np.max(np.abs(starts[0] - first)) <= 1e-11
    assert np.array_equal(roots, roots_of_polynomial(ComplexPolynomial(coeffs)))
    assert np.max(_backward_errors(coeffs, roots)) <= 4 * 3 * np.finfo(float).eps
    assert np.max(np.abs(roots - a)) <= 1e-7


def test_failed_certificate_carries_backward_error(monkeypatch):
    # an Aberth pass that returns its start unpolished leaves the
    # perturbed starting set, whose backward error is far above the bound
    def perturbed(monic, z, target):
        return z + 1e-3, None
    monkeypatch.setattr(polynomials, "_aberth_polish", perturbed)
    coeffs = [2, 0, 0, 2, 1]
    with pytest.raises(CertificateError) as info:
        roots_of_polynomial(ComplexPolynomial(coeffs))
    err = info.value
    assert err.residual == pytest.approx(np.max(_backward_errors(coeffs, err.best)))
    assert err.residual > 4 * 5 * np.finfo(float).eps


@pytest.mark.parametrize("exponents, coeffs", [
    ([0, 4, 10, 12, 14, 16, 20, 21], [19.0, 140.0, 1.7, 3e4, 6.0, 130.0, 600.0, 0.2]),
    ([0, 4, 12, 16, 26, 27], [0.4, 2.0, 1.0, 800.0, 1.3e5, 0.0012]),
    ([0, 11, 12, 37, 38], [0.019, 80.0, 0.05, 170.0, 0.009])])
def test_aberth_keeps_the_iterate_of_least_backward_error(exponents, coeffs):
    # |p(z)| is largest at the roots of largest modulus, so the iterate of
    # least |p(z)| can miss the gate at a root of small modulus; keeping it
    # raised a CertificateError (backward error 1.1e-13 to 3.0e-9) on each
    c = np.zeros(exponents[-1] + 1)
    c[exponents] = coeffs
    roots = roots_of_polynomial(ComplexPolynomial(c))
    assert np.max(_backward_errors(c, roots)) <= 4 * c.size * np.finfo(float).eps


@pytest.mark.parametrize("exponents, coeffs", [
    ([0, 11, 45, 52, 53], [0.019, 7.0, 0.5, 1e4, 0.01]),
    ([0, 13, 76, 94, 160, 266, 268], [1100.0, 0.007, 90.0, 0.005, 1000.0, 1600.0, 0.1])])
def test_backward_error_survives_overflow(exponents, coeffs):
    # |z|^degree overflows at the largest roots (1e6 and 126), so p(z) and
    # sum |c_m| |z|^m are inf there: the first warned, the second raised a
    # CertificateError with a nan residual.  The oracle sums the nonzero
    # terms in 30-digit arithmetic.
    import mpmath

    c = np.zeros(exponents[-1] + 1)
    c[exponents] = coeffs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = roots_of_polynomial(ComplexPolynomial(c))
    assert roots.size == exponents[-1]
    with mpmath.workdps(30):
        worst = max(abs(sum(cm * mpmath.mpc(r) ** m for m, cm in zip(exponents, coeffs)))
                    / sum(cm * abs(mpmath.mpc(r)) ** m for m, cm in zip(exponents, coeffs))
                    for r in roots)
    assert worst <= 4 * c.size * np.finfo(float).eps


def test_vieta_sum_on_random_polynomials():
    rng = np.random.default_rng(11)
    for _ in range(25):
        deg = int(rng.integers(2, 13))
        c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        c[-1] += 2.0  # keep the leading coefficient well away from zero
        p = ComplexPolynomial(c)
        roots = roots_of_polynomial(p)
        assert abs(roots.sum() - (-c[-2] / c[-1])) < 1e-8


def test_repeated_roots_with_multiplicity():
    # (z - 1)^3 = z^3 - 3 z^2 + 3 z - 1
    roots = roots_of_polynomial(ComplexPolynomial([-1, 3, -3, 1]))
    assert roots.size == 3
    assert np.allclose(roots, 1.0, atol=1e-4)
    # z = 0 is exact: z^2 (z + 1) and 3 z^4 need no iteration there
    assert np.array_equal(roots_of_polynomial(ComplexPolynomial([0, 0, 1, 1])),
                          [-1.0, 0.0, 0.0])
    assert np.array_equal(roots_of_polynomial(ComplexPolynomial([0, 0, 0, 0, 3])),
                          np.zeros(4))


def test_deterministic():
    p = ComplexPolynomial([2, 0, 0, 0, 0, 2, 0, 0, 2, 1])
    a = roots_of_polynomial(p)
    b = roots_of_polynomial(p)
    assert np.array_equal(a, b)


def test_degree_zero_rejected():
    with pytest.raises(DomainError):
        roots_of_polynomial(ComplexPolynomial([3.0]))


def test_degree_above_cap_rejected(monkeypatch):
    # degree 1025 is refused before np.roots builds its companion matrix
    def no_companion(_):
        raise AssertionError("np.roots called")
    monkeypatch.setattr(np, "roots", no_companion)
    with pytest.raises(DomainError, match="degree <= 1024, got 1025"):
        roots_of_polynomial(ComplexPolynomial(np.ones(1026)))


@pytest.mark.parametrize("coeffs", [[1, np.nan, 1], [1, np.inf], [1j * np.inf, 1],
                                    [1, complex(0.0, np.nan)]])
def test_non_finite_coefficients_rejected(coeffs):
    # [1, nan, 1] used to raise numpy's LinAlgError from np.roots and
    # [1, inf] a CertificateError with a nan residual
    with pytest.raises(DomainError, match="finite"):
        ComplexPolynomial(coeffs)


def test_overflowing_monic_normalization_rejected(monkeypatch):
    # 1 + z + 5e-324 z^2: dividing by the subnormal leading coefficient
    # overflows; this used to raise numpy's LinAlgError from np.roots
    def no_companion(_):
        raise AssertionError("np.roots called")
    monkeypatch.setattr(np, "roots", no_companion)
    with pytest.raises(DomainError, match="monic normalization overflows"):
        roots_of_polynomial(ComplexPolynomial([1, 1, 5e-324]))


def test_trailing_zeros_stripped():
    p = ComplexPolynomial([1, 2, 0, 0])
    assert p.degree == 1

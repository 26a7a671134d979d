import numpy as np
import pytest

from yanglee.errors import DomainError
from yanglee.numerics.bessel import bessel_k0
from yanglee.numerics.quadrature import QuadratureError, adaptive_integrate


def test_cosine_over_half_period():
    res = adaptive_integrate(np.cos, 0.0, np.pi, tol=1e-12)
    assert abs(res.value) <= max(1e-12, res.estimate)


def test_truncated_fourier_vs_bessel_identity():
    # int_0^inf cos(kx)/sqrt(1 + xi^2 k^2) dk = K0(x/xi)/xi.  Truncation at
    # k = 50/xi leaves an oscillatory tail bounded by 1/(x k_max) ~ 1e-2;
    # the measured gap at x/xi = 2 is 5.1e-3, and adding the leading
    # integration-by-parts tail term brings the agreement to ~1e-4.
    xi, x = 1.0, 2.0
    k_max = 50.0 / xi

    def f(k):
        return np.cos(k * x) / np.sqrt(1.0 + xi * xi * k * k)

    res = adaptive_integrate(f, 0.0, k_max, tol=1e-12, max_panels=16384)
    target = bessel_k0(x / xi) / xi
    tail_bound = 1.0 / (x * k_max)
    assert abs(res.value.real - target) <= tail_bound
    tail_term = -np.sin(k_max * x) / (x * np.sqrt(1.0 + (xi * k_max) ** 2))
    assert abs(res.value.real + tail_term - target) <= 2e-4


def test_interval_additivity():
    u, v, w, delta = 1.0, 1.0, 1.2, 0.05

    def f(k):
        return 1.0 / np.sqrt(2 * u * delta + 2 * v * w * (1 + np.cos(k)))

    whole = adaptive_integrate(f, 0.0, np.pi, tol=1e-12).value
    left = adaptive_integrate(f, 0.0, np.pi / 2, tol=1e-13).value
    right = adaptive_integrate(f, np.pi / 2, np.pi, tol=1e-13).value
    assert abs(whole - (left + right)) < 1e-10


def test_linearity_on_random_integrands():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a1, a2 = rng.standard_normal(2)
        w1, w2 = rng.uniform(0.5, 4.0, 2)

        def f(k):
            return np.cos(w1 * k) + 1j * np.sin(w2 * k)

        def g(k):
            return np.exp(-k * k) * (1.0 + 0.5j)

        combined = adaptive_integrate(lambda k: a1 * f(k) + a2 * g(k),
                                      -1.0, 2.0, tol=1e-12).value
        separate = (a1 * adaptive_integrate(f, -1.0, 2.0, tol=1e-13).value
                    + a2 * adaptive_integrate(g, -1.0, 2.0, tol=1e-13).value)
        assert abs(combined - separate) < 1e-10


def test_oscillatory_panel_growth():
    slow = adaptive_integrate(lambda k: np.cos(3 * k), 0.0, np.pi, tol=1e-10)
    fast = adaptive_integrate(lambda k: np.cos(150 * k), 0.0, np.pi, tol=1e-10)
    assert fast.panels > slow.panels
    assert abs(fast.value - np.sin(150 * np.pi) / 150.0) < 1e-9


def test_endpoint_singularity():
    res = adaptive_integrate(lambda t: 1.0 / np.sqrt(t), 0.0, 1.0, tol=1e-9,
                             max_panels=16384)
    assert abs(res.value - 2.0) < 1e-8


def test_failure_carries_partial_result():
    with pytest.raises(QuadratureError) as info:
        adaptive_integrate(lambda t: np.cos(500.0 * t), 0.0, np.pi,
                           tol=1e-14, max_panels=4)
    assert info.value.value is not None
    assert info.value.estimate > 1e-14


def test_bad_interval_rejected():
    with pytest.raises(DomainError):
        adaptive_integrate(np.cos, 1.0, 0.0)

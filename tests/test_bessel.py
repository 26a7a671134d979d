import math

import numpy as np
import pytest

from yanglee.errors import DomainError
from yanglee.numerics import adaptive_integrate, bessel_k0

EULER_GAMMA = 0.5772156649015329


def test_reference_value_at_one():
    assert abs(bessel_k0(1.0) - 0.42102443824070834) < 1e-12


def test_oscillatory_integral_representation_oracle():
    # K0(x) = int_0^inf cos(x sinh t) dt.  Truncate where x sinh T = 740 and
    # add the two leading integration-by-parts tail terms.
    x = 1.0
    t_max = math.asinh(740.0 / x)
    res = adaptive_integrate(lambda t: np.cos(x * np.sinh(t)), 0.0, t_max,
                             tol=1e-10, max_panels=16384)
    u = x * math.sinh(t_max)
    tail = (-math.sin(u) / math.sqrt(x * x + u * u)
            - math.cos(u) * u / (x * x + u * u) ** 1.5)
    assert abs(res.value.real + tail - bessel_k0(x)) < 1e-6


def test_exponential_integral_representation_or_small_grid():
    # Second, non-oscillatory representation: K0(x) = int_0^inf e^{-x cosh t} dt.
    for x in (0.5, 2.5, 7.0, 20.0):
        t_max = math.acosh(745.0 / x)
        res = adaptive_integrate(lambda t: np.exp(-x * np.cosh(t)), 0.0, t_max,
                                 tol=1e-14, max_panels=16384)
        assert abs(res.value.real - bessel_k0(x)) < 1e-12 * bessel_k0(x) + 1e-15


def test_logarithmic_divergence_at_small_x():
    x = 1e-6
    leading = -math.log(x / 2.0) - EULER_GAMMA
    assert abs(bessel_k0(x) - leading) < 1e-6


def test_asymptotic_series_at_ten():
    s = 1.0
    t = 1.0
    for k in range(1, 25):
        t *= -(2 * k - 1) ** 2 / (8.0 * k * 10.0)
        s += t
    expansion = math.sqrt(math.pi / 20.0) * math.exp(-10.0) * s
    assert abs(bessel_k0(10.0) - expansion) < 1e-8


def test_monotone_decreasing():
    xs = np.logspace(-5, 2.8, 40)
    vals = [bessel_k0(float(x)) for x in xs]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))


def test_extreme_argument():
    val = bessel_k0(700.0)
    ref = math.sqrt(math.pi / 1400.0) * math.exp(-700.0)
    assert abs(val / ref - 1.0) < 1e-3  # crude prefactor; just no under/overflow
    assert val > 0.0


def test_domain_error():
    with pytest.raises(DomainError):
        bessel_k0(0.0)
    with pytest.raises(DomainError):
        bessel_k0(-1.0)

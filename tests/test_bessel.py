import math

import numpy as np
import scipy.integrate

from yanglee.ssh import bessel_k0

EULER_GAMMA = 0.5772156649015329


def test_reference_value_at_one():
    assert abs(bessel_k0(1.0) - 0.42102443824070834) < 1e-12


def test_oscillatory_integral_representation_oracle():
    # K0(x) = int_0^inf cos(x sinh t) dt.  Truncate where x sinh T = 740 and
    # add the two leading integration-by-parts tail terms.
    x = 1.0
    t_max = math.asinh(740.0 / x)
    value, _ = scipy.integrate.quad(lambda t: math.cos(x * math.sinh(t)), 0.0, t_max,
                                    limit=16384)
    u = x * math.sinh(t_max)
    tail = (-math.sin(u) / math.sqrt(x * x + u * u)
            - math.cos(u) * u / (x * x + u * u) ** 1.5)
    assert abs(value + tail - bessel_k0(x)) < 1e-6


def test_exponential_integral_representation_or_small_grid():
    # Second, non-oscillatory representation: K0(x) = int_0^inf e^{-x cosh t} dt.
    for x in (0.5, 2.5, 7.0, 20.0):
        t_max = math.acosh(745.0 / x)
        value, _ = scipy.integrate.quad(lambda t: math.exp(-x * math.cosh(t)), 0.0, t_max,
                                        epsabs=1e-15, epsrel=1e-13)
        assert abs(value - bessel_k0(x)) < 1e-12 * bessel_k0(x) + 1e-15


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


def test_array_matches_scalar_calls():
    xs = np.logspace(-5, 2.8, 200)
    vals = bessel_k0(xs)
    assert isinstance(vals, np.ndarray) and vals.shape == xs.shape
    assert vals.tolist() == [bessel_k0(float(x)) for x in xs]
    assert bessel_k0(xs.reshape(20, 10)).shape == (20, 10)

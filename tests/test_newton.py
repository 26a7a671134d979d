import numpy as np
import pytest

from yanglee.numerics.newton import NewtonError, newton_system


def test_scalar_square_root():
    sol = newton_system(lambda z: z ** 2 + 1.0 / 3.0, np.array([0.5j]), tol=1e-13)
    assert abs(sol[0] - 1j / np.sqrt(3.0)) < 1e-10


def test_linear_converges_immediately():
    sol = newton_system(lambda z: z - 1.0, np.array([0.0]), tol=1e-13)
    assert abs(sol[0] - 1.0) < 1e-10


def test_coupled_system():
    def f(x):
        return np.array([x[0] ** 2 - x[1] - 1.0, x[0] + x[1] ** 3 - 3.0])

    sol = newton_system(f, np.array([1.5 + 0.1j, 1.0 + 0.0j]), tol=1e-12)
    assert np.max(np.abs(f(sol))) <= 1e-12


def test_determinism():
    def f(x):
        return np.array([x[0] ** 3 - 2.0])

    a = newton_system(f, np.array([1.0 + 0.5j]))
    b = newton_system(f, np.array([1.0 + 0.5j]))
    assert np.array_equal(a, b)


def test_singular_jacobian_reports_best_iterate():
    with pytest.raises(NewtonError) as info:
        # constant residual: Jacobian identically zero
        newton_system(lambda z: np.array([1.0 + 0j]), np.array([0.0]))
    assert info.value.best is not None
    assert len(info.value.history) >= 1

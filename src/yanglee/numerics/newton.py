"""Damped Newton iteration for small systems of complex equations.

The Jacobian is formed by forward differences with step 1e-7 * (1 + |x|);
the residual maps here are holomorphic, so a real step suffices.
"""

from __future__ import annotations

import numpy as np

from ..errors import YangLeeError


class NewtonError(YangLeeError):
    """No convergence; carries the best iterate and residual history."""

    def __init__(self, message: str, best=None, history=None):
        super().__init__(message)
        self.best = best
        self.history = list(history or [])


def _fd_jacobian(f, x, fx):
    n = x.size
    jac = np.empty((n, n), dtype=complex)
    for j in range(n):
        h = 1e-7 * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += h
        jac[:, j] = (f(xp) - fx) / h
    return jac


def newton_system(f, x0, tol: float = 1e-12) -> np.ndarray:
    """Solve f(x) = 0 from x0; returns x with ||f(x)||_inf <= tol.

    Backtracking halves the step up to six times when the residual does
    not decrease.  Raises NewtonError on a singular Jacobian or after
    100 steps.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=complex)).copy()
    history = []
    fx = np.atleast_1d(np.asarray(f(x), dtype=complex))
    best = x.copy()
    best_norm = float(np.max(np.abs(fx)))
    for _ in range(100):
        norm = float(np.max(np.abs(fx)))
        history.append(norm)
        if norm < best_norm:
            best, best_norm = x.copy(), norm
        if norm <= tol:
            return x
        jac = _fd_jacobian(f, x, fx)
        try:
            step = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError as exc:
            raise NewtonError(
                f"singular Jacobian at residual {norm:.3e}",
                best=best, history=history,
            ) from exc
        if not np.all(np.isfinite(step)):
            raise NewtonError(
                f"non-finite Newton step at residual {norm:.3e}",
                best=best, history=history,
            )
        lam = 1.0
        x_try = x + step
        f_try = np.atleast_1d(np.asarray(f(x_try), dtype=complex))
        for _ in range(6):
            if np.all(np.isfinite(f_try)) and np.max(np.abs(f_try)) < norm:
                break
            lam *= 0.5
            x_try = x + lam * step
            f_try = np.atleast_1d(np.asarray(f(x_try), dtype=complex))
        if not np.all(np.isfinite(f_try)):
            raise NewtonError(
                f"residual became non-finite at residual {norm:.3e}",
                best=best, history=history,
            )
        x, fx = x_try, f_try
    norm = float(np.max(np.abs(fx)))
    if norm <= tol:
        return x
    raise NewtonError(
        f"no convergence after 100 iterations, residual {norm:.3e}",
        best=best, history=history,
    )

"""Central finite-difference derivatives with per-coordinate step scaling.

Steps follow h_i = max(FD_STEP, FD_STEP * |x_i|), the usual cube-root-of-eps
scaling for second-order central differences on O(1) data.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

FD_STEP = 1e-6
FD_STEP_T = 1e-6


def _steps(x: np.ndarray) -> np.ndarray:
    return np.maximum(FD_STEP, FD_STEP * np.abs(x))


def jac_x(f: Callable[[float, np.ndarray], np.ndarray], t: float, x: np.ndarray) -> np.ndarray:
    """Jacobian of f(t, x) in x; shape (len(f), len(x)), or (len(x),) for a scalar f.

    For a stack of rows x (N, n) and an f that broadcasts over it, one
    Jacobian per row: shape (N, len(f), n), or (N, n) for a scalar f.
    """
    x = np.asarray(x, dtype=float)
    h = _steps(x)
    cols = []
    for i in range(x.shape[-1]):
        e = np.zeros_like(x)
        e[..., i] = h[..., i]
        diff = np.asarray(f(t, x + e), dtype=float) - np.asarray(f(t, x - e), dtype=float)
        h_i = h[..., i]
        cols.append(diff / (2.0 * (h_i[..., None] if diff.ndim > h_i.ndim else h_i)))
    return np.stack(cols, axis=-1)


def diff_t(f: Callable[[float, np.ndarray], np.ndarray], t: float, x: np.ndarray):
    """Partial derivative of f(t, x) in t (vector or scalar, matching f).

    t may be an array of per-row times when f broadcasts over a stack of rows.
    """
    hi = np.maximum(FD_STEP_T, FD_STEP_T * np.abs(t)) if isinstance(t, np.ndarray) \
        else max(FD_STEP_T, FD_STEP_T * abs(t))
    fp = f(t + hi, x)
    fm = f(t - hi, x)
    return (np.asarray(fp, dtype=float) - np.asarray(fm, dtype=float)) / (2.0 * hi)


def jac_q(fn: Callable[[np.ndarray], np.ndarray], q: np.ndarray) -> np.ndarray:
    """Jacobian of a configuration-only map fn(q); shape (len(fn), len(q))."""
    return jac_x(lambda _t, qq: fn(qq), 0.0, q)


def directional_matrix_derivative(J: Callable[[np.ndarray], np.ndarray], q: np.ndarray,
                                  qdot: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Time derivative of a configuration-dependent matrix along qdot.

    Jdot = sum_i dJ/dq_i qdot_i, evaluated as (J(q + h qdot) - J(q - h qdot)) / (2h).
    """
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    return (np.asarray(J(q + h * qdot), dtype=float) - np.asarray(J(q - h * qdot), dtype=float)) / (2.0 * h)

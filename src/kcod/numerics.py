"""Dense float64 vector/matrix primitives and the finite-difference oracle.

Everything here is a pure function on numpy arrays. All training code is
built on these so that every analytic gradient in the package can be
checked against ``finite_diff_grad``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import OracleError, ParameterError

# Carriers for 1-D / 2-D float64 arrays; invariants are enforced by the
# as_* constructors below.
Vec64 = np.ndarray
Mat64 = np.ndarray


def as_vec64(values) -> Vec64:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ParameterError(f"expected a non-empty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ParameterError("vector contains non-finite entries")
    return v


def as_mat64(values, rows: int | None = None, cols: int | None = None) -> Mat64:
    """Coerce to a finite 2-D float64 array, optionally checking its shape."""
    m = np.asarray(values, dtype=np.float64)
    if rows is not None and cols is not None and m.ndim == 1:
        if m.size != rows * cols:
            raise ParameterError(f"expected {rows * cols} entries, got {m.size}")
        m = m.reshape(rows, cols)
    if m.ndim != 2:
        raise ParameterError(f"expected a 2-D matrix, got shape {m.shape}")
    if rows is not None and m.shape[0] != rows:
        raise ParameterError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ParameterError(f"expected {cols} cols, got {m.shape[1]}")
    if not np.all(np.isfinite(m)):
        raise ParameterError("matrix contains non-finite entries")
    return m


def softmax_rows(logits: Mat64, temperature: float = 1.0) -> Mat64:
    """Row-wise temperature softmax on a matrix."""
    if temperature <= 0:
        raise ParameterError(f"temperature must be positive, got {temperature}")
    z = np.asarray(logits, dtype=np.float64) / temperature
    z = z - np.max(z, axis=1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=1, keepdims=True)


def finite_diff_grad(f: Callable[[Vec64], float], x: Vec64, h: float = 1e-6) -> Vec64:
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    if h <= 0:
        raise ParameterError(f"step must be positive, got {h}")
    x = as_vec64(x)
    g = np.zeros_like(x)
    for k in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[k] += h
        xm[k] -= h
        fp = float(f(xp))
        fm = float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise OracleError(f"non-finite function value near coordinate {k}")
        g[k] = (fp - fm) / (2.0 * h)
    return g


def finite_diff_grad_nd(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """``finite_diff_grad`` for arrays of any shape (flattened internally)."""
    x = np.asarray(x, dtype=np.float64)
    flat = finite_diff_grad(lambda v: f(v.reshape(x.shape)), x.ravel(), h)
    return flat.reshape(x.shape)


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-based relative error between two gradients."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / denom

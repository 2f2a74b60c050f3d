"""Matrix utilities: finite-difference Jacobians, log-determinants of
I + J via pivoted LU, and exact spectral norms."""
from __future__ import annotations

from typing import Callable

import numpy as np


class SingularMatrixError(ValueError):
    """I + J is singular to machine precision."""


def jacobian_fd(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                eps: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of a vector map at `x`.

    Entry (i, j) = (fn(x + eps e_j)_i - fn(x - eps e_j)_i) / (2 eps).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = np.asarray(x, dtype=np.float64)
    cols = []
    for j in range(x.size):
        step = np.zeros_like(x)
        step.flat[j] = eps
        hi = np.asarray(fn(x + step), dtype=np.float64)
        lo = np.asarray(fn(x - step), dtype=np.float64)
        if not (np.all(np.isfinite(hi)) and np.all(np.isfinite(lo))):
            raise ValueError(f"non-finite map output probing coordinate {j} at x={x!r}")
        cols.append((hi - lo) / (2.0 * eps))
    return np.stack(cols, axis=-1)


def logdet_and_trace(j: np.ndarray) -> tuple[float, float]:
    """Trace of J and log|det(I + J)| via LU with partial pivoting
    (np.linalg.slogdet)."""
    j = np.asarray(j, dtype=np.float64)
    if j.ndim != 2 or j.shape[0] != j.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {j.shape}")
    if not np.all(np.isfinite(j)):
        raise ValueError("matrix contains non-finite entries")
    trace = float(np.trace(j))
    sign, logdet = np.linalg.slogdet(np.eye(j.shape[0]) + j)
    if sign == 0.0 or not np.isfinite(logdet):
        raise SingularMatrixError("I + J is singular to machine precision")
    return trace, float(logdet)


def spectral_norm(m: np.ndarray) -> float:
    """The largest singular value, from the SVD: an upper bound of |M v| / |v|
    for every v, which the compositional Lipschitz bounds rely on."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    return float(np.linalg.norm(m, 2))

"""Matrix utilities: finite-difference Jacobians, log-determinants of
I + J via pivoted LU, and power-iteration spectral norms."""
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


def spectral_norm(m: np.ndarray, iters: int = 100, seed: int = 0) -> float:
    """Power-iteration estimate of the largest singular value.

    A lower bound of the true norm, nondecreasing in `iters` (the Rayleigh
    quotient of M^T M is monotone along the iteration).
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m.shape[1])
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    v /= nv
    sigma = 0.0
    for _ in range(iters):
        mv = m @ v
        sigma = float(np.linalg.norm(mv))
        if sigma == 0.0:
            return 0.0
        w = m.T @ mv
        nw = np.linalg.norm(w)
        if nw == 0.0:
            break
        v = w / nw
    return sigma


def frobenius_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(m, dtype=np.float64)))

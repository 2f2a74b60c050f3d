"""Matrix utilities: finite-difference Jacobians, log-determinants of
I + J via pivoted LU, and exact spectral norms."""
from __future__ import annotations

from typing import Callable, Iterator

import numpy as np


class SingularMatrixError(ValueError):
    """I + J is singular to machine precision."""


def fd_columns(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
               eps: float = 1e-5) -> Iterator[np.ndarray]:
    """Central-difference columns of a map's Jacobian along the last axis
    of `x`, one coordinate j at a time:
    (fn(x + eps e_j) - fn(x - eps e_j)) / (2 eps), an (m,) column for a
    vector of d entries, (B, m) for a (B, d) batch of rows of a row-wise
    map, whose rows all move by the same step.  Raises ValueError, as the
    columns are taken, for a non-positive eps or a non-finite output."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    for j in range(d):
        step = np.zeros(d)
        step[j] = eps
        hi = np.asarray(fn(x + step), dtype=np.float64)
        lo = np.asarray(fn(x - step), dtype=np.float64)
        if not (np.all(np.isfinite(hi)) and np.all(np.isfinite(lo))):
            raise ValueError(f"non-finite map output probing coordinate {j} at x={x!r}")
        yield (hi - lo) / (2.0 * eps)


def jacobian_fd(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                eps: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of a map along the last axis of `x`: the
    columns of `fd_columns` stacked, entry (..., i, j) being column j's
    entry i; (m, d) for a vector of d entries, (B, m, d) for a (B, d)
    batch of rows of a row-wise map.
    """
    return np.stack(list(fd_columns(fn, x, eps)), axis=-1)


def _sample(bad: np.ndarray) -> str:
    """The first failing sample of a batch, as a message suffix."""
    return f" (sample index {int(np.flatnonzero(bad)[0])})" if bad.ndim else ""


def logdet_and_trace(j: np.ndarray):
    """Trace of J and log|det(I + J)| via LU with partial pivoting
    (np.linalg.slogdet): two floats for a (d, d) matrix, two (B,) arrays
    for a (B, d, d) batch."""
    j = np.asarray(j, dtype=np.float64)
    if j.ndim not in (2, 3) or j.shape[-1] != j.shape[-2]:
        raise ValueError(f"expected a square matrix or a batch of them, got shape {j.shape}")
    finite = np.all(np.isfinite(j), axis=(-2, -1))
    if not np.all(finite):
        raise ValueError("matrix contains non-finite entries" + _sample(~finite))
    sign, logdet = np.linalg.slogdet(np.eye(j.shape[-1]) + j)
    singular = (sign == 0.0) | ~np.isfinite(logdet)
    if np.any(singular):
        raise SingularMatrixError("I + J is singular to machine precision"
                                  + _sample(singular))
    trace = np.trace(j, axis1=-2, axis2=-1)
    if j.ndim == 2:
        return float(trace), float(logdet)
    return trace, logdet


def spectral_norm(m: np.ndarray) -> float:
    """The largest singular value, from the SVD: an upper bound of |M v| / |v|
    for every v, which the compositional Lipschitz bounds rely on."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    return float(np.linalg.norm(m, 2))

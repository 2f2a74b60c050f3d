"""Differentiable scalar rewards on generator outputs.

Image-shaped outputs use a channel-major layout: all red values first, then
green, then blue; a channel's value is its mean over pixels.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad


class Reward:
    """Common surface: scalar `evaluate`, closed-form `gradient`, batch
    evaluation, and an autodiff trace producing one scalar per row."""

    def evaluate(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        self._check(x)
        return float(self._rows(x[None, :])[0])

    def evaluate_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        self._check(x[0])
        return self._rows(x)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._check(x)
        return self._grad(x)

    def node_rows(self, x: ad.Node) -> ad.Node:
        """Reward per row of a batch node (or a scalar for a vector node)."""
        self._check(np.atleast_2d(x.value)[0])
        return self._node_rows(x)

    def upper_bound_on_box(self, lo: float, hi: float, dim: int):
        """Supremum over [lo, hi]^dim, or None when unknown."""
        return None

    def _check(self, x):
        raise NotImplementedError

    def _rows(self, x):
        raise NotImplementedError

    def _grad(self, x):
        raise NotImplementedError

    def _node_rows(self, x):
        raise NotImplementedError


class LinearReward(Reward):
    """r(x) = c . x"""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=np.float64)

    def _check(self, x):
        if x.shape[-1] != self.c.shape[0]:
            raise ValueError(f"input has {x.shape[-1]} entries, expected {self.c.shape[0]}")

    def _rows(self, x):
        return x @ self.c

    def _grad(self, x):
        return self.c.copy()

    def _node_rows(self, x):
        return ad.dot_rows(x, ad.constant(np.broadcast_to(self.c, x.value.shape)))

    def upper_bound_on_box(self, lo, hi, dim):
        return float(np.sum(np.where(self.c > 0, self.c * hi, self.c * lo)))


class QuadraticReward(Reward):
    """r(x) = sign * 1/2 x^T Q x for symmetric Q."""

    def __init__(self, q, sign: int = -1):
        self.q = np.asarray(q, dtype=np.float64)
        if self.q.ndim != 2 or self.q.shape[0] != self.q.shape[1]:
            raise ValueError("Q must be square")
        if not np.allclose(self.q, self.q.T):
            raise ValueError("Q must be symmetric")
        self.sign = int(sign)

    def _check(self, x):
        if x.shape[-1] != self.q.shape[0]:
            raise ValueError(f"input has {x.shape[-1]} entries, expected {self.q.shape[0]}")

    def _rows(self, x):
        return 0.5 * self.sign * np.einsum("bi,ij,bj->b", x, self.q, x)

    def _grad(self, x):
        return self.sign * self.q @ x

    def _node_rows(self, x):
        qx = ad.linear(x, ad.constant(self.q))
        return ad.scale(ad.dot_rows(x, qx), 0.5 * self.sign)


class RednessReward(Reward):
    """Mean red channel minus the average of mean green and blue, scaled."""

    def __init__(self, scale: float = 0.01):
        self.scale = float(scale)

    def _check(self, x):
        if x.shape[-1] % 3 != 0:
            raise ValueError(f"image length {x.shape[-1]} is not divisible by 3")

    def _pixels(self, x):
        return x.shape[-1] // 3

    def _rows(self, x):
        p = self._pixels(x)
        means = [x[..., i * p:(i + 1) * p].mean(axis=-1) for i in range(3)]
        return self.scale * (means[0] - 0.5 * (means[1] + means[2]))

    def _grad(self, x):
        p = self._pixels(x)
        g = np.empty_like(x)
        g[..., :p] = self.scale / p
        g[..., p:] = -self.scale / (2 * p)
        return g

    def _node_rows(self, x):
        p = self._pixels(np.atleast_2d(x.value)[0])
        lead = x.shape[:-1]
        means = ad.amean(ad.reshape(x, lead + (3, p)), axis=-1)
        red, green, blue = (ad.slice_last(means, i, i + 1) for i in range(3))
        gb = ad.scale(ad.add(green, blue), 0.5)
        return ad.reshape(ad.scale(ad.sub(red, gb), self.scale), lead)

    def upper_bound_on_box(self, lo, hi, dim):
        return self.scale * (hi - lo)


def make_reward(spec: dict) -> Reward:
    """Build a reward from a config record."""
    variant = spec.get("variant")
    if variant == "linear":
        return LinearReward(spec["c"])
    if variant == "quadratic":
        return QuadraticReward(spec["q"], int(spec.get("sign", -1)))
    if variant == "redness":
        return RednessReward(float(spec.get("scale", 0.01)))
    raise ValueError(f"unknown reward variant {variant!r}")

"""Residual noise network: low-rank adapters riding on a frozen generator
backbone, with a perturbation-only head that is exactly zero at init.

The trunk reuses the backbone's layer shapes (adapter deltas on top of the
frozen weights); the final backbone layer is replaced by a head that emits
only the low-rank perturbation, projected back to the latent dimension: a
frozen zero layer with an adapter, plus a trainable bias.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from . import autodiff as ad
from .generators import Generator
from .layers import Layer, LayerStack, condition_node, lora_adapters, with_condition
from .linalg import spectral_norm


class NoiseHypernetwork:
    """Trainable residual map on noise space; backbone weights stay frozen."""

    def __init__(self, backbone: Generator, rank: int, alpha: float, stack: LayerStack):
        self.backbone = backbone
        self.rank = rank
        self.alpha = float(alpha)
        self.stack = stack
        self.head = stack.adapters[-1]
        self.head_bias = stack.shift

    # -- parameters ---------------------------------------------------------

    def params(self) -> dict[str, np.ndarray]:
        """Trainable arrays, keyed by stable names (manifest order)."""
        return self.stack.params()

    def set_params(self, values: dict[str, np.ndarray]):
        current = self.params()
        for name, arr in values.items():
            if name not in current:
                raise KeyError(f"unknown parameter {name!r}")
            if current[name].shape != np.shape(arr):
                raise ValueError(f"shape mismatch for {name!r}")
            current[name][...] = arr

    def parameter_count(self) -> int:
        return sum(v.size for v in self.params().values())

    # -- evaluation ---------------------------------------------------------

    def perturb(self, x0: np.ndarray, condition=None) -> np.ndarray:
        """The residual perturbation, for one latent or a batch."""
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape[-1] != self.backbone.latent_dim:
            raise ValueError(
                f"latent has {x0.shape[-1]} entries, expected {self.backbone.latent_dim}")
        return self.stack.forward(with_condition(x0, condition, self.backbone.condition_dim))

    def delta_node(self, x0: ad.Node, condition: Optional[ad.Node] = None,
                   param_nodes: Optional[dict[str, ad.Node]] = None) -> ad.Node:
        """Autodiff trace of `perturb`; pass `param_nodes` to get gradients
        with respect to the adapter parameters."""
        h = condition_node(x0, condition, self.backbone.condition_dim)
        return self.stack.trace(h, param_nodes)

    def jacobian_batch(self, x0: np.ndarray, condition=None) -> np.ndarray:
        """Exact Jacobians of the perturbation w.r.t. the latent, (B, d, d)."""
        x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
        h = with_condition(x0, condition, self.backbone.condition_dim)
        return self.stack.jacobian(h, self.backbone.latent_dim)

    # -- Lipschitz auditing -------------------------------------------------

    def lipschitz_upper_bound(self) -> float:
        """Compositional bound: product of per-layer spectral norms times
        activation slope bounds.  Sound input for the log-det error theorem."""
        return self.stack.lipschitz_upper_bound()

    def lipschitz_lower_bound(self, n_pairs: int, seed: int = 0,
                              condition=None) -> float:
        """Max sampled difference quotient; a lower bound of the true constant."""
        if n_pairs < 1:
            raise ValueError("n_pairs must be >= 1")
        rng = np.random.default_rng(seed)
        d = self.backbone.latent_dim
        x = rng.standard_normal((n_pairs, d))
        y = rng.standard_normal((n_pairs, d))
        fx = self.perturb(x, condition)
        fy = self.perturb(y, condition)
        num = np.linalg.norm(fx - fy, axis=1)
        den = np.linalg.norm(x - y, axis=1)
        mask = den > 0
        return float(np.max(num[mask] / den[mask], initial=0.0))

    # -- construction helpers ----------------------------------------------

    def set_constant(self, c: np.ndarray):
        """Force f(x) = c exactly (zero adapters, head bias = c)."""
        for a in self.stack.adapters:
            a.up[...] = 0.0
        self.head_bias[...] = np.asarray(c, dtype=np.float64)

    def randomize_adapters(self, seed: int, spread: float = 0.1):
        """Fill the zero-init up matrices with small random values (test and
        audit scaffolding; training starts from exact zero)."""
        rng = np.random.default_rng(seed)
        for a in self.stack.adapters:
            a.up[...] = spread * rng.standard_normal(a.up.shape) / np.sqrt(self.rank)

    def set_lipschitz_budget(self, budget: float) -> float:
        """Rescale the head so the compositional bound equals `budget` exactly."""
        head_norm = spectral_norm(self.head.scale * self.head.up @ self.head.down)
        if head_norm == 0.0:
            raise ValueError("head is zero; randomize adapters before budgeting")
        trunk = self.lipschitz_upper_bound() / head_norm
        self.head.up[...] *= budget / (trunk * head_norm)
        return self.lipschitz_upper_bound()


def init_hypernet(g: Generator, rank: int, alpha: float, seed: int = 0) -> NoiseHypernetwork:
    """Zero-output initialization: down matrices Gaussian, up matrices zero."""
    rng = np.random.default_rng(seed)
    d, n = g.latent_dim, g.layers[-1].weight.shape[1]
    layers = g.layers[:-1] + [Layer(np.zeros((d, n)), np.zeros(d), "identity")]
    names = [f"layer{i}" for i in range(len(layers) - 1)] + ["head"]
    stack = LayerStack(layers, lora_adapters(rng, layers, rank, alpha), names,
                       shift=np.zeros(d), shift_name="head.bias")
    return NoiseHypernetwork(g, rank, alpha, stack)


def modulate(hn: NoiseHypernetwork, x0: np.ndarray,
             condition=None) -> tuple[np.ndarray, np.ndarray]:
    """Residual transform: returns (delta, x0 + delta)."""
    x0 = np.asarray(x0, dtype=np.float64)
    delta = hn.perturb(x0, condition)
    xhat = x0 + delta
    if not np.all(np.isfinite(xhat)):
        raise FloatingPointError("modulated noise is non-finite")
    return delta, xhat

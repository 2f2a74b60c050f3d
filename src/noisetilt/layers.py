"""The one layer stack behind the frozen generator, the noise hypernetwork
and the directly fine-tuned baseline.

A stack is a list of frozen affine layers, each with an optional low-rank
adapter (LoRA) added before its activation, and an optional trainable shift
added to the output.  `forward` evaluates arrays and `trace` records the same
arithmetic on the autodiff tape (so the two agree bit for bit; the tape's
`autodiff.jacobian` differentiates a trace).  Every activation comes from
`autodiff.ACTIVATIONS`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .linalg import spectral_norm


@dataclass(frozen=True)
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray    # (out,)
    activation: str


@dataclass
class LoraAdapter:
    down: np.ndarray  # (r, n), random init
    up: np.ndarray    # (m, r), zero init
    scale: float      # alpha / r


def lora_adapters(rng: np.random.Generator, layers: list[Layer], rank: int,
                  alpha: float) -> list[LoraAdapter]:
    """Zero-output adapters for `layers`, drawn in layer order: down
    Gaussian, up zero, scale alpha / rank."""
    if rank < 1:
        raise ValueError("rank: must be >= 1")
    adapters = []
    for layer in layers:
        m, n = layer.weight.shape
        if rank > min(m, n):
            raise ValueError(f"rank: {rank} exceeds {min(m, n)}, the smaller side "
                             f"of a {m}x{n} layer that gets an adapter")
        adapters.append(LoraAdapter(down=rng.standard_normal((rank, n)) / np.sqrt(n),
                                    up=np.zeros((m, rank)), scale=alpha / rank))
    return adapters


class LayerStack:
    """`layers` in order; `adapters[i]` (or None) adds ``scale * up @ down``
    to layer i's weight, and `shift` (or None) is added to the output.

    The trainable arrays are named ``<names[i]>.down`` / ``<names[i]>.up``
    for each adapter and `shift_name` for the shift; inputs are one vector
    or a batch of rows."""

    def __init__(self, layers: list[Layer],
                 adapters: Optional[list[Optional[LoraAdapter]]] = None,
                 names: Optional[list[str]] = None,
                 shift: Optional[np.ndarray] = None, shift_name: str = "shift"):
        self.layers = list(layers)
        self.adapters = list(adapters) if adapters else [None] * len(self.layers)
        self.names = names or [f"layer{i}" for i in range(len(self.layers))]
        self.shift = shift
        self.shift_name = shift_name

    def params(self) -> dict[str, np.ndarray]:
        """Trainable arrays, keyed by stable names (manifest order)."""
        out = {}
        for name, a in zip(self.names, self.adapters):
            if a is not None:
                out[f"{name}.down"] = a.down
                out[f"{name}.up"] = a.up
        if self.shift is not None:
            out[self.shift_name] = self.shift
        return out

    def forward(self, h: np.ndarray) -> np.ndarray:
        for layer, a in zip(self.layers, self.adapters):
            z = ad.affine(h, layer.weight, layer.bias)
            if a is not None:
                t = ad.affine(ad.affine(h, a.down, None), a.up, None)
                t *= a.scale
                z += t
            h, _ = ad.ACTIVATIONS[layer.activation].forward(z, z)
        return h if self.shift is None else h + self.shift

    def trace(self, h: ad.Node, nodes: Optional[dict[str, ad.Node]] = None) -> ad.Node:
        """`forward` on the tape.  `nodes` maps every name of `params()` to
        its node; by default they are constants."""
        if nodes is None:
            nodes = {k: ad.constant(v) for k, v in self.params().items()}
        for layer, a, name in zip(self.layers, self.adapters, self.names):
            lora = None
            if a is not None:
                lora = ad.scale(ad.linear(ad.linear(h, nodes[f"{name}.down"]),
                                          nodes[f"{name}.up"]), a.scale)
            h = ad.frozen_layer(h, layer.weight, layer.bias, layer.activation, lora)
        return h if self.shift is None else ad.add(h, nodes[self.shift_name])

    def lipschitz_upper_bound(self) -> float:
        """Product of the layers' spectral norms (adapters merged) and their
        activations' slope bounds."""
        bound = 1.0
        for layer, a in zip(self.layers, self.adapters):
            w = layer.weight if a is None else layer.weight + a.scale * a.up @ a.down
            bound *= ad.ACTIVATIONS[layer.activation].slope_bound * spectral_norm(w)
        return bound

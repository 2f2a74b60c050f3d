"""Frozen differentiable generators: affine maps, seeded MLPs, and a small
image decoder with sigmoid-squashed RGB output.

Weights are immutable after construction; multi-call generation refines the
latent through a convex combination with a square refinement map before the
final decode, with the mixing factor recorded in the spec.
"""
from __future__ import annotations

import hashlib
import json
from typing import Optional

import numpy as np

from . import autodiff as ad
from .layers import Layer, LayerStack, condition_node, with_condition


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


class Generator:
    """A fixed map from latent noise (plus optional condition) to outputs."""

    def __init__(self, variant: str, latent_dim: int, layers: list[Layer],
                 condition_dim: Optional[int] = None,
                 refiner: Optional[list[Layer]] = None,
                 step_mix: float = 0.5, spec: Optional[dict] = None):
        self.variant = variant
        self.latent_dim = latent_dim
        self.condition_dim = condition_dim
        self.layers = layers
        self.refiner = refiner
        self.stack = LayerStack(layers)
        self.step_mix = float(step_mix)
        self.output_dim = layers[-1].weight.shape[0]
        self.output_range = (0.0, 1.0) if variant == "decoder" else None
        self.spec = dict(spec) if spec else {"variant": variant}

    # -- evaluation ---------------------------------------------------------

    def _check_inputs(self, x0: np.ndarray, steps: int):
        if x0.shape[-1] != self.latent_dim:
            raise ValueError(
                f"latent has {x0.shape[-1]} entries, generator expects {self.latent_dim}")
        if steps < 1:
            raise ValueError("steps must be >= 1")

    def _refine_stack(self) -> LayerStack:
        if self.refiner is not None:
            return LayerStack(self.refiner)
        if self.output_dim != self.latent_dim:
            raise ValueError(
                "multi-step generation needs a square map; "
                f"this {self.variant} generator maps {self.latent_dim} -> {self.output_dim}")
        return self.stack

    def generate(self, x0: np.ndarray, condition=None, steps: int = 1) -> np.ndarray:
        """Deterministic output for one latent or a batch of latents."""
        x0 = np.asarray(x0, dtype=np.float64)
        self._check_inputs(x0, steps)
        state = x0
        if steps > 1:
            refine = self._refine_stack()
            gamma = self.step_mix
            for _ in range(steps - 1):
                fresh = refine.forward(with_condition(state, condition, self.condition_dim))
                state = (1.0 - gamma) * state + gamma * fresh
        return self.stack.forward(with_condition(state, condition, self.condition_dim))

    def node(self, x0: ad.Node, condition: Optional[ad.Node] = None,
             steps: int = 1) -> ad.Node:
        """Autodiff trace of `generate` on an existing tape."""
        self._check_inputs(x0.value, steps)
        state = x0
        if steps > 1:
            refine = self._refine_stack()
            gamma = self.step_mix
            for _ in range(steps - 1):
                fresh = refine.trace(condition_node(state, condition, self.condition_dim))
                state = ad.add(ad.scale(state, 1.0 - gamma), ad.scale(fresh, gamma))
        return self.stack.trace(condition_node(state, condition, self.condition_dim))

    # -- identity -----------------------------------------------------------

    def all_weights(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers + (self.refiner or []):
            out.extend([layer.weight, layer.bias])
        return out

    def weight_checksum(self) -> str:
        h = hashlib.sha256()
        for arr in self.all_weights():
            h.update(arr.tobytes())
        return h.hexdigest()

    def spec_hash(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(self.spec, sort_keys=True).encode())
        h.update(self.weight_checksum().encode())
        return h.hexdigest()


def _init_layer(rng: np.random.Generator, n_in: int, n_out: int, activation: str) -> Layer:
    w = rng.standard_normal((n_out, n_in)) / np.sqrt(n_in)
    b = rng.standard_normal(n_out) * 0.1
    return Layer(_freeze(w), _freeze(b), activation)


def make_generator(spec: dict, seed: int = 0) -> Generator:
    """Reproducible construction: the same (spec, seed) yields identical weights."""
    spec = dict(spec)
    variant = spec.get("variant")
    latent_dim = int(spec.get("latent_dim", 0))
    if latent_dim < 1:
        raise ValueError("latent_dim must be a positive integer")
    condition_dim = spec.get("condition_dim")
    condition_dim = int(condition_dim) if condition_dim else None
    in_dim = latent_dim + (condition_dim or 0)
    step_mix = float(spec.get("step_mix", 0.5))
    rng = np.random.default_rng(seed)

    if variant == "affine":
        output_dim = int(spec.get("output_dim", latent_dim))
        if "matrix" in spec:
            a = np.asarray(spec["matrix"], dtype=np.float64).reshape(output_dim, in_dim)
        else:
            a = rng.standard_normal((output_dim, in_dim)) / np.sqrt(in_dim)
        if "bias" in spec:
            b = np.asarray(spec["bias"], dtype=np.float64).reshape(output_dim)
        else:
            b = np.zeros(output_dim)
        layers = [Layer(_freeze(a), _freeze(b), "identity")]
        return Generator("affine", latent_dim, layers, condition_dim,
                         step_mix=step_mix, spec=spec)

    if variant not in ("mlp", "decoder"):
        raise ValueError(f"unknown generator variant {variant!r}")
    hidden = [int(h) for h in spec.get("hidden", [2 * latent_dim])]
    activation = spec.get("activation", "tanh")
    if activation not in ad.ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    if variant == "mlp":
        output_dim, last = int(spec["output_dim"]), "identity"
    else:
        output_dim = int(spec.get("height", 8)) * int(spec.get("width", 8)) * 3
        last = "sigmoid"
    dims = [in_dim] + hidden + [output_dim]
    activations = [activation] * len(hidden) + [last]
    layers = [_init_layer(rng, n, m, act) for n, m, act in zip(dims, dims[1:], activations)]
    refiner = None
    if variant == "decoder":
        # square latent refiner used only by multi-call generation
        refiner = [
            _init_layer(rng, in_dim, 2 * latent_dim, activation),
            _init_layer(rng, 2 * latent_dim, latent_dim, "identity"),
        ]
    return Generator(variant, latent_dim, layers, condition_dim,
                     refiner=refiner, step_mix=step_mix, spec=spec)

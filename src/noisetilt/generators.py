"""Frozen differentiable generators: affine maps, seeded MLPs, and a small
image decoder with sigmoid-squashed RGB output.

Weights are immutable after construction; multi-call generation refines the
latent through a convex combination with a square refinement map before the
final decode, with the mixing factor recorded in the spec.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad

_NP_ACT = {
    "tanh": np.tanh,
    "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
    "silu": lambda z: z / (1.0 + np.exp(-z)),
    "identity": lambda z: z,
}


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray    # (out,)
    activation: str


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
        self.step_mix = float(step_mix)
        self.output_dim = layers[-1].weight.shape[0]
        self.output_range = (0.0, 1.0) if variant == "decoder" else None
        self.spec = dict(spec) if spec else {"variant": variant}

    # -- evaluation ---------------------------------------------------------

    def _check_inputs(self, x0: np.ndarray, condition, steps: int):
        if x0.shape[-1] != self.latent_dim:
            raise ValueError(
                f"latent has {x0.shape[-1]} entries, generator expects {self.latent_dim}")
        if (condition is None) != (self.condition_dim is None):
            raise ValueError("condition must be provided iff the generator is conditional")
        if condition is not None and np.shape(condition)[-1] != self.condition_dim:
            raise ValueError(
                f"condition has {np.shape(condition)[-1]} entries, expected {self.condition_dim}")
        if steps < 1:
            raise ValueError("steps must be >= 1")

    def _with_condition(self, x: np.ndarray, condition) -> np.ndarray:
        if condition is None:
            return x
        c = np.asarray(condition, dtype=np.float64)
        if x.ndim == 2 and c.ndim == 1:
            c = np.broadcast_to(c, (x.shape[0], c.shape[0]))
        return np.concatenate([x, c], axis=-1)

    def _apply(self, layers: list[Layer], h: np.ndarray) -> np.ndarray:
        for layer in layers:
            h = _NP_ACT[layer.activation](h @ layer.weight.T + layer.bias)
        return h

    def _refine_map(self) -> list[Layer]:
        if self.refiner is not None:
            return self.refiner
        if self.output_dim != self.latent_dim:
            raise ValueError(
                "multi-step generation needs a square map; "
                f"this {self.variant} generator maps {self.latent_dim} -> {self.output_dim}")
        return self.layers

    def generate(self, x0: np.ndarray, condition=None, steps: int = 1) -> np.ndarray:
        """Deterministic output for one latent or a batch of latents."""
        x0 = np.asarray(x0, dtype=np.float64)
        self._check_inputs(x0, condition, steps)
        state = x0
        if steps > 1:
            refine = self._refine_map()
            gamma = self.step_mix
            for _ in range(steps - 1):
                fresh = self._apply(refine, self._with_condition(state, condition))
                state = (1.0 - gamma) * state + gamma * fresh
        return self._apply(self.layers, self._with_condition(state, condition))

    def node(self, x0: ad.Node, condition: Optional[ad.Node] = None,
             steps: int = 1) -> ad.Node:
        """Autodiff trace of `generate` on an existing tape."""
        self._check_inputs(x0.value, condition.value if condition is not None else None, steps)

        def with_cond(h: ad.Node) -> ad.Node:
            if condition is None:
                return h
            c = condition
            if h.value.ndim == 2 and c.value.ndim == 1:
                c = ad.Node(np.broadcast_to(c.value, (h.value.shape[0], c.value.shape[0])),
                            (c,), (lambda g: g.sum(axis=0),))
            return ad.concat_last(h, c)

        def apply(layers: list[Layer], h: ad.Node) -> ad.Node:
            for layer in layers:
                h = ad.frozen_layer(h, layer.weight, layer.bias, layer.activation)
            return h

        state = x0
        if steps > 1:
            refine = self._refine_map()
            gamma = self.step_mix
            for _ in range(steps - 1):
                fresh = apply(refine, with_cond(state))
                state = ad.add(ad.scale(state, 1.0 - gamma), ad.scale(fresh, gamma))
        return apply(self.layers, with_cond(state))

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

    if variant == "mlp":
        output_dim = int(spec["output_dim"])
        hidden = [int(h) for h in spec.get("hidden", [2 * latent_dim])]
        activation = spec.get("activation", "tanh")
        if activation not in _NP_ACT:
            raise ValueError(f"unknown activation {activation!r}")
        dims = [in_dim] + hidden + [output_dim]
        layers = [
            _init_layer(rng, dims[i], dims[i + 1],
                        activation if i < len(dims) - 2 else "identity")
            for i in range(len(dims) - 1)
        ]
        return Generator("mlp", latent_dim, layers, condition_dim,
                         step_mix=step_mix, spec=spec)

    if variant == "decoder":
        height = int(spec.get("height", 8))
        width = int(spec.get("width", 8))
        output_dim = height * width * 3
        hidden = [int(h) for h in spec.get("hidden", [2 * latent_dim])]
        activation = spec.get("activation", "tanh")
        dims = [in_dim] + hidden + [output_dim]
        layers = [
            _init_layer(rng, dims[i], dims[i + 1],
                        activation if i < len(dims) - 2 else "sigmoid")
            for i in range(len(dims) - 1)
        ]
        # square latent refiner used only by multi-call generation
        refiner = [
            _init_layer(rng, in_dim, 2 * latent_dim, activation),
            _init_layer(rng, 2 * latent_dim, latent_dim, "identity"),
        ]
        return Generator("decoder", latent_dim, layers, condition_dim,
                         refiner=refiner, step_mix=step_mix, spec=spec)

    raise ValueError(f"unknown generator variant {variant!r}")


@dataclass
class BaseOutputReference:
    """Moments of the untilted output distribution, kept with its samples."""
    mean: np.ndarray
    covariance: np.ndarray
    samples: np.ndarray
    seed: int


def base_output_reference(g: Generator, n: int, seed: int = 0,
                          condition=None, steps: int = 1) -> BaseOutputReference:
    """Sample mean/covariance of g(x0) under standard Gaussian noise."""
    if n < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, g.latent_dim))
    y = g.generate(x, condition=condition, steps=steps)
    return BaseOutputReference(
        mean=y.mean(axis=0),
        covariance=np.cov(y, rowvar=False).reshape(g.output_dim, g.output_dim),
        samples=y,
        seed=seed,
    )

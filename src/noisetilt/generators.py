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
from .layers import Layer, LayerStack


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


# what `make_generator` takes for a spec key left unset
SPEC_DEFAULTS = {"activation": "tanh", "height": 8, "width": 8, "step_mix": 0.5}


class Generator:
    """A fixed map from latent noise to outputs."""

    def __init__(self, variant: str, latent_dim: int, layers: list[Layer],
                 refiner: Optional[list[Layer]], step_mix: float, spec: dict):
        self.variant = variant
        self.latent_dim = latent_dim
        self.layers = layers
        self.refiner = refiner
        self.stack = LayerStack(layers)
        # the map multi-step generation refines the latent with, if square
        self.refine = self.stack if refiner is None else LayerStack(refiner)
        self.step_mix = float(step_mix)
        self.output_dim = layers[-1].weight.shape[0]
        # the dimension of the set the outputs lie on, at most: the kNN
        # estimates compare two pushforwards of the latent at it
        self.manifold_dim = min(latent_dim, self.output_dim)
        self.output_range = (0.0, 1.0) if variant == "decoder" else None
        self.spec = dict(spec)

    # -- evaluation ---------------------------------------------------------

    def check_steps(self, steps: list[int]):
        """Raise ValueError unless `steps` holds step counts this generator runs:
        at least one, each >= 1, and above 1 only with a square refine map."""
        if not steps:
            raise ValueError("needs at least one entry")
        if any(s < 1 for s in steps):
            raise ValueError("entries must be >= 1")
        if max(steps) > 1 and self.refiner is None and self.output_dim != self.latent_dim:
            raise ValueError(
                "more than one step needs a square generator; this "
                f"{self.variant} generator maps {self.latent_dim} -> {self.output_dim}")

    def _check_inputs(self, x0: np.ndarray, steps: int):
        if x0.shape[-1] != self.latent_dim:
            raise ValueError(
                f"latent has {x0.shape[-1]} entries, generator expects {self.latent_dim}")
        self.check_steps([steps])

    def generate(self, x0: np.ndarray, *, steps: int = 1) -> np.ndarray:
        """Deterministic output for one latent or a batch of latents."""
        x0 = np.asarray(x0, dtype=np.float64)
        self._check_inputs(x0, steps)
        state = x0
        if steps > 1:
            gamma = self.step_mix
            for _ in range(steps - 1):
                fresh = self.refine.forward(state)
                state = (1.0 - gamma) * state + gamma * fresh
        return self.stack.forward(state)

    def node(self, x0: ad.Node, *, steps: int = 1) -> ad.Node:
        """Autodiff trace of `generate` on an existing tape."""
        self._check_inputs(x0.value, steps)
        state = x0
        if steps > 1:
            gamma = self.step_mix
            for _ in range(steps - 1):
                fresh = self.refine.trace(state)
                state = ad.add(ad.scale(state, 1.0 - gamma), ad.scale(fresh, gamma))
        return self.stack.trace(state)

    # -- identity -----------------------------------------------------------

    def all_weights(self) -> list[np.ndarray]:
        out = []
        for layer in self.layers + (self.refiner or []):
            out.extend([layer.weight, layer.bias])
        return out

    def weight_checksum(self) -> str:
        """sha256 over every weight's bytes in all_weights' order; each
        weight's own buffer is hashed, as _freeze keeps it C-contiguous."""
        h = hashlib.sha256()
        for arr in self.all_weights():
            h.update(arr)
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


def _positive(key: str, value) -> int:
    """`value` as an int; ValueError, led by `key`, unless it is a whole number >= 1."""
    if value is None:
        raise ValueError(f"{key}: required key is missing")
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole != value:
        raise ValueError(f"{key}: must be an integer, got {value!r}")
    if whole < 1:
        raise ValueError(f"{key}: must be >= 1, got {whole}")
    return whole


def _shaped(spec: dict, key: str, shape: tuple) -> np.ndarray:
    arr = np.asarray(spec[key], dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{key}: must have shape {shape}, got {arr.shape}")
    return arr


def make_generator(spec: dict, seed: int = 0) -> Generator:
    """Reproducible construction: the same (spec, seed) yields identical weights.

    An unset mlp output_dim is latent_dim and an unset network hidden is
    [2 * latent_dim]; both are written into the generator's spec, so its
    spec_hash is the same whether the caller set them or not.  A spec it
    cannot build raises ValueError, led by the offending key."""
    spec = dict(spec)
    opts = {**SPEC_DEFAULTS, **spec}
    variant = spec.get("variant")
    latent_dim = _positive("latent_dim", spec.get("latent_dim", 0))
    try:
        step_mix = float(opts["step_mix"])
    except (TypeError, ValueError):
        step_mix = float("nan")
    if not 0.0 <= step_mix <= 1.0:      # a convex combination
        raise ValueError(f"step_mix: must be a number in [0, 1], got {opts['step_mix']!r}")
    rng = np.random.default_rng(seed)

    if variant == "affine":
        output_dim = _positive("output_dim", spec.get("output_dim", latent_dim))
        if "matrix" in spec:
            a = _shaped(spec, "matrix", (output_dim, latent_dim))
        else:
            a = rng.standard_normal((output_dim, latent_dim)) / np.sqrt(latent_dim)
        b = (_shaped(spec, "bias", (output_dim,)) if "bias" in spec
             else np.zeros(output_dim))
        layers = [Layer(_freeze(a), _freeze(b), "identity")]
        return Generator("affine", latent_dim, layers, None, step_mix, spec)

    if variant not in ("mlp", "decoder"):
        raise ValueError("variant: must be one of ('affine', 'mlp', 'decoder'), "
                         f"got {variant!r}")
    hidden = [_positive("hidden", h) for h in spec.setdefault("hidden", [2 * latent_dim])]
    activation = opts["activation"]
    if activation not in ad.ACTIVATIONS:
        raise ValueError(f"activation: must be one of {tuple(ad.ACTIVATIONS)}, "
                         f"got {activation!r}")
    if variant == "mlp":
        output_dim = _positive("output_dim", spec.setdefault("output_dim", latent_dim))
        last = "identity"
    else:
        output_dim = _positive("height", opts["height"]) * _positive("width", opts["width"]) * 3
        last = "sigmoid"
    dims = [latent_dim] + hidden + [output_dim]
    activations = [activation] * len(hidden) + [last]
    layers = [_init_layer(rng, n, m, act) for n, m, act in zip(dims, dims[1:], activations)]
    refiner = None
    if variant == "decoder":
        # square latent refiner used only by multi-call generation
        refiner = [
            _init_layer(rng, latent_dim, 2 * latent_dim, activation),
            _init_layer(rng, 2 * latent_dim, latent_dim, "identity"),
        ]
    return Generator(variant, latent_dim, layers, refiner, step_mix, spec)

"""Comparison methods: test-time optimization of a single noise vector,
best-of-N selection, and direct reward fine-tuning of the generator itself
(which moves the output distribution and is audited for that drift).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from .generators import Generator
from .layers import LayerStack, condition_node, lora_adapters, with_condition
from .oracles import kl_knn
from .rewards import Reward
from .training import Adam, Sgd, clip_global_norm


# ---------------------------------------------------------------------------
# Test-time noise optimization
# ---------------------------------------------------------------------------

@dataclass
class NoiseOptConfig:
    steps: int = 300
    learning_rate: float = 0.05
    prior_weight: float = 1.0    # lambda in r(g(x)) - lambda/2 ||x||^2
    seed: int = 0
    generation_steps: int = 1


@dataclass
class NoiseOptResult:
    noise: np.ndarray
    objective: float
    reward: float
    trajectory: list = field(default_factory=list)


def noise_opt(g: Generator, r: Reward, cfg: NoiseOptConfig,
              init: Optional[np.ndarray] = None, condition=None) -> NoiseOptResult:
    """Gradient ascent on r(g(x)) - lambda/2 ||x||^2 for one noise vector.

    Keeps the best iterate seen; a non-finite step falls back to it instead
    of failing.
    """
    if cfg.steps < 1:
        raise ValueError("steps must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    x = (rng.standard_normal(g.latent_dim) if init is None
         else np.asarray(init, dtype=np.float64).copy())
    cond_arr = np.asarray(condition, dtype=np.float64) if condition is not None else None

    def objective_and_grad(xv):
        x_node = ad.param(xv, name="noise")
        cond = ad.constant(cond_arr) if cond_arr is not None else None
        out = g.node(x_node, cond, steps=cfg.generation_steps)
        rew = r.node_rows(out)
        obj = ad.sub(rew, ad.scale(ad.sumsq_rows(x_node), 0.5 * cfg.prior_weight))
        grads = ad.backprop(obj)
        return float(obj.value), float(rew.value), grads.get(id(x_node), np.zeros_like(xv))

    best_x, best_obj, best_rew = x.copy(), -np.inf, -np.inf
    trajectory = []
    for step in range(cfg.steps):
        obj, rew, grad = objective_and_grad(x)
        if not (np.isfinite(obj) and np.all(np.isfinite(grad))):
            x = best_x.copy()
            break
        if obj > best_obj:
            best_x, best_obj, best_rew = x.copy(), obj, rew
        trajectory.append(obj)
        x = x + cfg.learning_rate * grad
    obj, rew, _ = objective_and_grad(x)
    if np.isfinite(obj) and obj > best_obj:
        best_x, best_obj, best_rew = x.copy(), obj, rew
    return NoiseOptResult(best_x, best_obj, best_rew, trajectory)


# ---------------------------------------------------------------------------
# Best-of-N selection
# ---------------------------------------------------------------------------

@dataclass
class BestOfNResult:
    counts: list
    best_rewards: list            # running best after each count
    best_noise: np.ndarray
    best_output: np.ndarray


def best_of_n(g: Generator, r: Reward, counts: list[int], seed: int,
              condition=None, generation_steps: int = 1) -> BestOfNResult:
    """Best reward among the first N base samples, for each requested N.

    All counts share one draw, so smaller budgets are exact prefixes of
    larger ones and the curve is monotone by construction.
    """
    counts = sorted(set(int(n) for n in counts))
    if not counts or counts[0] < 1:
        raise ValueError("counts must be positive integers")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((counts[-1], g.latent_dim))
    y = g.generate(x, condition=condition, steps=generation_steps)
    rewards = r.evaluate_batch(y)
    running = np.maximum.accumulate(rewards)
    best_idx = int(np.argmax(rewards))
    return BestOfNResult(
        counts=counts,
        best_rewards=[float(running[n - 1]) for n in counts],
        best_noise=x[best_idx],
        best_output=y[best_idx],
    )


# ---------------------------------------------------------------------------
# Direct reward fine-tuning of the generator
# ---------------------------------------------------------------------------

class AdaptedGenerator:
    """The backbone with trainable deltas on its own weights: a bias shift
    for affine maps, low-rank adapters on every layer (final included)
    otherwise.  Unlike the noise-space method this changes the output law."""

    def __init__(self, backbone: Generator, rank: int = 2, adapter_scale: float = 1.0,
                 seed: int = 0):
        self.backbone = backbone
        rng = np.random.default_rng(seed)
        if backbone.variant == "affine":
            self.stack = LayerStack(backbone.layers, shift=np.zeros(backbone.output_dim),
                                    shift_name="bias_delta")
        else:
            self.stack = LayerStack(backbone.layers,
                                    lora_adapters(rng, backbone.layers, rank, adapter_scale))
        self.bias_delta: Optional[np.ndarray] = self.stack.shift

    def params(self) -> dict[str, np.ndarray]:
        return self.stack.params()

    def generate(self, x0: np.ndarray, condition=None) -> np.ndarray:
        x0 = np.asarray(x0, dtype=np.float64)
        return self.stack.forward(with_condition(x0, condition, self.backbone.condition_dim))

    def node(self, x0: ad.Node, param_nodes: dict[str, ad.Node],
             condition: Optional[ad.Node] = None) -> ad.Node:
        h = condition_node(x0, condition, self.backbone.condition_dim)
        return self.stack.trace(h, param_nodes)


@dataclass
class DirectFinetuneConfig:
    steps: int = 300
    batch_size: int = 64
    learning_rate: float = 0.05
    optimizer: str = "adam"
    clip_norm: float = 1.0
    rank: int = 2
    seed: int = 0
    eval_every: int = 25
    eval_samples: int = 2000


@dataclass
class DirectFinetuneHistory:
    steps: list = field(default_factory=list)
    mean_reward: list = field(default_factory=list)
    output_drift: list = field(default_factory=list)   # KL(adapted || base) outputs
    drift_estimator: str = "closed_form"


def _output_drift(adapted: AdaptedGenerator, n: int, seed: int, condition=None) -> float:
    g = adapted.backbone
    if adapted.bias_delta is not None:
        # affine case in closed form: equal covariances, shifted means
        a = g.layers[0].weight
        mu = adapted.bias_delta
        return 0.5 * float(mu @ np.linalg.pinv(a @ a.T) @ mu)
    seqs = np.random.SeedSequence(seed).spawn(2)
    xa = np.random.default_rng(seqs[0]).standard_normal((n, g.latent_dim))
    xb = np.random.default_rng(seqs[1]).standard_normal((n, g.latent_dim))
    return kl_knn(adapted.generate(xa, condition), g.generate(xb, condition=condition))


def train_direct_finetune(g: Generator, r: Reward, cfg: DirectFinetuneConfig,
                          condition=None) -> tuple[AdaptedGenerator, DirectFinetuneHistory]:
    """Maximize mean reward by adapting generator weights directly.

    No closeness term: the point of this baseline is to expose the output
    drift that the noise-space method avoids, so drift is measured and
    logged rather than penalized.
    """
    adapted = AdaptedGenerator(g, rank=cfg.rank, seed=cfg.seed)
    opt = (Adam(cfg.learning_rate) if cfg.optimizer == "adam"
           else Sgd(cfg.learning_rate))
    rng = np.random.default_rng(cfg.seed)
    history = DirectFinetuneHistory(
        drift_estimator="closed_form" if adapted.bias_delta is not None else "knn")
    cond_arr = np.asarray(condition, dtype=np.float64) if condition is not None else None

    for step in range(cfg.steps):
        x = rng.standard_normal((cfg.batch_size, g.latent_dim))
        param_nodes = {k: ad.param(v, name=k) for k, v in adapted.params().items()}
        cond = ad.constant(cond_arr) if cond_arr is not None else None
        out = adapted.node(ad.constant(x), param_nodes, cond)
        rew = ad.amean(r.node_rows(out), axis=None)
        loss = ad.neg(rew)
        raw = ad.backprop(loss)
        grads = {k: raw.get(id(n), np.zeros_like(n.value))
                 for k, n in param_nodes.items()}
        if not all(np.all(np.isfinite(v)) for v in grads.values()):
            break
        clip_global_norm(grads, cfg.clip_norm)
        opt.update(adapted.params(), grads)
        if step % cfg.eval_every == 0 or step == cfg.steps - 1:
            history.steps.append(step)
            history.mean_reward.append(float(rew.value))
            history.output_drift.append(
                _output_drift(adapted, cfg.eval_samples, cfg.seed + 1000 + step, condition))
    return adapted, history

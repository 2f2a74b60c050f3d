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
from .layers import LayerStack, lora_adapters
from .oracles import affine_shift_kl, kl_knn
from .rewards import Reward
from .training import OPTIMIZERS, check_descent, descend
from .training import clip_global_norm  # noqa: F401  (bench/test_bench.py asserts it)


# ---------------------------------------------------------------------------
# Test-time noise optimization
# ---------------------------------------------------------------------------

@dataclass
class NoiseOptConfig:
    steps: int = 300
    learning_rate: float = 0.05
    prior_weight: float = 1.0    # lambda in r(g(x)) - lambda/2 ||x||^2
    seed: int = 0

    def validate(self):
        if self.steps < 1:
            raise ValueError("steps: must be >= 1")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate: must be > 0")


@dataclass
class NoiseOptResult:
    noise: np.ndarray
    objective: float
    reward: float
    trajectory: list = field(default_factory=list)


def noise_opt(g: Generator, r: Reward, cfg: NoiseOptConfig,
              init: Optional[np.ndarray] = None) -> NoiseOptResult:
    """Gradient ascent on r(g(x)) - lambda/2 ||x||^2 for one noise vector.

    Keeps the best iterate seen; a non-finite step falls back to it instead
    of failing.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    x = (rng.standard_normal(g.latent_dim) if init is None
         else np.asarray(init, dtype=np.float64).copy())

    arena = ad.Arena()

    def objective_and_grad(xv):
        with arena:
            x_node = ad.param(xv, name="noise")
            out = g.node(x_node)
            rew = r.node_rows(out)
            obj = ad.sub(rew, ad.scale(ad.sumsq_rows(x_node), 0.5 * cfg.prior_weight))
            grads = ad.backprop(obj)
            return float(obj.value), float(rew.value), ad.leaf_grad(grads, x_node)

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
    best_output: np.ndarray


def check_counts(counts: list[int]):
    """Raise ValueError unless `best_of_n` can select at every count."""
    if not counts or min(counts) < 1:
        raise ValueError("counts: needs at least one entry, all >= 1")


def best_of_n(g: Generator, r: Reward, counts: list[int], seed: int) -> BestOfNResult:
    """Best reward among the first N base samples, for each requested N.

    All counts share one draw, so smaller budgets are exact prefixes of
    larger ones and the curve is monotone by construction.
    """
    check_counts(counts)
    counts = sorted(set(int(n) for n in counts))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((counts[-1], g.latent_dim))
    y = g.generate(x)
    rewards = r.evaluate_batch(y)
    running = np.maximum.accumulate(rewards)
    return BestOfNResult(
        counts=counts,
        best_rewards=[float(running[n - 1]) for n in counts],
        best_output=y[int(np.argmax(rewards))],
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

    def generate(self, x0: np.ndarray) -> np.ndarray:
        return self.stack.forward(np.asarray(x0, dtype=np.float64))

    def node(self, x0: ad.Node, param_nodes: dict[str, ad.Node]) -> ad.Node:
        return self.stack.trace(x0, param_nodes)


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

    def validate(self):
        check_descent(self)
        if self.rank < 1:
            raise ValueError("rank: must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every: must be >= 1")


def measure_drift(adapted: AdaptedGenerator, cfg: DirectFinetuneConfig, step: int,
                  estimate=None):
    """KL(adapted || base) of the outputs after `step`: a float in closed form
    for an affine generator, else estimate(adapted outputs, base outputs,
    d=g.manifold_dim) of fresh draws fixed by (cfg.seed, step), drawn and
    generated now.  The default estimate is kl_knn's float; a KnnEvaluator's
    `submit` returns an Estimate to resolve later instead."""
    g = adapted.backbone
    if adapted.bias_delta is not None:
        # affine case in closed form: equal covariances, shifted means
        return affine_shift_kl(g.layers[0].weight, adapted.bias_delta)
    n = cfg.eval_samples
    seqs = np.random.SeedSequence(cfg.seed + 1000 + step).spawn(2)
    xa = np.random.default_rng(seqs[0]).standard_normal((n, g.latent_dim))
    xb = np.random.default_rng(seqs[1]).standard_normal((n, g.latent_dim))
    return (estimate or kl_knn)(adapted.generate(xa), g.generate(xb), d=g.manifold_dim)


def train_direct_finetune(g: Generator, r: Reward, cfg: DirectFinetuneConfig,
                          eval_hook=None) -> tuple[AdaptedGenerator, list]:
    """Maximize mean reward by adapting generator weights directly, and
    return the adapted generator with one [step, mean batch reward] row per
    logged step: every `eval_every`-th step and the last.

    No closeness term: the point of this baseline is to expose the output
    drift that the noise-space method avoids, so drift is measured (by
    `measure_drift`, from `eval_hook`) rather than penalized.  `eval_hook`,
    if given, is called as eval_hook(step, adapted) at every logged step.
    A row's reward is the mean over that step's training batch of
    `batch_size` rows, taken before the step's update, while a drift
    measured from the hook sees the weights after it.  A non-finite
    gradient rolls the weights back and raises
    FloatingPointError("direct fine-tune aborted: step N: ...").
    """
    cfg.validate()
    adapted = AdaptedGenerator(g, rank=cfg.rank, seed=cfg.seed)
    rows = []

    def loss_and_grads(x):
        param_nodes = {k: ad.param(v, name=k) for k, v in adapted.params().items()}
        out = adapted.node(ad.constant(x), param_nodes)
        rew = ad.amean(r.node_rows(out), axis=None)
        raw = ad.backprop(ad.neg(rew))
        return float(rew.value), {k: ad.leaf_grad(raw, n) for k, n in param_nodes.items()}

    def on_log(step, mean_reward, gnorm):
        rows.append([step, mean_reward])
        if eval_hook is not None:
            eval_hook(step, adapted)

    opt = OPTIMIZERS[cfg.optimizer](cfg.learning_rate)
    descend(adapted.params(), loss_and_grads, opt, cfg, g.latent_dim, cfg.eval_every,
            on_log, "direct fine-tune")
    return adapted, rows

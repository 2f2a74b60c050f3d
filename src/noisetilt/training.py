"""Training loop for the residual noise network: fresh noise every step,
first-order optimizers with global gradient-norm clipping, divergence
guards, and a self-describing binary checkpoint format.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .generators import Generator
from .hypernet import NoiseHypernetwork
from .objectives import hypernoise_loss
from .rewards import Reward


class CheckpointError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    steps: int = 500
    batch_size: int = 64
    learning_rate: float = 0.05
    optimizer: str = "sgd"       # "sgd" or "adam"
    momentum: float = 0.0
    clip_norm: float = 1.0       # global gradient-norm ceiling; <= 0 disables
    alpha: float = 1.0           # reward temperature
    seed: int = 0
    log_every: int = 10
    generation_steps: int = 1
    # training aborts once E 1/2||f||^2 exceeds this multiple of the latent dim
    divergence_factor: float = 10.0

    def validate(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")


@dataclass
class TrainHistory:
    steps: list = field(default_factory=list)
    loss: list = field(default_factory=list)
    l2_term: list = field(default_factory=list)
    reward_term: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    diverged: bool = False
    aborted_reason: Optional[str] = None

    def record(self, step, breakdown, gnorm):
        self.steps.append(step)
        self.loss.append(breakdown.total)
        self.l2_term.append(breakdown.l2_term)
        self.reward_term.append(breakdown.reward_term)
        self.grad_norm.append(gnorm)


class Sgd:
    def __init__(self, lr: float, momentum: float = 0.0):
        self.lr = lr
        self.momentum = momentum
        self.velocity: dict[str, np.ndarray] = {}

    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        for name, p in params.items():
            g = grads[name]
            if self.momentum > 0.0:
                v = self.velocity.get(name)
                v = g if v is None else self.momentum * v + g
                self.velocity[name] = v
                g = v
            p -= self.lr * g


class Adam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in params.items():
            g = grads[name]
            m = self.m.get(name, np.zeros_like(p))
            v = self.v.get(name, np.zeros_like(p))
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            self.m[name], self.v[name] = m, v
            mhat = m / (1 - b1 ** self.t)
            vhat = v / (1 - b2 ** self.t)
            p -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def clip_global_norm(grads: dict[str, np.ndarray], ceiling: float) -> float:
    """Scale all gradients jointly so their stacked norm is at most `ceiling`.
    Returns the pre-clip norm."""
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if ceiling > 0 and total > ceiling:
        factor = ceiling / total
        for g in grads.values():
            g *= factor
    return total


def _snapshot(hn: NoiseHypernetwork) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in hn.params().items()}


def train_hypernoise(hn: NoiseHypernetwork, g: Generator, r: Reward,
                     cfg: TrainConfig, condition=None,
                     eval_hook=None) -> TrainHistory:
    """Optimize the adapter parameters in place; deterministic in (cfg.seed).

    On a non-finite loss or gradient the parameters are rolled back to the
    last finished step and the history is marked aborted.  `eval_hook`, if
    given, is called as eval_hook(step, hn) at every logged step.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    opt = (Adam(cfg.learning_rate) if cfg.optimizer == "adam"
           else Sgd(cfg.learning_rate, cfg.momentum))
    history = TrainHistory()
    d = g.latent_dim
    ceiling = cfg.divergence_factor * d

    last_good = _snapshot(hn)
    for step in range(cfg.steps):
        noise = rng.standard_normal((cfg.batch_size, d))
        try:
            breakdown, grads = hypernoise_loss(hn, g, r, noise, conditions=condition,
                                               alpha=cfg.alpha,
                                               generation_steps=cfg.generation_steps)
        except FloatingPointError as exc:
            hn.set_params(last_good)
            history.aborted_reason = f"step {step}: {exc}"
            return history
        finite = np.isfinite(breakdown.total) and all(
            np.all(np.isfinite(v)) for v in grads.values())
        if not finite:
            hn.set_params(last_good)
            history.aborted_reason = f"step {step}: non-finite loss or gradient"
            return history
        if breakdown.l2_term > ceiling:
            hn.set_params(last_good)
            history.diverged = True
            history.aborted_reason = (
                f"step {step}: perturbation energy {breakdown.l2_term:.3g} "
                f"exceeded {ceiling:.3g}")
            return history

        gnorm = clip_global_norm(grads, cfg.clip_norm)
        last_good = _snapshot(hn)
        opt.update(hn.params(), grads)
        if step % cfg.log_every == 0 or step == cfg.steps - 1:
            history.record(step, breakdown, gnorm)
            if eval_hook is not None:
                eval_hook(step, hn)
    return history


# ---------------------------------------------------------------------------
# Checkpoints: magic, u32 header length, JSON header, raw little-endian
# float64 arrays in manifest order.
# ---------------------------------------------------------------------------

_MAGIC = b"NTCK"
_VERSION = 1


def save_checkpoint(path: str, hn: NoiseHypernetwork, extra: Optional[dict] = None):
    params = hn.params()
    header = {
        "version": _VERSION,
        "backbone_hash": hn.backbone.spec_hash(),
        "rank": hn.rank,
        "alpha": hn.alpha,
        "manifest": [[name, list(arr.shape)] for name, arr in params.items()],
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in params.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path: str, hn: NoiseHypernetwork) -> dict:
    """Restore adapter parameters; refuses checkpoints from a different
    backbone, rank, or alpha.  Returns the header's extra record."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        raw = fh.read(4)
        if len(raw) != 4:
            raise CheckpointError(f"{path}: truncated header length")
        (hlen,) = struct.unpack("<I", raw)
        blob = fh.read(hlen)
        if len(blob) != hlen:
            raise CheckpointError(f"{path}: truncated header")
        try:
            header = json.loads(blob)
        except ValueError as exc:
            raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
        if header.get("version") != _VERSION:
            raise CheckpointError(f"{path}: unsupported version {header.get('version')}")
        if header.get("backbone_hash") != hn.backbone.spec_hash():
            raise CheckpointError(
                f"{path}: checkpoint was written for a different backbone")
        if header.get("rank") != hn.rank or header.get("alpha") != hn.alpha:
            raise CheckpointError(
                f"{path}: adapter configuration mismatch "
                f"(rank {header.get('rank')} vs {hn.rank}, "
                f"alpha {header.get('alpha')} vs {hn.alpha})")
        params = hn.params()
        manifest = header.get("manifest", [])
        if [m[0] for m in manifest] != list(params.keys()):
            raise CheckpointError(f"{path}: parameter manifest mismatch")
        values = {}
        for name, shape in manifest:
            shape = tuple(shape)
            if params[name].shape != shape:
                raise CheckpointError(f"{path}: shape mismatch for {name!r}")
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(8 * count)
            if len(raw) != 8 * count:
                raise CheckpointError(f"{path}: truncated data for {name!r}")
            values[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        hn.set_params(values)
        return header.get("extra", {})

"""The descent loop of both trained methods (fresh noise every step, SGD or
Adam, global gradient-norm clipping, rollback on a failed step), the noise
network's training on it, and its checkpoint: a numpy .npz archive.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import reporting
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

    def validate(self):
        """Raise ValueError, led by the field, on values the loop cannot run."""
        check_descent(self)
        if not 0.0 <= self.momentum < 1.0:     # heavy-ball momentum needs beta in [0, 1)
            raise ValueError(f"momentum: must be in [0, 1), got {self.momentum}")
        if not self.alpha > 0:
            raise ValueError("alpha: must be > 0")
        if self.log_every < 1:
            raise ValueError("log_every: must be >= 1")


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
    def __init__(self, lr: float):
        self.lr = lr
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8     # Kingma & Ba's defaults
        for name, p in params.items():
            g = grads[name]
            m = self.m.get(name, np.zeros_like(p))
            v = self.v.get(name, np.zeros_like(p))
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            self.m[name], self.v[name] = m, v
            mhat = m / (1 - b1 ** self.t)
            vhat = v / (1 - b2 ** self.t)
            p -= self.lr * mhat / (np.sqrt(vhat) + eps)


# name -> constructor(learning_rate, momentum); Adam keeps its own moments
OPTIMIZERS = {"sgd": Sgd, "adam": lambda lr, momentum=0.0: Adam(lr)}


def check_descent(cfg):
    """Raise ValueError, led by the field, on a descent `cfg` cannot run."""
    if cfg.steps < 1:
        raise ValueError("steps: must be >= 1")
    if cfg.batch_size < 1:
        raise ValueError("batch_size: must be >= 1")
    if not cfg.learning_rate > 0:
        raise ValueError("learning_rate: must be > 0")
    if cfg.optimizer not in OPTIMIZERS:
        raise ValueError(f"optimizer: unknown optimizer {cfg.optimizer!r}, "
                         f"must be one of {tuple(OPTIMIZERS)}")


def clip_global_norm(grads: dict[str, np.ndarray], ceiling: float) -> float:
    """Scale all gradients jointly so their stacked norm is at most `ceiling`.
    Returns the pre-clip norm."""
    total = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if ceiling > 0 and total > ceiling:
        factor = ceiling / total
        for g in grads.values():
            g *= factor
    return total


def descend(params: dict[str, np.ndarray], loss_and_grads, opt, cfg,
            latent_dim: int, log_every: int, on_log, label: str):
    """Descend on the live arrays of `params`, deterministic in cfg.seed.  Each
    step runs loss_and_grads(noise) -> (info, grads) on fresh (batch_size,
    latent_dim) noise in one tape arena, clips and lets `opt` update;
    on_log(step, info, pre-clip norm) follows at every `log_every`-th step
    and the last.  A FloatingPointError from loss_and_grads or a non-finite
    gradient puts back the parameters the last finite step was computed at
    and raises FloatingPointError("<label> aborted: step N: <reason>")."""
    rng = np.random.default_rng(cfg.seed)
    arena = ad.Arena()
    last_good = {k: v.copy() for k, v in params.items()}
    for step in range(cfg.steps):
        noise = rng.standard_normal((cfg.batch_size, latent_dim))
        try:
            with arena:
                info, grads = loss_and_grads(noise)
            if not all(np.all(np.isfinite(g)) for g in grads.values()):
                raise FloatingPointError("non-finite gradient")
        except FloatingPointError as exc:
            for k, v in params.items():
                v[...] = last_good[k]
            raise FloatingPointError(f"{label} aborted: step {step}: {exc}") from exc
        gnorm = clip_global_norm(grads, cfg.clip_norm)
        for k, v in params.items():
            last_good[k][...] = v
        opt.update(params, grads)
        if step % log_every == 0 or step == cfg.steps - 1:
            on_log(step, info, gnorm)


# the columns of each row `train_hypernoise` logs, in order
HISTORY_COLUMNS = ["step", "loss", "l2_term", "reward_term", "grad_norm"]


def train_hypernoise(hn: NoiseHypernetwork, g: Generator, r: Reward,
                     cfg: TrainConfig, eval_hook=None,
                     history: Optional[list] = None) -> list:
    """Optimize the adapter parameters in place with `descend`, appending a
    row under HISTORY_COLUMNS to `history` (a new list if not given) at
    each logged step, and return it.

    A non-finite loss, reward or gradient, or a perturbation energy above
    10 * latent_dim, rolls the parameters back and raises
    FloatingPointError("training aborted: step N: ...").  `eval_hook`, if
    given, is called as eval_hook(step, hn) at every logged step.
    """
    cfg.validate()
    history = [] if history is None else history
    ceiling = 10.0 * g.latent_dim

    def loss_and_grads(noise):
        breakdown, grads = hypernoise_loss(hn, g, r, noise, alpha=cfg.alpha,
                                           generation_steps=cfg.generation_steps)
        if not np.isfinite(breakdown.total):
            raise FloatingPointError("non-finite loss")
        if breakdown.l2_term > ceiling:
            raise FloatingPointError(f"perturbation energy {breakdown.l2_term:.3g} "
                                     f"exceeded {ceiling:.3g}")
        return breakdown, grads

    def on_log(step, breakdown, gnorm):
        history.append([step, breakdown.total, breakdown.l2_term,
                        breakdown.reward_term, gnorm])
        if eval_hook is not None:
            eval_hook(step, hn)

    opt = OPTIMIZERS[cfg.optimizer](cfg.learning_rate, cfg.momentum)
    descend(hn.params(), loss_and_grads, opt, cfg, g.latent_dim, cfg.log_every,
            on_log, "training")
    return history


# ---------------------------------------------------------------------------
# Checkpoints: an .npz archive (a zip of CRC-checked .npy files) of the adapter
# parameters by params() name and a JSON header, a 0-d string under _HEADER.
# ---------------------------------------------------------------------------

_HEADER = "__header__"
_VERSION = 2


def save_checkpoint(path: str, hn: NoiseHypernetwork, extra: Optional[dict] = None):
    header = {"version": _VERSION, "backbone_hash": hn.backbone.spec_hash(),
              "rank": hn.rank, "alpha": hn.alpha, "extra": extra or {}}
    with reporting.atomic_file(path, "wb") as fh:   # a file object: no .npz suffix
        np.savez(fh, **hn.params(), **{_HEADER: np.array(json.dumps(header, sort_keys=True))})


def load_checkpoint(path: str, hn: NoiseHypernetwork) -> dict:
    """Restore adapter parameters; refuses a file np.load cannot read as
    such an archive, and checkpoints from a different backbone, rank, or
    alpha.  Returns the header's extra record."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        header = json.loads(arrays.pop(_HEADER)[()])
        version = header["version"]
    except Exception as exc:    # zipfile and numpy raise many kinds on a damaged file
        raise CheckpointError(f"{path}: not a readable checkpoint "
                              f"({type(exc).__name__}: {exc})") from None
    if version != _VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    if header.get("backbone_hash") != hn.backbone.spec_hash():
        raise CheckpointError(f"{path}: checkpoint was written for a different backbone")
    if header.get("rank") != hn.rank or header.get("alpha") != hn.alpha:
        raise CheckpointError(f"{path}: adapter configuration mismatch (rank "
                              f"{header.get('rank')} vs {hn.rank}, alpha "
                              f"{header.get('alpha')} vs {hn.alpha})")
    params = hn.params()
    if arrays.keys() != params.keys():
        raise CheckpointError(f"{path}: parameters {sorted(arrays)}, expected {sorted(params)}")
    for name, arr in arrays.items():
        if arr.dtype != np.float64 or arr.shape != params[name].shape:
            raise CheckpointError(f"{path}: {name!r} is {arr.dtype} {arr.shape}, "
                                  f"expected float64 {params[name].shape}")
    for name, arr in arrays.items():    # every array checked before any is written
        params[name][...] = arr
    return header.get("extra", {})

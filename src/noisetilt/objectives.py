"""Training loss (L2 penalty minus temperature-scaled reward), the exact
noise-space KL with its Jacobian terms, and the log-determinant error bound."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .generators import Generator
from .hypernet import NoiseHypernetwork
from .linalg import jacobian_fd, logdet_and_trace
from .rewards import Reward


@dataclass
class LossBreakdown:
    l2_term: float       # E 1/2 ||f(x0)||^2
    reward_term: float   # E r(g(x0 + f(x0))) / alpha
    total: float         # l2_term - reward_term


@dataclass
class KlBreakdown:
    l2_term: float
    trace_term: float
    logdet_term: float
    exact_kl: float      # l2 + trace - logdet
    approx_error: float  # exact_kl - l2_term
    bound: Optional[float]
    lipschitz_used: float


def hypernoise_loss(hn: NoiseHypernetwork, g: Generator, r: Reward,
                    noise_batch: np.ndarray, alpha: float = 1.0,
                    generation_steps: int = 1) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
    """Monte-Carlo loss over a noise batch plus gradients for the adapter
    parameters (the backbone is never differentiated into); the generator
    runs `generation_steps` calls per sample."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    x = np.atleast_2d(np.asarray(noise_batch, dtype=np.float64))
    if x.shape[0] == 0:
        raise ValueError("noise batch is empty")

    param_nodes = {k: ad.param(v, name=k) for k, v in hn.params().items()}
    x_node = ad.constant(x)
    delta = hn.delta_node(x_node, param_nodes)
    xhat = ad.add(x_node, delta)
    out = g.node(xhat, steps=generation_steps)
    reward_rows = r.node_rows(out)
    if not np.all(np.isfinite(reward_rows.value)):
        bad = int(np.flatnonzero(~np.isfinite(np.atleast_1d(reward_rows.value)))[0])
        raise FloatingPointError(f"non-finite reward at sample index {bad}")
    l2 = ad.scale(ad.amean(ad.sumsq_rows(delta), axis=None), 0.5)
    rew = ad.scale(ad.amean(reward_rows, axis=None), 1.0 / alpha)
    total = ad.sub(l2, rew)

    grads = ad.backprop(total)
    param_grads = {k: ad.leaf_grad(grads, node) for k, node in param_nodes.items()}
    breakdown = LossBreakdown(l2_term=float(l2.value), reward_term=float(rew.value),
                              total=float(total.value))
    return breakdown, param_grads


MAX_EXACT_KL_DIM = 64


def exact_noise_kl(hn: NoiseHypernetwork, noise_samples: np.ndarray) -> KlBreakdown:
    """Exact KL between modulated and base noise, averaged over samples.

    The dense Jacobians come from the tape (`jacobian_batch`); the first
    sample's is cross-checked against central finite differences.
    Validation pathway only: dimensions are capped so the dense route stays
    cheap.
    """
    x = np.atleast_2d(np.asarray(noise_samples, dtype=np.float64))
    if x.shape[0] == 0:
        raise ValueError("need at least one sample")
    d = hn.backbone.latent_dim
    if d > MAX_EXACT_KL_DIM:
        raise ValueError(f"exact KL restricted to latent_dim <= {MAX_EXACT_KL_DIM}")

    jac = hn.jacobian_batch(x)
    if not np.allclose(jac[0], jacobian_fd(hn.perturb, x[0]), rtol=1e-5, atol=1e-6):
        raise AssertionError("tape Jacobian disagrees with finite differences")
    traces, logdets = logdet_and_trace(jac)
    f = hn.perturb(x)
    l2 = float(np.mean(0.5 * np.sum(f * f, axis=1)))
    tr = float(np.mean(traces))
    ld = float(np.mean(logdets))
    lip = hn.lipschitz_upper_bound()
    bound = theorem_bound(d, lip) if lip < 1.0 else None
    return KlBreakdown(
        l2_term=l2,
        trace_term=tr,
        logdet_term=ld,
        exact_kl=l2 + tr - ld,
        approx_error=tr - ld,
        bound=bound,
        lipschitz_used=lip,
    )


def error_term(j: np.ndarray):
    """Trace minus log|det(I + .)|: the cost of dropping the Jacobian terms,
    per matrix of a (B, d, d) batch."""
    tr, ld = logdet_and_trace(j)
    return tr - ld


def theorem_bound(d: int, lipschitz: float) -> float:
    """d * (-ln(1 - L) - L); valid for 0 <= L < 1."""
    if not 0.0 <= lipschitz < 1.0:
        raise ValueError(f"Lipschitz constant must be in [0, 1), got {lipschitz}")
    return d * (-math.log1p(-lipschitz) - lipschitz)

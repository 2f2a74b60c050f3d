"""Residual noise network: zero init, adapters, Jacobians, Lipschitz audits."""
import hashlib

import numpy as np
import pytest

from noisetilt import autodiff as ad
from noisetilt.generators import make_generator
from noisetilt.hypernet import init_hypernet
from noisetilt.linalg import jacobian_fd, spectral_norm

MLP_SPEC = {"variant": "mlp", "latent_dim": 4, "output_dim": 4, "hidden": [10]}


def fresh(rank=2, alpha=2.0, seed=0, gseed=0):
    g = make_generator(MLP_SPEC, seed=gseed)
    return g, init_hypernet(g, rank=rank, alpha=alpha, seed=seed)


def test_zero_init_identity():
    g, hn = fresh()
    x = np.random.default_rng(0).standard_normal((50, 4))
    delta = hn.perturb(x)
    assert np.max(np.abs(delta)) == 0.0
    np.testing.assert_array_equal(x + delta, x)


def test_same_seed_same_down_matrices():
    def checksum(hn):
        h = hashlib.sha256()
        for name in sorted(hn.params()):
            if name.endswith(".down"):
                h.update(hn.params()[name].tobytes())
        return h.hexdigest()
    _, a = fresh(seed=7)
    _, b = fresh(seed=7)
    _, c = fresh(seed=8)
    assert checksum(a) == checksum(b)
    assert checksum(a) != checksum(c)


def test_rank_too_large():
    g = make_generator(MLP_SPEC, seed=0)
    with pytest.raises(ValueError):
        init_hypernet(g, rank=5, alpha=1.0, seed=0)
    with pytest.raises(ValueError):
        init_hypernet(g, rank=0, alpha=1.0, seed=0)


def test_perturb_batch_matches_single():
    g, hn = fresh()
    hn.randomize_adapters(3)
    x = np.random.default_rng(1).standard_normal((6, 4))
    batch = hn.perturb(x)
    for i in range(6):
        np.testing.assert_allclose(batch[i], hn.perturb(x[i]), rtol=1e-13)


def test_jacobian_batch_matches_fd():
    g, hn = fresh()
    hn.randomize_adapters(5)
    x = np.random.default_rng(3).standard_normal((4, 4))
    np.testing.assert_allclose(hn.jacobian_batch(x), jacobian_fd(hn.perturb, x),
                               rtol=1e-5, atol=1e-7)


def sampled_lipschitz(hn, seed):
    """The largest Jacobian spectral norm over 500 Gaussian draws: the norm
    at any point is at most the Lipschitz constant."""
    x = np.random.default_rng(seed).standard_normal((500, hn.backbone.latent_dim))
    return max(np.linalg.norm(j, 2) for j in hn.jacobian_batch(x))


def test_lipschitz_bounds_bracket():
    g, hn = fresh()
    hn.randomize_adapters(6)
    upper = hn.lipschitz_upper_bound()
    lower = sampled_lipschitz(hn, seed=0)
    assert 0.0 < lower <= upper


def test_lipschitz_budget_exact():
    g, hn = fresh()
    with pytest.raises(ValueError):
        hn.set_lipschitz_budget(0.3)   # zero head cannot be rescaled
    hn.randomize_adapters(7)
    achieved = hn.set_lipschitz_budget(0.3)
    assert achieved == pytest.approx(0.3, rel=1e-9)
    assert sampled_lipschitz(hn, seed=1) <= achieved + 1e-9


def test_lipschitz_audits_keep_the_bits_of_the_unfolded_expressions():
    # the bound and the budget take their matrices from stack.merged(); the
    # expressions they replaced, written out, give the same bits
    g, hn = fresh()
    hn.randomize_adapters(7)
    stack = hn.stack

    def unfolded_bound():
        bound = 1.0
        for layer, a in zip(stack.layers, stack.adapters):
            w = layer.weight if a is None else layer.weight + a.scale * a.up @ a.down
            bound *= ad.ACTIVATIONS[layer.activation].slope_bound * spectral_norm(w)
        return bound

    for layer, folded, a in zip(stack.layers, stack.merged().layers, stack.adapters):
        assert np.array_equal(folded.weight, layer.weight + a.scale * a.up @ a.down)
    assert hn.lipschitz_upper_bound() == unfolded_bound()
    head = hn.head
    head_norm = spectral_norm(head.scale * head.up @ head.down)
    up = head.up * (0.3 / (unfolded_bound() / head_norm * head_norm))
    achieved = hn.set_lipschitz_budget(0.3)
    assert np.array_equal(head.up, up)
    assert achieved == unfolded_bound()


def test_set_constant():
    g, hn = fresh()
    hn.randomize_adapters(8)
    c = np.array([0.1, -0.2, 0.3, 0.4])
    hn.set_constant(c)
    x = np.random.default_rng(4).standard_normal((10, 4))
    np.testing.assert_array_equal(hn.perturb(x), np.broadcast_to(c, (10, 4)))

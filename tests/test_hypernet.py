"""Residual noise network: zero init, adapters, Jacobians, Lipschitz audits."""
import hashlib

import numpy as np
import pytest

from noisetilt.generators import make_generator
from noisetilt.hypernet import init_hypernet, modulate
from noisetilt.linalg import jacobian_fd

MLP_SPEC = {"variant": "mlp", "latent_dim": 4, "output_dim": 4, "hidden": [10]}


def fresh(rank=2, alpha=2.0, seed=0, gseed=0):
    g = make_generator(MLP_SPEC, seed=gseed)
    return g, init_hypernet(g, rank=rank, alpha=alpha, seed=seed)


def test_zero_init_identity():
    g, hn = fresh()
    x = np.random.default_rng(0).standard_normal((50, 4))
    delta, xhat = modulate(hn, x)
    assert np.max(np.abs(delta)) == 0.0
    np.testing.assert_array_equal(xhat, x)


def test_parameter_count_arithmetic():
    g, hn = fresh(rank=3)
    # trunk layer 10x4 plus head 4x10, each r(m+n), plus the head bias
    assert hn.parameter_count() == 3 * (10 + 4) + 3 * (4 + 10) + 4


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
    jac = hn.jacobian_batch(x)
    for i in range(4):
        ref = jacobian_fd(lambda v: hn.perturb(v), x[i])
        np.testing.assert_allclose(jac[i], ref, rtol=1e-5, atol=1e-7)


def test_lipschitz_bounds_bracket():
    g, hn = fresh()
    hn.randomize_adapters(6)
    upper = hn.lipschitz_upper_bound()
    lower = hn.lipschitz_lower_bound(500, seed=0)
    assert 0.0 < lower <= upper


def test_lipschitz_budget_exact():
    g, hn = fresh()
    with pytest.raises(ValueError):
        hn.set_lipschitz_budget(0.3)   # zero head cannot be rescaled
    hn.randomize_adapters(7)
    achieved = hn.set_lipschitz_budget(0.3)
    assert achieved == pytest.approx(0.3, rel=1e-9)
    assert hn.lipschitz_lower_bound(500, seed=1) <= achieved + 1e-9


def test_set_constant():
    g, hn = fresh()
    hn.randomize_adapters(8)
    c = np.array([0.1, -0.2, 0.3, 0.4])
    hn.set_constant(c)
    x = np.random.default_rng(4).standard_normal((10, 4))
    np.testing.assert_array_equal(hn.perturb(x), np.broadcast_to(c, (10, 4)))


def test_set_params_validation():
    g, hn = fresh()
    with pytest.raises(KeyError):
        hn.set_params({"nope": np.zeros(2)})
    with pytest.raises(ValueError):
        hn.set_params({"head.bias": np.zeros(7)})


def test_modulate_nonfinite_error():
    g, hn = fresh()
    hn.head_bias[...] = np.inf
    with pytest.raises(FloatingPointError):
        modulate(hn, np.zeros(4))


def test_conditional_pathway():
    g = make_generator({"variant": "mlp", "latent_dim": 3, "output_dim": 3,
                        "hidden": [6], "condition_dim": 2}, seed=0)
    hn = init_hypernet(g, rank=2, alpha=1.0, seed=0)
    hn.randomize_adapters(1)
    c = np.array([0.5, -0.5])
    out = hn.perturb(np.zeros((4, 3)), condition=c)
    assert out.shape == (4, 3)
    with pytest.raises(ValueError):
        hn.perturb(np.zeros(3))

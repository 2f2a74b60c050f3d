"""Loss decomposition, exact noise-space KL, and the log-det error bound."""
import math
import tracemalloc

import numpy as np
import pytest

from noisetilt.generators import make_generator
from noisetilt.hypernet import init_hypernet
from noisetilt.objectives import (MAX_EXACT_KL_DIM, error_term, exact_noise_kl,
                                  hypernoise_loss, theorem_bound)
from noisetilt.rewards import LinearReward, RednessReward

MLP_SPEC = {"variant": "mlp", "latent_dim": 3, "output_dim": 3, "hidden": [8]}


def setup(seed=0):
    g = make_generator(MLP_SPEC, seed=seed)
    hn = init_hypernet(g, rank=2, alpha=2.0, seed=seed)
    return g, hn


def test_loss_decomposition_identity():
    g, hn = setup()
    hn.randomize_adapters(1)
    r = LinearReward([1.0, -0.5, 0.2])
    x = np.random.default_rng(2).standard_normal((16, 3))
    breakdown, _ = hypernoise_loss(hn, g, r, x, alpha=2.0)
    assert breakdown.total == pytest.approx(breakdown.l2_term - breakdown.reward_term)
    assert breakdown.batch_size == 16
    delta = hn.perturb(x)
    assert breakdown.l2_term == pytest.approx(
        0.5 * np.mean(np.sum(delta * delta, axis=1)))
    assert breakdown.reward_term == pytest.approx(
        np.mean(r.evaluate_batch(g.generate(x + delta))) / 2.0)


def check_loss_gradients(g, hn, r, x, **kw):
    _, grads = hypernoise_loss(hn, g, r, x, alpha=1.5, **kw)
    for name, arr in hn.params().items():
        for flat in (0, arr.size - 1):
            orig = arr.flat[flat]
            arr.flat[flat] = orig + 1e-6
            hi, _ = hypernoise_loss(hn, g, r, x, alpha=1.5, **kw)
            arr.flat[flat] = orig - 1e-6
            lo, _ = hypernoise_loss(hn, g, r, x, alpha=1.5, **kw)
            arr.flat[flat] = orig
            fd = (hi.total - lo.total) / 2e-6
            assert grads[name].flat[flat] == pytest.approx(fd, rel=1e-5, abs=1e-8), name


def test_loss_gradients_match_fd():
    g, hn = setup()
    hn.randomize_adapters(2)
    x = np.random.default_rng(3).standard_normal((4, 3))
    check_loss_gradients(g, hn, LinearReward([1.0, -0.5, 0.2]), x)


def test_loss_gradients_match_fd_two_generation_steps():
    g = make_generator({"variant": "decoder", "latent_dim": 4, "height": 2,
                        "width": 3, "hidden": [6]}, seed=1)
    hn = init_hypernet(g, rank=2, alpha=2.0, seed=1)
    hn.randomize_adapters(4)
    r = RednessReward(scale=1.0)
    x = np.random.default_rng(5).standard_normal((5, 4))
    one, _ = hypernoise_loss(hn, g, r, x, generation_steps=1)
    two, _ = hypernoise_loss(hn, g, r, x, generation_steps=2)
    assert one.reward_term != two.reward_term
    check_loss_gradients(g, hn, r, x, generation_steps=2)


def test_loss_step_allocation_peak():
    """One loss-and-gradient step at latent 64, hidden 256, 32x32x3 outputs
    and batch 128 holds at most six output-sized arrays at a time."""
    g = make_generator({"variant": "decoder", "latent_dim": 64, "height": 32,
                        "width": 32, "hidden": [256]}, seed=0)
    hn = init_hypernet(g, rank=2, alpha=2.0, seed=0)
    hn.randomize_adapters(1)
    r = RednessReward()
    x = np.random.default_rng(0).standard_normal((128, 64))
    hypernoise_loss(hn, g, r, x)   # first call pays any lazy set-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        hypernoise_loss(hn, g, r, x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 128 * g.output_dim * 8


def test_loss_validation():
    g, hn = setup()
    r = LinearReward([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        hypernoise_loss(hn, g, r, np.zeros((0, 3)))
    with pytest.raises(ValueError):
        hypernoise_loss(hn, g, r, np.zeros((2, 3)), alpha=0.0)


def test_nonfinite_reward_names_sample():
    g, hn = setup()

    class BadReward(LinearReward):
        def _node_rows(self, x):
            node = super()._node_rows(x)
            node.value[1] = np.nan
            return node

    with pytest.raises(FloatingPointError, match="sample index 1"):
        hypernoise_loss(hn, g, BadReward([1.0, 0.0, 0.0]),
                        np.zeros((3, 3)))


def test_exact_kl_constant_shift_closed_form():
    g, hn = setup()
    c = np.array([0.6, -0.3, 0.2])
    hn.set_constant(c)
    x = np.random.default_rng(4).standard_normal((10, 3))
    kb = exact_noise_kl(hn, x)
    closed = 0.5 * float(c @ c)
    assert abs(kb.exact_kl - kb.l2_term) <= 1e-10
    assert kb.exact_kl == pytest.approx(closed, abs=1e-10)
    assert kb.approx_error == pytest.approx(0.0, abs=1e-10)


def test_exact_kl_bound_respected():
    g, hn = setup()
    hn.randomize_adapters(5)
    hn.set_lipschitz_budget(0.4)
    x = np.random.default_rng(5).standard_normal((20, 3))
    kb = exact_noise_kl(hn, x)
    assert kb.bound is not None
    assert abs(kb.approx_error) <= kb.bound
    assert kb.lipschitz_used == pytest.approx(0.4, rel=1e-9)


def test_exact_kl_dimension_cap():
    spec = {"variant": "mlp", "latent_dim": MAX_EXACT_KL_DIM + 1,
            "output_dim": MAX_EXACT_KL_DIM + 1, "hidden": [4]}
    g = make_generator(spec, seed=0)
    hn = init_hypernet(g, rank=1, alpha=1.0, seed=0)
    with pytest.raises(ValueError):
        exact_noise_kl(hn, np.zeros((1, MAX_EXACT_KL_DIM + 1)))


def test_error_term_value():
    # scalar case: tr - log(1 + a) at a = 0.5
    assert error_term(np.array([[0.5]])) == pytest.approx(0.5 - math.log(1.5))


def test_theorem_bound_values_and_domain():
    assert theorem_bound(16, 0.1) == pytest.approx(16 * (-math.log(0.9) - 0.1))
    assert theorem_bound(4, 0.0) == 0.0
    with pytest.raises(ValueError):
        theorem_bound(4, 1.0)
    with pytest.raises(ValueError):
        theorem_bound(4, -0.1)


def test_theorem_bound_small_l_quadratic():
    for d, lip in [(4, 0.05), (16, 0.1), (8, 0.01)]:
        bound = theorem_bound(d, lip)
        assert 0.0 < bound <= 1.1 * d * lip ** 2 / 2

"""Noise optimization, best-of-N, and direct fine-tuning baselines."""
import numpy as np
import pytest

from noisetilt import autodiff as ad
from noisetilt.baselines import (AdaptedGenerator, DirectFinetuneConfig,
                                 NoiseOptConfig, best_of_n, noise_opt,
                                 train_direct_finetune)
from noisetilt.generators import make_generator
from noisetilt.rewards import LinearReward, RednessReward

A = np.array([[1.0, 0.3], [0.0, 0.9]])
C = np.array([0.6, -0.5])


def affine_gen():
    return make_generator({"variant": "affine", "latent_dim": 2,
                           "matrix": A.tolist(), "bias": [0.2, -0.1]}, seed=0)


def test_noise_opt_closed_form():
    # argmax of c^T(Ax+b) - 1/2 ||x||^2 is A^T c
    g = affine_gen()
    res = noise_opt(g, LinearReward(C), NoiseOptConfig(steps=400, learning_rate=0.1,
                                                       seed=1))
    np.testing.assert_allclose(res.noise, A.T @ C, rtol=1e-6, atol=1e-8)
    assert res.trajectory[-1] >= res.trajectory[0]


def test_noise_opt_prior_weight_scales_solution():
    g = affine_gen()
    res = noise_opt(g, LinearReward(C),
                    NoiseOptConfig(steps=400, learning_rate=0.1,
                                   prior_weight=2.0, seed=1))
    np.testing.assert_allclose(res.noise, A.T @ C / 2.0, rtol=1e-6, atol=1e-8)


def test_noise_opt_explicit_init_deterministic():
    g = affine_gen()
    cfg = NoiseOptConfig(steps=50, learning_rate=0.05, seed=3)
    a = noise_opt(g, LinearReward(C), cfg, init=np.zeros(2))
    b = noise_opt(g, LinearReward(C), cfg, init=np.zeros(2))
    np.testing.assert_array_equal(a.noise, b.noise)


def test_best_of_n_monotone_and_prefix_consistent():
    g = affine_gen()
    r = LinearReward(C)
    full = best_of_n(g, r, [1, 4, 16, 64], seed=2)
    assert full.best_rewards == sorted(full.best_rewards)
    partial = best_of_n(g, r, [1, 4], seed=2)
    assert partial.best_rewards == full.best_rewards[:2]
    assert r.evaluate(full.best_output) == pytest.approx(full.best_rewards[-1])
    with pytest.raises(ValueError):
        best_of_n(g, r, [], seed=0)
    with pytest.raises(ValueError):
        best_of_n(g, r, [0], seed=0)


def test_direct_ft_affine_drift_linear_in_steps():
    # with a linear reward and SGD the bias gradient is constant, so the
    # parameter drift is exactly proportional to the step count
    g = affine_gen()
    r = LinearReward(C)
    drifts = []
    for steps in (50, 100):
        cfg = DirectFinetuneConfig(steps=steps, batch_size=32, learning_rate=0.01,
                                   optimizer="sgd", clip_norm=1.0, seed=4,
                                   eval_every=steps)
        adapted, hist = train_direct_finetune(g, r, cfg)
        assert hist.drift_estimator == "closed_form"
        drifts.append(np.linalg.norm(adapted.bias_delta))
    assert drifts[1] == pytest.approx(2.0 * drifts[0], rel=1e-9)


def test_direct_ft_reward_increases_and_drift_grows():
    g = make_generator({"variant": "decoder", "latent_dim": 4, "height": 3,
                        "width": 3, "hidden": [8]}, seed=1)
    cfg = DirectFinetuneConfig(steps=80, batch_size=32, learning_rate=0.05,
                               seed=5, eval_every=20, eval_samples=800)
    adapted, hist = train_direct_finetune(g, RednessReward(0.01), cfg)
    assert hist.drift_estimator == "knn"
    assert hist.mean_reward[-1] > hist.mean_reward[0]
    assert hist.output_drift[-1] > hist.output_drift[0]


def test_adapted_generator_zero_init_identity():
    g = make_generator({"variant": "mlp", "latent_dim": 3, "output_dim": 3,
                        "hidden": [6]}, seed=2)
    adapted = AdaptedGenerator(g, rank=2, seed=0)
    x = np.random.default_rng(6).standard_normal((5, 3))
    np.testing.assert_array_equal(adapted.generate(x), g.generate(x))


def test_adapted_generator_rank_check():
    g = make_generator({"variant": "mlp", "latent_dim": 2, "output_dim": 2,
                        "hidden": [4]}, seed=0)
    with pytest.raises(ValueError):
        AdaptedGenerator(g, rank=3)


def test_adapted_generator_node_matches_generate():
    # the shift of an affine backbone, and adapters on a decoder
    decoder = make_generator({"variant": "decoder", "latent_dim": 4, "height": 2,
                              "width": 2, "hidden": [8]}, seed=1)
    x = np.random.default_rng(7).standard_normal((6, 4))
    for g, seed in ((affine_gen(), 0), (decoder, 1)):
        adapted = AdaptedGenerator(g, rank=3, seed=seed)
        rng = np.random.default_rng(8)
        for name, arr in adapted.params().items():
            if name.endswith(".up") or name == "bias_delta":
                arr[...] = 0.3 * rng.standard_normal(arr.shape)
        nodes = {k: ad.param(v) for k, v in adapted.params().items()}
        xs = x[:, :g.latent_dim]
        value = adapted.generate(xs)
        assert not np.array_equal(value, g.generate(xs))
        assert np.array_equal(adapted.node(ad.constant(xs), nodes).value, value)

"""Noise optimization, best-of-N, and direct fine-tuning baselines."""
import numpy as np
import pytest

from noisetilt import autodiff as ad
from noisetilt import cli
from noisetilt.baselines import (AdaptedGenerator, DirectFinetuneConfig,
                                 NoiseOptConfig, best_of_n, measure_drift,
                                 noise_opt, train_direct_finetune)
from noisetilt.generators import make_generator
from noisetilt.hypernet import init_hypernet
from noisetilt.rewards import LinearReward, RednessReward
from noisetilt.training import TrainConfig, train_hypernoise

A = np.array([[1.0, 0.3], [0.0, 0.9]])
C = np.array([0.6, -0.5])


def affine_gen():
    return make_generator({"variant": "affine", "latent_dim": 2,
                           "matrix": A.tolist(), "bias": [0.2, -0.1]}, seed=0)


def small_decoder():
    return make_generator({"variant": "decoder", "latent_dim": 4, "height": 3,
                           "width": 3, "hidden": [8]}, seed=1)


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
    assert r.evaluate_batch(full.best_output[None]) == pytest.approx([full.best_rewards[-1]])
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
        adapted, _ = train_direct_finetune(g, r, cfg)
        assert adapted.bias_delta is not None     # measure_drift's closed form
        drifts.append(np.linalg.norm(adapted.bias_delta))
    assert drifts[1] == pytest.approx(2.0 * drifts[0], rel=1e-9)


def test_direct_ft_reward_increases_and_drift_grows():
    g = make_generator({"variant": "decoder", "latent_dim": 4, "height": 3,
                        "width": 3, "hidden": [8]}, seed=1)
    cfg = DirectFinetuneConfig(steps=80, batch_size=32, learning_rate=0.05,
                               seed=5, eval_every=20, eval_samples=800)
    drifts = []
    adapted, rows = train_direct_finetune(
        g, RednessReward(0.01), cfg,
        eval_hook=lambda step, net: drifts.append(measure_drift(net, cfg, step)))
    assert adapted.bias_delta is None     # measure_drift's kNN estimate
    assert rows[-1][1] > rows[0][1]
    assert drifts[-1] > drifts[0]


@pytest.mark.parametrize("field,value,message", [
    ("optimizer", "adamw", "unknown optimizer"),   # silently ran SGD
    ("eval_every", 0, "eval_every"),               # modulo by zero
    ("steps", 0, "steps"),
    ("batch_size", 0, "batch_size"),
    ("rank", 0, "rank"),                           # ignored on an affine map
])
def test_direct_ft_validates_its_config(field, value, message):
    cfg = DirectFinetuneConfig(**{"steps": 5, "batch_size": 8, field: value})
    with pytest.raises(ValueError, match=message):
        train_direct_finetune(affine_gen(), LinearReward(C), cfg)


def test_noise_opt_validates_its_config():
    with pytest.raises(ValueError, match="^steps: must be >= 1"):
        noise_opt(affine_gen(), LinearReward(C), NoiseOptConfig(steps=0))


class NanFromCall(LinearReward):
    """A linear reward whose trace multiplies by NaN from call `bad` on, so
    the gradients it yields turn NaN."""

    def __init__(self, c, bad):
        super().__init__(c)
        self.bad, self.calls = bad, 0

    def _node_rows(self, x):
        self.calls += 1
        c = self.c if self.calls < self.bad else np.full_like(self.c, np.nan)
        return ad.dot_rows(x, ad.constant(np.broadcast_to(c, x.value.shape)))


def test_direct_ft_raises_on_a_non_finite_gradient():
    # it used to stop at step 29 and return the steps [0, 25] as a full run
    cfg = DirectFinetuneConfig(steps=100, batch_size=8, eval_every=25)
    steps = []
    with pytest.raises(FloatingPointError, match="step 29: non-finite gradient"):
        train_direct_finetune(affine_gen(), NanFromCall(C, 30), cfg,
                              eval_hook=lambda step, net: steps.append(step) or 0.0)
    assert steps == [0, 25]


def test_both_trainers_call_their_hooks_alike():
    # equal steps and logging period: the same logged steps, what a hook
    # returns kept by neither, and the network at the last call is the one
    # each trainer returns
    g, r = small_decoder(), RednessReward(0.01)
    returned = object()
    calls = {"hypernoise": [], "direct_ft": []}

    def recorder(name):
        def hook(step, net):
            calls[name].append((step, {k: v.copy() for k, v in net.params().items()}))
            return returned
        return hook

    hn = init_hypernet(g, rank=2, alpha=2.0, seed=4)
    history = train_hypernoise(hn, g, r, TrainConfig(steps=12, batch_size=8, seed=1,
                                                     log_every=5),
                               eval_hook=recorder("hypernoise"))
    adapted, rows = train_direct_finetune(
        g, r, DirectFinetuneConfig(steps=12, batch_size=8, seed=1, eval_every=5),
        eval_hook=recorder("direct_ft"))
    for name, logged, params in (("hypernoise", history, hn.params()),
                                 ("direct_ft", rows, adapted.params())):
        assert [step for step, _ in calls[name]] == [row[0] for row in logged] == [0, 5, 10, 11]
        assert not any(returned in row for row in logged)
        last = calls[name][-1][1]
        assert last.keys() == params.keys()
        assert all(np.array_equal(last[k], params[k]) for k in params)


def test_direct_curve_resolves_the_inline_drifts(tmp_path):
    # the CLI's drifts, left running on the run's evaluator, come back as
    # the floats measure_drift returns inline
    g, r = small_decoder(), RednessReward(0.01)
    cfg = DirectFinetuneConfig(steps=12, batch_size=8, seed=1, eval_every=5,
                               eval_samples=60)
    ctx = cli.RunContext(str(tmp_path), quiet=True)
    try:
        curve = cli._direct_curve(ctx, g, r, cfg)
    finally:
        ctx.evaluator.close()
    inline = []
    _, rows = train_direct_finetune(
        g, r, cfg, eval_hook=lambda step, net: inline.append(measure_drift(net, cfg, step)))
    assert ctx.evaluator.estimates == 4
    assert curve == [(step, reward, drift) for (step, reward), drift in zip(rows, inline)]
    assert [step for step, _, _ in curve] == [0, 5, 10, 11]
    assert all(type(drift) is float for _, _, drift in curve)


def test_drift_is_estimated_at_the_latent_dimension():
    # a decoder's 27 outputs are a pushforward of its 4-d latent
    g = small_decoder()
    cfg = DirectFinetuneConfig(eval_samples=60, seed=1)
    assert measure_drift(AdaptedGenerator(g), cfg, 0, lambda p, q, d: (p.shape[1], d)) == (27, 4)


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

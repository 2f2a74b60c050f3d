"""Loss decomposition, exact noise-space KL, and the log-det error bound."""
import contextlib
import math
import tracemalloc

import numpy as np
import pytest

from noisetilt import autodiff as ad
from noisetilt.baselines import (DirectFinetuneConfig, NoiseOptConfig, measure_drift,
                                 noise_opt, train_direct_finetune)
from noisetilt.generators import make_generator
from noisetilt.hypernet import init_hypernet
from noisetilt.objectives import (MAX_EXACT_KL_DIM, error_term, exact_noise_kl,
                                  hypernoise_loss, theorem_bound)
from noisetilt.rewards import LinearReward, RednessReward
from noisetilt.training import TrainConfig, train_hypernoise

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


def train_wide_step_peak(arena):
    """`tracemalloc` peak of one loss-and-gradient step at latent 64, hidden
    256, 32x32x3 outputs and batch 128, in output-sized arrays, after one
    warm-up step that pays any lazy set-up (and fills the arena)."""
    g = make_generator({"variant": "decoder", "latent_dim": 64, "height": 32,
                        "width": 32, "hidden": [256]}, seed=0)
    hn = init_hypernet(g, rank=2, alpha=2.0, seed=0)
    hn.randomize_adapters(1)
    r = RednessReward()
    x = np.random.default_rng(0).standard_normal((128, 64))
    with arena:
        hypernoise_loss(hn, g, r, x)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with arena:
            hypernoise_loss(hn, g, r, x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (128 * g.output_dim * 8)


def test_loss_step_allocation_peak():
    """A plain step holds at most six output-sized arrays at a time."""
    assert train_wide_step_peak(contextlib.nullcontext()) <= 6


def test_loss_step_allocation_peak_in_arena():
    """Under a warm arena a step allocates less than one output-sized array
    of its own."""
    assert train_wide_step_peak(ad.Arena()) <= 1


ARENA_CASES = {
    "decoder-sigmoid": ({"variant": "decoder", "activation": "sigmoid"}, 1),
    "decoder-tanh": ({"variant": "decoder", "activation": "tanh"}, 1),
    "decoder-silu": ({"variant": "decoder", "activation": "silu"}, 1),
    # the refiner is traced twice in one tape and takes separate buffers
    "decoder-two-steps": ({"variant": "decoder", "activation": "tanh"}, 2),
    "mlp": ({"variant": "mlp", "output_dim": 3}, 1),
}


@pytest.mark.parametrize("case", sorted(ARENA_CASES))
def test_arena_steps_equal_plain_steps(case):
    extra, gen_steps = ARENA_CASES[case]
    g = make_generator({"latent_dim": 3, "height": 2, "width": 3, "hidden": [6],
                        **extra}, seed=1)
    hn = init_hypernet(g, rank=2, alpha=2.0, seed=1)
    hn.randomize_adapters(2)
    r = RednessReward(scale=1.0) if extra["variant"] == "decoder" else \
        LinearReward([1.0, -0.5, 0.2])
    xs = np.random.default_rng(3).standard_normal((3, 5, 3))

    def step(x):
        b, grads = hypernoise_loss(hn, g, r, x, generation_steps=gen_steps)
        return [b.total, b.l2_term, b.reward_term, *grads.values()]

    plain = [step(x) for x in xs]
    arena, held = ad.Arena(), []
    for x in xs:
        with arena:
            held.append(step(x))
    # every step's results are compared after the later steps reused the arena
    for p, a in zip(plain, held):
        assert all(np.array_equal(u, v) for u, v in zip(p, a))


def run_loop(name):
    g = make_generator({"variant": "decoder", "latent_dim": 3, "height": 2,
                        "width": 3, "hidden": [6]}, seed=2)
    r = RednessReward(scale=1.0)
    if name == "noise_opt":
        res = noise_opt(g, r, NoiseOptConfig(steps=3, learning_rate=0.5, seed=4))
        return [res.noise, res.objective, res.reward, res.trajectory]
    if name == "direct_ft":
        cfg = DirectFinetuneConfig(steps=3, batch_size=8, eval_every=2, eval_samples=40,
                                   seed=4)
        drifts = []
        adapted, rows = train_direct_finetune(
            g, r, cfg, eval_hook=lambda step, net: drifts.append(measure_drift(net, cfg, step)))
        return [*adapted.params().values(), rows, drifts]
    hn = init_hypernet(g, rank=2, alpha=2.0, seed=4)
    hist = train_hypernoise(hn, g, r, TrainConfig(steps=3, batch_size=8,
                                                  optimizer="adam", seed=4,
                                                  log_every=1))
    return [*hn.params().values(), hist]


@pytest.mark.parametrize("name", ["noise_opt", "direct_ft", "hypernoise"])
def test_training_loops_equal_without_arena(name, monkeypatch):
    with_arena = run_loop(name)
    monkeypatch.setattr(ad, "Arena", contextlib.nullcontext)
    without = run_loop(name)
    assert all(np.array_equal(u, v) for u, v in zip(with_arena, without))


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

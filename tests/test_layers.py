"""The layer stack shared by the generator, the noise hypernetwork and the
directly fine-tuned generator: forward, tape trace and Jacobian agree."""
import numpy as np
import pytest

from noisetilt import autodiff as ad
from noisetilt.baselines import AdaptedGenerator
from noisetilt.generators import make_generator
from noisetilt.hypernet import init_hypernet
from noisetilt.layers import with_condition
from noisetilt.linalg import jacobian_fd

LATENT, COND = 3, 2


def configuration(kind, activation):
    """(stack, numpy map, tape map) of one configuration; adapters are
    random and scaled by 0.75, so no scale is a power of two."""
    g = make_generator({"variant": "mlp", "latent_dim": LATENT, "output_dim": 4,
                        "hidden": [6, 5], "activation": activation,
                        "condition_dim": COND}, seed=1)
    if kind == "generator":
        return g.stack, g.generate, lambda x, c: g.node(x, c)
    if kind == "hypernet":
        hn = init_hypernet(g, rank=2, alpha=1.5, seed=2)
        hn.randomize_adapters(3, spread=0.5)
        hn.head_bias[...] = [0.1, -0.2, 0.3]
        nodes = {k: ad.param(v, name=k) for k, v in hn.params().items()}
        return hn.stack, hn.perturb, lambda x, c: hn.delta_node(x, c, nodes)
    adapted = AdaptedGenerator(g, rank=2, adapter_scale=1.5, seed=2)
    rng = np.random.default_rng(3)
    for name, arr in adapted.params().items():
        if name.endswith(".up"):
            arr[...] = 0.5 * rng.standard_normal(arr.shape)
    nodes = {k: ad.param(v, name=k) for k, v in adapted.params().items()}
    return adapted.stack, adapted.generate, lambda x, c: adapted.node(x, nodes, c)


@pytest.mark.parametrize("activation", sorted(ad.ACTIVATIONS))
@pytest.mark.parametrize("kind", ["generator", "hypernet", "adapted"])
def test_stack_invariants(kind, activation):
    stack, forward, trace = configuration(kind, activation)
    rng = np.random.default_rng(4)
    c = rng.standard_normal(COND)
    for x in (rng.standard_normal(LATENT), rng.standard_normal((5, LATENT))):
        value = forward(x, c)
        assert np.array_equal(trace(ad.param(x), ad.constant(c)).value, value)
        assert np.array_equal(stack.forward(with_condition(x, c, COND)), value)
    jac = stack.jacobian(with_condition(x, c, COND), LATENT)
    assert jac.shape == (5, value.shape[1], LATENT)
    for i in range(x.shape[0]):
        ref = jacobian_fd(lambda v: forward(v, c), x[i])
        np.testing.assert_allclose(jac[i], ref, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(
            stack.jacobian(with_condition(x[i], c, COND), LATENT), jac[i], rtol=1e-13)

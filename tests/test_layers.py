"""The layer stack shared by the generator, the noise hypernetwork and the
directly fine-tuned generator: forward, tape trace and Jacobian agree."""
import numpy as np
import pytest

from noisetilt import autodiff as ad
from noisetilt.baselines import AdaptedGenerator
from noisetilt.generators import make_generator
from noisetilt.hypernet import init_hypernet
from noisetilt.layers import LayerStack
from noisetilt.linalg import jacobian_fd

LATENT = 3


def configuration(kind, activation):
    """(stack, numpy map, tape map) of one configuration; adapters are
    random and scaled by 0.75, so no scale is a power of two."""
    g = make_generator({"variant": "mlp", "latent_dim": LATENT, "output_dim": 4,
                        "hidden": [6, 5], "activation": activation}, seed=1)
    if kind == "generator":
        return g.stack, g.generate, g.node
    if kind == "hypernet":
        hn = init_hypernet(g, rank=2, alpha=1.5, seed=2)
        hn.randomize_adapters(3, spread=0.5)
        hn.head_bias[...] = [0.1, -0.2, 0.3]
        nodes = {k: ad.param(v, name=k) for k, v in hn.params().items()}
        return hn.stack, hn.perturb, lambda x: hn.delta_node(x, nodes)
    adapted = AdaptedGenerator(g, rank=2, adapter_scale=1.5, seed=2)
    rng = np.random.default_rng(3)
    for name, arr in adapted.params().items():
        if name.endswith(".up"):
            arr[...] = 0.5 * rng.standard_normal(arr.shape)
    nodes = {k: ad.param(v, name=k) for k, v in adapted.params().items()}
    return adapted.stack, adapted.generate, lambda x: adapted.node(x, nodes)


@pytest.mark.parametrize("activation", sorted(ad.ACTIVATIONS))
@pytest.mark.parametrize("kind", ["generator", "hypernet", "adapted"])
def test_stack_invariants(kind, activation):
    stack, forward, trace = configuration(kind, activation)
    rng = np.random.default_rng(4)
    for x in (rng.standard_normal(LATENT), rng.standard_normal((5, LATENT))):
        value = forward(x)
        assert np.array_equal(trace(ad.param(x)).value, value)
        assert np.array_equal(stack.forward(x), value)
    xb = ad.param(x)
    jac = ad.jacobian(stack.trace(xb), xb)
    assert jac.shape == (5, value.shape[1], LATENT)
    for i in range(x.shape[0]):
        ref = jacobian_fd(forward, x[i])
        np.testing.assert_allclose(jac[i], ref, rtol=1e-5, atol=1e-7)
        xi = ad.param(x[i])
        np.testing.assert_allclose(ad.jacobian(stack.trace(xi), xi), jac[i], rtol=1e-13)


@pytest.mark.parametrize("activation", sorted(ad.ACTIVATIONS))
@pytest.mark.parametrize("kind", ["generator", "hypernet", "adapted", "shift"])
def test_merged_stack_matches_forward(kind, activation):
    # with and without adapters and a shift: the folded stack has no
    # adapters, keeps the shift, and gives forward's values to rounding
    if kind == "shift":
        stack = LayerStack(configuration("generator", activation)[0].layers,
                           shift=np.array([0.1, -0.2, 0.3, 0.4]))
    else:
        stack = configuration(kind, activation)[0]
    merged = stack.merged()
    assert merged.adapters == [None] * len(stack.layers)
    assert set(merged.params()) == (set() if stack.shift is None else {stack.shift_name})
    rng = np.random.default_rng(5)
    for x in (rng.standard_normal(LATENT), rng.standard_normal((64, LATENT))):
        want = stack.forward(x)
        assert np.max(np.abs(merged.forward(x) - want)) <= 1e-12 * np.max(np.abs(want))

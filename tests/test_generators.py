"""Frozen generator construction, evaluation, and identity hashing."""
import hashlib

import numpy as np
import pytest

from noisetilt import autodiff as ad
from noisetilt.generators import make_generator
from noisetilt.linalg import jacobian_fd

MLP_SPEC = {"variant": "mlp", "latent_dim": 3, "output_dim": 4, "hidden": [8]}


def test_same_seed_identical_weights():
    g1 = make_generator(MLP_SPEC, seed=5)
    g2 = make_generator(MLP_SPEC, seed=5)
    assert g1.weight_checksum() == g2.weight_checksum()
    assert g1.spec_hash() == g2.spec_hash()
    assert make_generator(MLP_SPEC, seed=6).weight_checksum() != g1.weight_checksum()


@pytest.mark.parametrize("spec", [
    MLP_SPEC,
    {"variant": "decoder", "latent_dim": 4, "height": 2, "width": 3, "hidden": [5]},
    {"variant": "affine", "latent_dim": 2, "output_dim": 3,
     "matrix": [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
     "bias": [0.5, -0.5, 0.25]}], ids=["mlp", "decoder", "affine"])
def test_weight_checksum_hashes_each_weights_bytes(spec):
    # each weight's buffer is hashed in place: the digest of their copies
    g = make_generator(spec, seed=5)
    want = hashlib.sha256()
    for arr in g.all_weights():
        want.update(arr.tobytes())
    assert g.weight_checksum() == want.hexdigest()


def test_weights_are_frozen():
    g = make_generator(MLP_SPEC, seed=0)
    with pytest.raises(ValueError):
        g.layers[0].weight[0, 0] = 1.0


def test_affine_explicit_matrix():
    a = [[1.0, 2.0], [0.0, 1.0]]
    g = make_generator({"variant": "affine", "latent_dim": 2, "matrix": a,
                        "bias": [0.5, -0.5]}, seed=0)
    np.testing.assert_allclose(g.generate(np.array([1.0, 1.0])), [3.5, 0.5])


def test_batch_matches_single():
    g = make_generator(MLP_SPEC, seed=1)
    x = np.random.default_rng(2).standard_normal((5, 3))
    batch = g.generate(x)
    for i in range(5):
        np.testing.assert_allclose(batch[i], g.generate(x[i]), rtol=1e-14)


def test_decoder_output_range():
    g = make_generator({"variant": "decoder", "latent_dim": 4, "height": 3,
                        "width": 3}, seed=0)
    y = g.generate(np.random.default_rng(0).standard_normal((10, 4)))
    assert y.shape == (10, 27)
    assert np.all(y > 0.0) and np.all(y < 1.0)
    assert g.output_range == (0.0, 1.0)


def test_multi_step_square_and_decoder():
    g = make_generator({"variant": "mlp", "latent_dim": 3, "output_dim": 3,
                        "hidden": [6]}, seed=0)
    x = np.random.default_rng(1).standard_normal(3)
    assert not np.allclose(g.generate(x, steps=2), g.generate(x, steps=1))
    gd = make_generator({"variant": "decoder", "latent_dim": 4}, seed=0)
    assert gd.generate(np.zeros(4), steps=3).shape == (192,)


def test_multi_step_nonsquare_errors():
    g = make_generator(MLP_SPEC, seed=0)
    with pytest.raises(ValueError, match="square"):
        g.generate(np.zeros(3), steps=2)


def test_input_validation():
    g = make_generator(MLP_SPEC, seed=0)
    with pytest.raises(ValueError):
        g.generate(np.zeros(5))
    with pytest.raises(ValueError):
        g.generate(np.zeros(3), steps=0)
    with pytest.raises(ValueError):
        make_generator({"variant": "mlp", "latent_dim": 0, "output_dim": 2}, seed=0)
    with pytest.raises(ValueError):
        make_generator({"variant": "nope", "latent_dim": 2}, seed=0)


@pytest.mark.parametrize("spec,key", [
    ({"variant": "mlp", "output_dim": 2, "hidden": [3, 0]}, "hidden"),
    ({"variant": "mlp", "output_dim": 2, "activation": "relu"}, "activation"),
    ({"variant": "mlp", "output_dim": -2}, "output_dim"),
    ({"variant": "decoder", "height": 0}, "height"),
    ({"variant": "decoder", "width": 0}, "width"),
    ({"variant": "affine", "output_dim": -2}, "output_dim"),
    ({"variant": "affine", "matrix": [[1.0, 0.0], [0.0, 1.0]]}, "matrix"),
    ({"variant": "affine", "matrix": [[1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0]]},
     "matrix"),
    ({"variant": "affine", "bias": [1.0, 2.0]}, "bias"),
    # an unset output_dim is derived, a 0 is not
    ({"variant": "mlp", "output_dim": 0}, "output_dim"),
    ({"variant": "mlp", "latent_dim": "x"}, "latent_dim"),
    # a bare int() error; a width-1 layer; a bare float() error; a
    # "convex combination" that ran at 7.5
    ({"variant": "mlp", "output_dim": 2, "hidden": ["x"]}, "hidden"),
    ({"variant": "mlp", "output_dim": 2, "hidden": [1.5]}, "hidden"),
    ({"variant": "affine", "step_mix": "a"}, "step_mix"),
    ({"variant": "affine", "step_mix": 7.5}, "step_mix"),
])
def test_unbuildable_spec_names_its_key(spec, key):
    # hidden or height 0 failed later as an adapter rank, a wrong-size
    # matrix or bias with numpy's reshape message
    with pytest.raises(ValueError, match=rf"^{key}: "):
        make_generator({"latent_dim": 3, **spec}, seed=0)


def test_node_matches_generate_and_fd():
    g = make_generator(MLP_SPEC, seed=3)
    x = np.random.default_rng(4).standard_normal(3)
    node = ad.param(x)
    out = g.node(node)
    np.testing.assert_allclose(out.value, g.generate(x), rtol=1e-14)
    rows = []
    for i in range(g.output_dim):
        seed = np.zeros(g.output_dim)
        seed[i] = 1.0
        leaf = ad.param(x)
        rows.append(ad.backprop(g.node(leaf), seed)[id(leaf)])
    jac = np.stack(rows)
    ref = jacobian_fd(lambda v: g.generate(v), x)
    np.testing.assert_allclose(jac, ref, rtol=1e-5, atol=1e-7)


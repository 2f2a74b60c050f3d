"""Gradient checks for every primitive, the fused frozen layer, and the
reverse sweep's bookkeeping."""
import numpy as np
import pytest

from noisetilt import autodiff as ad
from noisetilt.training import clip_global_norm


def num_grad(f, x, eps=1e-6):
    g = np.zeros_like(x, dtype=np.float64)
    for i in range(x.size):
        step = np.zeros_like(x)
        step.flat[i] = eps
        g.flat[i] = (f(x + step) - f(x - step)) / (2 * eps)
    return g


def check_unary(op, x, atol=1e-8):
    node = ad.param(x)
    out = ad.asum(op(node))
    grads = ad.backprop(out)
    ref = num_grad(lambda v: float(op(ad.constant(v)).value.sum()), x)
    np.testing.assert_allclose(grads[id(node)], ref, rtol=1e-6, atol=atol)


@pytest.mark.parametrize("name", ["tanh", "sigmoid", "silu", "identity"])
def test_activation_gradients(name):
    rng = np.random.default_rng(0)
    check_unary(ad.ACTIVATIONS[name], rng.standard_normal(7))
    check_unary(ad.ACTIVATIONS[name], rng.standard_normal((3, 5)))


def test_neg_gradient():
    check_unary(ad.neg, np.random.default_rng(1).standard_normal(4))


def test_add_sub_mul_gradients():
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal(5), rng.standard_normal(5)
    for op in (ad.add, ad.sub, ad.mul):
        na, nb = ad.param(a), ad.param(b)
        grads = ad.backprop(ad.asum(op(na, nb)))
        ga = num_grad(lambda v: float(op(ad.constant(v), ad.constant(b)).value.sum()), a)
        gb = num_grad(lambda v: float(op(ad.constant(a), ad.constant(v)).value.sum()), b)
        np.testing.assert_allclose(grads[id(na)], ga, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(grads[id(nb)], gb, rtol=1e-6, atol=1e-8)


def test_broadcast_gradients_unbroadcast():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal(3)
    na, nb = ad.param(a), ad.param(b)
    grads = ad.backprop(ad.asum(ad.mul(na, nb)))
    assert grads[id(nb)].shape == (3,)
    gb = num_grad(lambda v: float((a * v).sum()), b)
    np.testing.assert_allclose(grads[id(nb)], gb, rtol=1e-6, atol=1e-8)


def test_linear_vector_and_batch():
    rng = np.random.default_rng(4)
    w = rng.standard_normal((3, 5))
    b = rng.standard_normal(3)
    x = rng.standard_normal(5)
    nx, nw, nb = ad.param(x), ad.param(w), ad.param(b)
    grads = ad.backprop(ad.asum(ad.linear(nx, nw, nb)))
    np.testing.assert_allclose(
        grads[id(nx)], num_grad(lambda v: float((w @ v + b).sum()), x),
        rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(
        grads[id(nw)], num_grad(lambda v: float((v @ x + b).sum()), w),
        rtol=1e-6, atol=1e-8)

    xb = rng.standard_normal((6, 5))
    nx2, nw2 = ad.param(xb), ad.param(w)
    grads = ad.backprop(ad.asum(ad.linear(nx2, nw2, ad.constant(b))))
    np.testing.assert_allclose(
        grads[id(nw2)], num_grad(lambda v: float((xb @ v.T + b).sum()), w),
        rtol=1e-6, atol=1e-8)


def test_slice_concat_sum_mean_gradients():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 6))
    na = ad.param(a)
    grads = ad.backprop(ad.asum(ad.slice_last(na, 1, 4)))
    expected = np.zeros_like(a)
    expected[:, 1:4] = 1.0
    np.testing.assert_array_equal(grads[id(na)], expected)

    b = rng.standard_normal((3, 2))
    na, nb = ad.param(a), ad.param(b)
    out = ad.amean(ad.concat_last(na, nb), axis=None)
    grads = ad.backprop(out)
    np.testing.assert_allclose(grads[id(na)], np.full(a.shape, 1.0 / 24))
    np.testing.assert_allclose(grads[id(nb)], np.full(b.shape, 1.0 / 24))


def test_dot_and_sumsq_rows():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((4, 3))
    na = ad.param(a)
    grads = ad.backprop(ad.asum(ad.sumsq_rows(na)))
    np.testing.assert_allclose(grads[id(na)], 2 * a, rtol=1e-12)


def test_shape_errors():
    with pytest.raises(ad.ShapeError):
        ad.add(ad.constant(np.zeros(3)), ad.constant(np.zeros(4)))
    with pytest.raises(ad.ShapeError):
        ad.linear(ad.constant(np.zeros(3)), ad.constant(np.zeros((2, 4))))
    with pytest.raises(ad.ShapeError):
        ad.linear(ad.constant(np.zeros(4)), ad.constant(np.zeros(4)))
    with pytest.raises(ad.ShapeError):
        ad.concat_last(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros(3)))


def test_requires_grad_propagates():
    p = ad.param(np.ones(3))
    c = ad.constant(np.ones(3))
    assert ad.add(p, c).requires_grad
    assert not ad.add(c, c).requires_grad


def test_reused_node_accumulates():
    x = ad.param(np.array([2.0]))
    y = ad.mul(x, x)     # x^2: gradient 2x
    grads = ad.backprop(ad.asum(y))
    np.testing.assert_allclose(grads[id(x)], [4.0])



def test_reuse_through_view_vjps_matches_fd():
    """`h` feeds identity, add, concat_last and reshape, whose vjps all hand
    back views of their input gradient; summing them must write into none."""
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal((3, 4))
    w_both = rng.standard_normal((3, 4))
    w_joined = rng.standard_normal((3, 8))
    w_flat = rng.standard_normal(12)

    def loss(x):
        h = ad.tanh(x)
        both = ad.add(h, ad.identity(h))
        joined = ad.concat_last(h, both)
        flat = ad.reshape(ad.add(x, h), (12,))
        return ad.add(ad.add(ad.asum(ad.mul(both, w_both)),
                             ad.asum(ad.mul(joined, w_joined))),
                      ad.asum(ad.mul(flat, w_flat)))

    x = ad.param(x0)
    grads = ad.backprop(loss(x))
    ref = num_grad(lambda v: float(loss(ad.constant(v)).value), x0)
    np.testing.assert_allclose(grads[id(x)], ref, rtol=1e-6, atol=1e-8)


def test_backprop_leaves_seed_and_returns_exclusive_gradients():
    rng = np.random.default_rng(8)
    a, b = ad.param(rng.standard_normal(4)), ad.param(rng.standard_normal(4))
    # every vjp on the way returns a view of the seed; `a` is reached 3 times
    out = ad.add(ad.add(a, b), ad.add(ad.identity(a), a))
    seed = rng.standard_normal(4)
    kept = seed.copy()
    grads = ad.backprop(out, seed)
    np.testing.assert_array_equal(seed, kept)
    ga, gb = grads[id(a)], grads[id(b)]
    np.testing.assert_array_equal(ga, seed + seed + seed)
    np.testing.assert_array_equal(gb, seed)
    for g in (ga, gb):
        assert g.flags.writeable and not np.shares_memory(g, seed)
    assert not np.shares_memory(ga, gb)
    leaf_root = ad.backprop(a, seed)[id(a)]
    assert leaf_root.flags.writeable and not np.shares_memory(leaf_root, seed)

    norm = clip_global_norm({"a": ga, "b": gb}, 1e-3)
    assert norm == pytest.approx(np.sqrt(10) * np.linalg.norm(kept))
    assert np.sqrt(np.sum(ga * ga) + np.sum(gb * gb)) == pytest.approx(1e-3)
    np.testing.assert_array_equal(seed, kept)


@pytest.mark.parametrize("name", ["tanh", "sigmoid", "silu", "identity"])
def test_frozen_layer_equals_linear_then_activation(name):
    rng = np.random.default_rng(9)
    w, b = rng.standard_normal((5, 4)), rng.standard_normal(5)
    for x0 in (rng.standard_normal(4), rng.standard_normal((6, 4))):
        seed = rng.standard_normal(x0.shape[:-1] + (5,))
        x_fused, x_plain = ad.param(x0), ad.param(x0)
        fused = ad.frozen_layer(x_fused, w, b, name)
        plain = ad.ACTIVATIONS[name](ad.linear(x_plain, ad.constant(w), ad.constant(b)))
        assert fused.parents == (x_fused,)
        assert np.array_equal(fused.value, plain.value)
        assert np.array_equal(ad.backprop(fused, seed)[id(x_fused)],
                              ad.backprop(plain, seed)[id(x_plain)])
        # with an adapter term added before the activation
        e0 = rng.standard_normal(seed.shape)
        e_fused, e_plain = ad.param(e0), ad.param(e0)
        fused = ad.frozen_layer(x_fused, w, b, name, e_fused)
        plain = ad.ACTIVATIONS[name](
            ad.add(ad.linear(x_plain, ad.constant(w), ad.constant(b)), e_plain))
        assert np.array_equal(fused.value, plain.value)
        gf, gp = ad.backprop(fused, seed), ad.backprop(plain, seed)
        for leaf_fused, leaf_plain in ((x_fused, x_plain), (e_fused, e_plain)):
            assert np.array_equal(gf[id(leaf_fused)], gp[id(leaf_plain)])

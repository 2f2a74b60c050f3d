"""Gradient checks for every primitive, the fused frozen layer, the reverse
sweep's bookkeeping, and the Jacobians built from reverse sweeps."""
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from noisetilt import autodiff as ad
from noisetilt import rowblocks
from noisetilt.generators import make_generator
from noisetilt.linalg import jacobian_fd
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


@pytest.mark.parametrize("name", sorted(ad.ACTIVATIONS))
def test_slope_bound_is_tight(name):
    # the Lipschitz audit multiplies these; a loose bound weakens it, a low
    # one makes it unsound
    act = ad.ACTIVATIONS[name]
    z = np.linspace(-10.0, 10.0, 200_001)
    _, saved = act.forward(z, z.copy())
    slope = np.abs(act.vjp(np.ones_like(z), saved))
    assert act.slope_bound - 1e-4 <= slope.max() <= act.slope_bound


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

    na = ad.param(a)
    grads = ad.backprop(ad.amean(na, axis=None))
    np.testing.assert_allclose(grads[id(na)], np.full(a.shape, 1.0 / 18))


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
    """`h` feeds identity, add and reshape, whose vjps all hand
    back views of their input gradient; summing them must write into none."""
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal((3, 4))
    w_both = rng.standard_normal((3, 4))
    w_flat = rng.standard_normal(12)

    def loss(x):
        h = ad.tanh(x)
        both = ad.add(h, ad.identity(h))
        flat = ad.reshape(ad.add(x, h), (12,))
        return ad.add(ad.asum(ad.mul(both, w_both)), ad.asum(ad.mul(flat, w_flat)))

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


def frozen_and_plain(name, w, b, x0, e0, seed):
    """Value and leaf gradients of the frozen layer and of linear then the
    activation, with adapter term e0 (or none): gradients of x and e, then
    the plain ops' w and b."""
    out = []
    for fused in (True, False):
        x = ad.param(x0)
        e = None if e0 is None else ad.param(e0)
        leaves = [x] + ([] if e is None else [e])
        if fused:
            y = ad.frozen_layer(x, w, b, name, e)
            assert y.parents == tuple(leaves)
        else:
            leaves += [ad.param(w), ad.param(b)]
            z = ad.linear(x, leaves[-2], leaves[-1])
            y = ad.ACTIVATIONS[name](z if e is None else ad.add(z, e))
        grads = ad.backprop(y, seed)
        out.append((y.value, [grads[id(leaf)] for leaf in leaves]))
    return out


@pytest.mark.parametrize("name", ["tanh", "sigmoid", "silu", "identity"])
def test_frozen_layer_equals_linear_then_activation(name):
    # bit for bit, on a vector and a batch, with and without an adapter term;
    # a vector also agrees with the one-row batch that holds it
    rng = np.random.default_rng(9)
    w, b = rng.standard_normal((5, 4)), rng.standard_normal(5)
    for x0 in (rng.standard_normal(4), rng.standard_normal((6, 4))):
        seed = rng.standard_normal(x0.shape[:-1] + (5,))
        for e0 in (None, rng.standard_normal(seed.shape)):
            runs = frozen_and_plain(name, w, b, x0, e0, seed)
            (v_fused, g_fused), (v_plain, g_plain) = runs
            assert np.array_equal(v_fused, v_plain)
            assert all(np.array_equal(f, p) for f, p in zip(g_fused, g_plain))
            if x0.ndim == 2:
                continue
            assert np.array_equal(ad.affine(x0, w, b), ad.affine(x0[None], w, b)[0])
            rows = frozen_and_plain(name, w, b, x0[None],
                                    None if e0 is None else e0[None], seed[None])
            for (v, grads), (v_row, grads_row) in zip(runs, rows):
                assert np.array_equal(v, v_row[0])
                # x and e are batched, the plain ops' w and b are not
                for g, g_row in zip(grads, grads_row):
                    assert np.array_equal(g, g_row[0] if g.ndim < g_row.ndim else g_row)


def frozen_run(name, w, b, x0, e0, seed):
    """Value and gradients of x and e (if given) of one frozen layer; the
    value is copied out of any arena buffer."""
    x = ad.param(x0)
    e = None if e0 is None else ad.param(e0)
    y = ad.frozen_layer(x, w, b, name, e)
    grads = ad.backprop(y, seed)
    return [y.value.copy()] + [grads[id(leaf)] for leaf in (x, e) if leaf is not None]


# (rows, in, out): the train-wide generator's 256 -> 3072 layer, which two
# workers split into 64-row halves, and a layer split into 65 and 66 rows
WIDE_LAYERS = [(128, 256, 3072), (131, 96, 512)]


@pytest.mark.parametrize("rows, n_in, n_out", WIDE_LAYERS)
@pytest.mark.parametrize("name", ["tanh", "sigmoid", "silu", "identity"])
def test_blocked_frozen_layer_same_bits(name, rows, n_in, n_out, monkeypatch):
    # every block's rows of the value and of each gradient, in buffers a
    # step already filled with nan: a row no block writes stays nan
    assert rows * n_in * n_out >= ad.SPLIT_MACS
    rng = np.random.default_rng(rows)
    w, b = rng.standard_normal((n_out, n_in)) / np.sqrt(n_in), rng.standard_normal(n_out)
    x0, seed = rng.standard_normal((rows, n_in)), rng.standard_normal((rows, n_out))
    dispatched = []
    run_blocks = rowblocks.run_blocks
    monkeypatch.setattr(rowblocks, "run_blocks",
                        lambda fn, blocks: dispatched.append(blocks) or run_blocks(fn, blocks))
    for e0 in (None, 0.5 * rng.standard_normal(seed.shape)):
        _, (v_plain, g_plain) = frozen_and_plain(name, w, b, x0, e0, seed)
        want = [v_plain] + g_plain[:1 if e0 is None else 2]
        for workers in (1, 2):
            monkeypatch.setattr(rowblocks, "WORKERS", workers)
            dispatched.clear()
            arena = ad.Arena()
            with arena:
                frozen_run(name, w, b, x0, e0, seed)
            for buf in arena._buffers:
                buf.fill(np.nan)
            with arena:
                got = frozen_run(name, w, b, x0, e0, seed)
            assert all(np.array_equal(g, v) for g, v in zip(got, want)), (workers, e0 is None)
            half = rows // 2
            split = [[slice(0, half), slice(half, rows)]] if workers == 2 else [[slice(None)]]
            assert dispatched and all(blocks in split for blocks in dispatched)


def test_arena_hands_out_buffers_in_request_order():
    rng = np.random.default_rng(9)
    x, w, b = rng.standard_normal((4, 3)), rng.standard_normal((5, 3)), rng.standard_normal(5)
    arena = ad.Arena()
    with arena:
        first = [ad.affine(x, w, b), ad.affine(x[0], w, None)]
    with arena:   # entering rewinds: the same requests get the same buffers
        again = [ad.affine(x, w, b), ad.affine(x[0], w, None)]
        wider = ad.affine(x, np.vstack([w, w]), None)   # a new request allocates
    assert all(a is b for a, b in zip(first, again))
    assert wider.shape == (4, 10)
    with arena:
        ad.affine(x, np.vstack([w, w]), None)   # a shape change reallocates
        assert ad.affine(x[0], w, None) is first[1]
    np.testing.assert_array_equal(first[0], x @ w.T + b)
    assert ad.affine(x, w, b) is not first[0]   # no arena active: fresh arrays


def test_arena_serves_only_the_thread_that_entered_it():
    rng = np.random.default_rng(10)
    x, w, b = rng.standard_normal((4, 3)), rng.standard_normal((5, 3)), rng.standard_normal(5)
    arena = ad.Arena()
    with arena:
        own = ad.affine(x, w, b)
        held = len(arena._buffers)
        with ThreadPoolExecutor(1) as pool:
            other = pool.submit(ad.affine, x, w, b).result()
        assert len(arena._buffers) == held
    assert other is not own
    assert not any(other is buf for buf in arena._buffers)
    np.testing.assert_array_equal(other, own)


def test_gradients_outlive_the_arena_step():
    arena, grads = ad.Arena(), []
    for k in (1.0, 2.0):
        with arena:
            p = ad.param(np.zeros((2, 3)))
            # asum's vjp writes this leaf's gradient into an arena buffer
            grads.append(ad.backprop(ad.asum(p), np.array(k))[id(p)])
    np.testing.assert_array_equal(grads[0], np.ones((2, 3)))
    np.testing.assert_array_equal(grads[1], np.full((2, 3), 2.0))


def test_jacobian_matches_fd_on_a_non_square_stack():
    # a decoder maps a 4-d latent to 2x2x3 = 12 outputs
    g = make_generator({"variant": "decoder", "latent_dim": 4, "height": 2, "width": 2,
                        "hidden": [8], "activation": "silu"}, seed=5)
    x0 = np.random.default_rng(6).standard_normal((3, 4))
    x = ad.param(x0)
    jac = ad.jacobian(g.stack.trace(x), x)
    assert jac.shape == (3, 12, 4)
    for i in range(3):
        np.testing.assert_allclose(jac[i], jacobian_fd(g.generate, x0[i]),
                                   rtol=1e-6, atol=1e-8)
        xi = ad.param(x0[i])
        np.testing.assert_allclose(ad.jacobian(g.stack.trace(xi), xi), jac[i], rtol=1e-13)


def test_jacobian_needs_a_param_leaf():
    x = ad.param(np.ones((2, 3)))
    for not_leaf in (ad.constant(np.ones((2, 3))), ad.scale(x, 2.0)):
        with pytest.raises(ValueError, match="param leaf"):
            ad.jacobian(ad.tanh(not_leaf), not_leaf)

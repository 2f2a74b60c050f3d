"""Reward values, gradients, autodiff traces, and box bounds."""
import numpy as np
import pytest

from noisetilt import autodiff as ad
from noisetilt.rewards import LinearReward, QuadraticReward, RednessReward, make_reward


def grad_check(r, x):
    ref = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = 1e-6
        ref[i] = (r.evaluate(x + step) - r.evaluate(x - step)) / 2e-6
    np.testing.assert_allclose(r.gradient(x), ref, rtol=1e-6, atol=1e-8)
    node = ad.param(x)
    grads = ad.backprop(r.node_rows(node))
    np.testing.assert_allclose(grads[id(node)], ref, rtol=1e-6, atol=1e-8)


def test_linear():
    c = np.array([1.0, -2.0, 0.5])
    r = LinearReward(c)
    x = np.array([2.0, 1.0, 4.0])
    assert r.evaluate(x) == pytest.approx(2.0)
    grad_check(r, x)
    np.testing.assert_allclose(r.evaluate_batch(np.stack([x, -x])), [2.0, -2.0])
    assert r.upper_bound_on_box(0.0, 1.0, 3) == pytest.approx(1.5)
    assert r.upper_bound_on_box(-1.0, 1.0, 3) == pytest.approx(3.5)
    with pytest.raises(ValueError):
        r.evaluate(np.zeros(4))


def test_quadratic():
    q = np.array([[2.0, 0.5], [0.5, 1.0]])
    r = QuadraticReward(q, sign=-1)
    x = np.array([1.0, -1.0])
    assert r.evaluate(x) == pytest.approx(-0.5 * (2.0 - 1.0 + 1.0))
    grad_check(r, x)
    with pytest.raises(ValueError):
        QuadraticReward(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        QuadraticReward(np.zeros((2, 3)))


def test_redness_closed_form():
    r = RednessReward(0.01)
    x = np.concatenate([np.full(4, 0.9), np.full(4, 0.3), np.full(4, 0.1)])
    assert r.evaluate(x) == pytest.approx(0.01 * (0.9 - 0.5 * (0.3 + 0.1)))
    grad_check(r, x)
    assert r.upper_bound_on_box(0.0, 1.0, 12) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        r.evaluate(np.zeros(10))


def test_make_reward():
    assert isinstance(make_reward({"variant": "linear", "c": [1.0]}), LinearReward)
    assert isinstance(make_reward({"variant": "redness"}), RednessReward)
    assert isinstance(make_reward({"variant": "quadratic", "q": [[1.0]]}),
                      QuadraticReward)
    with pytest.raises(ValueError):
        make_reward({"variant": "mystery"})

"""Reverse-mode automatic differentiation on dense float64 arrays.

Nodes form a tape in creation order (parents always precede children), so a
single reverse sweep yields gradients for every differentiable leaf.  All
values are 64-bit floats; shapes are either vectors ``(n,)`` or batches
``(B, n)`` and every op states which it accepts.
"""
from __future__ import annotations

from typing import Callable, Optional

import numpy as np


class ShapeError(ValueError):
    """Incompatible operand shapes; the message names the offending op."""


class Node:
    """One entry of the tape: a cached forward value plus vector-Jacobian
    closures back to its parents."""

    __slots__ = ("value", "parents", "vjps", "requires_grad", "name")

    def __init__(self, value, parents=(), vjps=(), requires_grad=False, name=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.parents: tuple[Node, ...] = tuple(parents)
        self.vjps: tuple[Callable[[np.ndarray], np.ndarray], ...] = tuple(vjps)
        self.requires_grad = requires_grad or any(p.requires_grad for p in self.parents)
        self.name = name

    @property
    def shape(self):
        return self.value.shape


def constant(value, name=None) -> Node:
    return Node(value, name=name)


def param(value, name=None) -> Node:
    """Differentiable leaf."""
    return Node(value, requires_grad=True, name=name)


def _as_node(x) -> Node:
    return x if isinstance(x, Node) else Node(x)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


def _check_broadcast(a: Node, b: Node, op: str):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(
            f"{op}: shapes {a.shape} and {b.shape} are not broadcastable"
            + (f" (node {a.name!r}/{b.name!r})" if a.name or b.name else "")
        )


def add(a, b) -> Node:
    a, b = _as_node(a), _as_node(b)
    _check_broadcast(a, b, "add")
    return Node(
        a.value + b.value,
        (a, b),
        (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(g, b.shape)),
    )


def sub(a, b) -> Node:
    a, b = _as_node(a), _as_node(b)
    _check_broadcast(a, b, "sub")
    return Node(
        a.value - b.value,
        (a, b),
        (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(-g, b.shape)),
    )


def neg(a) -> Node:
    a = _as_node(a)
    return Node(-a.value, (a,), (lambda g: -g,))


def mul(a, b) -> Node:
    """Elementwise product (with numpy broadcasting)."""
    a, b = _as_node(a), _as_node(b)
    _check_broadcast(a, b, "mul")
    return Node(
        a.value * b.value,
        (a, b),
        (
            lambda g: _unbroadcast(g * b.value, a.shape),
            lambda g: _unbroadcast(g * a.value, b.shape),
        ),
    )


def scale(a, k: float) -> Node:
    a = _as_node(a)
    k = float(k)
    return Node(a.value * k, (a,), (lambda g: g * k,))


def affine(x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray]) -> np.ndarray:
    """``w @ x + b`` for a vector, ``x @ w.T + b`` row-wise for a batch, in a
    fresh array (the bias is added in place on the matmul output)."""
    if w.ndim != 2:
        raise ShapeError(f"linear: weight must be 2-d, got {w.shape}")
    m, n = w.shape
    if x.ndim == 1:
        if x.shape[0] != n:
            raise ShapeError(f"linear: input {x.shape} incompatible with weight {w.shape}")
        y = w @ x
    elif x.ndim == 2:
        if x.shape[1] != n:
            raise ShapeError(f"linear: batch {x.shape} incompatible with weight {w.shape}")
        y = x @ w.T
    else:
        raise ShapeError(f"linear: input must be 1-d or 2-d, got {x.shape}")
    if b is not None:
        if b.shape != (m,):
            raise ShapeError(f"linear: bias {b.shape} incompatible with weight {w.shape}")
        y += b
    return y


def linear(x, w, b=None) -> Node:
    """Affine map: ``w @ x + b`` for vectors, ``x @ w.T + b`` row-wise for
    batches.  ``w`` is ``(m, n)``, ``b`` is ``(m,)`` or None."""
    x, w = _as_node(x), _as_node(w)
    b = None if b is None else _as_node(b)
    y = affine(x.value, w.value, None if b is None else b.value)
    parents = [x, w]
    if x.value.ndim == 1:
        vjps = [lambda g: w.value.T @ g, lambda g: np.outer(g, x.value)]
    else:
        vjps = [lambda g: g @ w.value, lambda g: g.T @ x.value]
    if b is not None:
        parents.append(b)
        vjps.append(lambda g: _unbroadcast(g, b.shape))
    return Node(y, parents, vjps)


class Activation:
    """An elementwise nonlinearity, callable as a tape op.

    ``forward(z, out)`` writes the activation of ``z`` into ``out`` (``z``
    itself, or a fresh array when None) and returns ``(value, saved)``;
    ``vjp(g, saved)`` returns the input gradient in one new array, or ``g``
    itself for the identity.  The arithmetic order is fixed, so a frozen
    layer and the separate linear and activation ops agree bit for bit.
    """

    def __init__(self, forward, vjp):
        self.forward = forward
        self.vjp = vjp

    def __call__(self, a) -> Node:
        a = _as_node(a)
        y, saved = self.forward(a.value, None)
        return Node(y, (a,), (lambda g: self.vjp(g, saved),))


def _sigmoid_into(z, out):
    out = np.negative(z, out=out)
    np.exp(out, out=out)
    np.add(1.0, out, out=out)
    return np.divide(1.0, out, out=out)


def _tanh_forward(z, out):
    t = np.tanh(z, out=out)
    return t, t


def _tanh_vjp(g, t):
    tmp = np.multiply(t, t)
    np.subtract(1.0, tmp, out=tmp)
    return np.multiply(g, tmp, out=tmp)


def _sigmoid_forward(z, out):
    s = _sigmoid_into(z, out)
    return s, s


def _sigmoid_vjp(g, s):
    out = np.multiply(g, s)
    return np.multiply(out, 1.0 - s, out=out)


def _silu_forward(z, out):
    s = _sigmoid_into(z, None)
    y = np.multiply(z, s, out=out)
    return y, (s, y)


def _silu_vjp(g, saved):
    s, y = saved
    tmp = np.subtract(1.0, s)
    np.multiply(y, tmp, out=tmp)
    np.add(s, tmp, out=tmp)
    return np.multiply(g, tmp, out=tmp)


tanh = Activation(_tanh_forward, _tanh_vjp)
sigmoid = Activation(_sigmoid_forward, _sigmoid_vjp)
silu = Activation(_silu_forward, _silu_vjp)
identity = Activation(lambda z, out: (z, None), lambda g, saved: g)

ACTIVATIONS = {"tanh": tanh, "sigmoid": sigmoid, "silu": silu, "identity": identity}


def frozen_layer(x, w: np.ndarray, b: np.ndarray, activation: str,
                 extra: Optional[Node] = None) -> Node:
    """``activation(x @ w.T + b + extra)`` as one node, for constant ``w``
    and ``b``; ``extra`` (an adapter's output, or None) is differentiable.

    Same value and gradients as ``ACTIVATIONS[activation](add(linear(x, w,
    b), extra))``, but the activation overwrites the matmul output and the
    tape holds one node instead of four or five."""
    x = _as_node(x)
    act = ACTIVATIONS[activation]
    z = affine(x.value, w, b)
    if extra is not None:
        z += extra.value
    y, saved = act.forward(z, z)
    if x.value.ndim == 1:
        vjp_x = lambda g: w.T @ act.vjp(g, saved)
    else:
        vjp_x = lambda g: act.vjp(g, saved) @ w
    if extra is None:
        return Node(y, (x,), (vjp_x,))
    return Node(y, (x, extra), (vjp_x, lambda g: act.vjp(g, saved)))


# Tight slope bounds used for compositional Lipschitz estimates.
ACTIVATION_SLOPE_BOUND = {
    "tanh": 1.0,
    "sigmoid": 0.25,
    "silu": 1.0998,
    "identity": 1.0,
}


def asum(a, axis: Optional[int] = None) -> Node:
    a = _as_node(a)
    y = a.value.sum(axis=axis)
    shp = a.shape

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, shp).astype(np.float64)
        return np.broadcast_to(np.expand_dims(g, axis), shp).astype(np.float64)

    return Node(y, (a,), (vjp,))


def amean(a, axis: Optional[int] = None) -> Node:
    a = _as_node(a)
    n = a.value.size if axis is None else a.shape[axis]
    return scale(asum(a, axis=axis), 1.0 / n)


def slice_last(a, start: int, stop: int) -> Node:
    """Slice along the last axis."""
    a = _as_node(a)
    y = a.value[..., start:stop]

    def vjp(g):
        out = np.zeros_like(a.value)
        out[..., start:stop] = g
        return out

    return Node(y, (a,), (vjp,))


def concat_last(a, b) -> Node:
    """Concatenate along the last axis."""
    a, b = _as_node(a), _as_node(b)
    if a.value.ndim != b.value.ndim or a.shape[:-1] != b.shape[:-1]:
        raise ShapeError(f"concat: shapes {a.shape} and {b.shape} do not align")
    y = np.concatenate([a.value, b.value], axis=-1)
    na = a.shape[-1]
    return Node(y, (a, b), (lambda g: g[..., :na], lambda g: g[..., na:]))


def reshape(a, shape: tuple) -> Node:
    a = _as_node(a)
    return Node(a.value.reshape(shape), (a,), (lambda g: g.reshape(a.shape),))


def dot_rows(a, b) -> Node:
    """Row-wise inner product; plain dot for vectors."""
    return asum(mul(a, b), axis=-1)


def sumsq_rows(a) -> Node:
    """Row-wise squared norm; plain squared norm for vectors."""
    a = _as_node(a)
    return asum(mul(a, a), axis=-1)


def backprop(root: Node, seed=None) -> dict[int, np.ndarray]:
    """One reverse sweep from `root`; returns id(leaf) -> gradient for every
    differentiable leaf (a node without parents) that `root` depends on.

    An interior node's gradient is released as soon as it has been passed to
    the node's parents.  A vjp may return a view of its input gradient, so
    the sweep adds in place only into sums it allocated itself, never writes
    into `seed`, and returns writable leaf gradients that alias nothing."""
    if seed is None:
        seed = np.ones_like(root.value)
    seed = np.asarray(seed, dtype=np.float64)
    if seed.shape != root.shape:
        raise ShapeError(f"backprop: seed shape {seed.shape} != root shape {root.shape}")

    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(root): seed}
    owned: set[int] = set()   # sums this sweep allocated: safe to add into
    for node in reversed(order):
        if not node.parents:
            continue
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            if not parent.requires_grad:
                continue
            contrib = vjp(g)
            key = id(parent)
            if key in owned:
                np.add(grads[key], contrib, out=grads[key])
            elif key in grads:
                grads[key] = np.asarray(grads[key] + contrib, dtype=np.float64)
                owned.add(key)
            else:
                grads[key] = np.asarray(contrib, dtype=np.float64)
    return {k: g if k in owned else g.copy() for k, g in grads.items()}

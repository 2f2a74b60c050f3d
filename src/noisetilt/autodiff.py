"""Reverse-mode automatic differentiation on dense float64 arrays.

Nodes form a tape in creation order (parents always precede children), so a
single reverse sweep yields gradients for every differentiable leaf.  All
values are 64-bit floats.  Every op works over the last axis, so one code
path serves a vector ``(n,)`` and a batch of rows ``(B, n)`` alike, and a
vector gets the same bits as a one-row batch.
"""
from __future__ import annotations

import threading
from typing import Callable, Optional

import numpy as np


class ShapeError(ValueError):
    """Incompatible operand shapes; the message names the offending op."""


class Arena:
    """Output buffers that successive training steps reuse.

    While an arena is active (``with arena:``), the ops that make a step's
    large arrays (`affine`, the activation vjps and the silu forward's
    sigmoid, a frozen layer's input gradient, the `asum` vjp) take their
    outputs from it instead of allocating: the i-th request of a step gets
    the i-th buffer, reallocated only when its shape changes.
    Entering rewinds to the first buffer, so whatever one step's tape holds
    is overwritten by the next; `backprop` returns copies, and a forward
    whose output outlives the step must run outside the arena.  Reusing
    the buffers spares the allocator from returning them to the OS and
    faulting them in again on every step."""

    def __init__(self):
        self._buffers: list[np.ndarray] = []
        self._next = 0

    def take(self, shape: tuple) -> np.ndarray:
        i = self._next
        self._next += 1
        if i == len(self._buffers):
            self._buffers.append(np.empty(shape))
        elif self._buffers[i].shape != shape:
            self._buffers[i] = np.empty(shape)
        return self._buffers[i]

    def __enter__(self) -> "Arena":
        self._next = 0
        _slot.active = self
        return self

    def __exit__(self, *exc):
        _slot.active = None


# The arena the running step draws from, one slot per thread; ops reach it
# here because the traced entry points (`Generator.node`,
# `Reward.node_rows`, ...) take no arena argument.  A forward pass on
# another thread therefore never takes a buffer of this thread's arena.
_slot = threading.local()


def _empty(shape: tuple) -> np.ndarray:
    """An uninitialised float64 array: this thread's active arena's next
    buffer, or a fresh one."""
    arena = getattr(_slot, "active", None)
    return np.empty(shape) if arena is None else arena.take(shape)


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
    """``x @ w.T + b`` over the last axis of a vector or a batch of rows, in
    a new array or the active arena's next buffer (the bias is added in
    place on the matmul output)."""
    if w.ndim != 2:
        raise ShapeError(f"linear: weight must be 2-d, got {w.shape}")
    m, n = w.shape
    if x.ndim not in (1, 2) or x.shape[-1] != n:
        raise ShapeError(f"linear: input {x.shape} incompatible with weight {w.shape}")
    y = np.matmul(x, w.T, out=_empty(x.shape[:-1] + (m,)))
    if b is not None:
        if b.shape != (m,):
            raise ShapeError(f"linear: bias {b.shape} incompatible with weight {w.shape}")
        y += b
    return y


def linear(x, w, b=None) -> Node:
    """Affine map ``x @ w.T + b`` over the last axis of a vector or a batch
    of rows.  ``w`` is ``(m, n)``, ``b`` is ``(m,)`` or None."""
    x, w = _as_node(x), _as_node(w)
    b = None if b is None else _as_node(b)
    y = affine(x.value, w.value, None if b is None else b.value)
    parents = [x, w]
    # a vector's weight gradient is the outer product of a one-row batch
    vjps = [lambda g: g @ w.value,
            lambda g: np.atleast_2d(g).T @ np.atleast_2d(x.value)]
    if b is not None:
        parents.append(b)
        vjps.append(lambda g: _unbroadcast(g, b.shape))
    return Node(y, parents, vjps)


class Activation:
    """An elementwise nonlinearity, callable as a tape op.

    ``forward(z, out)`` writes the activation of ``z`` into ``out`` (``z``
    itself, or a fresh array when None) and returns ``(value, saved)``;
    ``vjp(g, saved)`` returns the input gradient in one new array (or arena
    buffer), or ``g`` itself for the identity.  The arithmetic order is
    fixed, so a frozen layer and the separate linear and activation ops
    agree bit for bit.  ``slope_bound`` is a tight bound on the slope, for
    compositional Lipschitz estimates.
    """

    def __init__(self, forward, vjp, slope_bound: float):
        self.forward = forward
        self.vjp = vjp
        self.slope_bound = slope_bound

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
    tmp = np.multiply(t, t, out=_empty(t.shape))
    np.subtract(1.0, tmp, out=tmp)
    return np.multiply(g, tmp, out=tmp)


def _sigmoid_forward(z, out):
    s = _sigmoid_into(z, out)
    return s, s


def _sigmoid_vjp(g, s):
    out = np.multiply(g, s, out=_empty(s.shape))
    return np.multiply(out, np.subtract(1.0, s, out=_empty(s.shape)), out=out)


def _silu_forward(z, out):
    s = _sigmoid_into(z, _empty(z.shape))
    y = np.multiply(z, s, out=out)
    return y, (s, y)


def _silu_vjp(g, saved):
    s, y = saved
    tmp = np.subtract(1.0, s, out=_empty(s.shape))
    np.multiply(y, tmp, out=tmp)
    np.add(s, tmp, out=tmp)
    return np.multiply(g, tmp, out=tmp)


tanh = Activation(_tanh_forward, _tanh_vjp, 1.0)
sigmoid = Activation(_sigmoid_forward, _sigmoid_vjp, 0.25)
# silu's slope peaks at 1.0998393 (z = 2.3994)
silu = Activation(_silu_forward, _silu_vjp, 1.09984)
identity = Activation(lambda z, out: (z, None), lambda g, saved: g, 1.0)

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

    def vjp_z(g):
        return act.vjp(g, saved)

    def vjp_x(g):
        dz = vjp_z(g)
        return np.matmul(dz, w, out=_empty(dz.shape[:-1] + (w.shape[1],)))

    if extra is None:
        return Node(y, (x,), (vjp_x,))
    return Node(y, (x, extra), (vjp_x, vjp_z))


def asum(a, axis: Optional[int] = None) -> Node:
    a = _as_node(a)
    y = a.value.sum(axis=axis)
    shp = a.shape

    def vjp(g):
        out = _empty(shp)
        np.copyto(out, g if axis is None else np.expand_dims(g, axis))
        return out

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


def jacobian(y: Node, x: Node) -> np.ndarray:
    """Jacobian of a row-wise map's output `y` with respect to its `param`
    input `x`: (B, m, n) for a (B, m) output of a (B, n) batch, (m, n) for
    vectors.  Sweep i seeds e_i in every row; since no row depends on
    another, it yields row i of every sample's Jacobian at once."""
    if x.parents or not x.requires_grad:
        raise ValueError("jacobian: x must be a param leaf")
    rows = []
    for i in range(y.shape[-1]):
        seed = np.zeros(y.shape)
        seed[..., i] = 1.0
        rows.append(backprop(y, seed).get(id(x), np.zeros(x.shape)))
    return np.stack(rows, axis=-2)

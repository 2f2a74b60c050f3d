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

from . import rowblocks


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


def affine(x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray],
           out: Optional[np.ndarray] = None) -> np.ndarray:
    """``x @ w.T + b`` over the last axis of a vector or a batch of rows, in
    `out`, else a new array or the active arena's next buffer (the bias is
    added in place on the matmul output)."""
    if w.ndim != 2:
        raise ShapeError(f"linear: weight must be 2-d, got {w.shape}")
    m, n = w.shape
    if x.ndim not in (1, 2) or x.shape[-1] != n:
        raise ShapeError(f"linear: input {x.shape} incompatible with weight {w.shape}")
    y = np.matmul(x, w.T, out=_empty(x.shape[:-1] + (m,)) if out is None else out)
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

    ``forward(z, out, take)`` writes the activation of ``z`` into ``out``
    (``z`` itself, or a fresh array when None) and returns ``(value,
    saved)``; ``vjp(g, saved, take)`` returns the input gradient in the
    first array it takes, or ``g`` itself for the identity.  Each takes
    its scratch arrays of ``z``'s shape from ``take`` (by default the
    active arena, else fresh ones), ``takes[0]`` for the forward and
    ``takes[1]`` for the vjp, so a caller can hand a block of rows its own
    rows of buffers it took itself.  The arithmetic order is fixed, so a
    frozen layer and the separate linear and activation ops agree bit for
    bit.  ``slope_bound`` is a tight bound on the slope, for compositional
    Lipschitz estimates.
    """

    def __init__(self, forward, vjp, slope_bound: float, takes: tuple[int, int]):
        self.forward = forward
        self.vjp = vjp
        self.slope_bound = slope_bound
        self.takes = takes

    def __call__(self, a) -> Node:
        a = _as_node(a)
        y, saved = self.forward(a.value, None)
        return Node(y, (a,), (lambda g: self.vjp(g, saved),))


def _sigmoid_into(z, out):
    out = np.negative(z, out=out)
    np.exp(out, out=out)
    np.add(1.0, out, out=out)
    return np.divide(1.0, out, out=out)


def _tanh_forward(z, out, take=_empty):
    t = np.tanh(z, out=out)
    return t, t


def _tanh_vjp(g, t, take=_empty):
    tmp = np.multiply(t, t, out=take(t.shape))
    np.subtract(1.0, tmp, out=tmp)
    return np.multiply(g, tmp, out=tmp)


def _sigmoid_forward(z, out, take=_empty):
    s = _sigmoid_into(z, out)
    return s, s


def _sigmoid_vjp(g, s, take=_empty):
    out = np.multiply(g, s, out=take(s.shape))
    return np.multiply(out, np.subtract(1.0, s, out=take(s.shape)), out=out)


def _silu_forward(z, out, take=_empty):
    s = _sigmoid_into(z, take(z.shape))
    y = np.multiply(z, s, out=out)
    return y, (s, y)


def _silu_vjp(g, saved, take=_empty):
    s, y = saved
    tmp = np.subtract(1.0, s, out=take(s.shape))
    np.multiply(y, tmp, out=tmp)
    np.add(s, tmp, out=tmp)
    return np.multiply(g, tmp, out=tmp)


tanh = Activation(_tanh_forward, _tanh_vjp, 1.0, (0, 1))
sigmoid = Activation(_sigmoid_forward, _sigmoid_vjp, 0.25, (0, 2))
# silu's slope peaks at 1.0998393 (z = 2.3994)
silu = Activation(_silu_forward, _silu_vjp, 1.09984, (1, 1))
identity = Activation(lambda z, out, take=_empty: (z, None),
                      lambda g, saved, take=_empty: g, 1.0, (0, 0))

ACTIVATIONS = {"tanh": tanh, "sigmoid": sigmoid, "silu": silu, "identity": identity}

# the fewest multiply-adds (rows x in x out) of a frozen layer whose rows
# are split among the workers: at the train-wide shape only the 256 -> 3072
# layer's 10^8 reach it, and the batch-64 and Jacobian tapes stay serial.
# A layer with a one-unit side never splits: its products take OpenBLAS's
# matrix-vector path, whose last bits depend on the number of rows
SPLIT_MACS = 4_000_000


def _rows_of(buffers: list[np.ndarray], rows: slice) -> Callable[[tuple], np.ndarray]:
    """A `take` that hands out `rows` of each of `buffers` in turn."""
    it = iter(buffers)
    return lambda shape: next(it)[rows]


def frozen_layer(x, w: np.ndarray, b: np.ndarray, activation: str,
                 extra: Optional[Node] = None) -> Node:
    """``activation(x @ w.T + b + extra)`` as one node, for constant ``w``
    and ``b``; ``extra`` (an adapter's output, or None) is differentiable.

    Same value and gradients as ``ACTIVATIONS[activation](add(linear(x, w,
    b), extra))``, but the activation overwrites the matmul output and the
    tape holds one node instead of four or five.  A wide layer (a batch of
    at least SPLIT_MACS multiply-adds) runs its forward and its vjps in
    `rowblocks.even_blocks` on the worker threads, with the same bits:
    every array a block writes is one this thread took before, so the
    blocks allocate nothing."""
    x = _as_node(x)
    act = ACTIVATIONS[activation]
    shape = x.shape[:-1] + (w.shape[0],)
    blocks = [slice(None)]
    if x.value.ndim == 2 and min(w.shape) > 1 and x.value.size * w.shape[0] >= SPLIT_MACS:
        blocks = rowblocks.even_blocks(x.shape[0])
    y = _empty(shape)
    kept = [_empty(shape) for _ in range(act.takes[0])]
    saved = {}

    def forward(rows):
        z = affine(x.value[rows], w, b, out=y[rows])
        if extra is not None:
            z += extra.value[rows]
        _, saved[rows.start] = act.forward(z, z, _rows_of(kept, rows))

    rowblocks.run_blocks(forward, blocks)

    def vjp_z(g, then=None):
        """The activation's vjp, block by block; `then(dz_rows, rows)` runs
        on each block's result in the same block."""
        buffers = [_empty(shape) for _ in range(act.takes[1])]

        def block(rows):
            dz = act.vjp(g[rows], saved[rows.start], _rows_of(buffers, rows))
            if then is not None:
                then(dz, rows)
        rowblocks.run_blocks(block, blocks)
        return buffers[0] if buffers else g

    def vjp_x(g):
        dx = _empty(x.shape)
        vjp_z(g, lambda dz, rows: np.matmul(dz, w, out=dx[rows]))
        return dx

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


def leaf_grad(grads: dict[int, np.ndarray], leaf: Node) -> np.ndarray:
    """`leaf`'s gradient in a `backprop` result, or zeros of its shape when
    the root does not depend on it (built only then)."""
    g = grads.get(id(leaf))
    return np.zeros_like(leaf.value) if g is None else g


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
        rows.append(leaf_grad(backprop(y, seed), x))
    return np.stack(rows, axis=-2)

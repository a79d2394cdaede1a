"""Reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps an ndarray plus the closure that routes upstream
gradients to its parents. Calling :func:`backward` on a scalar tensor walks
the graph once in reverse topological order and accumulates gradients into
every reachable leaf. Ops never broadcast beyond numpy bias/batch rules;
shape mismatches raise :class:`ShapeError` naming both shapes.
"""
from __future__ import annotations

import numpy as np

from ..errors import ShapeError

_GRAD_ENABLED = True


class no_grad:
    """Context manager: ops performed inside build no backward graph."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    # convenience operators; the named functions below are the primitives
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x))


def _accum(t: Tensor, g: np.ndarray):
    if t.requires_grad:  # constants (inputs, loss weights, scalars) keep no gradient
        t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _make(data, parents, backward_fn):
    req = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    if not req:
        return Tensor(data)
    return Tensor(data, requires_grad=True, _parents=parents, _backward=backward_fn)


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


# ---------------------------------------------------------------------------
# elementwise / linear algebra primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} do not broadcast")

    def back(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _make(out, (a, b), back)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.data.shape} and {b.data.shape} do not broadcast")

    def back(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _make(out, (a, b), back)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.data.shape} and {b.data.shape} do not broadcast")

    def back(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out, (a, b), back)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: shapes {a.data.shape} and {b.data.shape} incompatible")
    out = a.data @ b.data

    def back(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _make(out, (a, b), back)


def sparse_matmul(adj, features) -> Tensor:
    """Constant adjacency times feature rows; gradient flows to features only."""
    x = as_tensor(features)
    adj = np.asarray(adj)
    if adj.ndim != 2 or x.data.ndim != 2 or adj.shape[1] != x.data.shape[0]:
        raise ShapeError(f"sparse_matmul: shapes {adj.shape} and {x.data.shape} incompatible")
    out = adj @ x.data

    def back(g):
        _accum(x, adj.T @ g)

    return _make(out, (x,), back)


def concat(tensors, axis=1) -> Tensor:
    parts = [as_tensor(t) for t in tensors]
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(p, g[tuple(sl)])

    return _make(out, tuple(parts), back)


def gather_rows(x, index) -> Tensor:
    x = as_tensor(x)
    idx = np.asarray(index, dtype=np.intp)
    out = x.data[idx]

    def back(g):
        full = np.zeros_like(x.data)
        np.add.at(full, idx, g)
        _accum(x, full)

    return _make(out, (x,), back)


def take_per_row(x, index) -> Tensor:
    """out[i] = x[i, index[i]] for a 2-D tensor."""
    x = as_tensor(x)
    idx = np.asarray(index, dtype=np.intp)
    rows = np.arange(x.data.shape[0])
    out = x.data[rows, idx]

    def back(g):
        full = np.zeros_like(x.data)
        full[rows, idx] = g
        _accum(x, full)

    return _make(out, (x,), back)


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = np.maximum(x.data, 0)

    def back(g):
        _accum(x, g * (x.data > 0))

    return _make(out, (x,), back)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    out = 1.0 / (1.0 + np.exp(-x.data))

    def back(g):
        _accum(x, g * out * (1.0 - out))

    return _make(out, (x,), back)


def tanh(x) -> Tensor:
    x = as_tensor(x)
    out = np.tanh(x.data)

    def back(g):
        _accum(x, g * (1.0 - out * out))

    return _make(out, (x,), back)


def exp(x) -> Tensor:
    x = as_tensor(x)
    out = np.exp(x.data)

    def back(g):
        _accum(x, g * out)

    return _make(out, (x,), back)


def log(x) -> Tensor:
    x = as_tensor(x)
    out = np.log(x.data)

    def back(g):
        _accum(x, g / x.data)

    return _make(out, (x,), back)


def minimum(a, b) -> Tensor:
    """Elementwise min; gradient follows the smaller operand (ties go to a)."""
    a, b = as_tensor(a), as_tensor(b)
    _check_same_shape(a, b, "minimum")
    take_a = a.data <= b.data
    out = np.where(take_a, a.data, b.data)

    def back(g):
        _accum(a, g * take_a)
        _accum(b, g * ~take_a)

    return _make(out, (a, b), back)


def clamp(x, lo, hi) -> Tensor:
    x = as_tensor(x)
    out = np.clip(x.data, lo, hi)

    def back(g):
        _accum(x, g * ((x.data >= lo) & (x.data <= hi)))

    return _make(out, (x,), back)


# ---------------------------------------------------------------------------
# reductions and losses
# ---------------------------------------------------------------------------

def sum(x, axis=None) -> Tensor:  # noqa: A001 - op name fixed by the module contract
    x = as_tensor(x)
    out = x.data.sum(axis=axis)

    def back(g):
        if axis is None:
            _accum(x, np.broadcast_to(g, x.data.shape).copy())
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy())

    return _make(out, (x,), back)


def mean(x, axis=None) -> Tensor:
    x = as_tensor(x)
    out = x.data.mean(axis=axis)
    n = x.data.size if axis is None else x.data.shape[axis]

    def back(g):
        if axis is None:
            _accum(x, np.broadcast_to(g / n, x.data.shape).copy())
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g, axis) / n, x.data.shape).copy())

    return _make(out, (x,), back)


BCE_EPS = 1e-7


def bce_loss(target, prediction, axis=None) -> Tensor:
    """Binary cross entropy, -mean[t*log(p) + (1-t)*log(1-p)].

    Predictions are clamped to [1e-7, 1-1e-7] before the logs; the gradient
    is zero where the clamp binds. ``axis=None`` averages over every element,
    ``axis=1`` returns the per-row mean.
    """
    t = target.data if isinstance(target, Tensor) else np.asarray(target)
    p = as_tensor(prediction)
    if t.shape != p.data.shape:
        raise ShapeError(f"bce_loss: shapes {t.shape} and {p.data.shape} differ")
    pc = np.clip(p.data, BCE_EPS, 1.0 - BCE_EPS)
    elems = -(t * np.log(pc) + (1.0 - t) * np.log(1.0 - pc))
    if axis is None:
        out = elems.mean()
        n = elems.size
    else:
        out = elems.mean(axis=axis)
        n = elems.shape[axis]
    inside = (p.data > BCE_EPS) & (p.data < 1.0 - BCE_EPS)

    def back(g):
        local = -(t / pc - (1.0 - t) / (1.0 - pc)) * inside / n
        if axis is None:
            _accum(p, g * local)
        else:
            _accum(p, np.expand_dims(g, axis) * local)

    return _make(out, (p,), back)


def mse(a, b) -> Tensor:
    """Mean squared error between two same-shape tensors."""
    a, b = as_tensor(a), as_tensor(b)
    _check_same_shape(a, b, "mse")
    diff = a.data - b.data
    out = np.mean(diff * diff)
    n = diff.size

    def back(g):
        _accum(a, g * 2.0 * diff / n)
        _accum(b, -g * 2.0 * diff / n)

    return _make(out, (a, b), back)


def log_softmax(x) -> Tensor:
    """Row-wise log softmax for a 2-D tensor, numerically stable."""
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"log_softmax: expected 2-D input, got {x.data.shape}")
    m = x.data.max(axis=1, keepdims=True)
    z = x.data - m
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    out = z - lse

    def back(g):
        _accum(x, g - np.exp(out) * g.sum(axis=1, keepdims=True))

    return _make(out, (x,), back)


# ---------------------------------------------------------------------------
# graph traversal
# ---------------------------------------------------------------------------

def topological_order(root: Tensor) -> list:
    """All graph nodes reachable from ``root``, parents before children."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into every reachable leaf's ``.grad``.

    Leaves keep accumulating across calls (zero them between losses);
    interior node gradients are reset on entry so graphs can be shared.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    order = topological_order(loss)
    for node in order:
        if node._backward is not None:
            node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)

"""Reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps an ndarray plus the closure that routes upstream
gradients to its parents. Calling :func:`backward` on a scalar tensor walks
the graph once in reverse topological order and accumulates gradients into
every reachable leaf. Ops never broadcast beyond numpy bias/batch rules;
shape mismatches raise :class:`ShapeError` naming both shapes.

A Python ``int`` or ``float`` operand of :func:`add`, :func:`sub` or
:func:`mul` stays a Python number and is handed to numpy as is. NumPy treats
it as a weak scalar (NEP 50), so the result keeps the array's dtype: a
float32 model computes in float32 throughout, and the scalar adds no node to
the graph.
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
        if not isinstance(data, np.ndarray):  # numpy scalars (reductions) keep their dtype
            data = np.asarray(data, dtype=data.dtype if isinstance(data, np.generic) else np.float64)
        self.data = data
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
        return sub(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x))


def _operand(x):
    """A Tensor for arrays and Tensors; a Python number stays a number."""
    return float(x) if isinstance(x, (int, float)) else as_tensor(x)


def _value(x):
    return x.data if isinstance(x, Tensor) else x


def _needs(x) -> bool:
    """Whether the operand takes a gradient (scalars and constants do not)."""
    return isinstance(x, Tensor) and x.requires_grad


def _accum(t: Tensor, g: np.ndarray):
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
    if _GRAD_ENABLED:
        parents = tuple(p for p in parents if isinstance(p, Tensor))  # scalars are no node
        if any(p.requires_grad for p in parents):
            return Tensor(data, requires_grad=True, _parents=parents, _backward=backward_fn)
    return Tensor(data)


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


# ---------------------------------------------------------------------------
# elementwise / linear algebra primitives
# ---------------------------------------------------------------------------

def _elementwise(op: str, fn, a, b):
    try:
        return fn(_value(a), _value(b))
    except ValueError:
        raise ShapeError(f"{op}: shapes {np.shape(_value(a))} and {np.shape(_value(b))} "
                         "do not broadcast")


def add(a, b) -> Tensor:
    a, b = _operand(a), _operand(b)
    out = _elementwise("add", np.add, a, b)

    def back(g):
        if _needs(a):
            _accum(a, _unbroadcast(g, a.data.shape))
        if _needs(b):
            _accum(b, _unbroadcast(g, b.data.shape))

    return _make(out, (a, b), back)


def sub(a, b) -> Tensor:
    a, b = _operand(a), _operand(b)
    out = _elementwise("sub", np.subtract, a, b)

    def back(g):
        if _needs(a):
            _accum(a, _unbroadcast(g, a.data.shape))
        if _needs(b):
            _accum(b, _unbroadcast(-g, b.data.shape))

    return _make(out, (a, b), back)


def mul(a, b) -> Tensor:
    a, b = _operand(a), _operand(b)
    out = _elementwise("mul", np.multiply, a, b)

    def back(g):
        if _needs(a):
            _accum(a, _unbroadcast(g * _value(b), a.data.shape))
        if _needs(b):
            _accum(b, _unbroadcast(g * _value(a), b.data.shape))

    return _make(out, (a, b), back)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: shapes {a.data.shape} and {b.data.shape} incompatible")
    out = a.data @ b.data

    def back(g):
        if a.requires_grad:
            _accum(a, g @ b.data.T)
        if b.requires_grad:
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
            if p.requires_grad:
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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) written as (1 + tanh(x/2)) / 2, which overflows in no
    dtype (e^-x does below -88 in float32)."""
    return 0.5 + 0.5 * np.tanh(0.5 * x)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    out = _sigmoid(x.data)

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
        if a.requires_grad:
            _accum(a, g * take_a)
        if b.requires_grad:
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


def bce_loss(target, logits, axis=None) -> Tensor:
    """Binary cross entropy of targets t in [0, 1] against Bernoulli logits l.

    Each element is softplus(l) - t*l = -[t log s(l) + (1-t) log(1-s(l))]
    with s the logistic sigmoid. softplus(l) = max(l, 0) + log1p(e^-|l|)
    never overflows, so the value is finite for every finite logit (this is
    ``np.logaddexp(0, l)``, which has no vectorized loop in numpy and is
    ten times slower). The gradient is (s(l) - t)/n, with no clamp, so a
    saturated wrong logit still gets a full-size gradient.
    ``axis=None`` averages over every element, ``axis=1`` returns the
    per-row mean. The target is a constant in the logits' dtype.
    """
    lg = as_tensor(logits)
    t = np.asarray(target.data if isinstance(target, Tensor) else target, dtype=lg.data.dtype)
    if t.shape != lg.data.shape:
        raise ShapeError(f"bce_loss: shapes {t.shape} and {lg.data.shape} differ")
    elems = np.maximum(lg.data, 0) + np.log1p(np.exp(-np.abs(lg.data))) - t * lg.data
    out = elems.mean(axis=axis)
    n = elems.size if axis is None else elems.shape[axis]

    def back(g):
        local = (_sigmoid(lg.data) - t) / n
        _accum(lg, (g if axis is None else np.expand_dims(g, axis)) * local)

    return _make(out, (lg,), back)


def mse(a, b) -> Tensor:
    """Mean squared error between two same-shape tensors."""
    a, b = as_tensor(a), as_tensor(b)
    _check_same_shape(a, b, "mse")
    diff = a.data - b.data
    out = np.mean(diff * diff)
    n = diff.size

    def back(g):
        if a.requires_grad:
            _accum(a, g * 2.0 * diff / n)
        if b.requires_grad:
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

"""Reverse-mode automatic differentiation over numpy arrays.

An op gives the node it builds three things: its forward value, its
``_parents`` and one vector-Jacobian product (VJP) that maps the node's
gradient to any one parent's (see :func:`_make`). The rest of the backward
pass belongs to :func:`backward` alone: it walks the graph once in reverse
topological order, calls the VJP only for parents that require a gradient,
adds each result into the parent's ``.grad`` out of place, and releases an
interior node's gradient as soon as it is passed on, so the pass never holds
a second tape's worth of gradients; leaves keep accumulating. The graph is
left intact, so it can be walked or backpropagated again. Ops never broadcast
beyond numpy bias/batch rules; shape mismatches raise :class:`ShapeError`
naming the shapes.

A node keeps only what its VJP reads; elementwise values are recomputed in
the VJP from the parents instead. Most ops are one numpy expression, and six
nodes each stand for a chain of them, bit for bit; what each saves:

- :func:`graph_conv`, ``relu(A x w)`` (three nodes): its output, whose sign
  is the relu's mask, and A's blocks; the ``w`` slot recomputes ``A x``.
- :func:`gru_cell`, a recurrent step (thirteen nodes): nothing of its own.
  Its VJP recomputes the gates, computes all eight parents' gradients at
  the visit's first slot that needs one and keeps them in ``_saved`` until
  the last.
- :func:`affine` (two nodes) and :func:`sq_dist_rows` (three): nothing.
- :func:`nn.gaussian_sample` (three nodes): its noise.
- :func:`nn.kl_rows` (nine nodes): nothing; its parents are ``(mu, mu,
  log_sigma, log_sigma)``, so each term is added as the chain adds it.

A Python ``int`` or ``float`` operand of :func:`add`, :func:`sub` or
:func:`mul` stays a Python number and is handed to numpy as is. NumPy treats
it as a weak scalar (NEP 50), so the result keeps the array's dtype: a
float32 model computes in float32 throughout, and the scalar adds no node to
the graph.
"""
from __future__ import annotations

from itertools import accumulate

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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_saved",
                 "__weakref__")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None, _saved=None):
        if not isinstance(data, np.ndarray):  # numpy scalars (reductions) keep their dtype
            data = np.asarray(data, dtype=data.dtype if isinstance(data, np.generic) else np.float64)
        self.data = data
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward  # the node's VJP; None for leaves and constants
        self._saved = _saved  # what the VJP needs besides .data and ._parents

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    # convenience operators; the named functions below are the primitives
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x))


def _operand(x):
    """A Tensor for arrays and Tensors; a Python number stays a number."""
    return float(x) if isinstance(x, (int, float)) else as_tensor(x)


def _value(x):
    return x.data if isinstance(x, Tensor) else x


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


def _spread(grad, shape: tuple, axis) -> np.ndarray:
    """Spread a reduction's gradient back over the reduced operand's shape."""
    if axis is not None:
        grad = np.expand_dims(grad, axis)
    return np.broadcast_to(grad, shape).copy()


def _make(data, parents, vjp, saved=None):
    """The op's output node; it joins the graph only if a parent requires a gradient.

    ``vjp(g, node, k)`` returns the gradient of ``node._parents[k]`` given the
    node's gradient ``g`` (Python numbers are dropped from ``parents``, so
    ``k`` counts Tensor operands). It is a module-level function that reads
    only ``node``: its value, its parents and ``node._saved``, which holds
    ``saved``. So a node holds no closure. A VJP may return ``g`` itself or
    one array for two slots, and may keep results in ``node._saved`` for the
    later slots of the same visit (:func:`gru_cell`)."""
    if _GRAD_ENABLED:
        parents = tuple(p for p in parents if isinstance(p, Tensor))  # scalars are no node
        if any(p.requires_grad for p in parents):
            return Tensor(data, True, parents, vjp, saved)
    return Tensor(data)


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


# ---------------------------------------------------------------------------
# elementwise / linear algebra primitives
# ---------------------------------------------------------------------------

def _elementwise(op: str, fn, a, b):
    try:
        return fn(a, b)
    except ValueError:
        raise ShapeError(f"{op}: shapes {np.shape(a)} and {np.shape(b)} do not broadcast")


def _broadcasting(op: str, fn, vjp, a, b) -> Tensor:
    """add/sub/mul: ``fn`` under numpy broadcasting; both operand values are saved."""
    a, b = _operand(a), _operand(b)
    av, bv = _value(a), _value(b)
    return _make(_elementwise(op, fn, av, bv), (a, b), vjp, (av, bv))


def _first(k, a) -> bool:
    """Whether parent ``k`` is the first operand (a Python-number one is no parent)."""
    return k == 0 and not isinstance(a, float)


def _vjp_add(g, node, k):
    return _unbroadcast(g, node._parents[k].data.shape)


def _vjp_sub(g, node, k):
    return _unbroadcast(g if _first(k, node._saved[0]) else -g, node._parents[k].data.shape)


def _vjp_mul(g, node, k):
    a, b = node._saved
    return _unbroadcast(g * (b if _first(k, a) else a), node._parents[k].data.shape)


def add(a, b) -> Tensor:
    return _broadcasting("add", np.add, _vjp_add, a, b)


def sub(a, b) -> Tensor:
    return _broadcasting("sub", np.subtract, _vjp_sub, a, b)


def mul(a, b) -> Tensor:
    return _broadcasting("mul", np.multiply, _vjp_mul, a, b)


def _vjp_affine(g, node, k):
    x, w, b = node._parents
    if k == 2:
        return _unbroadcast(g, b.data.shape)
    return g @ w.data.T if k == 0 else x.data.T @ g


def affine(x, w, b) -> Tensor:
    """``x @ w + b`` for a 2-D ``x`` and a bias broadcast over its rows, as one
    node: the values and gradients of a product node and a bias-add node,
    without keeping the pre-bias product alive on the tape."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"affine: shapes {x.data.shape} and {w.data.shape} incompatible")
    return _make(_elementwise("affine", np.add, x.data @ w.data, b.data), (x, w, b), _vjp_affine)


def _blockwise(blocks, x: np.ndarray) -> np.ndarray:
    """The block-diagonal operator of ``blocks`` times the rows of ``x``."""
    if len(blocks) == 1:
        return blocks[0] @ x
    at = tuple(accumulate((b.shape[0] for b in blocks), initial=0))
    return np.concatenate([b @ x[lo:hi] for b, lo, hi in zip(blocks, at, at[1:])])


def _vjp_sparse_matmul(g, node, k):
    return _blockwise([b.T for b in node._saved], g)


def sparse_matmul(blocks, features) -> Tensor:
    """A constant block-diagonal operator times feature rows; the gradient
    flows to the features only.

    ``blocks`` is a sequence of the operator's square diagonal blocks, in row
    order: one block for a whole matrix, or one per stacked graph. Each block
    multiplies its own rows of ``features``, so the full operator is never
    built, and the node saves the blocks themselves, not copies."""
    x, blocks, rows = as_tensor(features), tuple(blocks), 0
    for b in blocks:  # a bare matrix fails here: its items are 1-D rows
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ShapeError(f"sparse_matmul: a block of shape {b.shape} is not a square matrix")
        rows += b.shape[0]
    if x.data.ndim != 2 or rows != x.data.shape[0] or not blocks:
        raise ShapeError(f"sparse_matmul: blocks of {rows} rows in all and features of "
                         f"shape {x.data.shape} incompatible")
    return _make(_blockwise(blocks, x.data), (x,), _vjp_sparse_matmul, blocks)


def _vjp_graph_conv(g, node, k):
    x, w = node._parents
    g = g * (node.data > 0)  # relu(v) > 0 exactly where v > 0
    if k == 0:
        return _blockwise([b.T for b in node._saved], g @ w.data.T)
    return _blockwise(node._saved, x.data).T @ g  # the block product, recomputed


def graph_conv(blocks, x, w) -> Tensor:
    """One graph-convolution layer, ``relu(A x w)`` with ``A`` the constant
    block-diagonal operator of ``blocks`` (as in :func:`sparse_matmul`), as
    one node over ``(x, w)`` that saves its output and the blocks: the values
    and gradients of a :func:`sparse_matmul` node followed by a product node
    and a relu node. The ``w`` slot recomputes ``A x`` instead of keeping it."""
    x, w, blocks = as_tensor(x), as_tensor(w), tuple(blocks)
    if w.data.ndim != 2 or x.data.shape[1:2] != w.data.shape[:1]:
        raise ShapeError(f"graph_conv: features {x.data.shape} and weights {w.data.shape} "
                         f"incompatible")
    # sparse_matmul checks the blocks and builds no node on a constant; its
    # product is freed right after the multiply, not held through the relu
    out = np.maximum(sparse_matmul(blocks, x.data).data @ w.data, 0)
    return _make(out, (x, w), _vjp_graph_conv, blocks)


def _vjp_concat(g, node, k):
    axis, offsets = node._saved
    sl = [slice(None)] * g.ndim
    sl[axis] = slice(offsets[k], offsets[k + 1])
    return g[tuple(sl)]


def concat(tensors, axis=1) -> Tensor:
    parts = [as_tensor(t) for t in tensors]
    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        shapes = ", ".join(str(p.data.shape) for p in parts)
        raise ShapeError(f"concat: shapes {shapes} do not join along axis {axis}")
    offsets = tuple(accumulate((p.data.shape[axis] for p in parts), initial=0))
    return _make(out, tuple(parts), _vjp_concat, (axis, offsets))


def _vjp_gather_rows(g, node, k):
    full = np.zeros_like(node._parents[0].data)
    np.add.at(full, node._saved, g)
    return full


def gather_rows(x, index) -> Tensor:
    x = as_tensor(x)
    idx = np.asarray(index, dtype=np.intp)
    return _make(x.data[idx], (x,), _vjp_gather_rows, idx)


def _vjp_take_per_row(g, node, k):
    full = np.zeros_like(node._parents[0].data)
    full[node._saved] = g  # the (rows, index) pairs the forward read
    return full


def take_per_row(x, index) -> Tensor:
    """out[i] = x[i, index[i]] for a 2-D tensor."""
    x = as_tensor(x)
    rows, idx = np.arange(x.data.shape[0]), np.asarray(index, dtype=np.intp)
    return _make(x.data[rows, idx], (x,), _vjp_take_per_row, (rows, idx))


def _vjp_relu(g, node, k):
    return g * (node._parents[0].data > 0)


def relu(x) -> Tensor:
    x = as_tensor(x)
    return _make(np.maximum(x.data, 0), (x,), _vjp_relu)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) written as (1 + tanh(x/2)) / 2, which overflows in no
    dtype (e^-x does below -88 in float32)."""
    return 0.5 + 0.5 * np.tanh(0.5 * x)


def _vjp_exp(g, node, k):
    return g * node.data


def exp(x) -> Tensor:
    x = as_tensor(x)
    return _make(np.exp(x.data), (x,), _vjp_exp)


def _vjp_minimum(g, node, k):
    return g * node._saved if k == 0 else g * ~node._saved


def minimum(a, b) -> Tensor:
    """Elementwise min; gradient follows the smaller operand (ties go to a)."""
    a, b = as_tensor(a), as_tensor(b)
    _check_same_shape(a, b, "minimum")
    take_a = a.data <= b.data
    return _make(np.where(take_a, a.data, b.data), (a, b), _vjp_minimum, take_a)


def _vjp_clamp(g, node, k):
    lo, hi = node._saved
    x = node._parents[0].data
    return g * ((x >= lo) & (x <= hi))


def clamp(x, lo, hi) -> Tensor:
    x = as_tensor(x)
    return _make(np.clip(x.data, lo, hi), (x,), _vjp_clamp, (lo, hi))


def _vjp_sq_dist_rows(g, node, k):
    g = np.expand_dims(g, 1) * (node._parents[0].data - node._parents[1].data)
    g = g + g  # d(dev * dev), summed as the two slots of a product accumulate it
    return g if k == 0 else -g


def sq_dist_rows(a, b) -> Tensor:
    """Per-row ``sum((a - b)^2, axis=1)`` of two same-shape matrices as one
    node that saves nothing: the same values and gradients as
    ``sum(mul(d, d), axis=1)`` with ``d = sub(a, b)``."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or a.data.shape != b.data.shape:
        raise ShapeError(f"sq_dist_rows: shapes {a.data.shape} and {b.data.shape} "
                         f"are not one 2-D shape")
    dev = a.data - b.data
    return _make((dev * dev).sum(axis=1), (a, b), _vjp_sq_dist_rows)


def _vjp_splice(g, node, k):
    return g * node._saved


def splice(x, value, grad) -> Tensor:
    """A scalar node of value ``value`` whose gradient with respect to ``x``
    is ``grad`` times its own.

    It stands in for a scalar term of ``x`` whose own backward pass has
    already run, ``grad`` being d(term)/dx: the larger graph takes the
    term's value and gradient without keeping the term's graph alive."""
    x = as_tensor(x)
    value, grad = np.asarray(value), np.asarray(grad)
    if value.shape != () or grad.shape != x.data.shape:
        raise ShapeError(f"splice: value shape {value.shape} and gradient shape "
                         f"{grad.shape} for an operand of shape {x.data.shape}")
    return _make(value, (x,), _vjp_splice, grad)


# ---------------------------------------------------------------------------
# the GRU cell
# ---------------------------------------------------------------------------

_GRU_PARAMS = ("w_z", "b_z", "w_r", "b_r", "w_n", "b_n")


def _gru_gates(x, h, w_z, b_z, w_r, b_r, w_n, b_n):
    """[x, h], z, r, [x, r*h] and n of one step; the forward pass and the VJP
    both compute them here, so the VJP's recomputed gates are the forward's bits."""
    xh = np.concatenate([x, h], axis=1)
    z = _sigmoid(xh @ w_z + b_z)
    r = _sigmoid(xh @ w_r + b_r)
    xrh = np.concatenate([x, r * h], axis=1)
    return xh, z, r, xrh, np.tanh(xrh @ w_n + b_n)


def _gru_grads(g, node) -> list:
    """The gradients of all eight parents in slot order (``None`` for x and
    h when neither requires one). Each sum runs in the order in which the
    cell written as 13 separate ops accumulates it, so both give the same
    bits."""
    x, h, w_z, b_z, w_r, b_r, w_n, b_n = (p.data for p in node._parents)
    xh, z, r, xrh, n = _gru_gates(x, h, w_z, b_z, w_r, b_r, w_n, b_n)
    k = x.shape[1]
    g_n = g * z * (1.0 - n * n)
    g_xrh = g_n @ w_n.T
    g_rh = g_xrh[:, k:]
    g_r = g_rh * h * r * (1.0 - r)
    g_z = (g * n - g * h) * z * (1.0 - z)
    grads = [None, None, xh.T @ g_z, _unbroadcast(g_z, b_z.shape),
             xh.T @ g_r, _unbroadcast(g_r, b_r.shape),
             xrh.T @ g_n, _unbroadcast(g_n, b_n.shape)]
    if node._parents[0].requires_grad or node._parents[1].requires_grad:
        g_xh = g_z @ w_z.T + g_r @ w_r.T
        grads[0] = g_xh[:, :k] + g_xrh[:, :k]
        grads[1] = g * (1.0 - z) + g_rh * r + g_xh[:, k:]
    return grads


def _vjp_gru_cell(g, node, k):
    # the first call of a backward visit computes every parent's gradient
    # (keyed by g, so a pass that raised part-way leaves nothing stale); the
    # call for the last parent that requires one releases them
    pending = node._saved
    if pending is None or pending[0] is not g:
        pending = node._saved = (g, _gru_grads(g, node))
    if not any(p.requires_grad for p in node._parents[k + 1:]):
        node._saved = None
    return pending[1][k]


def gru_cell(x, h, params) -> Tensor:
    """One gated-recurrent-unit step, as one node.

    z = sigmoid(W_z [x, h] + b_z)
    r = sigmoid(W_r [x, h] + b_r)
    n = tanh(W_n [x, r*h] + b_n)
    h' = (1 - z) * h + z * n

    ``params`` holds the gate weights ``w_z``, ``w_r`` and ``w_n``, of shape
    (x width + h width, h width), and the biases ``b_z``, ``b_r`` and ``b_n``,
    of shape (h width,). The parents are ``(x, h, w_z, b_z, w_r, b_r, w_n,
    b_n)``. The node saves no gate: its VJP recomputes z, r and n from the
    parents, and ``_saved`` holds only the gradients pending within one
    backward visit."""
    x, h = as_tensor(x), as_tensor(h)
    weights = [as_tensor(params[name]) for name in _GRU_PARAMS]
    xd, hd = x.data, h.data
    if xd.ndim != 2 or hd.ndim != 2 or xd.shape[0] != hd.shape[0]:
        raise ShapeError(f"gru_cell: x {xd.shape} and h {hd.shape} are not row-aligned 2-D")
    width = hd.shape[1]
    for name, p in zip(_GRU_PARAMS, weights):
        want = (xd.shape[1] + width, width) if name[0] == "w" else (width,)
        if p.data.shape != want:
            raise ShapeError(f"gru_cell: {name} has shape {p.data.shape}, expected {want} "
                             f"for x {xd.shape} and h {hd.shape}")
    _, z, _, _, n = _gru_gates(xd, hd, *(p.data for p in weights))
    return _make((1.0 - z) * hd + z * n, (x, h, *weights), _vjp_gru_cell)


# ---------------------------------------------------------------------------
# reductions and losses
# ---------------------------------------------------------------------------

def _vjp_sum(g, node, k):
    return _spread(g, node._parents[0].data.shape, node._saved)


def sum(x, axis=None) -> Tensor:  # noqa: A001 - op name fixed by the module contract
    x = as_tensor(x)
    return _make(x.data.sum(axis=axis), (x,), _vjp_sum, axis)


def _vjp_mean(g, node, k):
    x, axis = node._parents[0].data, node._saved
    return _spread(g / (x.size if axis is None else x.shape[axis]), x.shape, axis)


def mean(x, axis=None) -> Tensor:
    x = as_tensor(x)
    return _make(x.data.mean(axis=axis), (x,), _vjp_mean, axis)


def _vjp_bce_loss(g, node, k):
    t, axis = node._saved
    local = (_sigmoid(node._parents[0].data) - t) / (t.size if axis is None else t.shape[axis])
    return (g if axis is None else np.expand_dims(g, axis)) * local


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
    return _make(elems.mean(axis=axis), (lg,), _vjp_bce_loss, (t, axis))


def _vjp_mse(g, node, k):
    diff = node._saved
    return (g if k == 0 else -g) * 2.0 * diff / diff.size


def mse(a, b) -> Tensor:
    """Mean squared error between two same-shape tensors."""
    a, b = as_tensor(a), as_tensor(b)
    _check_same_shape(a, b, "mse")
    diff = a.data - b.data
    return _make(np.mean(diff * diff), (a, b), _vjp_mse, diff)


def _vjp_log_softmax(g, node, k):
    return g - np.exp(node.data) * g.sum(axis=1, keepdims=True)


def log_softmax(x) -> Tensor:
    """Row-wise log softmax for a 2-D tensor, numerically stable."""
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"log_softmax: expected 2-D input, got {x.data.shape}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return _make(out, (x,), _vjp_log_softmax)


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
        if not node._parents:  # a leaf comes straight back off the stack
            order.append(node)
            continue
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _propagate(node: Tensor):
    """Pass ``node.grad`` on: each parent that requires a gradient gets its
    VJP's result added to its ``.grad``. Slots are walked by index, so a
    tensor in two slots takes both contributions."""
    g, vjp, k = node.grad, node._backward, 0
    for p in node._parents:
        if p.requires_grad:
            pg = vjp(g, node, k)
            # out of place: a VJP may hand the same array to several parents
            p.grad = pg if p.grad is None else p.grad + pg
        k += 1


def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into every reachable leaf's ``.grad``.

    Leaves keep accumulating across calls (zero them between losses). Each
    interior node's gradient is set to ``None`` once it has been passed on,
    so only the gradients still on their way to the leaves are held, and
    every interior ``.grad`` is ``None`` afterwards. Parents and VJPs stay,
    so a graph shared by several losses can be backpropagated once per loss.
    """
    if loss.data.shape != ():
        raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    order = topological_order(loss)
    for node in order:  # left over only if an earlier pass raised part-way
        if node._backward is not None:
            node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            _propagate(node)
            node.grad = None

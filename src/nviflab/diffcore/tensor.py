"""Reverse-mode automatic differentiation over numpy arrays.

An op gives the node it builds three things: its forward value, its
``_parents`` and one vector-Jacobian product (VJP) that maps the node's
gradient to any one parent's (see :func:`_make`). The rest of the backward
pass belongs to :func:`backward` alone: it walks the graph once in reverse
topological order, calls the VJP only for parents that require a gradient,
adds each result into the parent's ``.grad`` out of place, and releases an
interior node's gradient as soon as it is passed on, so the pass never holds
a second tape's worth of gradients; a leaf's lives until an optimizer step.
The graph is left intact, so it can be walked or backpropagated again. Ops
never broadcast beyond numpy bias/batch rules; shape mismatches raise
:class:`ShapeError` naming the shapes.

A node keeps only what its VJP reads; elementwise values are recomputed in
the VJP from the parents instead. Most ops are one numpy expression, and six
nodes each stand for a chain of them, bit for bit; what each saves:

- :func:`flow_gru_cell`, an encoder timestep (two stacks of graph-conv
  layers ``relu(A x w)``, three nodes each, and a thirteen-node GRU cell):
  A's (E, n, n) stack of diagonal blocks (see :func:`sparse_matmul`). Its
  VJP recomputes every layer's ``A x`` and output and the gates, computes all
  parents' gradients at the visit's first slot that needs one and keeps them
  in ``_saved`` until the last.
- :func:`nn.log_sigma_head` (affine and clamp, three nodes): nothing; its
  VJP recomputes ``x @ w + b`` at a visit's first slot, as the cell does.
- :func:`centered_sq_dist_rows` (four nodes): C's (E, n, n) blocks; its
  parents are ``(x, x)``, and its first slot computes the gradient of both.
- :func:`affine` (two nodes): nothing.
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

from functools import partial
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
    later slots of the same visit (:func:`_once_per_visit`)."""
    if _GRAD_ENABLED:
        parents = tuple(p for p in parents if isinstance(p, Tensor))  # scalars are no node
        if any(p.requires_grad for p in parents):
            return Tensor(data, True, parents, vjp, saved)
    return Tensor(data)


def _once_per_visit(g, node, k, pending, compute):
    """``compute(g, node)``, run at a visit's first slot and kept as ``pending
    = (g, result)`` (keyed by g: a pass that raised part-way leaves nothing
    stale) until its last: (result, what the node keeps for the next slot)."""
    if pending is None or pending[0] is not g:
        pending = (g, compute(g, node))
    last = not any(p.requires_grad for p in node._parents[k + 1:])
    return pending[1], None if last else pending


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


def _affine(op: str, x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b`` of :func:`affine`; ``op`` names the caller in errors."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"{op}: shapes {x.shape} and {w.shape} incompatible")
    xw = x @ w
    add = partial(np.add, out=xw if np.result_type(xw, b) == xw.dtype else None)
    return _elementwise(op, add, xw, b)


def affine(x, w, b) -> Tensor:
    """``x @ w + b`` for a 2-D ``x`` and a bias broadcast over its rows, as one
    node: the values and gradients of a product node and a bias-add node,
    without keeping the pre-bias product alive on the tape. The bias is added
    in place unless that narrows the product's dtype, so a call makes one array."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    return _make(_affine("affine", x.data, w.data, b.data), (x, w, b), _vjp_affine)


def _blockwise(op: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The block-diagonal operator of the (E, n, n) ``op`` times the (E*n, w)
    rows of ``x``: one batched product, or the 2-D one when E is 1."""
    if len(op) == 1:
        return op[0] @ x
    e, n, _ = op.shape
    return (op @ x.reshape(e, n, -1)).reshape(e * n, -1)


def _vjp_sparse_matmul(g, node, k):
    return _blockwise(node._saved.transpose(0, 2, 1), g)


def sparse_matmul(op, features) -> Tensor:
    """A constant block-diagonal operator times feature rows; the gradient
    flows to the features only.

    ``op`` is an (E, n, n) array of the operator's diagonal blocks: one block
    for a whole matrix, or one per stacked graph, each multiplying its own n
    rows of the (E*n, w) ``features``. A slot with a zero row and column in
    its block neither reads nor feeds the other rows. The full operator is
    never built, and the node saves ``op`` itself, not a copy."""
    x = as_tensor(features)
    if (not isinstance(op, np.ndarray) or op.ndim != 3 or op.shape[1] != op.shape[2]
            or not len(op) or x.data.ndim != 2 or len(op) * op.shape[1] != len(x.data)):
        raise ShapeError(f"sparse_matmul: an operator of shape {np.shape(op)} and features "
                         f"of shape {x.data.shape} incompatible")
    return _make(_blockwise(op, x.data), (x,), _vjp_sparse_matmul, op)


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
    dtype (e^-x does below -88 in float32); computed in place in one new array."""
    out = np.multiply(0.5, x)
    np.tanh(out, out=out)
    np.multiply(0.5, out, out=out)
    return np.add(0.5, out, out=out)


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


def _dist_grad(g, node):
    op, x = node._saved[0], node._parents[0].data
    g = np.expand_dims(g, 1) * (x - _blockwise(op, x))
    return g + g  # d(dev * dev), summed as the two slots of a product accumulate it


def _vjp_centered_sq_dist_rows(g, node, k):
    op, pending = node._saved
    g, pending = _once_per_visit(g, node, k, pending, _dist_grad)
    node._saved = (op, pending)
    return g if k == 0 else _blockwise(op.transpose(0, 2, 1), -g)


def centered_sq_dist_rows(op, x) -> Tensor:
    """Per-row ``sum((x - C x)^2, axis=1)``, ``C`` the constant (E, n, n)
    operator ``op`` (see :func:`sparse_matmul`), as one node over ``(x, x)``
    that saves ``op`` (and within a backward visit its pending gradient): slot
    1 takes the term through ``C x``, so values and gradients are those of
    ``d = sub(x, sparse_matmul(op, x))`` and ``sum(mul(d, d), axis=1)``."""
    x = as_tensor(x)
    dev = x.data - _checked_blockwise(op, x.data)
    return _make((dev * dev).sum(axis=1), (x, x), _vjp_centered_sq_dist_rows, (op, None))


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
# the encoder cell: two graph-conv stacks feeding a GRU
# ---------------------------------------------------------------------------

_GRU_PARAMS = ("w_z", "b_z", "w_r", "b_r", "w_n", "b_n")


def _check_gru(op: str, x: np.ndarray, h: np.ndarray, weights):
    """A GRU's input ``x`` and state ``h`` are row-aligned matrices, and its
    ``weights`` (in :data:`_GRU_PARAMS` order) fit their widths."""
    if x.ndim != 2 or h.ndim != 2 or x.shape[0] != h.shape[0]:
        raise ShapeError(f"{op}: x {x.shape} and h {h.shape} are not row-aligned 2-D")
    width = h.shape[1]
    for name, p in zip(_GRU_PARAMS, weights):
        want = (x.shape[1] + width, width) if name[0] == "w" else (width,)
        if p.shape != want:
            raise ShapeError(f"{op}: {name} has shape {p.shape}, expected {want} "
                             f"for x {x.shape} and h {h.shape}")


def _gru_gates(x, h, w_z, b_z, w_r, b_r, w_n, b_n):
    """[x, h], z, r, [x, r*h] and n of one step; the forward pass and the VJP
    both compute them here, so the VJP's recomputed gates are the forward's bits."""
    xh = np.concatenate([x, h], axis=1)
    z = _sigmoid(xh @ w_z + b_z)
    r = _sigmoid(xh @ w_r + b_r)
    xrh = np.concatenate([x, r * h], axis=1)
    return xh, z, r, xrh, np.tanh(xrh @ w_n + b_n)


def _gru_grads(g, x, h, weights, need_xh: bool) -> list:
    """The GRU step's gradients, ``g`` being its output's, in the order
    ``(x, h, *weights)``; x and h get ``None`` unless ``need_xh``. Each sum
    runs in the order in which the cell written as 13 separate ops
    accumulates it, so both give the same bits."""
    w_z, b_z, w_r, b_r, w_n, b_n = weights
    xh, z, r, xrh, n = _gru_gates(x, h, *weights)
    k = x.shape[1]
    g_n = g * z * (1.0 - n * n)
    g_xrh = g_n @ w_n.T
    g_rh = g_xrh[:, k:]
    g_r = g_rh * h * r * (1.0 - r)
    g_z = (g * n - g * h) * z * (1.0 - z)
    grads = [None, None, xh.T @ g_z, _unbroadcast(g_z, b_z.shape),
             xh.T @ g_r, _unbroadcast(g_r, b_r.shape),
             xrh.T @ g_n, _unbroadcast(g_n, b_n.shape)]
    if need_xh:
        g_xh = g_z @ w_z.T + g_r @ w_r.T
        grads[0] = g_xh[:, :k] + g_xrh[:, :k]
        grads[1] = g * (1.0 - z) + g_rh * r + g_xh[:, k:]
    return grads


def _checked_blockwise(op, x: np.ndarray) -> np.ndarray:
    """``_blockwise`` through :func:`sparse_matmul`, which checks the operator."""
    return sparse_matmul(op, x).data


def _flow(op, x, weights, product):
    """The graph-conv layers ``relu(A x w)`` over ``x``, ``product(op, x)``
    being ``A x``: each layer's ``(A x, output)``, and the last output."""
    acts = []
    for w in weights:
        if w.ndim != 2 or x.shape[1:2] != w.shape[:1]:
            raise ShapeError(f"flow_gru_cell: features {x.shape} and layer weights "
                             f"{w.shape} incompatible")
        ax = product(op, x)
        x = np.maximum(ax @ w, 0)
        acts.append((ax, x))
    return acts, x


def _flow_back(op, acts, weights, g, need_x: bool):
    """The gradients of the layers of ``acts``, ``g`` being their output's:
    the input's (``None`` unless ``need_x``) and the weights'. Each layer's
    are those of a block product, a product and a relu node."""
    grads, op_t = [None] * len(weights), op.transpose(0, 2, 1)
    for i in reversed(range(len(weights))):
        ax, out = acts[i]
        g = g * (out > 0)  # relu(v) > 0 exactly where v > 0
        grads[i] = ax.T @ g
        g = _blockwise(op_t, g @ weights[i].T) if i or need_x else None
    return g, grads


def _flow_gru_grads(g, node) -> list:
    """The gradients of all the cell's parents in slot order, from its
    recomputed layers and gates (``None`` for an input that takes none)."""
    op, n_o, _ = node._saved
    feats, hidden, *weights = node._parents
    w_o, w_h, w_gru = ([p.data for p in part] for part in
                       (weights[:n_o], weights[n_o:-6], weights[-6:]))
    acts_o, phi = _flow(op, feats.data, w_o, _blockwise)
    acts_h, psi = _flow(op, hidden.data, w_h, _blockwise)
    g_phi, g_psi, *g_gru = _gru_grads(g, phi, psi, w_gru, True)
    g_feats, g_o = _flow_back(op, acts_o, w_o, g_phi, feats.requires_grad)
    g_hidden, g_h = _flow_back(op, acts_h, w_h, g_psi, hidden.requires_grad)
    return [g_feats, g_hidden, *g_o, *g_h, *g_gru]


def _vjp_flow_gru_cell(g, node, k):
    op, n_o, pending = node._saved
    grads, pending = _once_per_visit(g, node, k, pending, _flow_gru_grads)
    node._saved = (op, n_o, pending)
    return grads[k]


def flow_gru_cell(op, feats, hidden, flow_o, flow_h, gru) -> Tensor:
    """One encoder timestep as one node: two stacks of graph-convolution
    layers feeding a GRU cell.

    phi = F_o(feats) and psi = F_h(hidden), where F applies ``x <- relu(A x
    w)`` for each weight of ``flow_o`` or ``flow_h`` and ``A`` is the constant
    block-diagonal operator whose (E, n, n) blocks are ``op`` (each ``A x`` is
    a :func:`sparse_matmul`). The value is the GRU step with input phi and
    state psi:

    z = sigmoid(W_z [phi, psi] + b_z),  r = sigmoid(W_r [phi, psi] + b_r)
    n = tanh(W_n [phi, r*psi] + b_n),   h' = (1 - z) * psi + z * n

    ``gru`` maps ``w_z``, ``w_r`` and ``w_n``, of shape (phi width + psi
    width, psi width), and ``b_z``, ``b_r`` and ``b_n``, of shape (psi
    width,). The parents are ``(feats, hidden, *flow_o, *flow_h, w_z, b_z,
    w_r, b_r, w_n, b_n)``, and values and gradients are those of the layers
    and the cell as separate nodes. The node saves ``op``; its VJP
    recomputes every layer and gate."""
    feats, hidden = as_tensor(feats), as_tensor(hidden)
    w_o, w_h = [as_tensor(w) for w in flow_o], [as_tensor(w) for w in flow_h]
    w_gru = [as_tensor(gru[name]) for name in _GRU_PARAMS]
    _, phi = _flow(op, feats.data, [w.data for w in w_o], _checked_blockwise)
    _, psi = _flow(op, hidden.data, [w.data for w in w_h], _checked_blockwise)
    _check_gru("flow_gru_cell", phi, psi, [p.data for p in w_gru])
    _, z, _, _, n = _gru_gates(phi, psi, *(p.data for p in w_gru))
    return _make((1.0 - z) * psi + z * n, (feats, hidden, *w_o, *w_h, *w_gru),
                 _vjp_flow_gru_cell, (op, len(w_o), None))


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
    grad = _sigmoid(node._parents[0].data)
    np.subtract(grad, t, out=grad)
    np.divide(grad, t.size if axis is None else t.shape[axis], out=grad)
    g = g if axis is None else np.expand_dims(g, axis)
    # a gradient of a wider dtype than the logits' widens the result
    return np.multiply(g, grad, out=grad if g.dtype == grad.dtype else None)


def bce_loss(target, logits, axis=None, work=None) -> Tensor:
    """Binary cross entropy of targets t in [0, 1] against Bernoulli logits l.

    Each element is softplus(l) - t*l = -[t log s(l) + (1-t) log(1-s(l))]
    with s the logistic sigmoid. softplus(l) = max(l, 0) + log1p(e^-|l|)
    never overflows, so the value is finite for every finite logit (this is
    ``np.logaddexp(0, l)``, which has no vectorized loop in numpy and is
    ten times slower). The gradient is (s(l) - t)/n, with no clamp, so a
    saturated wrong logit still gets a full-size gradient.
    ``axis=None`` averages over every element, ``axis=1`` returns the
    per-row mean. The target is a constant in the logits' dtype.

    The elementwise terms are computed in place in two arrays: ``work``, a
    pair of C-contiguous arrays of the logits' shape and dtype (one
    ``(2, *shape)`` array will do) that must not overlap the logits or the
    target, or two new arrays when ``work`` is None. A workspace is
    overwritten on each call and never kept by the node, so a training loop
    can pass the same one every step; a workspace that does not fit raises
    :class:`ShapeError`. The value and gradient are the same bits either way.
    """
    lg = as_tensor(logits)
    x = lg.data
    t = np.asarray(target.data if isinstance(target, Tensor) else target, dtype=x.dtype)
    if t.shape != x.shape:
        raise ShapeError(f"bce_loss: shapes {t.shape} and {x.shape} differ")
    if work is None:
        a, b = np.empty_like(x), np.empty_like(x)
    elif len(work) != 2 or not all(isinstance(w, np.ndarray) and w.shape == x.shape
                                   and w.dtype == x.dtype and w.flags.c_contiguous
                                   for w in work):
        given = [f"{np.shape(w)} {getattr(w, 'dtype', type(w).__name__)}" for w in work]
        raise ShapeError(f"bce_loss: workspace {given} does not fit logits {x.shape} {x.dtype} "
                         "(two C-contiguous arrays of their shape and dtype)")
    else:
        a, b = work
    np.maximum(x, 0, out=a)
    np.abs(x, out=b)
    np.negative(b, out=b)
    np.exp(b, out=b)
    np.log1p(b, out=b)
    np.add(a, b, out=a)
    np.multiply(t, x, out=b)
    np.subtract(a, b, out=a)
    return _make(a.mean(axis=axis), (lg,), _vjp_bce_loss, (t, axis))


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
    """Add d(loss)/d(leaf) into every reachable leaf's ``.grad``.

    A leaf's gradient sums the passes since it was last ``None`` (a fresh or
    loaded store, or ``optimizer_step``). Its first gradient is the VJP's own
    array, maybe shared with another leaf, so no ``.grad`` is ever modified in
    place; later ones are added out of place, in the gradients' dtype. Each
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

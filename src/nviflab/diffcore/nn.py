"""Network building blocks: linear layers, the relu MLP, the GRU cell's
parameters, reparameterized sampling and the Gaussian KL divergence. The GRU
cell itself is one primitive node, :func:`tensor.gru_cell`, and the sample
and the divergence are one node each as well."""
from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .tensor import Tensor, _check_same_shape, _make, _spread, affine, as_tensor, relu

LOG_SIGMA_MIN = -10.0
LOG_SIGMA_MAX = 4.0


def init_linear(rng: np.random.Generator, fan_in: int, fan_out: int,
                dtype=np.float32, scale: float | None = None):
    """Weight/bias arrays with N(0, scale^2) weights; scale defaults to sqrt(2/fan_in)."""
    if scale is None:
        scale = np.sqrt(2.0 / fan_in)
    w = (rng.standard_normal((fan_in, fan_out)) * scale).astype(dtype)
    b = np.zeros(fan_out, dtype=dtype)
    return w, b


def init_mlp(store, prefix: str, widths: list[int], rng: np.random.Generator,
             dtype=np.float32, out_scale: float | None = None):
    """Register ``prefix`` w1, b1, w2, b2, ... for the width chain, in that order.

    Hidden layers use the default He scale; the output layer uses ``out_scale``.
    """
    n_layers = len(widths) - 1
    for layer, (fin, fout) in enumerate(zip(widths[:-1], widths[1:]), start=1):
        w, b = init_linear(rng, fin, fout, dtype,
                           scale=out_scale if layer == n_layers else None)
        store.add(f"{prefix}w{layer}", w)
        store.add(f"{prefix}b{layer}", b)


def mlp(x, store, prefix: str) -> Tensor:
    """Affine layers registered by :func:`init_mlp`, relu between them and
    none after the last."""
    h = affine(x, store[f"{prefix}w1"], store[f"{prefix}b1"])
    layer = 2
    while f"{prefix}w{layer}" in store:
        h = affine(relu(h), store[f"{prefix}w{layer}"], store[f"{prefix}b{layer}"])
        layer += 1
    return h


def init_gru(rng: np.random.Generator, input_width: int, hidden_width: int, dtype=np.float32):
    """Parameter dict for :func:`tensor.gru_cell`; gate weights act on [x, h]."""
    params = {}
    for gate in ("z", "r", "n"):
        w, b = init_linear(rng, input_width + hidden_width, hidden_width, dtype,
                           scale=np.sqrt(1.0 / (input_width + hidden_width)))
        params[f"w_{gate}"] = w
        params[f"b_{gate}"] = b
    return params


def _vjp_gaussian_sample(g, node, k):
    return g if k == 0 else g * node._saved * np.exp(node._parents[1].data)


def gaussian_sample(mu, log_sigma, rng: np.random.Generator) -> Tensor:
    """Reparameterized draw mu + exp(log_sigma) * eps, eps ~ N(0, I) from
    ``rng`` in the dtype of ``mu``. One node over (mu, log_sigma) that saves
    only eps: the values and gradients of ``add(mu, mul(exp(log_sigma), eps))``."""
    mu, log_sigma = as_tensor(mu), as_tensor(log_sigma)
    _check_same_shape(mu, log_sigma, "gaussian_sample")
    eps = rng.standard_normal(mu.data.shape).astype(mu.data.dtype)
    return _make(mu.data + np.exp(log_sigma.data) * eps, (mu, log_sigma),
                 _vjp_gaussian_sample, eps)


def _vjp_kl_rows(g, node, k):
    mu, log_sigma = node._parents[0].data, node._parents[2].data
    gp = _spread(g * 0.5, mu.shape, 1)
    if k < 2:
        return gp * mu
    return (gp * np.exp(log_sigma * 2.0)) * 2.0 if k == 2 else (-gp) * 2.0


def kl_rows(mu, log_sigma) -> Tensor:
    """Per-row ``0.5 * sum_d(mu*mu + exp(log_sigma*2) - 1 - log_sigma*2)``
    of two (rows, d) matrices as one node that saves nothing. Its parents are
    ``(mu, mu, log_sigma, log_sigma)``, one slot per operand use, so it gives
    the values and gradients of that expression built from nine nodes."""
    mu, log_sigma = as_tensor(mu), as_tensor(log_sigma)
    if mu.data.ndim != 2 or mu.data.shape != log_sigma.data.shape:
        raise ShapeError(f"kl_rows: shapes {mu.data.shape} and {log_sigma.data.shape} "
                         f"are not one 2-D shape")
    ls2 = log_sigma.data * 2.0
    per_dim = mu.data * mu.data + np.exp(ls2) - 1.0 - ls2
    return _make(per_dim.sum(axis=1) * 0.5, (mu, mu, log_sigma, log_sigma), _vjp_kl_rows)

"""Stacked graph-convolution layers that mix neighbor features.

Each layer computes ReLU(A_hat @ H @ W) where A_hat is the symmetric
normalized adjacency; L layers give L rounds of exchange per timestep.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..diffcore import ParamStore, Tensor, init_linear, matmul, relu, sparse_matmul
from ..errors import ShapeError


@dataclass
class FlowNetParams:
    weights: list[Tensor]


def init_flownet(store: ParamStore, prefix: str, widths: list[int],
                 rng: np.random.Generator, dtype=np.float32) -> FlowNetParams:
    """Register layer weights ``prefix/w0..`` for the given width chain."""
    if len(widths) < 2:
        raise ValueError("flownet needs at least one layer (two widths)")
    weights = []
    for layer, (fin, fout) in enumerate(zip(widths[:-1], widths[1:])):
        w, _ = init_linear(rng, fin, fout, dtype)
        weights.append(store.add(f"{prefix}/w{layer}", w))
    return FlowNetParams(weights=weights)


def flownet_forward(features, adj: np.ndarray, params: FlowNetParams) -> Tensor:
    feats = features if isinstance(features, Tensor) else Tensor(features)
    if feats.data.shape[0] != adj.shape[0]:
        raise ShapeError(
            f"flownet_forward: {feats.data.shape[0]} feature rows vs "
            f"{adj.shape[0]}-agent adjacency")
    h = feats
    for w in params.weights:
        h = relu(matmul(sparse_matmul(adj, h), w))
    return h

"""Stacked graph-convolution layers that mix neighbor features.

Each layer computes ReLU(A_hat @ H @ W) where A_hat is the symmetric
normalized adjacency; L layers give L rounds of exchange per timestep.
A_hat comes as its diagonal blocks (see :func:`diffcore.sparse_matmul`):
one per graph, so stacked graphs never exchange features. A layer is two
nodes: A_hat @ H, which the weight gradient reads, and :func:`diffcore.matmul_relu`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..diffcore import ParamStore, Tensor, init_linear, matmul_relu, sparse_matmul


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


def flownet_forward(features, blocks, params: FlowNetParams) -> Tensor:
    """The layers over feature rows; ``blocks`` are A_hat's diagonal blocks
    in row order, and rows that match no block raise :class:`ShapeError`."""
    h = features if isinstance(features, Tensor) else Tensor(features)
    for w in params.weights:
        h = matmul_relu(sparse_matmul(blocks, h), w)
    return h

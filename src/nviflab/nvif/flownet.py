"""Stacked graph-convolution layers that mix neighbor features.

Each layer computes ReLU(A_hat @ H @ W) where A_hat is the symmetric
normalized adjacency; L layers give L rounds of exchange per timestep.
A_hat comes as its diagonal blocks (see :func:`diffcore.sparse_matmul`):
one per graph, so stacked graphs never exchange features. This module
registers the layer weights; the encoder's two FlowNets and its GRU run as
one node, :func:`diffcore.flow_gru_cell`, which keeps only A_hat's blocks
and recomputes every layer's A_hat @ H and output in its backward pass.
"""
from __future__ import annotations

import numpy as np

from ..diffcore import ParamStore, Tensor, init_linear


def init_flownet(store: ParamStore, prefix: str, widths: list[int],
                 rng: np.random.Generator, dtype=np.float32) -> list[Tensor]:
    """Register layer weights ``prefix/w0..`` for the given width chain and
    return them in layer order."""
    if len(widths) < 2:
        raise ValueError("flownet needs at least one layer (two widths)")
    weights = []
    for layer, (fin, fout) in enumerate(zip(widths[:-1], widths[1:])):
        w, _ = init_linear(rng, fin, fout, dtype)
        weights.append(store.add(f"{prefix}/w{layer}", w))
    return weights

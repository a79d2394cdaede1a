"""Adaptive-moment gradient descent over a ParamStore."""
from __future__ import annotations

import numpy as np

from .params import ParamStore


def optimizer_step(store: ParamStore, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update from the gradients currently held by the store.

    Moment buffers live in ``store.moments`` and persist across calls (and
    across checkpoint save/load). Missing gradients count as zero.
    """
    store.step_count += 1
    t = store.step_count
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name in store.names():
        p = store[name]
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        bufs = store.moments.get(name)
        if bufs is None:
            bufs = {"m": np.zeros_like(p.data), "v": np.zeros_like(p.data)}
            store.moments[name] = bufs
        bufs["m"] = beta1 * bufs["m"] + (1.0 - beta1) * g
        bufs["v"] = beta2 * bufs["v"] + (1.0 - beta2) * (g * g)
        m_hat = bufs["m"] / bc1
        v_hat = bufs["v"] / bc2
        p.data = p.data - (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(p.data.dtype)


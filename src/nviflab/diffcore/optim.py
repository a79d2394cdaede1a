"""Adam (arXiv 1412.6980) over a ParamStore: one multi-tensor update per flat
buffer of the store, in place. Adam is elementwise, so this is the per-
parameter update's float arithmetic, in the same order and with the same
weak-scalar rounding (``tests/conftest.py`` keeps that update as the
oracle). A graph backpropagated after a step reads the stepped parameters,
and a store's gradients are what ``backward`` added since its last step.
"""
from __future__ import annotations

import numpy as np

from .params import ParamStore


def optimizer_step(store: ParamStore, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update from the gradients the store holds, each taken in its
    parameter's dtype and a missing one as zero; then every ``.grad`` is ``None``."""
    store.step_count += 1
    t = store.step_count
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for buf in store.buffers.values():
        g = np.concatenate([np.zeros_like(p.data) if p.grad is None else p.grad
                            for p in buf.tensors], axis=None, dtype=buf.data.dtype)
        for p in buf.tensors:
            p.grad = None
        if buf.m is None:
            buf.m, buf.v = np.zeros_like(buf.data), np.zeros_like(buf.data)
        buf.m *= beta1
        buf.m += (1.0 - beta1) * g
        buf.v *= beta2
        g *= g
        buf.v += (1.0 - beta2) * g
        np.sqrt(np.divide(buf.v, bc2, out=g), out=g)  # g is now the denominator
        g += eps
        step = buf.m / bc1
        step *= lr
        buf.data -= np.divide(step, g, out=step)

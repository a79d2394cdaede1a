"""Minimal reverse-mode differentiable numerics."""
from .nn import (
    LOG_SIGMA_MAX,
    LOG_SIGMA_MIN,
    gaussian_sample,
    init_gru,
    init_linear,
    init_mlp,
    kl_rows,
    mlp,
)
from .optim import optimizer_step
from .params import ParamStore, load_checkpoint, save_checkpoint
from .tensor import (
    Tensor,
    add,
    affine,
    as_tensor,
    backward,
    bce_loss,
    clamp,
    concat,
    exp,
    gather_rows,
    graph_conv,
    gru_cell,
    log_softmax,
    mean,
    minimum,
    mse,
    mul,
    no_grad,
    relu,
    sparse_matmul,
    splice,
    sq_dist_rows,
    sub,
    sum,
    take_per_row,
    topological_order,
)

__all__ = [
    "LOG_SIGMA_MAX", "LOG_SIGMA_MIN", "ParamStore", "Tensor", "add", "affine",
    "as_tensor", "backward", "bce_loss", "clamp", "concat", "exp", "gather_rows",
    "gaussian_sample", "graph_conv", "gru_cell", "init_gru", "init_linear", "init_mlp",
    "kl_rows", "load_checkpoint", "log_softmax", "mean", "minimum",
    "mlp", "mse", "mul", "no_grad", "optimizer_step", "relu", "save_checkpoint",
    "sparse_matmul", "splice", "sq_dist_rows", "sub", "sum",
    "take_per_row", "topological_order",
]

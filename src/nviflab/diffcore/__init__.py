"""Minimal reverse-mode differentiable numerics."""
from .nn import (
    LOG_SIGMA_MAX,
    LOG_SIGMA_MIN,
    gaussian_sample,
    gru_cell,
    init_gru,
    init_linear,
    init_mlp,
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
    log_softmax,
    matmul,
    mean,
    minimum,
    mse,
    mul,
    no_grad,
    relu,
    sigmoid,
    sparse_matmul,
    sub,
    sum,
    take_per_row,
    tanh,
    topological_order,
)

__all__ = [
    "LOG_SIGMA_MAX", "LOG_SIGMA_MIN", "ParamStore", "Tensor", "add", "affine",
    "as_tensor", "backward", "bce_loss", "clamp", "concat", "exp", "gather_rows",
    "gaussian_sample", "gru_cell", "init_gru", "init_linear", "init_mlp",
    "load_checkpoint", "log_softmax", "matmul", "mean", "minimum", "mlp",
    "mse", "mul", "no_grad", "optimizer_step", "relu", "save_checkpoint",
    "sigmoid", "sparse_matmul", "sub", "sum", "take_per_row", "tanh",
    "topological_order",
]

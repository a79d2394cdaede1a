"""Minimal reverse-mode differentiable numerics."""
from .nn import (
    LOG_SIGMA_MAX,
    LOG_SIGMA_MIN,
    gaussian_sample,
    init_gru,
    init_linear,
    init_mlp,
    kl_rows,
    log_sigma_head,
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
    centered_sq_dist_rows,
    clamp,
    concat,
    exp,
    flow_gru_cell,
    gather_rows,
    log_softmax,
    mean,
    minimum,
    mse,
    mul,
    no_grad,
    relu,
    sparse_matmul,
    splice,
    sub,
    sum,
    take_per_row,
    topological_order,
)

__all__ = [
    "LOG_SIGMA_MAX", "LOG_SIGMA_MIN", "ParamStore", "Tensor", "add", "affine",
    "as_tensor", "backward", "bce_loss", "centered_sq_dist_rows", "clamp", "concat", "exp",
    "flow_gru_cell", "gather_rows", "gaussian_sample", "init_gru", "init_linear", "init_mlp",
    "kl_rows", "load_checkpoint", "log_sigma_head", "log_softmax", "mean", "minimum",
    "mlp", "mse", "mul", "no_grad", "optimizer_step", "relu", "save_checkpoint",
    "sparse_matmul", "splice", "sub", "sum",
    "take_per_row", "topological_order",
]

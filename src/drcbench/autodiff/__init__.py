"""Dense tensors, reverse-mode differentiation, Adadelta, and checkpoints."""

from .checkpoint import load_checkpoint, save_checkpoint
from .ops import (
    BatchNormState,
    add,
    batchnorm,
    center_crop,
    concat,
    conv1d,
    conv2d,
    crop,
    dense,
    dropout,
    flatten,
    global_avg_pool,
    glorot_uniform,
    maxpool1d,
    maxpool2d,
    mean_axis,
    mse_loss,
    relu,
    sub,
)
from .optim import Adadelta
from .tensor import Tensor

__all__ = [
    "Adadelta",
    "BatchNormState",
    "Tensor",
    "add",
    "batchnorm",
    "center_crop",
    "concat",
    "conv1d",
    "conv2d",
    "crop",
    "dense",
    "dropout",
    "flatten",
    "global_avg_pool",
    "glorot_uniform",
    "load_checkpoint",
    "maxpool1d",
    "maxpool2d",
    "mean_axis",
    "mse_loss",
    "relu",
    "save_checkpoint",
    "sub",
]

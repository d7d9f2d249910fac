"""Differentiable operations: exactly the layer set the models need.

Conventions: batch axis first, channels last. Convolutions are valid
(no padding) cross-correlations at stride 1, so output length per spatial
axis is ``in - k + 1``. Pooling windows equal their stride.
``crop`` exists so residual additions can align the shorter output of a
valid convolution with its skip path.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError, ShapeError
from .tensor import Tensor, result_tensor


# ---------------------------------------------------------------------------
# elementwise / structural


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two equal-shape tensors (residual merge)."""
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    out = result_tensor(a.data + b.data, (a, b), "add")
    if out.requires_grad:
        def _backward(g):
            if a.requires_grad:
                a.accumulate_grad(g)
            if b.requires_grad:
                b.accumulate_grad(g)
        out._backward = _backward
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a - b (the siamese merge)."""
    if a.shape != b.shape:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} differ")
    out = result_tensor(a.data - b.data, (a, b), "sub")
    if out.requires_grad:
        def _backward(g):
            if a.requires_grad:
                a.accumulate_grad(g)
            if b.requires_grad:
                b.accumulate_grad(-g)
        out._backward = _backward
    return out


def relu(x: Tensor) -> Tensor:
    out = result_tensor(np.maximum(x.data, 0), (x,), "relu")
    if out.requires_grad:
        mask = x.data > 0
        def _backward(g):
            x.accumulate_grad(g * mask)
        out._backward = _backward
    return out


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: training-mode survivors are scaled by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise DomainError(f"dropout rate must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    out = result_tensor(x.data * keep, (x,), "dropout")
    if out.requires_grad:
        def _backward(g):
            x.accumulate_grad(g * keep)
        out._backward = _backward
    return out


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """View the data in a new shape; the gradient is reshaped back."""
    out = result_tensor(x.data.reshape(shape), (x,), "reshape")
    if out.requires_grad:
        def _backward(g):
            x.accumulate_grad(g.reshape(x.shape))
        out._backward = _backward
    return out


def flatten(x: Tensor) -> Tensor:
    """Collapse all non-batch axes: (N, ...) -> (N, prod)."""
    return reshape(x, (x.shape[0], -1))


def crop(x: Tensor, axis: int, begin: int, end: int) -> Tensor:
    """Slice [begin, end) along one axis; gradient zero-pads back."""
    length = x.shape[axis]
    if not (0 <= begin < end <= length):
        raise ShapeError(f"crop: [{begin}, {end}) invalid for axis {axis} of length {length}")
    index = [slice(None)] * x.data.ndim
    index[axis] = slice(begin, end)
    index = tuple(index)
    out = result_tensor(x.data[index], (x,), "crop")
    if out.requires_grad:
        def _backward(g):
            full = np.zeros_like(x.data)
            full[index] = g
            x.accumulate_grad(full)
        out._backward = _backward
    return out


def center_crop(x: Tensor, axis: int, target: int) -> Tensor:
    """Crop an axis to ``target`` length, trimming evenly from both ends."""
    extra = x.shape[axis] - target
    if extra < 0:
        raise ShapeError(f"center_crop: axis {axis} of {x.shape[axis]} shorter than {target}")
    if extra == 0:
        return x
    begin = extra // 2
    return crop(x, axis, begin, begin + target)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    out = result_tensor(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), "concat")
    if out.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        def _backward(g):
            offset = 0
            for t, size in zip(tensors, sizes):
                if t.requires_grad:
                    index = [slice(None)] * g.ndim
                    index[axis] = slice(offset, offset + size)
                    t.accumulate_grad(g[tuple(index)])
                offset += size
        out._backward = _backward
    return out


def mean_axis(x: Tensor, axis: int) -> Tensor:
    """Mean over one axis (used to collapse frequency before temporal convs)."""
    out = result_tensor(x.data.mean(axis=axis), (x,), "mean_axis")
    if out.requires_grad:
        scale = 1.0 / x.shape[axis]
        def _backward(g):
            x.accumulate_grad(np.repeat(np.expand_dims(g * scale, axis), x.shape[axis], axis=axis))
        out._backward = _backward
    return out


def global_avg_pool(x: Tensor) -> Tensor:
    """(N, ...spatial..., C) -> (N, C), averaging over the spatial axes."""
    if x.data.ndim < 3:
        raise ShapeError(f"global_avg_pool: rank must be >= 3, got shape {x.shape}")
    spatial = tuple(range(1, x.data.ndim - 1))
    out = result_tensor(x.data.mean(axis=spatial), (x,), "global_avg_pool")
    if out.requires_grad:
        count = int(np.prod([x.shape[a] for a in spatial]))
        def _backward(g):
            expanded = g.reshape(g.shape[0], *([1] * len(spatial)), g.shape[-1])
            x.accumulate_grad(np.broadcast_to(expanded / count, x.shape).copy())
        out._backward = _backward
    return out


# ---------------------------------------------------------------------------
# dense / loss


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine layer: (N, D) @ (D, M) + (M,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"dense: cannot multiply {x.shape} by {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"dense: bias {b.shape} does not match output width {w.shape[1]}")
    out = result_tensor(x.data @ w.data + b.data, (x, w, b), "dense")
    if out.requires_grad:
        def _backward(g):
            if x.requires_grad:
                x.accumulate_grad(g @ w.data.T)
            if w.requires_grad:
                w.accumulate_grad(x.data.T @ g)
            if b.requires_grad:
                b.accumulate_grad(g.sum(axis=0))
        out._backward = _backward
    return out


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error against a constant target."""
    target = np.asarray(target, dtype=pred.dtype)
    if target.shape != pred.shape:
        raise ShapeError(f"mse_loss: prediction {pred.shape} vs target {target.shape}")
    diff = pred.data - target
    out = result_tensor(np.asarray(np.mean(diff * diff), dtype=pred.dtype), (pred,), "mse_loss")
    if out.requires_grad:
        scale = 2.0 / diff.size
        def _backward(g):
            pred.accumulate_grad(scale * diff * g)
        out._backward = _backward
    return out


# ---------------------------------------------------------------------------
# convolutions (valid cross-correlation, stride 1)


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x: (N, H, W, C), w: (kh, kw, C, F), b: (F,) -> (N, Ho, Wo, F)."""
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-D input/kernel, got {x.shape} and {w.shape}")
    n, h, width, c = x.shape
    kh, kw, cin, f = w.shape
    if cin != c:
        raise ShapeError(f"conv2d: input channels {c} != kernel channels {cin}")
    if kh > h or kw > width:
        raise ShapeError(f"conv2d: kernel ({kh}, {kw}) larger than input ({h}, {width})")
    ho, wo = h - kh + 1, width - kw + 1

    data = np.zeros((n, ho, wo, f), dtype=x.dtype)
    flat = data.reshape(-1, f)
    for i in range(kh):
        for j in range(kw):
            xs = x.data[:, i:i + ho, j:j + wo, :]
            flat += xs.reshape(-1, c) @ w.data[i, j]
    data += b.data
    out = result_tensor(data, (x, w, b), "conv2d")
    if out.requires_grad:
        def _backward(g):
            gf = g.reshape(-1, f)
            if b.requires_grad:
                b.accumulate_grad(gf.sum(axis=0))
            if w.requires_grad:
                dw = np.empty_like(w.data)
                for i in range(kh):
                    for j in range(kw):
                        xs = x.data[:, i:i + ho, j:j + wo, :]
                        dw[i, j] = xs.reshape(-1, c).T @ gf
                w.accumulate_grad(dw)
            if x.requires_grad:
                dx = np.zeros_like(x.data)
                for i in range(kh):
                    for j in range(kw):
                        patch = (gf @ w.data[i, j].T).reshape(n, ho, wo, c)
                        dx[:, i:i + ho, j:j + wo, :] += patch
                x.accumulate_grad(dx)
        out._backward = _backward
    return out


def conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x: (N, L, C), w: (k, C, F), b: (F,) -> (N, Lo, F).

    A view of ``conv2d`` on a singleton height axis: (N, 1, L, C) by (1, k, C, F).
    """
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ShapeError(f"conv1d: expected 3-D input/kernel, got {x.shape} and {w.shape}")
    n, length, c = x.shape
    out = conv2d(reshape(x, (n, 1, length, c)), reshape(w, (1, *w.shape)), b)
    return reshape(out, (n, out.shape[2], out.shape[3]))


# ---------------------------------------------------------------------------
# pooling (window == stride, valid truncation at the edge)


def maxpool2d(x: Tensor, window: tuple[int, int] = (2, 2)) -> Tensor:
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2d: expected 4-D input, got {x.shape}")
    ph, pw = window
    n, h, width, c = x.shape
    if ph < 1 or pw < 1:
        raise DomainError(f"maxpool2d: window must be >= 1, got {window}")
    ho, wo = h // ph, width // pw
    if ho == 0 or wo == 0:
        raise ShapeError(f"maxpool2d: window {window} larger than input ({h}, {width})")
    xc = x.data[:, :ho * ph, :wo * pw, :]
    windows = xc.reshape(n, ho, ph, wo, pw, c).transpose(0, 1, 3, 5, 2, 4)
    flat = windows.reshape(n, ho, wo, c, ph * pw)
    idx = flat.argmax(axis=-1)
    data = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    out = result_tensor(data, (x,), "maxpool2d")
    if out.requires_grad:
        def _backward(g):
            buf = np.zeros((n, ho, wo, c, ph * pw), dtype=g.dtype)
            np.put_along_axis(buf, idx[..., None], g[..., None], axis=-1)
            dxc = buf.reshape(n, ho, wo, c, ph, pw).transpose(0, 1, 4, 2, 5, 3)
            dx = np.zeros_like(x.data)
            dx[:, :ho * ph, :wo * pw, :] = dxc.reshape(n, ho * ph, wo * pw, c)
            x.accumulate_grad(dx)
        out._backward = _backward
    return out


def maxpool1d(x: Tensor, window: int = 3) -> Tensor:
    """(N, L, C) -> (N, L // window, C): ``maxpool2d`` on a singleton height axis."""
    if x.data.ndim != 3:
        raise ShapeError(f"maxpool1d: expected 3-D input, got {x.shape}")
    n, length, c = x.shape
    out = maxpool2d(reshape(x, (n, 1, length, c)), (1, window))
    return reshape(out, (n, out.shape[2], c))


# ---------------------------------------------------------------------------
# batch normalization


class BatchNormState:
    """Running statistics buffers (not optimized, saved in checkpoints)."""

    def __init__(self, channels: int, dtype=np.float32):
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)


def batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
              training: bool, momentum: float = 0.9, eps: float = 1e-5) -> Tensor:
    """Normalize over all non-channel axes; channels are the last axis.

    Training mode standardizes with batch statistics and folds them into the
    running averages (``new = momentum * old + (1 - momentum) * batch``);
    inference standardizes with the stored averages.
    """
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batchnorm: gamma/beta must have shape ({c},)")
    axes = tuple(range(x.data.ndim - 1))
    m = int(np.prod([x.shape[a] for a in axes]))

    if training:
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        state.running_mean = (momentum * state.running_mean + (1 - momentum) * mu).astype(
            state.running_mean.dtype)
        state.running_var = (momentum * state.running_var + (1 - momentum) * var).astype(
            state.running_var.dtype)
    else:
        mu = state.running_mean.astype(x.dtype)
        var = state.running_var.astype(x.dtype)

    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv_std
    out = result_tensor(gamma.data * xhat + beta.data, (x, gamma, beta), "batchnorm")
    if out.requires_grad:
        def _backward(g):
            if gamma.requires_grad:
                gamma.accumulate_grad((g * xhat).sum(axis=axes))
            if beta.requires_grad:
                beta.accumulate_grad(g.sum(axis=axes))
            if x.requires_grad:
                dxhat = g * gamma.data
                if training:
                    # full batch-stat gradient: mean/var depend on x
                    centered = x.data - mu
                    dvar = (dxhat * centered).sum(axis=axes) * (-0.5) * inv_std ** 3
                    dmu = (-dxhat * inv_std).sum(axis=axes)
                    dx = dxhat * inv_std + (2.0 / m) * centered * dvar + dmu / m
                else:
                    dx = dxhat * inv_std
                x.accumulate_grad(dx)
        out._backward = _backward
    return out


# ---------------------------------------------------------------------------
# initialization


def glorot_uniform(shape: tuple[int, ...], fan_in: int, fan_out: int,
                   rng: np.random.Generator, dtype=np.float32) -> np.ndarray:
    """Glorot/Xavier uniform draw: U(-limit, limit), limit = sqrt(6/(fi+fo))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)

"""Differentiable building blocks used by the spiking transformer.

All functions take and return :class:`~repro.autograd.tensor.Tensor` objects
and are differentiable through the engine in :mod:`repro.autograd.tensor`.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "linear",
    "conv2d",
    "batch_norm",
    "log_softmax",
    "softmax",
    "cross_entropy",
    "dropout",
    "one_hot",
]


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias``.

    ``x`` has shape ``(..., in_features)``; ``weight`` is
    ``(out_features, in_features)`` following the PyTorch convention the paper
    assumes for its projection layers.
    """
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def _im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> tuple[np.ndarray, int, int]:
    """Unfold ``(B, C, H, W)`` into ``(B, C*kh*kw, OH*OW)`` patches."""
    b, c, h, w = x.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    sb, sc, sh, sw = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(b, c, kh, kw, oh, ow),
        strides=(sb, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    cols = patches.reshape(b, c * kh * kw, oh * ow)
    return np.ascontiguousarray(cols), oh, ow


def _col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
    oh: int,
    ow: int,
) -> np.ndarray:
    """Adjoint of :func:`_im2col`: scatter-add columns back to image layout."""
    b, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    out = np.zeros((b, c, hp, wp), dtype=np.float64)
    cols6 = cols.reshape(b, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols6[
                :, :, i, j
            ]
    if padding:
        out = out[:, :, padding : padding + h, padding : padding + w]
    return out


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution via im2col.

    ``x``: ``(B, C, H, W)``; ``weight``: ``(O, C, kh, kw)``.  Used by the
    spiking tokenizer, where the paper's complexity analysis gives
    ``O(T·H·W·C²·K²)``.
    """
    o, c, kh, kw = weight.shape
    cols, oh, ow = _im2col(x.data, kh, kw, stride, padding)
    w_mat = weight.data.reshape(o, c * kh * kw)
    out_data = np.einsum("ok,bkp->bop", w_mat, cols, optimize=True)
    out_data = out_data.reshape(x.shape[0], o, oh, ow)
    if bias is not None:
        out_data = out_data + bias.data[None, :, None, None]

    parents = [x, weight] + ([bias] if bias is not None else [])

    def backward(grad: np.ndarray, out=None) -> None:
        grad_flat = grad.reshape(grad.shape[0], o, oh * ow)
        if weight.requires_grad:
            grad_w = np.einsum("bop,bkp->ok", grad_flat, cols, optimize=True)
            out._send(weight, grad_w.reshape(weight.shape))
        if x.requires_grad:
            grad_cols = np.einsum("ok,bop->bkp", w_mat, grad_flat, optimize=True)
            out._send(x, _col2im(grad_cols, x.shape, kh, kw, stride, padding, oh, ow))
        if bias is not None and bias.requires_grad:
            out._send(bias, grad.sum(axis=(0, 2, 3)))

    out = Tensor._make(out_data, tuple(parents), lambda g: backward(g, out=out))
    return out


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
    axis: tuple[int, ...] | None = None,
) -> Tensor:
    """Batch normalization over every axis except the feature axis (last).

    The spiking transformer follows Spikformer in using BN (not LayerNorm)
    after each projection; at inference BN folds into the weights, so the
    accelerator never sees it — here it only shapes training.
    ``running_mean``/``running_var`` are updated in place when training.
    """
    if axis is None:
        axis = tuple(range(x.ndim - 1))
    if training:
        mean = x.mean(axis=axis, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=axis, keepdims=True)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.data.reshape(-1)
        running_var *= 1.0 - momentum
        running_var += momentum * var.data.reshape(-1)
        inv_std = (var + eps) ** -0.5
        normalized = centered * inv_std
    else:
        normalized = (x - running_mean) * ((running_var + eps) ** -0.5)
    return normalized * gamma + beta


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels ``(B,)`` to one-hot ``(B, num_classes)`` float array."""
    labels = np.asarray(labels)
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits (B, C)`` and integer ``labels (B,)``.

    This is the ``L_CE`` term of the paper's BSA objective
    ``L_tot = L_CE + λ·L_bsp`` (Sec. 4.1).
    """
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError(f"expected (B, C) logits, got shape {logits.shape}")
    log_probs = log_softmax(logits, axis=-1)
    picked = log_probs * one_hot(labels, logits.shape[-1])
    return -picked.sum() * (1.0 / logits.shape[0])


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(np.float64) / keep
    return x * as_tensor(mask)

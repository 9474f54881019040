"""Differentiable convolution, unfold (im2col) and pooling primitives.

All spatial operators work on tensors with layout ``(N, C, H, W)`` — batch,
channels, height, width — matching the convention used throughout the paper's
CNN experiments.  The array-level kernels (``im2col`` / ``col2im`` /
``conv_output_size``) live in :mod:`repro.tensor.ops` next to the registered
ops that use them and are re-exported here; the functions below are thin
Tensor-level wrappers that dispatch through the graph executor.

The ``conv2d`` op fuses im2col with the filter matmul: every call extracts
its own patch matrix, in training and inference alike, so concurrent
forwards share no buffers.  ``im2col`` stages the padded input once in NHWC
layout and fills the patches with K² slice copies; ``col2im`` adds the
patches back into an NHWC buffer one kernel offset at a time, in row-major
order, and copies it to NCHW once; ``max_pool2d`` scans a contiguous stack
of window slots, and the first maximum (or first NaN) of each window wins.
``tests/test_fused_identity.py`` pins the bytes of all three.
"""

from __future__ import annotations

from .engine import apply_op
from .ops import col2im, conv_output_size, im2col  # noqa: F401  (re-exported)
from .tensor import Tensor

__all__ = [
    "conv_output_size",
    "im2col",
    "col2im",
    "unfold",
    "conv2d",
    "max_pool2d",
    "global_avg_pool2d",
]


def unfold(x: Tensor, kernel_size: int, stride: int = 1, padding: int = 0) -> Tensor:
    """Differentiable im2col.

    Returns a tensor of shape ``(N, out_h, out_w, C * k * k)``; gradients are
    scattered back with :func:`col2im`.  This is the building block for neuron
    types that need explicit access to the receptive-field vector (for example
    the general quadratic neuron ``xᵀMx``).
    """
    return apply_op("unfold", x, kernel_size=kernel_size, stride=stride, padding=padding)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1,
           padding: int = 0) -> Tensor:
    """2-D cross-correlation (the deep-learning "convolution").

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Filters of shape ``(C_out, C_in, K, K)``.
    bias:
        Optional bias of shape ``(C_out,)``.
    """
    if bias is None:
        return apply_op("conv2d", x, weight, stride=stride, padding=padding)
    return apply_op("conv2d", x, weight, bias, stride=stride, padding=padding)


def max_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Max pooling with square windows (no padding)."""
    return apply_op("max_pool2d", x, kernel_size=kernel_size, stride=stride)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the full spatial extent, returning ``(N, C)``."""
    return x.mean(axis=(2, 3))

"""Standard (linear-neuron) layers: dense, convolution, pooling, dropout, embedding.

These are the building blocks of the baseline networks the paper compares
against; the quadratic counterparts live in :mod:`repro.quadratic`.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, conv2d, max_pool2d, global_avg_pool2d
from ..tensor import functional as F
from ..tensor.fused import linear as fused_linear
from . import init
from .module import Module, Parameter

__all__ = [
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "Embedding",
]


class Linear(Module):
    """Fully connected layer ``y = x Wᵀ + b`` built from linear neurons."""

    neuron_formula = "linear"

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng, gain=1.0))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return fused_linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features})"


class Conv2d(Module):
    """2-D convolution layer with square kernels."""

    neuron_formula = "linear"

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_normal((out_channels, in_channels, kernel_size, kernel_size), rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def __repr__(self) -> str:
        return (f"Conv2d(in={self.in_channels}, out={self.out_channels}, "
                f"k={self.kernel_size}, stride={self.stride}, padding={self.padding})")


class MaxPool2d(Module):
    """Max pooling over square windows."""

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return max_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    """Average over the full spatial extent, collapsing ``(N, C, H, W)`` to ``(N, C)``."""

    def forward(self, x: Tensor) -> Tensor:
        return global_avg_pool2d(x)


class Flatten(Module):
    """Flatten all dimensions after the batch dimension."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)


class Dropout(Module):
    """Inverted dropout, active only in training mode."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        self.p = p
        self.rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, rng=self.rng)


class Embedding(Module):
    """Token embedding lookup table used by the Transformer models."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: np.random.Generator | None = None, padding_idx: int | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        weight = init.normal((num_embeddings, embedding_dim), rng, std=embedding_dim ** -0.5)
        if padding_idx is not None:
            weight[padding_idx] = 0.0
        self.weight = Parameter(weight)

    def forward(self, token_ids: np.ndarray) -> Tensor:
        token_ids = np.asarray(token_ids, dtype=np.int64)
        return self.weight[token_ids]

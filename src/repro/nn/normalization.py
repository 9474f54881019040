"""Normalization layers: batch normalization for CNNs, layer normalization for Transformers."""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor
from ..tensor.fused import layer_norm
from .module import Module, Parameter

__all__ = ["BatchNorm2d", "BatchNorm1d", "LayerNorm"]


class _BatchNormBase(Module):
    """Shared implementation of 1-D and 2-D batch normalization."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1,
                 affine: bool = True):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.affine = affine
        if affine:
            self.weight = Parameter(np.ones(num_features, dtype=np.float32))
            self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))

    def _normalize(self, x: Tensor, reduce_axes: tuple, shape: tuple) -> Tensor:
        if self.training:
            # One set of reductions serves both the normalization graph and
            # the running-statistics update (read back from .data), and the
            # centered activations are shared with the variance.
            mean = x.mean(axis=reduce_axes, keepdims=True)
            centered = x - mean
            var = (centered * centered).mean(axis=reduce_axes, keepdims=True)
            batch_mean = mean.data.reshape(self.num_features)
            batch_var = var.data.reshape(self.num_features)
            self._buffers["running_mean"][...] = (
                (1 - self.momentum) * self._buffers["running_mean"] + self.momentum * batch_mean)
            self._buffers["running_var"][...] = (
                (1 - self.momentum) * self._buffers["running_var"] + self.momentum * batch_var)
            normalized = centered / (var + self.eps).sqrt()
        else:
            mean = Tensor(self._buffers["running_mean"].reshape(shape))
            var = Tensor(self._buffers["running_var"].reshape(shape))
            normalized = (x - mean) / (var + self.eps).sqrt()
        if self.affine:
            normalized = normalized * self.weight.reshape(shape) + self.bias.reshape(shape)
        return normalized


class BatchNorm2d(_BatchNormBase):
    """Batch normalization over ``(N, C, H, W)`` activations."""

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects 4-D input, got shape {x.shape}")
        return self._normalize(x, reduce_axes=(0, 2, 3), shape=(1, self.num_features, 1, 1))


class BatchNorm1d(_BatchNormBase):
    """Batch normalization over ``(N, C)`` activations."""

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2:
            raise ValueError(f"BatchNorm1d expects 2-D input, got shape {x.shape}")
        return self._normalize(x, reduce_axes=(0,), shape=(1, self.num_features))


class LayerNorm(Module):
    """Layer normalization over the last dimension (Transformer convention).

    Dispatches the fused ``layer_norm`` op: one graph node with a
    hand-written VJP, bit-identical to the 11-op composition of means,
    ``sqrt`` and ``div`` it replaces.
    """

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(np.ones(normalized_shape, dtype=np.float32))
        self.bias = Parameter(np.zeros(normalized_shape, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.weight, self.bias, eps=self.eps)

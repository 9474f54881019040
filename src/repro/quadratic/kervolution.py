"""Kervolutional neurons (KNN, Wang et al. [14]) used in the stability study (Fig. 6).

A polynomial kervolution replaces the inner product of a convolution with a
polynomial kernel evaluation,

.. math::

    \\kappa(x, w) = (xᵀw + c_p)^{d_p},

which injects non-linearity *without any additional parameters*.  The paper's
Fig. 6 shows that stacking these neurons in many layers destabilizes training
(activations and gradients blow up because the polynomial amplifies large
responses multiplicatively layer after layer), whereas the proposed quadratic
neuron trains stably in every layer.  This module reproduces the same
qualitative behaviour.
"""

from __future__ import annotations

import numpy as np

from ..nn import init
from ..nn.module import Module, Parameter
from ..tensor import Tensor, conv2d
from ..tensor.fused import linear as fused_linear

__all__ = ["KervolutionConv2d", "KervolutionLinear"]


class KervolutionConv2d(Module):
    """Polynomial kervolution layer: ``y = (conv(x, w) + c_p)^{d_p}``.

    Parameters
    ----------
    degree:
        Polynomial degree ``d_p``; the original work mostly uses 2 or 3.
    offset:
        Additive constant ``c_p`` of the polynomial kernel.
    learnable_offset:
        When ``True``, ``c_p`` is a trainable scalar (the "learnable kernel"
        variant of the original paper).
    """

    # Costed as linear neurons: the polynomial kernel adds no parameters, and
    # its offset and power are elementwise, not multiply-accumulates.
    neuron_formula = "linear"

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, degree: int = 2, offset: float = 0.5,
                 learnable_offset: bool = False, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        if degree < 1:
            raise ValueError(f"polynomial degree must be >= 1, got {degree}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.degree = degree
        self.learnable_offset = learnable_offset
        self.weight = Parameter(
            init.kaiming_normal((out_channels, in_channels, kernel_size, kernel_size), rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None
        if learnable_offset:
            self.offset = Parameter(np.asarray([offset], dtype=np.float32))
        else:
            self._offset_value = float(offset)

    def forward(self, x: Tensor) -> Tensor:
        response = conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)
        if self.learnable_offset:
            shifted = response + self.offset
        else:
            shifted = response + self._offset_value
        return shifted ** self.degree

    def __repr__(self) -> str:
        return (f"KervolutionConv2d(in={self.in_channels}, out={self.out_channels}, "
                f"k={self.kernel_size}, degree={self.degree})")


class KervolutionLinear(Module):
    """Dense polynomial kervolution: ``y = (wᵀx + b + c_p)^{d_p}``."""

    neuron_formula = "linear"

    def __init__(self, in_features: int, out_features: int, degree: int = 2,
                 offset: float = 0.5, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        if degree < 1:
            raise ValueError(f"polynomial degree must be >= 1, got {degree}")
        self.in_features = in_features
        self.out_features = out_features
        self.degree = degree
        self.offset = float(offset)
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng, gain=1.0))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        response = fused_linear(x, self.weight, self.bias)
        return (response + self.offset) ** self.degree

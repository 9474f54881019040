"""Prior-work quadratic neurons used as comparison baselines (Table I).

Each baseline is implemented from its published formulation, in both a dense
(`*Linear`) and a convolutional (`*Conv2d`) flavour, inside the same autograd
framework as the proposed neuron so that the Fig. 5 comparison is apples to
apples:

* ``GeneralQuadratic*``   — Zoumpourlis et al. [17]: ``xᵀMx + wᵀx + b``.
* ``PureQuadratic*``      — Mantini & Shah   [16]: ``xᵀMx``.
* ``FactorizedQuadratic*``— Jiang et al.     [18]: ``xᵀQ₁ᵏ(Q₂ᵏ)ᵀx + wᵀx``.
* ``Quad1*``              — Fan et al.       [19]: ``(w₁ᵀx)(w₂ᵀx) + w₃ᵀ(x⊙²)``.
* ``Quad2*``              — Xu et al. / QuadraLib [21]: ``(w₁ᵀx)(w₂ᵀx) + w₃ᵀx``.
* ``QuadraticResidual*``  — Bu & Karpatne    [23]: ``(w₁ᵀx)(w₂ᵀx) + w₁ᵀx``.

All of these emit a single value per neuron — unlike the proposed neuron they
do not reuse intermediate features as outputs.
"""

from __future__ import annotations

import numpy as np

from ..nn import init
from ..nn.module import Module, Parameter
from ..tensor import Tensor, conv2d, unfold
from ..tensor.fused import quadratic_form

__all__ = [
    "GeneralQuadraticLinear",
    "GeneralQuadraticConv2d",
    "PureQuadraticConv2d",
    "FactorizedQuadraticLinear",
    "FactorizedQuadraticConv2d",
    "Quad1Linear",
    "Quad1Conv2d",
    "Quad2Linear",
    "Quad2Conv2d",
    "QuadraticResidualLinear",
    "QuadraticResidualConv2d",
]


# ---------------------------------------------------------------------------
# Dense baselines
# ---------------------------------------------------------------------------

class GeneralQuadraticLinear(Module):
    """Dense layer of general quadratic neurons [17]: ``y = xᵀMx + wᵀx + b``."""

    neuron_formula = "general"

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 quadratic_init: float = 0.01, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng, gain=1.0))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None
        self.quadratic = Parameter(
            init.normal((out_features, in_features, in_features), rng, std=quadratic_init),
            tag="quadratic")

    def forward(self, x: Tensor) -> Tensor:
        linear = x @ self.weight.T
        if self.bias is not None:
            linear = linear + self.bias
        # One batched contraction over all output neurons instead of a
        # per-output Python loop through the graph.
        return linear + quadratic_form(x, self.quadratic)


class FactorizedQuadraticLinear(Module):
    """Dense rank-k factorized quadratic neurons [18]: ``xᵀQ₁(Q₂)ᵀx + wᵀx``."""

    neuron_formula = "factorized"

    def __init__(self, in_features: int, out_features: int, rank: int = 1, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.rank = rank
        scale = 1.0 / np.sqrt(in_features)
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng, gain=1.0))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None
        self.factor_a = Parameter(init.normal((in_features, out_features * rank), rng, std=scale))
        self.factor_b = Parameter(init.normal((in_features, out_features * rank), rng, std=scale))

    def forward(self, x: Tensor) -> Tensor:
        batch_shape = x.shape[:-1]
        left = (x @ self.factor_a).reshape(*batch_shape, self.out_features, self.rank)
        right = (x @ self.factor_b).reshape(*batch_shape, self.out_features, self.rank)
        quadratic = (left * right).sum(axis=-1)
        linear = x @ self.weight.T
        if self.bias is not None:
            linear = linear + self.bias
        return linear + quadratic


class Quad1Linear(Module):
    """Dense Quad-1 neurons [19]: ``(w₁ᵀx)(w₂ᵀx) + w₃ᵀ(x⊙²) + b``."""

    neuron_formula = "quad1"

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight_a = Parameter(init.kaiming_uniform((out_features, in_features), rng, gain=1.0))
        self.weight_b = Parameter(init.normal((out_features, in_features), rng,
                                              std=1.0 / np.sqrt(in_features)))
        self.weight_square = Parameter(init.normal((out_features, in_features), rng,
                                                   std=1.0 / np.sqrt(in_features)))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        product = (x @ self.weight_a.T) * (x @ self.weight_b.T)
        squared = (x * x) @ self.weight_square.T
        out = product + squared
        if self.bias is not None:
            out = out + self.bias
        return out


class Quad2Linear(Module):
    """Dense Quad-2 / QuadraLib neurons [21]: ``(w₁ᵀx)(w₂ᵀx) + w₃ᵀx + b``."""

    neuron_formula = "quad2"

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight_a = Parameter(init.kaiming_uniform((out_features, in_features), rng, gain=1.0))
        self.weight_b = Parameter(init.normal((out_features, in_features), rng,
                                              std=1.0 / np.sqrt(in_features)))
        self.weight_linear = Parameter(init.kaiming_uniform((out_features, in_features), rng,
                                                            gain=1.0))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        product = (x @ self.weight_a.T) * (x @ self.weight_b.T)
        out = product + x @ self.weight_linear.T
        if self.bias is not None:
            out = out + self.bias
        return out


class QuadraticResidualLinear(Module):
    """Dense quadratic-residual neurons [23]: ``(w₁ᵀx)(w₂ᵀx) + w₁ᵀx + b``."""

    neuron_formula = "quad_residual"

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight_a = Parameter(init.kaiming_uniform((out_features, in_features), rng, gain=1.0))
        self.weight_b = Parameter(init.normal((out_features, in_features), rng,
                                              std=1.0 / np.sqrt(in_features)))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        first = x @ self.weight_a.T
        out = first * (x @ self.weight_b.T) + first
        if self.bias is not None:
            out = out + self.bias
        return out


# ---------------------------------------------------------------------------
# Convolutional baselines
# ---------------------------------------------------------------------------

class _TripleConvBase(Module):
    """Shared machinery for baselines built from two or three standard convolutions."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 num_banks: int = 3, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight_a = Parameter(init.kaiming_normal(shape, rng))
        self.weight_b = Parameter(init.normal(shape, rng, std=0.5 / np.sqrt(
            in_channels * kernel_size * kernel_size)))
        if num_banks >= 3:
            self.weight_c = Parameter(init.kaiming_normal(shape, rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def _conv(self, x: Tensor, weight: Parameter, with_bias: bool = False) -> Tensor:
        bias = self.bias if (with_bias and self.bias is not None) else None
        return conv2d(x, weight, bias, stride=self.stride, padding=self.padding)


class Quad2Conv2d(_TripleConvBase):
    """Convolutional Quad-2 / QuadraLib filter [21]: ``conv_a(x)·conv_b(x) + conv_c(x)``."""

    neuron_formula = "quad2"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, num_banks=3, **kwargs)

    def forward(self, x: Tensor) -> Tensor:
        return self._conv(x, self.weight_a) * self._conv(x, self.weight_b) + \
            self._conv(x, self.weight_c, with_bias=True)


class Quad1Conv2d(_TripleConvBase):
    """Convolutional Quad-1 filter [19]: ``conv_a(x)·conv_b(x) + conv_c(x⊙²)``."""

    neuron_formula = "quad1"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, num_banks=3, **kwargs)

    def forward(self, x: Tensor) -> Tensor:
        return self._conv(x, self.weight_a) * self._conv(x, self.weight_b) + \
            self._conv(x * x, self.weight_c, with_bias=True)


class QuadraticResidualConv2d(_TripleConvBase):
    """Convolutional quadratic-residual filter [23]: ``conv_a(x)·conv_b(x) + conv_a(x)``."""

    neuron_formula = "quad_residual"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, num_banks=2, **kwargs)

    def forward(self, x: Tensor) -> Tensor:
        first = self._conv(x, self.weight_a, with_bias=True)
        return first * self._conv(x, self.weight_b) + first


class FactorizedQuadraticConv2d(Module):
    """Convolutional rank-k factorized quadratic filter [18].

    ``y = Σ_r conv_{Q₁,r}(x) · conv_{Q₂,r}(x) + conv_w(x)`` — the two factor
    banks each hold ``out_channels * rank`` filters, so the cost grows linearly
    with the rank (this is the 2kn term of Table I the paper improves upon).
    """

    neuron_formula = "factorized"

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, rank: int = 1, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.rank = rank
        fan_in = in_channels * kernel_size * kernel_size
        factor_shape = (out_channels * rank, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(
            init.kaiming_normal((out_channels, in_channels, kernel_size, kernel_size), rng))
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None
        self.factor_a = Parameter(init.normal(factor_shape, rng, std=1.0 / np.sqrt(fan_in)))
        self.factor_b = Parameter(init.normal(factor_shape, rng, std=1.0 / np.sqrt(fan_in)))

    def forward(self, x: Tensor) -> Tensor:
        batch = x.shape[0]
        left = conv2d(x, self.factor_a, None, stride=self.stride, padding=self.padding)
        right = conv2d(x, self.factor_b, None, stride=self.stride, padding=self.padding)
        height, width = left.shape[2], left.shape[3]
        product = (left * right).reshape(batch, self.out_channels, self.rank, height, width)
        quadratic = product.sum(axis=2)
        linear = conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)
        return linear + quadratic


class GeneralQuadraticConv2d(Module):
    """Convolutional general quadratic filter [17]: full ``xᵀMx + wᵀx`` per patch.

    The receptive field of each output position is unfolded to a vector of
    ``n = C·K·K`` inputs and pushed through a dense ``n × n`` quadratic form per
    filter.  The quadratic parameter count is ``n²`` per filter, which is why
    the original work deploys these neurons only in the first layer.
    """

    neuron_formula = "general"

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 include_linear: bool = True, quadratic_init: float = 0.01,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.include_linear = include_linear
        fan_in = in_channels * kernel_size * kernel_size
        self.fan_in = fan_in
        if include_linear:
            self.weight = Parameter(
                init.kaiming_normal((out_channels, in_channels, kernel_size, kernel_size), rng))
            self.bias = Parameter(init.zeros((out_channels,))) if bias else None
        else:
            self.bias = None
        self.quadratic = Parameter(
            init.normal((out_channels, fan_in, fan_in), rng, std=quadratic_init),
            tag="quadratic")

    def forward(self, x: Tensor) -> Tensor:
        patches = unfold(x, self.kernel_size, self.stride, self.padding)  # (N, H', W', n)
        # (N, H', W', C_out) -> (N, C_out, H', W') in one batched contraction.
        quadratic = quadratic_form(patches, self.quadratic).transpose(0, 3, 1, 2)
        if not self.include_linear:
            return quadratic
        linear = conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)
        return linear + quadratic


class PureQuadraticConv2d(GeneralQuadraticConv2d):
    """Convolutional pure quadratic filter [16]: ``xᵀMx`` without a linear term."""

    neuron_formula = "pure"

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, **kwargs):
        kwargs["include_linear"] = False
        super().__init__(in_channels, out_channels, kernel_size, **kwargs)

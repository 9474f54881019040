"""Tensor-level wrappers for the fused composite ops.

These functions dispatch the hand-derived fused kernels registered in
:mod:`repro.tensor.ops` — the hot paths of the paper's proposed quadratic
neuron plus three generally useful kernels.  Each call builds a single
graph node where the equivalent composition of primitives would build many
(the unfused ``EfficientQuadraticConv2d`` forward is a ~8-node subgraph with
two separate convolutions over the same input).
"""

from __future__ import annotations

from .engine import apply_op
from .tensor import Tensor

__all__ = ["linear", "layer_norm", "quadratic_form", "quadratic_response", "quadratic_conv2d"]


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Dense affine map ``y = x Wᵀ + b`` as a single graph node."""
    if bias is None:
        return apply_op("linear", x, weight)
    return apply_op("linear", x, weight, bias)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, *, eps: float) -> Tensor:
    """Layer normalization over the last axis as a single graph node.

    Bit-identical (outputs and gradients) to the composition of ``sum``,
    ``mul``, ``sub``, ``add``, ``sqrt`` and ``div`` it replaces.
    """
    return apply_op("layer_norm", x, weight, bias, eps=eps)


def quadratic_form(x: Tensor, matrices: Tensor) -> Tensor:
    """Batched general quadratic form ``y_o = xᵀ M_o x``.

    ``x`` has shape ``(..., n)`` and ``matrices`` ``(m, n, n)``; the result
    has shape ``(..., m)``.  Used by the general/pure quadratic baseline
    neurons, replacing a per-output-channel Python loop.
    """
    return apply_op("quadratic_form", x, matrices)


def quadratic_response(x: Tensor, weight: Tensor, q_weight: Tensor, lambdas: Tensor,
                       bias: Tensor | None = None, *, rank: int,
                       vectorized: bool = True,
                       out_features: int | None = None) -> Tensor:
    """Fused proposed-neuron layer response ``{wᵀx + b + (fᵏ)ᵀΛᵏfᵏ, fᵏ}``.

    Produces exactly the same values (bit-for-bit) as the unfused
    composition in :class:`repro.quadratic.EfficientQuadraticLinear`, with
    one forward kernel and one hand-derived VJP.  ``out_features`` keeps
    only the first that many output features (the layer's trim).
    """
    if bias is None:
        return apply_op("quadratic_response", x, weight, q_weight, lambdas,
                        rank=rank, vectorized=vectorized, out_features=out_features)
    return apply_op("quadratic_response", x, weight, q_weight, lambdas, bias,
                    rank=rank, vectorized=vectorized, out_features=out_features)


def quadratic_conv2d(x: Tensor, weight: Tensor, q_weight: Tensor, lambdas: Tensor,
                     bias: Tensor | None = None, *, stride: int = 1, padding: int = 0,
                     rank: int, vectorized: bool = True) -> Tensor:
    """Fused quadratic convolution: one im2col + one stacked-filter matmul.

    The unfused path runs two full convolutions over the same input (linear
    filters and Qᵏ projections); this kernel shares the column extraction
    and the backward scatter between them.
    """
    if bias is None:
        return apply_op("quadratic_conv2d", x, weight, q_weight, lambdas,
                        stride=stride, padding=padding, rank=rank, vectorized=vectorized)
    return apply_op("quadratic_conv2d", x, weight, q_weight, lambdas, bias,
                    stride=stride, padding=padding, rank=rank, vectorized=vectorized)

"""Neuron registry: build convolutional / dense layers of any neuron type by name.

The model zoo (:mod:`repro.models`) is written against this factory so that a
single ``neuron_type`` string switches an entire ResNet or Transformer between
linear neurons, the proposed quadratic neuron, and every prior-work baseline.
This mirrors how the paper swaps neuron structures while keeping the
architecture fixed.

:data:`CONV_NEURON_TYPES` and :data:`DENSE_NEURON_TYPES` map each type to the
constructor of its layer class.  Every constructor takes the same geometry;
the per-type differences are data: only the types in ``_RANKED_TYPES`` take
``rank``, and plain ``linear`` layers take no neuron options.  A layer's cost
is not kept here: each layer class names its Table I formula in
``neuron_formula``, which :func:`repro.metrics.profile_model` reads.
"""

from __future__ import annotations

import numpy as np

from ..nn.layers import Conv2d, Linear
from ..nn.module import Module
from .baselines import (
    FactorizedQuadraticConv2d,
    FactorizedQuadraticLinear,
    GeneralQuadraticConv2d,
    GeneralQuadraticLinear,
    PureQuadraticConv2d,
    Quad1Conv2d,
    Quad1Linear,
    Quad2Conv2d,
    Quad2Linear,
    QuadraticResidualConv2d,
    QuadraticResidualLinear,
)
from .efficient import EfficientQuadraticConv2d, EfficientQuadraticLinear
from .kervolution import KervolutionConv2d, KervolutionLinear

__all__ = ["CONV_NEURON_TYPES", "DENSE_NEURON_TYPES", "make_conv", "make_dense",
           "neuron_conv2d", "neuron_linear"]


#: Neuron type -> constructor of a convolution with the requested geometry.
#: The proposed layer is built by its drop-in constructor, which instantiates
#: ``ceil(out_channels / (rank + 1))`` filters and trims to ``out_channels``.
CONV_NEURON_TYPES = {
    "linear": Conv2d,
    "proposed": EfficientQuadraticConv2d.for_output_channels,
    "general": GeneralQuadraticConv2d,
    "pure": PureQuadraticConv2d,
    "quad1": Quad1Conv2d,
    "quad2": Quad2Conv2d,
    "quad_residual": QuadraticResidualConv2d,
    "factorized": FactorizedQuadraticConv2d,
    "kervolution": KervolutionConv2d,
}

#: Neuron type -> constructor of a dense layer with the requested geometry.
DENSE_NEURON_TYPES = {
    "linear": Linear,
    "proposed": EfficientQuadraticLinear.for_output_features,
    "general": GeneralQuadraticLinear,
    "quad1": Quad1Linear,
    "quad2": Quad2Linear,
    "quad_residual": QuadraticResidualLinear,
    "factorized": FactorizedQuadraticLinear,
    "kervolution": KervolutionLinear,
}

#: The neuron types with a decomposition rank; every other type ignores it.
_RANKED_TYPES = frozenset({"proposed", "factorized"})


def _neuron_options(neuron_type: str, rank: int, kwargs: dict) -> dict:
    """Keyword options for ``neuron_type``'s constructor: ``rank`` when the
    type has one, plus the caller's neuron options — which plain linear
    layers have none of, so they ignore them."""
    options = {} if neuron_type == "linear" else dict(kwargs)
    if neuron_type in _RANKED_TYPES:
        options["rank"] = rank
    return options


def make_conv(neuron_type: str, in_channels: int, out_channels: int, kernel_size: int,
              stride: int = 1, padding: int = 0, rank: int = 9, bias: bool = True,
              rng: np.random.Generator | None = None, **kwargs) -> Module:
    """Build a convolutional layer of ``neuron_type`` with the requested geometry.

    Regardless of the neuron type, the returned layer maps ``in_channels`` to
    exactly ``out_channels`` channels so it can be dropped into any CNN.  The
    ``rank`` argument is used by the proposed and factorized neurons and
    ignored by the rest.
    """
    if neuron_type not in CONV_NEURON_TYPES:
        raise KeyError(f"unknown conv neuron type '{neuron_type}'; "
                       f"known types: {sorted(CONV_NEURON_TYPES)}")
    return CONV_NEURON_TYPES[neuron_type](
        in_channels, out_channels, kernel_size, stride=stride, padding=padding,
        bias=bias, rng=rng, **_neuron_options(neuron_type, rank, kwargs))


def make_dense(neuron_type: str, in_features: int, out_features: int, rank: int = 9,
               bias: bool = True, rng: np.random.Generator | None = None, **kwargs) -> Module:
    """Build a dense layer of ``neuron_type`` mapping ``in_features`` to ``out_features``."""
    if neuron_type not in DENSE_NEURON_TYPES:
        raise KeyError(f"unknown dense neuron type '{neuron_type}'; "
                       f"known types: {sorted(DENSE_NEURON_TYPES)}")
    return DENSE_NEURON_TYPES[neuron_type](
        in_features, out_features, bias=bias, rng=rng,
        **_neuron_options(neuron_type, rank, kwargs))


# -- servable single-layer builders -------------------------------------------
#
# Seed-parameterized wrappers around make_conv / make_dense registered in the
# model-spec registry, so a *single* neuron layer of any type can be saved as
# a self-describing bundle and reconstructed by name — useful for layer-level
# response analyses and micro-serving without wrapping the layer in a model.

# Imported below the neuron tables (not at module top) because the model zoo
# imports this factory: repro.models.registry itself has no dependency on the
# zoo, so this late import closes the cycle safely.
from ..models.registry import register_model  # noqa: E402


@register_model("neuron_conv2d")
def neuron_conv2d(neuron_type: str = "proposed", in_channels: int = 3,
                  out_channels: int = 8, kernel_size: int = 3, stride: int = 1,
                  padding: int = 0, rank: int = 9, bias: bool = True, seed: int = 0,
                  **kwargs) -> Module:
    """Servable convolutional layer of any registered neuron type."""
    return make_conv(neuron_type, in_channels, out_channels, kernel_size,
                     stride=stride, padding=padding, rank=rank, bias=bias,
                     rng=np.random.default_rng(seed), **kwargs)


@register_model("neuron_linear")
def neuron_linear(neuron_type: str = "proposed", in_features: int = 16,
                  out_features: int = 8, rank: int = 9, bias: bool = True,
                  seed: int = 0, **kwargs) -> Module:
    """Servable dense layer of any registered neuron type."""
    return make_dense(neuron_type, in_features, out_features, rank=rank, bias=bias,
                      rng=np.random.default_rng(seed), **kwargs)

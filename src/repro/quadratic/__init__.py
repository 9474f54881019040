"""Quadratic neurons: the paper's efficient neuron, prior-work baselines and cost models."""

from .decomposition import (
    QuadraticDecomposition,
    symmetrize,
    eigendecompose,
    top_k_truncation,
    reconstruct,
    frobenius_error,
)
from .complexity import (
    NeuronComplexity,
    NEURON_FORMULAS,
    neuron_complexity,
    table_i_rows,
    proposed_parameter_count,
    proposed_mac_count,
)
from .efficient import EfficientQuadraticLinear, EfficientQuadraticConv2d, neurons_for_width
from .baselines import (
    GeneralQuadraticLinear,
    GeneralQuadraticConv2d,
    PureQuadraticConv2d,
    FactorizedQuadraticLinear,
    FactorizedQuadraticConv2d,
    Quad1Linear,
    Quad1Conv2d,
    Quad2Linear,
    Quad2Conv2d,
    QuadraticResidualLinear,
    QuadraticResidualConv2d,
)
from .kervolution import KervolutionConv2d, KervolutionLinear
from .factory import CONV_NEURON_TYPES, DENSE_NEURON_TYPES, make_conv, make_dense

__all__ = [
    "QuadraticDecomposition",
    "symmetrize",
    "eigendecompose",
    "top_k_truncation",
    "reconstruct",
    "frobenius_error",
    "NeuronComplexity",
    "NEURON_FORMULAS",
    "neuron_complexity",
    "table_i_rows",
    "proposed_parameter_count",
    "proposed_mac_count",
    "EfficientQuadraticLinear",
    "EfficientQuadraticConv2d",
    "neurons_for_width",
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
    "KervolutionConv2d",
    "KervolutionLinear",
    "CONV_NEURON_TYPES",
    "DENSE_NEURON_TYPES",
    "make_conv",
    "make_dense",
]

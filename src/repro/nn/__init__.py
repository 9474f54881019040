"""Neural-network layer library built on the autograd tensor engine."""

from .module import Module, Parameter, Sequential, ModuleList, Identity
from .layers import (
    Linear,
    Conv2d,
    MaxPool2d,
    GlobalAvgPool2d,
    Flatten,
    Dropout,
    Embedding,
)
from .activations import ReLU
from .normalization import BatchNorm2d, BatchNorm1d, LayerNorm
from .loss import CrossEntropyLoss, LabelSmoothingLoss, MSELoss
from . import init

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "ModuleList",
    "Identity",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "Embedding",
    "ReLU",
    "BatchNorm2d",
    "BatchNorm1d",
    "LayerNorm",
    "CrossEntropyLoss",
    "LabelSmoothingLoss",
    "MSELoss",
    "init",
]

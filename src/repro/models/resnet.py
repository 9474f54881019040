"""ResNet architectures parameterized by neuron type.

Two families are provided, matching the paper's image-classification
experiments:

* :class:`CifarResNet` — the classic CIFAR-style ResNets (depth ``6n + 2``:
  ResNet-20/32/44/56/110) used for Fig. 4, Fig. 5 and Fig. 7.  Every 3×3
  convolution can be built from any neuron type registered in
  :mod:`repro.quadratic.factory`.
* :class:`ResNet18` — a configurable-width ResNet-18 used for the Fig. 6
  training-stability study; its ``neuron_first_n`` argument replaces only the
  first *n* convolutions with the requested neuron (reproducing the "KNN-n"
  deployment of the kervolution baseline) while ``neuron_first_n=None``
  deploys the neuron in all layers (the paper's configuration for the
  proposed neuron).

Width and input resolution are configurable so that the same code runs the
paper-scale models (32×32 inputs, 16/32/64 channels) and the scaled-down
versions used by the CPU benchmarks.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..quadratic.factory import make_conv
from ..tensor import Tensor
from .registry import register_model

__all__ = ["BasicBlock", "CifarResNet", "ResNet18"]


class _ConvCounter:
    """Hands out conv layers, switching neuron type after the first *n* layers.

    The Fig. 6 experiment deploys the kervolution neuron only in the first
    ``n`` convolutional layers ("KNN-n"); beyond the threshold the counter
    falls back to linear convolutions.  With ``first_n=None`` the requested
    neuron type is used everywhere.
    """

    def __init__(self, neuron_type: str, rank: int, rng: np.random.Generator,
                 first_n: int | None = None, neuron_kwargs: dict | None = None):
        self.neuron_type = neuron_type
        self.rank = rank
        self.rng = rng
        self.first_n = first_n
        self.neuron_kwargs = neuron_kwargs or {}
        self.count = 0

    def next_conv(self, in_channels: int, out_channels: int, kernel_size: int,
                  stride: int = 1, padding: int = 0) -> nn.Module:
        self.count += 1
        use_neuron = self.first_n is None or self.count <= self.first_n
        neuron_type = self.neuron_type if use_neuron else "linear"
        kwargs = self.neuron_kwargs if neuron_type == self.neuron_type else {}
        return make_conv(neuron_type, in_channels, out_channels, kernel_size,
                         stride=stride, padding=padding, rank=self.rank, bias=False,
                         rng=self.rng, **kwargs)


class BasicBlock(nn.Module):
    """Two 3×3 convolutions with batch norm and an identity / projection shortcut."""

    def __init__(self, in_channels: int, out_channels: int, stride: int,
                 counter: _ConvCounter):
        super().__init__()
        self.conv1 = counter.next_conv(in_channels, out_channels, 3, stride=stride, padding=1)
        self.bn1 = nn.BatchNorm2d(out_channels)
        self.conv2 = counter.next_conv(out_channels, out_channels, 3, stride=1, padding=1)
        self.bn2 = nn.BatchNorm2d(out_channels)
        self.relu = nn.ReLU()
        if stride != 1 or in_channels != out_channels:
            # Projection shortcut: always a plain 1×1 linear convolution, as in
            # the original ResNet and in the paper's experiments (only the 3×3
            # feature-extraction convolutions change neuron type).
            self.shortcut = nn.Sequential(
                nn.Conv2d(in_channels, out_channels, 1, stride=stride, bias=False,
                          rng=counter.rng),
                nn.BatchNorm2d(out_channels))
        else:
            self.shortcut = nn.Identity()

    def forward(self, x: Tensor) -> Tensor:
        out = self.relu(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        return self.relu(out + self.shortcut(x))


@register_model("cifar_resnet")
class CifarResNet(nn.Module):
    """CIFAR-style ResNet of depth ``6n + 2`` with configurable neuron type.

    Parameters
    ----------
    depth:
        Network depth; must satisfy ``depth = 6n + 2`` (20, 32, 44, 56, 110...).
    num_classes:
        Size of the classification head.
    neuron_type:
        Any key of :data:`repro.quadratic.factory.CONV_NEURON_TYPES`.
    rank:
        Decomposition rank ``k`` for the proposed / factorized neurons
        (the paper fixes ``k = 9`` on CIFAR).
    base_width:
        Channel width of the first stage (16 in the paper; smaller values give
        the scaled-down models used by the CPU benchmarks).
    width_multiplier:
        Extra multiplicative factor on all widths; the paper widens the
        quadratic networks slightly for the Fig. 5 iso-accuracy comparison.
    """

    def __init__(self, depth: int, num_classes: int = 10, neuron_type: str = "linear",
                 rank: int = 9, base_width: int = 16, width_multiplier: float = 1.0,
                 in_channels: int = 3, neuron_first_n: int | None = None,
                 neuron_kwargs: dict | None = None, seed: int = 0):
        super().__init__()
        if (depth - 2) % 6 != 0:
            raise ValueError(f"CIFAR ResNet depth must be 6n + 2, got {depth}")
        blocks_per_stage = (depth - 2) // 6
        rng = np.random.default_rng(seed)
        counter = _ConvCounter(neuron_type, rank, rng, first_n=neuron_first_n,
                               neuron_kwargs=neuron_kwargs)

        self.depth = depth
        self.neuron_type = neuron_type
        self.rank = rank
        widths = [max(1, int(round(base_width * width_multiplier * factor)))
                  for factor in (1, 2, 4)]
        self.widths = widths

        self.stem = counter.next_conv(in_channels, widths[0], 3, stride=1, padding=1)
        self.stem_bn = nn.BatchNorm2d(widths[0])
        self.relu = nn.ReLU()

        stages = []
        in_width = widths[0]
        for stage_index, width in enumerate(widths):
            blocks = []
            for block_index in range(blocks_per_stage):
                stride = 2 if (stage_index > 0 and block_index == 0) else 1
                blocks.append(BasicBlock(in_width, width, stride, counter))
                in_width = width
            stages.append(nn.Sequential(*blocks))
        self.stage1, self.stage2, self.stage3 = stages

        self.pool = nn.GlobalAvgPool2d()
        self.classifier = nn.Linear(widths[-1], num_classes, rng=rng)
        self.num_conv_layers = counter.count

    def forward(self, x: Tensor) -> Tensor:
        out = self.relu(self.stem_bn(self.stem(x)))
        out = self.stage1(out)
        out = self.stage2(out)
        out = self.stage3(out)
        return self.classifier(self.pool(out))


@register_model("resnet18")
class ResNet18(nn.Module):
    """ResNet-18-style network (4 stages of two basic blocks each).

    The stem is a 3×3 convolution rather than the ImageNet 7×7/stride-2 stem so
    that the network is meaningful at the reduced input resolutions used by the
    CPU-scale stability benchmark; the block structure (2-2-2-2) and the
    doubling widths follow ResNet-18.
    """

    def __init__(self, num_classes: int = 100, neuron_type: str = "linear", rank: int = 9,
                 base_width: int = 64, in_channels: int = 3,
                 neuron_first_n: int | None = None, neuron_kwargs: dict | None = None,
                 seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        counter = _ConvCounter(neuron_type, rank, rng, first_n=neuron_first_n,
                               neuron_kwargs=neuron_kwargs)
        self.neuron_type = neuron_type
        self.neuron_first_n = neuron_first_n
        widths = [base_width, base_width * 2, base_width * 4, base_width * 8]

        self.stem = counter.next_conv(in_channels, widths[0], 3, stride=1, padding=1)
        self.stem_bn = nn.BatchNorm2d(widths[0])
        self.relu = nn.ReLU()

        stages = []
        in_width = widths[0]
        for stage_index, width in enumerate(widths):
            blocks = []
            for block_index in range(2):
                stride = 2 if (stage_index > 0 and block_index == 0) else 1
                blocks.append(BasicBlock(in_width, width, stride, counter))
                in_width = width
            stages.append(nn.Sequential(*blocks))
        self.stage1, self.stage2, self.stage3, self.stage4 = stages

        self.pool = nn.GlobalAvgPool2d()
        self.classifier = nn.Linear(widths[-1], num_classes, rng=rng)
        self.num_conv_layers = counter.count

    def forward(self, x: Tensor) -> Tensor:
        out = self.relu(self.stem_bn(self.stem(x)))
        out = self.stage1(out)
        out = self.stage2(out)
        out = self.stage3(out)
        out = self.stage4(out)
        return self.classifier(self.pool(out))

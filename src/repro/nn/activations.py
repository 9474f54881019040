"""Activation-function modules."""

from __future__ import annotations

from ..tensor import Tensor
from .module import Module

__all__ = ["ReLU"]


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

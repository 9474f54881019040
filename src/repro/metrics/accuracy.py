"""Classification accuracy metrics."""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor

__all__ = ["accuracy"]


def accuracy(logits, targets: np.ndarray) -> float:
    """Top-1 accuracy in [0, 1] from raw logits and integer targets."""
    scores = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    predictions = scores.argmax(axis=-1)
    targets = np.asarray(targets)
    return float((predictions == targets).mean())

"""Differentiable functions composed from :class:`~repro.tensor.Tensor` primitives.

These helpers cover numerically-stable softmax family operations, dropout,
and utility encodings used by the loss functions and models.

The softmax family dispatches to fused registry ops with hand-derived VJPs
(one graph node each); the remaining helpers are genuine compositions of
primitives.
"""

from __future__ import annotations

import numpy as np

from .engine import apply_op
from .tensor import Tensor

__all__ = [
    "softmax",
    "attention_softmax",
    "log_softmax",
    "dropout",
    "one_hot",
    "cross_entropy_with_logits",
    "mse_loss",
]


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` with max-subtraction for numerical stability."""
    return apply_op("softmax", logits, axis=axis)


def attention_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Softmax with a strictly left-to-right (sequential) denominator sum.

    Bitwise invariant under appended fully-masked columns and independent
    across rows, unlike :func:`softmax` whose pairwise-sum denominator
    regroups as the reduced length changes.  Attention weights must have
    both properties for KV-cached incremental decoding to reproduce the
    full-prefix recompute byte for byte.
    """
    return apply_op("attention_softmax", logits, axis=axis)


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis``."""
    return apply_op("log_softmax", logits, axis=axis)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: at train time zero each element with probability ``p``."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    return x * Tensor(mask)


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float32) -> np.ndarray:
    """Return a one-hot encoding of an integer label array."""
    labels = np.asarray(labels, dtype=np.int64)
    encoded = np.zeros(labels.shape + (num_classes,), dtype=dtype)
    np.put_along_axis(encoded, labels[..., None], 1.0, axis=-1)
    return encoded


def cross_entropy_with_logits(logits: Tensor, targets: np.ndarray,
                              label_smoothing: float = 0.0,
                              ignore_index: int | None = None,
                              reduction: str = "mean") -> Tensor:
    """Cross-entropy between ``logits`` and integer ``targets``.

    ``logits`` has shape ``(..., num_classes)`` and ``targets`` the matching
    leading shape.  ``label_smoothing`` follows the standard formulation used
    for Transformer training.  Positions equal to ``ignore_index`` contribute
    nothing to the loss (used to mask padding in sequence models).

    ``reduction="mean"`` (the default) divides the summed loss by the number
    of unmasked positions; ``"sum"`` returns the raw sum, which is what
    data-parallel gradient workers need — per-shard loss *sums* add exactly,
    so the parent can apply the mean's normalization once over the global
    batch instead of once per shard.
    """
    if reduction not in ("mean", "sum"):
        raise ValueError(f"reduction must be 'mean' or 'sum', got {reduction!r}")
    num_classes = logits.shape[-1]
    targets = np.asarray(targets, dtype=np.int64)
    log_probs = log_softmax(logits, axis=-1)

    target_dist = one_hot(targets, num_classes, dtype=logits.dtype)
    if label_smoothing > 0.0:
        target_dist = target_dist * (1.0 - label_smoothing) + label_smoothing / num_classes

    mask = np.ones(targets.shape, dtype=logits.dtype)
    if ignore_index is not None:
        mask = (targets != ignore_index).astype(logits.dtype)
        target_dist = target_dist * mask[..., None]

    per_position = -(log_probs * Tensor(target_dist)).sum(axis=-1)
    total = per_position.sum()
    if reduction == "sum":
        return total
    denominator = float(mask.sum()) if mask.sum() > 0 else 1.0
    return total * (1.0 / denominator)


def cross_entropy_weight(targets: np.ndarray, ignore_index: int | None = None) -> float:
    """The normalization a mean cross-entropy would divide by: unmasked positions."""
    targets = np.asarray(targets)
    if ignore_index is None:
        return float(targets.size)
    return float((targets != ignore_index).sum())


def mse_loss(prediction: Tensor, target: Tensor | np.ndarray,
             reduction: str = "mean") -> Tensor:
    """Mean (or summed, with ``reduction="sum"``) squared error."""
    if reduction not in ("mean", "sum"):
        raise ValueError(f"reduction must be 'mean' or 'sum', got {reduction!r}")
    target = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target.detach()
    squared = diff * diff
    return squared.sum() if reduction == "sum" else squared.mean()

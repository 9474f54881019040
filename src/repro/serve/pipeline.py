"""Pre/post-processing around a classifier's forward.

The serving engines speak raw float arrays and logits; this module turns
them into a classification service:

* **preprocess** — accept nested lists or arrays, promote a single sample to a
  batch of one (when the expected ``input_shape`` is known), cast to float32
  and apply the bundle's training-time normalization so callers can send raw
  pixel values.
* **postprocess** — stable softmax over the logits, then top-k selection with
  class labels, producing JSON-ready prediction records.

Everything here is pure NumPy on plain arrays — no tensors, no graph — so
the only locked, stateful stage of a request is the forward, which
:class:`~repro.serve.Predictor` submits to its serving engine between the
two stages.
"""

from __future__ import annotations

import numpy as np

__all__ = ["softmax", "top_k", "Pipeline"]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax over plain NumPy logits."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def top_k(probabilities: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and probabilities of the ``k`` largest entries per row.

    Returns ``(indices, values)`` of shape ``(batch, k)``, sorted by
    descending probability (ties broken by ascending class index, so the
    output is fully deterministic).
    """
    probabilities = np.atleast_2d(np.asarray(probabilities))
    k = max(1, min(int(k), probabilities.shape[-1]))
    # argsort on (-p, index) via stable sort of -p: identical probabilities
    # keep ascending index order.
    order = np.argsort(-probabilities, axis=-1, kind="stable")[:, :k]
    values = np.take_along_axis(probabilities, order, axis=-1)
    return order, values


class Pipeline:
    """Normalization-in, top-k-out classification pipeline.

    Holds only the bundle metadata the two stages need; the forward between
    them belongs to the caller (:class:`~repro.serve.Predictor` submits it
    to its serving engine).  ``None`` for any field disables that step.
    """

    def __init__(self, normalization: dict | None = None,
                 classes: list[str] | None = None,
                 input_shape: tuple | None = None):
        self.normalization = normalization
        self.classes = classes
        self.input_shape = tuple(input_shape) if input_shape is not None else None

    # -- stages ---------------------------------------------------------------

    def preprocess(self, inputs, normalize: bool = True) -> np.ndarray:
        """Validate, batch, cast and normalize raw inputs."""
        array = np.asarray(inputs, dtype=np.float32)
        if self.input_shape is not None:
            if array.shape == self.input_shape:
                array = array[None, ...]  # single sample → batch of one
            elif array.shape[1:] != self.input_shape:
                raise ValueError(
                    f"input shape {tuple(array.shape)} does not match the "
                    f"model's per-sample shape {self.input_shape} (batched: "
                    f"{(-1, *self.input_shape)})")
        if normalize and self.normalization is not None:
            mean = np.float32(self.normalization["mean"])
            std = np.float32(self.normalization["std"])
            array = (array - mean) / std
        return array

    def postprocess(self, logits: np.ndarray, k: int = 1) -> list[dict]:
        """Turn a batch of logits into JSON-ready prediction records."""
        probabilities = softmax(logits)
        indices, values = top_k(probabilities, k)
        records = []
        for row_indices, row_values in zip(indices, values):
            entries = [{"class_index": int(index),
                        "label": self._label(int(index)),
                        "probability": float(value)}
                       for index, value in zip(row_indices, row_values)]
            records.append({**entries[0], "top_k": entries})
        return records

    def _label(self, index: int) -> str:
        if self.classes is not None and 0 <= index < len(self.classes):
            return str(self.classes[index])
        return f"class_{index}"

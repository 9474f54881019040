"""Gradient worker for data-parallel training.

One worker process computes loss/gradient *sums* over its contiguous shard of
a global batch and ships them back to the parent, which reduces shards in
rank order (see :mod:`repro.training.distributed`).  The shard math lives in
:func:`compute_shard_gradients` precisely so the parent's *inline* execution
path (``workers=1``) runs the identical code on the identical arrays — that
shared function is what makes worker-count a pure execution detail with no
numerical footprint.

Workers run on the shared lifecycle of :mod:`repro.parallel.fleet` and
answer one command, ``("step", state_dict, inputs, targets, training)``.
Every step carries the parent's full ``state_dict`` — the authoritative
parameter broadcast — so workers hold no training state between steps, and a
respawned worker given the same message computes the same bytes.
"""

from __future__ import annotations

import numpy as np

from ..parallel.fleet import serve_worker
from ..tensor import Tensor

__all__ = ["loss_spec_of", "build_sum_loss", "compute_shard_gradients",
           "worker_main"]


def loss_spec_of(loss_fn) -> dict:
    """Describe a supported loss as a JSON-safe spec workers can rebuild.

    Data-parallel training needs the loss in ``reduction="sum"`` form (shard
    sums add exactly; the parent normalizes once), so only losses with a
    known sum decomposition are supported.  Raises ``ValueError`` otherwise.
    """
    from ..nn.loss import CrossEntropyLoss, MSELoss

    if isinstance(loss_fn, CrossEntropyLoss):
        return {"kind": "cross_entropy",
                "label_smoothing": float(loss_fn.label_smoothing),
                "ignore_index": loss_fn.ignore_index}
    if isinstance(loss_fn, MSELoss):
        return {"kind": "mse"}
    raise ValueError(
        f"{type(loss_fn).__name__} has no known sum decomposition for "
        f"data-parallel training; supported losses: CrossEntropyLoss "
        f"(incl. LabelSmoothingLoss), MSELoss")


def build_sum_loss(spec: dict):
    """Rebuild ``(sum_loss_fn, weight_fn)`` from a :func:`loss_spec_of` spec.

    ``sum_loss_fn(logits, targets)`` returns the *summed* loss over the
    shard; ``weight_fn(targets)`` returns the count the matching mean loss
    would have divided by, so the parent can apply the normalization once
    over the global batch.
    """
    from ..nn.loss import CrossEntropyLoss, MSELoss
    from ..tensor.functional import cross_entropy_weight

    kind = spec.get("kind")
    if kind == "cross_entropy":
        ignore_index = spec.get("ignore_index")
        loss = CrossEntropyLoss(label_smoothing=spec.get("label_smoothing", 0.0),
                                ignore_index=ignore_index, reduction="sum")
        return loss, lambda targets: cross_entropy_weight(targets, ignore_index)
    if kind == "mse":
        return MSELoss(reduction="sum"), lambda targets: float(np.asarray(targets).size)
    raise ValueError(f"unknown loss spec kind {kind!r}")


def compute_shard_gradients(model, sum_loss_fn, weight_fn,
                            inputs: np.ndarray, targets: np.ndarray) -> dict:
    """One shard's contribution to a data-parallel step.

    Runs forward + backward on ``model`` (already in the right train/eval
    mode, already holding the authoritative parameters) and returns:

    * ``loss_sum`` — summed (unnormalized) loss over the shard,
    * ``weight`` — the normalization this shard contributes (examples, or
      unmasked positions for masked cross-entropy),
    * ``grads`` — per-parameter gradient *sums* in ``named_parameters``
      order (zeros for parameters the graph never reached),
    * ``buffers`` — the post-forward ``buffer::`` entries (BatchNorm running
      stats); the parent adopts rank 0's,
    * ``predictions`` — per-example argmax, so the parent can compute the
      global batch accuracy without shipping full logits.

    Both the worker process and the parent's inline path call exactly this
    function — identical arrays through identical operations is the whole
    bit-identity argument.
    """
    model.zero_grad()
    logits = model(Tensor(inputs))
    loss = sum_loss_fn(logits, targets)
    loss.backward()
    grads = [parameter.grad.copy() if parameter.grad is not None
             else np.zeros_like(parameter.data)
             for _, parameter in model.named_parameters()]
    buffers = {key: value for key, value in model.state_dict().items()
               if key.startswith("buffer::")}
    return {"loss_sum": float(loss.data),
            "weight": float(weight_fn(targets)),
            "grads": grads,
            "buffers": buffers,
            "predictions": np.argmax(logits.data, axis=-1)}


def worker_main(rank: int, conn, config: dict) -> None:
    """Entry point of one gradient worker process.

    Builds the model architecture once from ``config["model_spec"]`` (the
    parameters are overwritten by every ``step`` message) and the summed
    loss from ``config["loss_spec"]``, then answers step requests until told
    to stop.  Seeded with ``derive_seed(seed, "train-dp", rank)``.
    """
    serve_worker(conn, "train-dp", rank, config, _build_worker, {"step": _step})


def _build_worker(config: dict) -> tuple:
    import repro.models  # noqa: F401 — populates the model registry
    from ..models.registry import build_from_spec

    return (build_from_spec(config["model_spec"]),
            *build_sum_loss(config["loss_spec"]))


def _step(worker: tuple, state, inputs, targets, training: bool) -> dict:
    model, sum_loss_fn, weight_fn = worker
    model.load_state_dict(state)
    model.train(training)
    return compute_shard_gradients(model, sum_loss_fn, weight_fn, inputs, targets)

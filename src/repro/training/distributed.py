"""Preemptible data-parallel training with crash-tolerant gradient workers.

:class:`DataParallelTrainer` extends :class:`~repro.training.Trainer` with
data parallelism built around one load-bearing distinction:

* ``world_size`` — how many contiguous shards every global batch is split
  into.  **This defines the arithmetic.**  Each shard's loss and gradient
  *sums* are computed independently, then reduced in rank order and
  normalized once by the global batch weight.
* ``workers`` — how many processes execute those shards.  **This is a pure
  execution detail.**  Shards run through the *same* function
  (:func:`~repro.training.dp_worker.compute_shard_gradients`) on the *same*
  arrays whether they execute inline in the parent (``workers=1``) or on
  spawned worker processes (``workers>1``), and the parent-side reduction is
  the same rank-ordered code in both modes — so for a fixed ``world_size``,
  training is **byte-identical across any worker count**, which is the
  reproducibility contract CI pins (checkpoint sha256 equality between
  ``--train-jobs 1`` and ``--train-jobs 2``).

``world_size=1`` delegates every step to the plain :class:`Trainer` math and
is therefore trivially byte-identical to single-process training.  A fixed
``world_size > 1`` is *not* byte-identical to ``world_size=1`` — splitting a
batch reduction into per-shard partial sums regroups floating-point
additions, and BLAS reductions do not associate — so the shard count is an
explicit, recorded hyperparameter of the run rather than something the
machine size silently chooses.  (Same honest boundary as the serving stack's
"aligned batches" caveat: we promise exactly what the arithmetic can
deliver.)

Worker processes run on the shared lifecycle of :mod:`repro.parallel.fleet`
(respawn-and-retry: a worker that dies mid-step is respawned and its shard
retried exactly once).  Every step message carries the parent's full
``state_dict``, so workers are stateless between steps and the retry
computes the same bytes the dead worker would have; a second death raises
:class:`DistributedTrainingError`.

Nested parallelism degrades instead of exploding: under a sweep worker
(``REPRO_PARALLEL_DEPTH`` set), the trainer clamps to inline execution —
same ``world_size``, same bytes, no grandchild processes.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from ..data.dataloader import DataLoader
from ..nn.module import Module
from ..optim.lr_scheduler import LRScheduler
from ..optim.optimizer import Optimizer
from ..parallel.executor import parallel_depth
from ..parallel.fleet import WorkerFleet
from .dp_worker import build_sum_loss, compute_shard_gradients, loss_spec_of, worker_main
from .trainer import Trainer

__all__ = ["DistributedTrainingError", "DataParallelTrainer", "shard_bounds"]


class DistributedTrainingError(RuntimeError):
    """A data-parallel worker could not be started, or died twice on one step."""


def shard_bounds(total: int, world_size: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, end)`` row bounds splitting ``total`` rows into shards.

    Balanced: with ``total = q * world_size + r``, the first ``r`` shards get
    ``q + 1`` rows and the rest ``q`` — so shard sizes differ by at most one,
    every row lands in exactly one shard, and the bounds depend only on
    ``(total, world_size)``, never on the worker count.  When ``total <
    world_size`` the tail shards are empty (``start == end``) and contribute
    nothing to the reduction.
    """
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    base, remainder = divmod(total, world_size)
    bounds = []
    start = 0
    for rank in range(world_size):
        size = base + (1 if rank < remainder else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


class DataParallelTrainer(Trainer, WorkerFleet):
    """Data-parallel :class:`Trainer`: shard every batch, reduce gradient sums.

    Parameters
    ----------
    world_size:
        Number of contiguous gradient shards per global batch — the
        arithmetic-defining knob.  ``1`` delegates to plain :class:`Trainer`
        math.
    workers:
        Number of worker processes (default: one per CPU, capped at
        ``world_size``).  Purely an execution knob: any value produces the
        same bytes for the same ``world_size``.  Clamped to ``1`` (inline)
        inside sweep workers.  ``workers > 1`` requires a registry-built
        model (workers rebuild the architecture from ``model.model_spec``)
        and a loss with a known sum decomposition.
    seed:
        Root seed for worker identity: rank *r* is seeded with
        ``derive_seed(seed, "train-dp", r)``.

    The remaining parameters are inherited from :class:`Trainer`; so are
    ``fit``/``checkpoint_every_steps``/``resume_from`` — step-granular
    preemption composes with data parallelism unchanged, because
    checkpoints see only the reduced (worker-count-independent) state.
    """

    fleet_role = "dp"
    worker_label = "gradient worker"
    work_unit = "shard"
    fleet_error = closed_error = remote_error = DistributedTrainingError

    def __init__(self, model: Module, optimizer: Optimizer, loss_fn,
                 scheduler: LRScheduler | None = None, grad_clip: float | None = None,
                 divergence_threshold: float = 1e4, *, world_size: int = 2,
                 workers: int | None = None, seed: int = 0):
        super().__init__(model, optimizer, loss_fn, scheduler=scheduler,
                         grad_clip=grad_clip,
                         divergence_threshold=divergence_threshold)
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        WorkerFleet.__init__(self)
        self.world_size = int(world_size)
        self.seed = int(seed)
        self.degraded = False
        if self.world_size == 1:
            self.workers = 1
            return
        try:
            self._loss_spec = loss_spec_of(loss_fn)
        except ValueError as error:
            raise DistributedTrainingError(str(error)) from error
        self._sum_loss, self._weight_fn = build_sum_loss(self._loss_spec)
        requested = workers if workers is not None else (os.cpu_count() or 1)
        resolved = max(1, min(int(requested), self.world_size))
        if resolved > 1 and parallel_depth() > 0:
            # Inside a sweep worker: degrade to inline execution instead of
            # spawning grandchildren.  Same world_size, same bytes.
            resolved = 1
            self.degraded = True
        if resolved > 1 and getattr(model, "model_spec", None) is None:
            raise DistributedTrainingError(
                f"{type(model).__name__} has no model_spec; worker processes "
                f"rebuild the architecture by registry spec — register the "
                f"model with repro.models.register_model, or run with "
                f"workers=1 (inline, byte-identical)")
        self.workers = resolved

    # -- worker lifecycle ------------------------------------------------------

    def _worker_spec(self) -> tuple:
        return worker_main, {"model_spec": self.model.model_spec,
                             "loss_spec": self._loss_spec,
                             "seed": self.seed}

    def _ensure_workers(self) -> None:
        """Lazily spawn the worker fleet on the first remote step."""
        if self._closed:
            raise DistributedTrainingError("trainer is closed")
        if not self._workers:
            self._start_workers(self.workers)

    def close(self) -> None:
        """Stop the worker processes (``stop`` first, escalating to kill)."""
        self._closed = True
        self._stop_workers()

    def __enter__(self) -> "DataParallelTrainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the sharded step ------------------------------------------------------

    def _optimize_batch(self, batch_inputs, batch_targets):
        """One data-parallel step: shard, compute, rank-ordered reduce, apply.

        Identical reduction code runs over the shard results regardless of
        how they were computed (inline or remote), which is what makes the
        worker count numerically invisible.
        """
        if self.world_size == 1:
            return super()._optimize_batch(batch_inputs, batch_targets)
        self.optimizer.zero_grad()
        bounds = shard_bounds(len(batch_targets), self.world_size)
        if self.workers > 1:
            results = self._compute_shards_remote(batch_inputs, batch_targets, bounds)
        else:
            results = self._compute_shards_inline(batch_inputs, batch_targets, bounds)
        live = [result for result in results if result is not None]

        # Rank-ordered scalar reduction: shard loss *sums* add exactly; the
        # mean's normalization is applied once, over the global weight.
        loss_sum = 0.0
        weight = 0.0
        for result in live:
            loss_sum += result["loss_sum"]
            weight += result["weight"]
        loss_value = loss_sum / max(weight, 1.0)
        predictions = (np.concatenate([result["predictions"] for result in live])
                       if live else np.empty(0, dtype=np.int64))

        # Rank-0 buffer authority (the DDP convention): every shard saw the
        # pre-batch running stats; the model keeps rank 0's post-batch ones.
        # Applied even on a diverged step — the plain Trainer's forward also
        # mutates buffers before its divergence check.
        if live and live[0]["buffers"]:
            self.model.load_state_dict(live[0]["buffers"], strict=False)
        if not math.isfinite(loss_value) or loss_value > self.divergence_threshold:
            return loss_value, predictions, False

        # Rank-ordered gradient reduction: accumulate shard sums in shard
        # order, then divide by the global weight once.  Order and grouping
        # are fixed by this loop, not by which process produced each term.
        for index, (_, parameter) in enumerate(self.model.named_parameters()):
            accumulated = live[0]["grads"][index].copy()
            for result in live[1:]:
                accumulated += result["grads"][index]
            parameter.grad = accumulated / accumulated.dtype.type(weight)

        if self.grad_clip is not None:
            self.optimizer.clip_grad_norm(self.grad_clip)
        self.optimizer.step()
        return loss_value, predictions, True

    def _batch_accuracy(self, logits, batch_targets) -> float:
        """Accuracy from the rank-ordered predictions the sharded step returns.

        Per-row argmax is row-local, so the concatenated shard predictions
        equal the full-batch argmax exactly — training accuracy matches the
        plain Trainer's bitwise even though the loss normalization differs.
        """
        if self.world_size == 1:
            return super()._batch_accuracy(logits, batch_targets)
        return float((logits == np.asarray(batch_targets)).mean())

    def _compute_shards_inline(self, batch_inputs, batch_targets, bounds) -> list:
        """Run every shard sequentially on the parent's own model.

        Buffers are reset to the pre-batch snapshot before each shard so
        every shard observes the same starting state a worker process would
        (workers get the pre-batch ``state_dict`` in their step message).
        """
        pre_buffers = {key: value for key, value in self.model.state_dict().items()
                       if key.startswith("buffer::")}
        results = []
        for start, end in bounds:
            if start == end:
                results.append(None)
                continue
            if pre_buffers:
                self.model.load_state_dict(pre_buffers, strict=False)
            results.append(compute_shard_gradients(
                self.model, self._sum_loss, self._weight_fn,
                batch_inputs[start:end], batch_targets[start:end]))
        return results

    def _compute_shards_remote(self, batch_inputs, batch_targets, bounds) -> list:
        """Fan the shards out across the worker fleet, round-robin by rank.

        Worker *w* computes shards ``w, w + workers, w + 2*workers, ...`` —
        an assignment that only affects *where* each shard runs, never the
        reduction order.  Each dispatching thread drives one worker; any
        shard failure (after the fleet's one respawn-and-retry) aborts the
        step.
        """
        self._ensure_workers()
        state = self.model.state_dict()
        results: list = [None] * len(bounds)
        errors: list[BaseException] = []

        def dispatch(handle, ranks: list[int]) -> None:
            for rank in ranks:
                start, end = bounds[rank]
                if start == end:
                    continue
                try:
                    results[rank] = self._call(handle, (
                        "step", state, batch_inputs[start:end],
                        batch_targets[start:end], self.model.training))
                except BaseException as error:  # noqa: BLE001 — re-raised below
                    errors.append(error)
                    return

        threads = []
        for index, handle in enumerate(self._workers):
            ranks = list(range(index, len(bounds), len(self._workers)))
            if not ranks:
                continue
            thread = threading.Thread(target=dispatch, args=(handle, ranks),
                                      name=f"repro-dp-dispatch-{index}",
                                      daemon=True)
            threads.append(thread)
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return results

    # -- introspection ---------------------------------------------------------

    def describe(self) -> dict:
        """Identity facts the determinism and fault-tolerance tests pin."""
        return {
            "world_size": self.world_size,
            "workers": self.workers,
            "degraded": self.degraded,
            "restarts": self.restarts,
            "per_worker": [{
                "rank": handle.rank,
                "pid": handle.info.get("pid"),
                "alive": handle.alive,
                "seed": handle.info.get("seed"),
                "depth": handle.info.get("depth"),
                "restarts": handle.restarts,
            } for handle in self._workers],
        }

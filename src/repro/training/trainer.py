"""Training loop for image classifiers.

The trainer reproduces the relevant aspects of the paper's recipe: SGD with a
multi-step learning-rate schedule, a separate learning rate for the quadratic
eigenvalue parameters (handled through optimizer parameter groups), optional
gradient clipping, and divergence detection — the latter is what the Fig. 6
training-stability study measures.
"""

from __future__ import annotations

import math
import shutil
from pathlib import Path

import numpy as np

from ..data.dataloader import DataLoader
from ..io.atomic import atomic_publish
from ..io.bundle import bundle_section
from ..io.checkpoint import load_checkpoint, save_checkpoint
from ..metrics.accuracy import accuracy
from ..nn.module import Module
from ..optim.lr_scheduler import LRScheduler
from ..optim.optimizer import Optimizer
from ..tensor import Tensor, no_grad
from .history import History

__all__ = ["Trainer"]


def _atomic_copy(source: Path, destination: Path) -> None:
    """Publish a byte copy of ``source`` at ``destination`` atomically."""
    with atomic_publish(destination) as stream, open(source, "rb") as origin:
        shutil.copyfileobj(origin, stream)


class Trainer:
    """Supervised training loop for classification models.

    Parameters
    ----------
    model, optimizer, loss_fn:
        The usual triple; ``loss_fn(logits, integer_targets)`` must return a
        scalar :class:`Tensor`.
    scheduler:
        Optional :class:`repro.optim.LRScheduler`, stepped once per epoch.
    grad_clip:
        Optional global gradient-norm clip.
    divergence_threshold:
        A batch loss above this value (or any non-finite loss) marks the run
        as diverged; training stops early and the history records the event.
        This implements the "cross mark" divergence criterion of Fig. 6.
    """

    def __init__(self, model: Module, optimizer: Optimizer, loss_fn,
                 scheduler: LRScheduler | None = None, grad_clip: float | None = None,
                 divergence_threshold: float = 1e4):
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn
        self.scheduler = scheduler
        self.grad_clip = grad_clip
        self.divergence_threshold = divergence_threshold
        self.history = History()
        self.diverged = False
        self.divergence_epoch: int | None = None
        self.best_metric: float | None = None
        self.best_epoch: int | None = None
        self.stopped_early = False
        #: Optimization steps taken across the whole run (survives resume).
        self.global_step = 0
        # Step-granular checkpointing, armed by fit(checkpoint_every_steps=).
        self._step_checkpoint_dir: Path | None = None
        self._step_checkpoint_every = 0
        # Mid-epoch resume state stashed by load_checkpoint for fit().
        self._pending_partial: dict | None = None
        #: Serving metadata embedded in every checkpoint's bundle section when
        #: the model carries a registry spec: normalization stats, class
        #: labels, input shape (see :func:`repro.io.bundle.bundle_section`).
        self.bundle_info: dict = {}

    # -- single step / epoch ----------------------------------------------------

    def _optimize_batch(self, batch_inputs, batch_targets):
        """One optimization step: forward, divergence guard, backward, clip, step.

        Returns ``(loss_value, logits, stepped)``; ``stepped`` is ``False``
        when the loss diverged, in which case no parameter update is applied.
        """
        self.optimizer.zero_grad()
        logits = self.model(Tensor(batch_inputs))
        loss = self.loss_fn(logits, batch_targets)
        loss_value = float(loss.data)
        if not math.isfinite(loss_value) or loss_value > self.divergence_threshold:
            return loss_value, logits, False
        loss.backward()
        if self.grad_clip is not None:
            self.optimizer.clip_grad_norm(self.grad_clip)
        self.optimizer.step()
        return loss_value, logits, True

    def _batch_accuracy(self, logits, batch_targets) -> float:
        """Per-batch training accuracy from whatever :meth:`_optimize_batch` returned.

        Subclasses that do not carry full-batch logits through the step (the
        data-parallel trainer returns rank-ordered predictions instead)
        override this alongside :meth:`_optimize_batch`.
        """
        return accuracy(logits, batch_targets)

    def train_epoch(self, loader: DataLoader, *, epoch: int | None = None,
                    start_totals: dict | None = None) -> dict:
        """Run one epoch of optimization; returns mean loss and accuracy.

        ``epoch`` (1-based, supplied by :meth:`fit`) and ``start_totals`` (the
        partial-epoch accumulators restored from a step checkpoint) exist for
        step-granular checkpoint/resume: a resumed epoch continues both the
        loader's batch cursor and these running sums, so its final metrics are
        bit-identical to the uninterrupted epoch's.
        """
        self.model.train()
        totals = {"loss": 0.0, "correct": 0.0, "examples": 0, "batches": 0}
        if start_totals:
            totals.update(start_totals)
        for batch_inputs, batch_targets in loader:
            loss_value, logits, stepped = self._optimize_batch(batch_inputs, batch_targets)
            if not stepped:
                self.diverged = True
                totals["loss"] += loss_value if math.isfinite(loss_value) else float("inf")
                totals["examples"] += len(batch_targets)
                break
            batch_size = len(batch_targets)
            totals["loss"] += loss_value * batch_size
            totals["correct"] += self._batch_accuracy(logits, batch_targets) * batch_size
            totals["examples"] += batch_size
            totals["batches"] += 1
            self.global_step += 1
            self._maybe_step_checkpoint(loader, epoch, totals)
        mean_loss = totals["loss"] / max(totals["examples"], 1)
        mean_accuracy = totals["correct"] / max(totals["examples"], 1)
        return {"loss": mean_loss, "accuracy": mean_accuracy, "diverged": self.diverged}

    def _maybe_step_checkpoint(self, loader: DataLoader, epoch: int | None,
                               totals: dict) -> None:
        """Write ``step_<k>.npz`` + rolling ``last_step.npz`` when the step counter says so.

        ``last_step.npz`` is written first and ``step_<k>.npz`` published as
        its byte copy, so whoever sees ``step_<k>.npz`` — including a
        ``kill -9`` timed on it — also finds a ``last_step.npz`` at least
        that new.  The checkpoint carries ``(epoch, batch_index)``, the loader's
        mid-epoch cursor (via ``loader.state_dict()``) and the partial-epoch
        metric sums, so :meth:`fit` can resume from it and replay the rest of
        the epoch bit-identically.
        """
        if not self._step_checkpoint_every or self._step_checkpoint_dir is None:
            return
        if self.global_step % self._step_checkpoint_every:
            return
        epoch = epoch if epoch is not None else len(self.history) + 1
        last = self.save_checkpoint(
            self._step_checkpoint_dir / "last_step.npz",
            loader, epoch=epoch - 1,
            extra={"batch_index": totals["batches"],
                   "epoch_in_progress": epoch,
                   "partial": dict(totals)})
        _atomic_copy(last, self._step_checkpoint_dir
                     / f"step_{self.global_step:06d}.npz")

    # -- profiling ----------------------------------------------------------------

    def profile_ops(self, loader: DataLoader, num_batches: int = 1):
        """Time every autograd op over a few full training steps.

        Runs ``num_batches`` optimization steps — through the same
        :meth:`_optimize_batch` path as :meth:`train_epoch`, so gradient
        clipping and the divergence guard still apply — with the graph
        executor's per-op timing hooks enabled, and returns the aggregated
        :class:`repro.metrics.OpTimeTable` (forward entries under the op
        name, backward entries under ``"<name>:backward"``).  Useful for
        spotting which kernels dominate a model's step time.
        """
        from ..metrics.profiler import record_op_times

        self.model.train()
        with record_op_times() as table:
            for index, (batch_inputs, batch_targets) in enumerate(loader):
                if index >= num_batches:
                    break
                _, _, stepped = self._optimize_batch(batch_inputs, batch_targets)
                if not stepped:
                    break
        return table

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, inputs: np.ndarray, targets: np.ndarray, batch_size: int = 64) -> dict:
        """Loss and accuracy of the current model on held-out data."""
        self.model.eval()
        total_loss = 0.0
        total_correct = 0.0
        total_examples = 0
        with no_grad():
            for start in range(0, len(inputs), batch_size):
                batch_inputs = inputs[start:start + batch_size]
                batch_targets = targets[start:start + batch_size]
                logits = self.model(Tensor(batch_inputs))
                loss = self.loss_fn(logits, batch_targets)
                size = len(batch_targets)
                total_loss += float(loss.data) * size
                total_correct += accuracy(logits, batch_targets) * size
                total_examples += size
        return {"loss": total_loss / max(total_examples, 1),
                "accuracy": total_correct / max(total_examples, 1)}

    # -- checkpointing -------------------------------------------------------------

    def save_checkpoint(self, path, loader: DataLoader | None = None,
                        epoch: int | None = None, extra: dict | None = None) -> Path:
        """Write the full training state (model/optimizer/scheduler/loader/history).

        When the model was built through the registry, the checkpoint also
        embeds a self-describing bundle section (model spec +
        :attr:`bundle_info`), so ``best.npz``/``last.npz`` are directly
        loadable by :func:`repro.io.load_bundle` and servable without any
        knowledge of the producing experiment.  ``extra`` overlays the default
        bookkeeping section — the step-checkpoint path uses it to record
        ``(epoch_in_progress, batch_index)`` and the partial-epoch sums.
        """
        payload = {
            "epoch": epoch if epoch is not None else len(self.history),
            "step": self.global_step,
            "diverged": self.diverged,
            "divergence_epoch": self.divergence_epoch,
            "best_metric": self.best_metric,
            "best_epoch": self.best_epoch,
        }
        if extra:
            payload.update(extra)
        return save_checkpoint(
            path,
            model=self.model,
            optimizer=self.optimizer,
            scheduler=self.scheduler,
            loader=loader,
            history=self.history,
            bundle=bundle_section(self.model, self.bundle_info),
            extra=payload)

    def load_checkpoint(self, path, loader: DataLoader | None = None) -> int:
        """Restore training state saved by :meth:`save_checkpoint`.

        Returns the epoch the checkpoint was taken at, so training can
        continue from the next one.  The trainer must have been constructed
        over the same model/optimizer/scheduler structure as the saved run;
        pass the training ``loader`` to also restore its shuffle/augmentation
        RNG streams (required for bit-identical resume).
        """
        checkpoint = load_checkpoint(path)
        # Strict: a trainer with a scheduler (or a supplied loader) requires the
        # matching section — a silent partial restore would break the
        # bit-identical-resume guarantee without any signal.
        checkpoint.restore(model=self.model, optimizer=self.optimizer,
                           scheduler=self.scheduler, loader=loader)
        self.history = checkpoint.history()
        # Adopt the checkpoint's model spec as provenance: the restored
        # weights originate from *that* run (its init seed included), so
        # checkpoints written after resume must embed the same bundle section
        # as the uninterrupted run — byte-identity depends on it.
        bundle = checkpoint.get("bundle")
        if bundle is not None and hasattr(self.model, "model_spec"):
            self.model.model_spec = bundle["spec"]
        extra = checkpoint.extra
        self.diverged = bool(extra.get("diverged", False))
        self.divergence_epoch = extra.get("divergence_epoch")
        self.best_metric = extra.get("best_metric")
        self.best_epoch = extra.get("best_epoch")
        self.global_step = int(extra.get("step", 0))
        # A step checkpoint (mid-epoch) carries the in-progress epoch and the
        # partial metric sums; fit() consumes this to finish that epoch.
        if extra.get("batch_index") is not None:
            self._pending_partial = {
                "epoch": int(extra["epoch_in_progress"]),
                "totals": dict(extra.get("partial") or {}),
            }
        else:
            self._pending_partial = None
        return int(extra.get("epoch", len(self.history)))

    # -- full loop -----------------------------------------------------------------

    def fit(self, train_loader: DataLoader, epochs: int,
            eval_inputs: np.ndarray | None = None, eval_targets: np.ndarray | None = None,
            stop_on_divergence: bool = True, verbose: bool = False,
            checkpoint_dir: str | Path | None = None, checkpoint_every: int = 0,
            checkpoint_every_steps: int = 0,
            resume_from: str | Path | None = None, monitor: str | None = None,
            monitor_mode: str | None = None, early_stopping_patience: int | None = None,
            min_delta: float = 0.0) -> History:
        """Train for ``epochs`` epochs, recording train/eval metrics per epoch.

        Checkpoint/resume
        -----------------
        With ``checkpoint_dir`` set, ``checkpoint_every`` > 0 writes
        ``epoch_<k>.npz`` plus a rolling ``last.npz`` every N epochs, and the
        best epoch under the monitored metric is saved as ``best.npz``.
        ``checkpoint_every_steps`` > 0 additionally writes ``step_<k>.npz``
        plus a rolling ``last_step.npz`` every N optimization steps, carrying
        ``(epoch, batch_index)``, the loader's mid-epoch cursor and the
        partial-epoch metric sums.  ``resume_from`` restores either kind:
        an epoch checkpoint continues from the following epoch, a step
        checkpoint finishes the interrupted epoch from its recorded batch —
        in both cases the resumed run reproduces the uninterrupted run's
        history and final checkpoints *bit-identically* (a ``kill -9`` at any
        step loses at most ``checkpoint_every_steps`` batches of work and
        zero reproducibility).

        Best tracking / early stopping
        ------------------------------
        ``monitor`` names the history key to track (default: ``eval_accuracy``
        when eval data is given, else ``train_loss``); ``monitor_mode`` is
        ``"max"`` or ``"min"`` (inferred from the name by default).  With
        ``early_stopping_patience`` set, training stops after that many epochs
        without an improvement larger than ``min_delta``.
        """
        if checkpoint_every_steps and checkpoint_dir is None:
            raise ValueError("checkpoint_every_steps requires checkpoint_dir")
        self.stopped_early = False
        start_epoch = 0
        pending = None
        if resume_from is not None:
            start_epoch = self.load_checkpoint(resume_from, loader=train_loader)
            pending = self._pending_partial
            self._pending_partial = None
        else:
            # A fresh (non-resumed) fit must not inherit best-tracking state
            # from a previous stage on the same trainer.
            self.best_metric = None
            self.best_epoch = None
            self.global_step = 0
        has_eval = eval_inputs is not None and eval_targets is not None
        if monitor is None:
            monitor = "eval_accuracy" if has_eval else "train_loss"
        mode = monitor_mode or ("min" if monitor.endswith("loss") else "max")
        if checkpoint_dir is not None:
            checkpoint_dir = Path(checkpoint_dir)
            checkpoint_dir.mkdir(parents=True, exist_ok=True)
        if checkpoint_every_steps:
            self._step_checkpoint_dir = checkpoint_dir
            self._step_checkpoint_every = int(checkpoint_every_steps)

        try:
            return self._fit_loop(train_loader, epochs, start_epoch, pending,
                                  eval_inputs, eval_targets, has_eval,
                                  stop_on_divergence, verbose, checkpoint_dir,
                                  checkpoint_every, monitor, mode,
                                  early_stopping_patience, min_delta)
        finally:
            self._step_checkpoint_dir = None
            self._step_checkpoint_every = 0

    def _fit_loop(self, train_loader, epochs, start_epoch, pending,
                  eval_inputs, eval_targets, has_eval, stop_on_divergence,
                  verbose, checkpoint_dir, checkpoint_every, monitor, mode,
                  early_stopping_patience, min_delta) -> History:
        for epoch in range(start_epoch + 1, epochs + 1):
            start_totals = None
            if pending is not None and pending["epoch"] == epoch:
                start_totals = pending["totals"]
                pending = None
            train_metrics = self.train_epoch(train_loader, epoch=epoch,
                                             start_totals=start_totals)
            record = {
                "epoch": epoch,
                "train_loss": train_metrics["loss"],
                "train_accuracy": train_metrics["accuracy"],
                "diverged": self.diverged,
                "lr": self.optimizer.param_groups[0]["lr"],
            }
            if self.diverged and self.divergence_epoch is None:
                self.divergence_epoch = epoch
            if has_eval and not self.diverged:
                eval_metrics = self.evaluate(eval_inputs, eval_targets)
                record["eval_loss"] = eval_metrics["loss"]
                record["eval_accuracy"] = eval_metrics["accuracy"]
            self.history.append(**record)
            if verbose:
                print(f"epoch {epoch:3d}  " +
                      "  ".join(f"{key}={value:.4f}" for key, value in record.items()
                                if isinstance(value, float)))
            if self.scheduler is not None:
                self.scheduler.step()

            value = record.get(monitor)
            if value is not None and math.isfinite(value) and \
                    self._improved(value, mode, min_delta):
                self.best_metric = float(value)
                self.best_epoch = epoch
                if checkpoint_dir is not None:
                    self.save_checkpoint(checkpoint_dir / "best.npz", train_loader, epoch)
            if checkpoint_dir is not None and checkpoint_every and \
                    epoch % checkpoint_every == 0:
                # Rolling file first, numbered byte copy second (no second
                # serialization), as for the step checkpoints above.
                last = self.save_checkpoint(checkpoint_dir / "last.npz",
                                            train_loader, epoch)
                _atomic_copy(last, checkpoint_dir / f"epoch_{epoch:04d}.npz")

            if self.diverged and stop_on_divergence:
                break
            if early_stopping_patience is not None and self.best_epoch is not None \
                    and epoch - self.best_epoch >= early_stopping_patience:
                self.stopped_early = True
                break
        return self.history

    def _improved(self, value: float, mode: str, min_delta: float) -> bool:
        if self.best_metric is None:
            return True
        if mode == "min":
            return value < self.best_metric - min_delta
        return value > self.best_metric + min_delta

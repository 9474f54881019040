"""Training loop for the translation Transformers (Table II).

Teacher-forced cross-entropy with label smoothing and padding masking, Adam
with gradient-norm clipping at 1.0 (plus an optional per-step learning-rate
schedule such as :class:`~repro.optim.NoamLR`), and BLEU evaluation through
greedy decoding — the Table II recipe, scaled down.
"""

from __future__ import annotations

import math

import numpy as np

from ..data.translation import SyntheticTranslationTask
from ..metrics.bleu import bleu_score, EVALUATION_SETTINGS
from ..models.transformer import Transformer
from ..optim.lr_scheduler import LRScheduler
from ..optim.optimizer import Optimizer
from .history import History
from .trainer import DIVERGENCE_THRESHOLD

__all__ = ["Seq2SeqTrainer"]


class Seq2SeqTrainer:
    """Trainer for encoder–decoder translation models.

    ``scheduler`` (optional) is stepped once per optimization step; the
    training-order shuffle draws from ``seed``.
    """

    divergence_threshold = DIVERGENCE_THRESHOLD

    def __init__(self, model: Transformer, optimizer: Optimizer, loss_fn,
                 scheduler: LRScheduler | None = None, seed: int = 0):
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn
        self.scheduler = scheduler
        self.history = History()
        self.diverged = False
        self.rng = np.random.default_rng(seed)

    def train_epoch(self, source_ids: np.ndarray, decoder_inputs: np.ndarray,
                    decoder_targets: np.ndarray, batch_size: int = 32) -> dict:
        """One epoch of teacher-forced training over the full parallel corpus."""
        self.model.train()
        order = self.rng.permutation(len(source_ids))
        total_loss = 0.0
        total_batches = 0
        for start in range(0, len(order), batch_size):
            batch = order[start:start + batch_size]
            self.optimizer.zero_grad()
            logits = self.model(source_ids[batch], decoder_inputs[batch])
            loss = self.loss_fn(logits, decoder_targets[batch])
            loss_value = float(loss.data)
            if not math.isfinite(loss_value) or loss_value > self.divergence_threshold:
                self.diverged = True
                break
            loss.backward()
            self.optimizer.clip_grad_norm(1.0)
            self.optimizer.step()
            if self.scheduler is not None:
                self.scheduler.step()
            total_loss += loss_value
            total_batches += 1
        return {"loss": total_loss / max(total_batches, 1), "diverged": self.diverged}

    def evaluate_bleu(self, task: SyntheticTranslationTask, batch_size: int = 32,
                      max_len: int | None = None) -> dict:
        """Greedy-decode the test split and score BLEU under all Table II settings.

        Decoding runs through the KV-cached incremental path
        (:meth:`~repro.models.transformer.Transformer.greedy_decode`), which
        is byte-identical to — and much faster than — the full-prefix
        recompute of ``greedy_decode_reference``.  Returns a dictionary
        keyed by ``(tokenization, cased)`` plus the raw hypothesis strings
        under ``"hypotheses"``.
        """
        self.model.eval()
        source_ids, _, _ = task.test_arrays()
        hypotheses_ids: list[list[int]] = []
        for start in range(0, len(source_ids), batch_size):
            decoded = self.model.greedy_decode(
                source_ids[start:start + batch_size], bos_id=task.bos_id, eos_id=task.eos_id,
                max_len=max_len or task.max_len)
            hypotheses_ids.extend(decoded)
        hypotheses = task.hypotheses_from_ids(hypotheses_ids)
        references = task.references()
        scores = {}
        for tokenization, cased in EVALUATION_SETTINGS:
            scores[(tokenization, cased)] = bleu_score(
                hypotheses, references, tokenization=tokenization, cased=cased)
        scores["hypotheses"] = hypotheses
        return scores

    def fit(self, task: SyntheticTranslationTask, epochs: int,
            batch_size: int = 32) -> History:
        """Train on the task's training split, recording the loss per epoch."""
        source_ids, decoder_inputs, decoder_targets = task.training_arrays()
        for epoch in range(1, epochs + 1):
            metrics = self.train_epoch(source_ids, decoder_inputs, decoder_targets, batch_size)
            self.history.append(epoch=epoch, train_loss=metrics["loss"],
                                diverged=self.diverged)
            if self.diverged:
                break
        return self.history

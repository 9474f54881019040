"""Tests for the training harnesses (classification trainer, seq2seq trainer, history)."""

import numpy as np
import pytest

from repro import nn
from repro.data import DataLoader, SyntheticTranslationTask
from repro.models import MLPClassifier, Transformer
from repro.optim import Adam, SGD
from repro.tensor import Tensor
from repro.training import DataParallelTrainer, History, Seq2SeqTrainer, Trainer
from repro.training.trainer import DIVERGENCE_THRESHOLD


def _toy_classification(n=120, features=8, seed=0):
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((n, features)).astype(np.float32)
    targets = (inputs[:, 0] + inputs[:, 1] > 0).astype(np.int64)
    return inputs, targets


class TestHistory:
    def test_append_and_columns(self):
        history = History()
        history.append(train_loss=1.0)
        history.append(train_loss=0.5, eval_accuracy=0.8)
        assert len(history) == 2
        assert history.column("train_loss") == [1.0, 0.5]
        assert history.last("eval_accuracy") == 0.8
        assert history[0]["epoch"] == 1

    def test_best_ignores_non_finite(self):
        history = History()
        history.append(train_loss=float("inf"))
        history.append(train_loss=0.7)
        assert history.best("train_loss", mode="min") == 0.7

    def test_to_list_copies(self):
        history = History()
        history.append(metric=1.0)
        exported = history.to_list()
        exported[0]["metric"] = 99
        assert history[0]["metric"] == 1.0


class TestTrainer:
    def _trainer(self, model, lr=0.1):
        return Trainer(model, SGD(model.parameters(), lr=lr), nn.CrossEntropyLoss())

    def test_loss_decreases(self):
        inputs, targets = _toy_classification()
        model = MLPClassifier(8, 2, hidden_sizes=(16,), seed=0)
        trainer = self._trainer(model)
        loader = DataLoader(inputs, targets, batch_size=32, seed=0)
        history = trainer.fit(loader, epochs=8)
        losses = history.column("train_loss")
        assert losses[-1] < losses[0]
        assert history.last("train_accuracy") > 0.8

    def test_evaluate_returns_loss_and_accuracy(self):
        inputs, targets = _toy_classification()
        model = MLPClassifier(8, 2, hidden_sizes=(8,), seed=1)
        trainer = self._trainer(model)
        metrics = trainer.evaluate(inputs, targets)
        assert set(metrics) == {"loss", "accuracy"}
        assert 0.0 <= metrics["accuracy"] <= 1.0

    def test_eval_metrics_recorded_when_provided(self):
        inputs, targets = _toy_classification()
        model = MLPClassifier(8, 2, hidden_sizes=(8,), seed=2)
        trainer = self._trainer(model)
        loader = DataLoader(inputs, targets, batch_size=32, seed=0)
        history = trainer.fit(loader, epochs=2, eval_inputs=inputs, eval_targets=targets)
        assert "eval_accuracy" in history[0]

    def test_divergence_detection_stops_training(self):
        inputs, targets = _toy_classification()
        model = MLPClassifier(8, 2, hidden_sizes=(16,), seed=3)
        # Absurd learning rate guarantees the loss explodes.
        trainer = Trainer(model, SGD(model.parameters(), lr=1e6), nn.CrossEntropyLoss())
        trainer.divergence_threshold = 50.0
        loader = DataLoader(inputs, targets, batch_size=32, seed=0)
        history = trainer.fit(loader, epochs=10)
        assert trainer.diverged
        assert len(history) < 10
        assert trainer.divergence_epoch is not None

    def test_step_returns_loss_predictions_and_stepped(self):
        inputs, targets = _toy_classification(n=32)
        model = MLPClassifier(8, 2, hidden_sizes=(8,), seed=6)
        trainer = self._trainer(model)
        expected = model(Tensor(inputs)).data.argmax(axis=-1)  # pre-step logits
        loss_value, predictions, stepped = trainer._optimize_batch(inputs, targets)
        assert isinstance(loss_value, float) and np.isfinite(loss_value)
        assert stepped is True
        np.testing.assert_array_equal(predictions, expected)

    def test_diverged_step_applies_no_update(self):
        inputs, targets = _toy_classification(n=32)
        model = MLPClassifier(8, 2, hidden_sizes=(8,), seed=7)
        trainer = self._trainer(model)
        trainer.divergence_threshold = 1e-9   # every batch "diverges"
        before = [p.data.copy() for p in model.parameters()]
        loss_value, predictions, stepped = trainer._optimize_batch(inputs, targets)
        assert stepped is False
        assert loss_value > trainer.divergence_threshold
        assert predictions.shape == (32,)
        for parameter, snapshot in zip(model.parameters(), before):
            np.testing.assert_array_equal(parameter.data, snapshot)
        # The per-instance override leaves the shared class constant alone.
        assert Trainer.divergence_threshold == DIVERGENCE_THRESHOLD

    def test_diverged_epoch_loss_is_size_weighted_mean_of_every_batch(self):
        inputs, targets = _toy_classification(n=96)
        model = MLPClassifier(8, 2, hidden_sizes=(8,), seed=7)
        trainer = self._trainer(model)
        loader = DataLoader(inputs, targets, batch_size=32, seed=0)
        step = trainer._optimize_batch
        losses = []

        def third_batch_diverges(batch_inputs, batch_targets):
            if len(losses) == 2:
                trainer.divergence_threshold = 0.0
            result = step(batch_inputs, batch_targets)
            losses.append(result[0])
            return result

        trainer._optimize_batch = third_batch_diverges
        metrics = trainer.train_epoch(loader)
        assert metrics["diverged"] and len(losses) == 3
        # Three 32-row batches: the weighted mean is the plain mean, so it
        # lies between the smallest and largest batch loss.
        assert metrics["loss"] == pytest.approx(sum(losses) / 3)
        assert min(losses) <= metrics["loss"] <= max(losses)

    def test_divergence_threshold_shared_by_all_trainers(self):
        for cls in (Trainer, DataParallelTrainer, Seq2SeqTrainer):
            assert cls.divergence_threshold == DIVERGENCE_THRESHOLD == 1e4

    def test_scheduler_steps_per_epoch(self):
        from repro.optim import MultiStepLR
        inputs, targets = _toy_classification()
        model = MLPClassifier(8, 2, hidden_sizes=(8,), seed=5)
        optimizer = SGD(model.parameters(), lr=1.0)
        scheduler = MultiStepLR(optimizer, milestones=[1], gamma=0.1)
        trainer = Trainer(model, optimizer, nn.CrossEntropyLoss(), scheduler=scheduler)
        loader = DataLoader(inputs, targets, batch_size=64, seed=0)
        trainer.fit(loader, epochs=2)
        assert optimizer.param_groups[0]["lr"] == pytest.approx(0.1)


class TestSeq2SeqTrainer:
    def _setup(self, neuron_type="linear", epochs=2):
        task = SyntheticTranslationTask(train_size=48, test_size=8, seed=0)
        model = Transformer(len(task.source_vocab), len(task.target_vocab), model_dim=16,
                            num_heads=2, num_layers=1, hidden_dim=32, max_len=task.max_len,
                            neuron_type=neuron_type, rank=3, seed=0)
        trainer = Seq2SeqTrainer(model, Adam(model.parameters(), lr=3e-3),
                                 nn.LabelSmoothingLoss(0.1, ignore_index=task.pad_id))
        return task, trainer, epochs

    def test_training_reduces_loss(self):
        task, trainer, _ = self._setup()
        history = trainer.fit(task, epochs=3, batch_size=16)
        losses = history.column("train_loss")
        assert losses[-1] < losses[0]

    def test_evaluate_bleu_returns_all_settings(self):
        task, trainer, _ = self._setup()
        trainer.fit(task, epochs=1, batch_size=16)
        scores = trainer.evaluate_bleu(task)
        assert ("13a", True) in scores and ("international", False) in scores
        assert len(scores["hypotheses"]) == 8
        assert all(0.0 <= scores[key] <= 100.0 for key in scores if key != "hypotheses")

    def test_gradients_clipped_at_unit_norm(self):
        task, trainer, _ = self._setup()
        norms = []
        clip = trainer.optimizer.clip_grad_norm

        def recording_clip(max_norm):
            norms.append(max_norm)
            clip(max_norm)
            total = np.sqrt(sum(float((p.grad.astype(np.float64) ** 2).sum())
                                for p in trainer.optimizer.parameters()
                                if p.grad is not None))
            assert total <= max_norm * (1 + 1e-5)

        trainer.optimizer.clip_grad_norm = recording_clip
        source, decoder_input, decoder_target = task.training_arrays()
        trainer.train_epoch(source, decoder_input, decoder_target, batch_size=16)
        assert norms and set(norms) == {1.0}

    def test_quadratic_transformer_trains(self):
        task, trainer, _ = self._setup(neuron_type="proposed")
        history = trainer.fit(task, epochs=2, batch_size=16)
        assert not trainer.diverged
        assert np.isfinite(history.last("train_loss"))

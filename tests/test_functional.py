"""Tests for the composite differentiable functions (softmax family, losses, dropout)."""

import numpy as np
import pytest

from repro.tensor import Tensor
from repro.tensor import functional as F


class TestSoftmaxFamily:
    def setup_method(self):
        self.rng = np.random.default_rng(0)
        self.logits = self.rng.standard_normal((4, 7)).astype(np.float64)

    def test_softmax_sums_to_one(self):
        probs = F.softmax(Tensor(self.logits), axis=-1)
        np.testing.assert_allclose(probs.data.sum(axis=-1), np.ones(4), rtol=1e-6)

    def test_softmax_positive(self):
        probs = F.softmax(Tensor(self.logits), axis=-1)
        assert np.all(probs.data > 0)

    def test_softmax_matches_reference(self):
        expected = np.exp(self.logits) / np.exp(self.logits).sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(F.softmax(Tensor(self.logits)).data, expected, rtol=1e-6)

    def test_softmax_shift_invariance(self):
        shifted = F.softmax(Tensor(self.logits + 100.0))
        np.testing.assert_allclose(shifted.data, F.softmax(Tensor(self.logits)).data, rtol=1e-5)

    def test_softmax_numerical_stability_large_values(self):
        probs = F.softmax(Tensor(np.array([[1e4, 0.0, -1e4]])))
        assert np.all(np.isfinite(probs.data))
        np.testing.assert_allclose(probs.data[0, 0], 1.0, atol=1e-6)

    def test_log_softmax_equals_log_of_softmax(self):
        log_probs = F.log_softmax(Tensor(self.logits))
        np.testing.assert_allclose(log_probs.data, np.log(F.softmax(Tensor(self.logits)).data),
                                   rtol=1e-5)

    def test_softmax_other_axis(self):
        probs = F.softmax(Tensor(self.logits), axis=0)
        np.testing.assert_allclose(probs.data.sum(axis=0), np.ones(7), rtol=1e-6)


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(np.ones((10, 10)))
        out = F.dropout(x, 0.5, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_zero_probability_is_identity(self):
        x = Tensor(np.ones((5, 5)))
        assert F.dropout(x, 0.0, training=True) is x

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, training=True)

    def test_scaling_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_dropped_elements_are_zero(self):
        rng = np.random.default_rng(1)
        out = F.dropout(Tensor(np.ones(1000)), 0.5, training=True, rng=rng)
        dropped_fraction = float((out.data == 0).mean())
        assert 0.4 < dropped_fraction < 0.6


class TestOneHot:
    def test_shape_and_values(self):
        encoded = F.one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_allclose(encoded, np.eye(3)[[0, 2, 1]])

    def test_2d_labels(self):
        encoded = F.one_hot(np.array([[0, 1], [2, 0]]), 3)
        assert encoded.shape == (2, 2, 3)
        assert encoded[1, 0, 2] == 1.0


class TestCrossEntropy:
    def setup_method(self):
        self.rng = np.random.default_rng(3)

    def test_matches_manual_computation(self):
        logits = self.rng.standard_normal((6, 4)).astype(np.float64)
        targets = np.array([0, 1, 2, 3, 0, 1])
        loss = F.cross_entropy_with_logits(Tensor(logits), targets)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(6), targets].mean()
        assert float(loss.data) == pytest.approx(expected, rel=1e-5)

    def test_perfect_prediction_low_loss(self):
        logits = np.full((3, 4), -20.0)
        logits[np.arange(3), [1, 2, 3]] = 20.0
        loss = F.cross_entropy_with_logits(Tensor(logits), np.array([1, 2, 3]))
        assert float(loss.data) < 1e-3

    def test_label_smoothing_increases_confident_loss(self):
        logits = np.full((3, 4), -10.0)
        logits[np.arange(3), [0, 1, 2]] = 10.0
        plain = F.cross_entropy_with_logits(Tensor(logits), np.array([0, 1, 2]))
        smoothed = F.cross_entropy_with_logits(Tensor(logits), np.array([0, 1, 2]),
                                               label_smoothing=0.1)
        assert float(smoothed.data) > float(plain.data)

    def test_ignore_index_masks_positions(self):
        logits = self.rng.standard_normal((2, 3, 5)).astype(np.float64)
        targets = np.array([[1, 2, 0], [3, 0, 0]])
        loss_masked = F.cross_entropy_with_logits(Tensor(logits), targets, ignore_index=0)
        # Only the three non-padding positions should contribute.
        log_probs = logits - logits.max(axis=-1, keepdims=True)
        log_probs = log_probs - np.log(np.exp(log_probs).sum(axis=-1, keepdims=True))
        contributions = [-log_probs[0, 0, 1], -log_probs[0, 1, 2], -log_probs[1, 0, 3]]
        assert float(loss_masked.data) == pytest.approx(np.mean(contributions), rel=1e-5)

    def test_sequence_logits_supported(self):
        logits = self.rng.standard_normal((2, 4, 6))
        targets = self.rng.integers(0, 6, size=(2, 4))
        loss = F.cross_entropy_with_logits(Tensor(logits), targets)
        assert np.isfinite(float(loss.data))


class TestMSE:
    def test_zero_for_equal_inputs(self):
        x = Tensor(np.ones((3, 3)))
        assert float(F.mse_loss(x, np.ones((3, 3))).data) == pytest.approx(0.0)

    def test_known_value(self):
        prediction = Tensor(np.array([1.0, 3.0]))
        assert float(F.mse_loss(prediction, np.array([0.0, 0.0])).data) == pytest.approx(5.0)

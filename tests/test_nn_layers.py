"""Tests for the standard layers: dense, conv, norm, pooling, dropout, embedding, losses."""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor


RNG = np.random.default_rng(0)


class TestLinear:
    def test_output_matches_manual(self):
        layer = nn.Linear(4, 3, rng=np.random.default_rng(1))
        x = RNG.standard_normal((5, 4)).astype(np.float32)
        out = layer(Tensor(x))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(out.data, expected, rtol=1e-5)

    def test_no_bias(self):
        layer = nn.Linear(4, 3, bias=False, rng=np.random.default_rng(1))
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_3d_input(self):
        layer = nn.Linear(4, 6, rng=np.random.default_rng(1))
        out = layer(Tensor(RNG.standard_normal((2, 7, 4)).astype(np.float32)))
        assert out.shape == (2, 7, 6)

    def test_repr(self):
        assert "in=4" in repr(nn.Linear(4, 3, rng=np.random.default_rng(0)))


class TestConv2d:
    def test_output_shape(self):
        layer = nn.Conv2d(3, 8, 3, stride=2, padding=1, rng=np.random.default_rng(2))
        out = layer(Tensor(RNG.standard_normal((2, 3, 8, 8)).astype(np.float32)))
        assert out.shape == (2, 8, 4, 4)

    def test_parameter_count(self):
        layer = nn.Conv2d(3, 8, 3, rng=np.random.default_rng(2))
        assert layer.num_parameters() == 8 * 3 * 9 + 8

    def test_backward_produces_gradients(self):
        layer = nn.Conv2d(2, 4, 3, padding=1, rng=np.random.default_rng(3))
        out = layer(Tensor(RNG.standard_normal((1, 2, 5, 5)).astype(np.float32)))
        out.sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestPoolingLayers:
    def test_max_pool_module(self):
        layer = nn.MaxPool2d(2)
        out = layer(Tensor(RNG.standard_normal((1, 2, 6, 6)).astype(np.float32)))
        assert out.shape == (1, 2, 3, 3)

    def test_global_avg_pool(self):
        out = nn.GlobalAvgPool2d()(Tensor(np.ones((2, 5, 4, 4), dtype=np.float32)))
        assert out.shape == (2, 5)

    def test_flatten(self):
        out = nn.Flatten()(Tensor(np.zeros((3, 2, 4, 4), dtype=np.float32)))
        assert out.shape == (3, 32)


class TestDropoutLayer:
    def test_training_vs_eval(self):
        layer = nn.Dropout(0.5, rng=np.random.default_rng(4))
        x = Tensor(np.ones((20, 20), dtype=np.float32))
        layer.train()
        assert float((layer(x).data == 0).mean()) > 0.2
        layer.eval()
        np.testing.assert_allclose(layer(x).data, 1.0)


class TestEmbedding:
    def test_lookup(self):
        layer = nn.Embedding(10, 4, rng=np.random.default_rng(5))
        ids = np.array([[1, 2], [3, 4]])
        out = layer(ids)
        assert out.shape == (2, 2, 4)
        np.testing.assert_allclose(out.data[0, 0], layer.weight.data[1])

    def test_padding_idx_zeroed(self):
        layer = nn.Embedding(10, 4, rng=np.random.default_rng(5), padding_idx=0)
        np.testing.assert_allclose(layer.weight.data[0], 0.0)

    def test_gradients_accumulate_per_token(self):
        layer = nn.Embedding(6, 3, rng=np.random.default_rng(6))
        out = layer(np.array([[1, 1, 2]]))
        out.sum().backward()
        # Token 1 appears twice, so its gradient should be twice token 2's.
        np.testing.assert_allclose(layer.weight.grad[1], 2 * layer.weight.grad[2], rtol=1e-6)


class TestBatchNorm:
    def test_training_normalizes_batch(self):
        layer = nn.BatchNorm2d(3)
        x = RNG.standard_normal((8, 3, 5, 5)).astype(np.float32) * 4 + 2
        out = layer(Tensor(x))
        assert abs(float(out.data.mean())) < 1e-4
        assert float(out.data.std()) == pytest.approx(1.0, abs=0.05)

    def test_running_stats_updated(self):
        layer = nn.BatchNorm2d(2, momentum=0.5)
        x = np.ones((4, 2, 3, 3), dtype=np.float32) * 10
        layer(Tensor(x))
        assert np.all(layer._buffers["running_mean"] > 0)

    def test_eval_uses_running_stats(self):
        layer = nn.BatchNorm2d(2)
        x = RNG.standard_normal((16, 2, 4, 4)).astype(np.float32)
        for _ in range(20):
            layer(Tensor(x))
        layer.eval()
        out_eval = layer(Tensor(x))
        layer.train()
        out_train = layer(Tensor(x))
        np.testing.assert_allclose(out_eval.data, out_train.data, atol=0.2)

    def test_input_rank_validation(self):
        with pytest.raises(ValueError):
            nn.BatchNorm2d(2)(Tensor(np.zeros((2, 2))))
        with pytest.raises(ValueError):
            nn.BatchNorm1d(2)(Tensor(np.zeros((2, 2, 2, 2))))

    def test_batchnorm1d(self):
        layer = nn.BatchNorm1d(4)
        out = layer(Tensor(RNG.standard_normal((16, 4)).astype(np.float32) * 3))
        assert abs(float(out.data.mean())) < 1e-4


class TestLayerNorm:
    def test_normalizes_last_dim(self):
        layer = nn.LayerNorm(8)
        x = RNG.standard_normal((2, 5, 8)).astype(np.float32) * 3 + 1
        out = layer(Tensor(x))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-2)

    def test_affine_parameters_trainable(self):
        layer = nn.LayerNorm(4)
        assert len(layer.parameters()) == 2


class TestActivationsModules:
    @pytest.mark.parametrize("module,reference", [
        (nn.ReLU(), lambda x: np.maximum(x, 0)),
    ])
    def test_matches_reference(self, module, reference):
        x = RNG.standard_normal((3, 4)).astype(np.float64)
        np.testing.assert_allclose(module(Tensor(x)).data, reference(x), rtol=1e-5, atol=1e-6)

    def test_relu_gradient_is_positive_mask(self):
        x = Tensor(np.array([[-1.5, 0.5], [2.0, -0.25]]), requires_grad=True)
        nn.ReLU()(x).sum().backward()
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0], [1.0, 0.0]])


class TestLosses:
    def test_cross_entropy_uniform_logits(self):
        loss = nn.CrossEntropyLoss()(Tensor(np.zeros((4, 10))), np.arange(4) % 10)
        assert float(loss.data) == pytest.approx(np.log(10), rel=1e-4)

    def test_label_smoothing_loss(self):
        loss = nn.LabelSmoothingLoss(0.1)(Tensor(np.zeros((4, 10))), np.zeros(4, dtype=int))
        assert float(loss.data) == pytest.approx(np.log(10), rel=1e-4)

    def test_mse_module(self):
        loss = nn.MSELoss()(Tensor(np.array([2.0])), np.array([0.0]))
        assert float(loss.data) == pytest.approx(4.0)

    def test_init_helpers_shapes(self):
        rng = np.random.default_rng(0)
        assert nn.init.kaiming_normal((8, 4, 3, 3), rng).shape == (8, 4, 3, 3)
        q = nn.init.orthogonal((10, 3), rng)
        np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-5)
        q_gained = nn.init.orthogonal((10, 3), rng, gain=2.0)
        np.testing.assert_allclose(q_gained.T @ q_gained, 4 * np.eye(3), atol=1e-4)


class TestInit:
    # fan_in = 16 * 3 * 3 = 144 for every conv-shaped draw below.
    SHAPE = (64, 16, 3, 3)

    def test_kaiming_normal_std_scales_with_fan_in(self):
        weight = nn.init.kaiming_normal(self.SHAPE, np.random.default_rng(0))
        assert float(weight.std()) == pytest.approx(np.sqrt(2.0 / 144), rel=0.05)
        assert abs(float(weight.mean())) < 0.01

    def test_kaiming_uniform_bound_and_std(self):
        weight = nn.init.kaiming_uniform(self.SHAPE, np.random.default_rng(0))
        bound = np.sqrt(2.0) * np.sqrt(3.0 / 144)
        assert float(np.abs(weight).max()) <= bound
        # A uniform draw on [-b, b] has std b / sqrt(3): the same He std.
        assert float(weight.std()) == pytest.approx(np.sqrt(2.0 / 144), rel=0.05)

    def test_orthogonal_wide_matrix_has_orthonormal_rows(self):
        q = nn.init.orthogonal((3, 10), np.random.default_rng(0))
        assert q.shape == (3, 10)
        np.testing.assert_allclose(q @ q.T, np.eye(3), atol=1e-5)

    def test_orthogonal_conv_shape_flattens_fan_in(self):
        q = nn.init.orthogonal((4, 2, 3, 3), np.random.default_rng(0))
        flat = q.reshape(4, -1)
        np.testing.assert_allclose(flat @ flat.T, np.eye(4), atol=1e-5)

    def test_normal_and_uniform_use_their_parameters(self):
        rng = np.random.default_rng(0)
        drawn = nn.init.normal((20000,), rng, mean=1.0, std=0.5)
        assert float(drawn.mean()) == pytest.approx(1.0, abs=0.02)
        assert float(drawn.std()) == pytest.approx(0.5, rel=0.03)
        spread = nn.init.uniform((20000,), rng, low=2.0, high=3.0)
        assert 2.0 <= float(spread.min()) and float(spread.max()) < 3.0

    def test_constant_initializers_honour_dtype(self):
        assert nn.init.zeros((2, 3)).dtype == np.float32
        np.testing.assert_array_equal(nn.init.ones((2,), dtype=np.float64), [1.0, 1.0])
        assert nn.init.ones((2,), dtype=np.float64).dtype == np.float64

    @pytest.mark.parametrize("initializer", ["kaiming_normal", "kaiming_uniform",
                                             "orthogonal", "normal", "uniform"])
    def test_deterministic_given_generator_seed(self, initializer):
        draw = getattr(nn.init, initializer)
        first = draw((6, 5), np.random.default_rng(3))
        second = draw((6, 5), np.random.default_rng(3))
        other = draw((6, 5), np.random.default_rng(4))
        assert first.dtype == np.float32
        np.testing.assert_array_equal(first, second)
        assert not np.array_equal(first, other)

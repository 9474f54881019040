"""Tests for the model zoo: ResNets, SimpleCNN, MLP."""

import numpy as np
import pytest

from repro import nn
from repro.experiments import get_scale
from repro.models import BasicBlock, CifarResNet, MLPClassifier, ResNet18, SimpleCNN
from repro.quadratic import EfficientQuadraticConv2d, KervolutionConv2d
from repro.tensor import Tensor


RNG = np.random.default_rng(0)


def _images(n=2, channels=3, size=12):
    return Tensor(RNG.standard_normal((n, channels, size, size)).astype(np.float32))


class TestCifarResNet:
    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            CifarResNet(21)

    def test_named_depths_are_valid(self):
        depths = get_scale("paper").resnet_depths
        assert depths == (20, 32, 44, 56, 110)
        assert all((depth - 2) % 6 == 0 for depth in depths)

    @pytest.mark.parametrize("depth", get_scale("paper").resnet_depths)
    def test_paper_depth_builds(self, depth):
        model = CifarResNet(depth, num_classes=4, base_width=4, seed=0)
        assert model.depth == depth
        assert model.num_conv_layers == depth - 1
        blocks = [module for module in model.modules() if isinstance(module, BasicBlock)]
        assert len(blocks) == 3 * (depth - 2) // 6

    def test_output_shape(self):
        model = CifarResNet(8, num_classes=7, base_width=4, seed=0)
        assert model(_images()).shape == (2, 7)

    def test_conv_layer_count(self):
        # depth = 6n+2 -> 6n 3x3 convs in the blocks + 1 stem conv.
        model = CifarResNet(14, base_width=4, seed=0)
        assert model.num_conv_layers == 13

    def test_parameters_grow_with_depth(self):
        shallow = CifarResNet(8, base_width=4, seed=0)
        deep = CifarResNet(20, base_width=4, seed=0)
        assert deep.num_parameters() > shallow.num_parameters()

    def test_width_multiplier_increases_parameters(self):
        base = CifarResNet(8, base_width=4, seed=0)
        wide = CifarResNet(8, base_width=4, width_multiplier=1.5, seed=0)
        assert wide.num_parameters() > base.num_parameters()

    @pytest.mark.parametrize("neuron_type", ["linear", "proposed", "quad2", "quad_residual"])
    def test_neuron_types_forward_and_backward(self, neuron_type):
        model = CifarResNet(8, num_classes=5, neuron_type=neuron_type, rank=3, base_width=4,
                            seed=1)
        logits = model(_images())
        loss = nn.CrossEntropyLoss()(logits, np.array([0, 1]))
        loss.backward()
        assert np.isfinite(float(loss.data))
        assert all(parameter.grad is not None for parameter in model.parameters())

    def test_proposed_network_contains_quadratic_convs(self):
        model = CifarResNet(8, neuron_type="proposed", rank=3, base_width=4, seed=0)
        quadratic_layers = [module for module in model.modules()
                            if isinstance(module, EfficientQuadraticConv2d)]
        assert len(quadratic_layers) == model.num_conv_layers

    def test_proposed_parameter_overhead_is_small(self):
        # base_width 10 with rank 9 keeps every stage width a multiple of k+1,
        # so the comparison isolates the per-output overhead of Eq. (9).
        linear = CifarResNet(14, neuron_type="linear", base_width=10, seed=0)
        proposed = CifarResNet(14, neuron_type="proposed", rank=9, base_width=10, seed=0)
        assert proposed.num_parameters() < 1.05 * linear.num_parameters()

    def test_deterministic_with_seed(self):
        a = CifarResNet(8, base_width=4, seed=5)
        b = CifarResNet(8, base_width=4, seed=5)
        np.testing.assert_allclose(a.stem.weight.data, b.stem.weight.data)

    def test_downsampling_halves_resolution_twice(self):
        model = CifarResNet(8, base_width=4, seed=0)
        captured = {}
        model.stage3.register_forward_hook(
            lambda module, inputs, output: captured.setdefault("shape", output.shape))
        model(_images(size=16))
        assert captured["shape"][2] == 4


class TestResNet18:
    def test_output_and_conv_count(self):
        model = ResNet18(num_classes=6, base_width=4, seed=0)
        assert model(_images()).shape == (2, 6)
        assert model.num_conv_layers == 17

    def test_neuron_first_n_limits_kervolution_layers(self):
        model = ResNet18(num_classes=6, neuron_type="kervolution", base_width=4,
                         neuron_first_n=3, neuron_kwargs={"degree": 2}, seed=0)
        kerv_layers = [module for module in model.modules()
                       if isinstance(module, KervolutionConv2d)]
        assert len(kerv_layers) == 3

    def test_neuron_everywhere_when_first_n_none(self):
        model = ResNet18(num_classes=6, neuron_type="proposed", rank=3, base_width=4, seed=0)
        quadratic_layers = [module for module in model.modules()
                            if isinstance(module, EfficientQuadraticConv2d)]
        assert len(quadratic_layers) == 17


class TestSimpleCNNAndMLP:
    def test_simple_cnn_shapes(self):
        model = SimpleCNN(num_classes=5, base_width=4, seed=0)
        assert model(_images(size=16)).shape == (2, 5)

    def test_simple_cnn_proposed(self):
        model = SimpleCNN(num_classes=5, neuron_type="proposed", rank=3, base_width=4, seed=0)
        out = model(_images(size=16))
        out.sum().backward()
        assert out.shape == (2, 5)

    def test_mlp_flattens_images(self):
        model = MLPClassifier(3 * 8 * 8, 4, hidden_sizes=(16,), seed=0)
        assert model(_images(size=8)).shape == (2, 4)

    def test_mlp_neuron_types(self):
        for neuron_type in ("linear", "proposed", "quad1"):
            model = MLPClassifier(10, 3, hidden_sizes=(8,), neuron_type=neuron_type, rank=2,
                                  seed=0)
            out = model(Tensor(RNG.standard_normal((4, 10)).astype(np.float32)))
            assert out.shape == (4, 3)

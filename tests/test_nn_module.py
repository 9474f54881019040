"""Tests for the Module/Parameter system, containers and hooks."""

import numpy as np
import pytest

from repro import nn
from repro.tensor import Tensor


class TinyBlock(nn.Module):
    def __init__(self):
        super().__init__()
        self.linear = nn.Linear(4, 3, rng=np.random.default_rng(0))
        self.scale = nn.Parameter(np.ones(3, dtype=np.float32), tag="quadratic")

    def forward(self, x):
        return self.linear(x) * self.scale


class TestParameterRegistration:
    def test_parameters_are_collected(self):
        block = TinyBlock()
        names = [name for name, _ in block.named_parameters()]
        assert "scale" in names
        assert "linear.weight" in names
        assert "linear.bias" in names
        assert len(block.parameters()) == 3

    def test_parameter_tags(self):
        block = TinyBlock()
        tags = {name: parameter.tag for name, parameter in block.named_parameters()}
        assert tags["scale"] == "quadratic"
        assert tags["linear.weight"] == "linear"

    def test_parameter_requires_grad(self):
        assert all(parameter.requires_grad for parameter in TinyBlock().parameters())

    def test_num_parameters(self):
        block = TinyBlock()
        assert block.num_parameters() == 4 * 3 + 3 + 3

    def test_nested_modules(self):
        outer = nn.Sequential(TinyBlock(), nn.ReLU(), TinyBlock())
        assert len(outer.parameters()) == 6
        module_names = [name for name, _ in outer.named_modules()]
        assert any(name.endswith("linear") for name in module_names)

    def test_zero_grad_clears_all(self):
        block = TinyBlock()
        out = block(Tensor(np.ones((2, 4), dtype=np.float32)))
        out.sum().backward()
        assert any(parameter.grad is not None for parameter in block.parameters())
        block.zero_grad()
        assert all(parameter.grad is None for parameter in block.parameters())


class TestTrainEvalMode:
    def test_mode_propagates_to_children(self):
        model = nn.Sequential(TinyBlock(), nn.Dropout(0.5))
        model.eval()
        assert all(not module.training for module in model.modules())
        model.train()
        assert all(module.training for module in model.modules())

    def test_train_and_eval_return_self_for_chaining(self):
        model = nn.Sequential(TinyBlock(), nn.Dropout(0.5))
        assert model.eval() is model
        assert model.train() is model
        assert model.train(False) is model
        # The chained style call sites rely on: mode-switch then use, inline.
        out = model.eval()(Tensor(np.ones((2, 4), dtype=np.float32)))
        assert out.shape == (2, 3)

    def test_eval_forward_is_deterministic_with_dropout_and_batchnorm(self):
        rng = np.random.default_rng(0)
        model = nn.Sequential(
            nn.Linear(4, 8, rng=rng),
            nn.BatchNorm1d(8),
            nn.Dropout(0.5, rng=np.random.default_rng(1)),
            nn.Linear(8, 3, rng=rng),
        )
        x = np.random.default_rng(2).standard_normal((6, 4)).astype(np.float32)

        # Train-mode forwards differ (dropout draws fresh masks) and move the
        # BatchNorm running statistics.
        train_a = model.train()(Tensor(x)).data.copy()
        train_b = model(Tensor(x)).data.copy()
        assert not np.array_equal(train_a, train_b)

        # Eval-mode forwards are byte-identical: dropout is the identity and
        # BatchNorm reads (without updating) its running statistics.
        eval_a = model.eval()(Tensor(x)).data.copy()
        eval_b = model(Tensor(x)).data.copy()
        assert np.array_equal(eval_a, eval_b)
        assert eval_a.tobytes() == eval_b.tobytes()


class TestStateDict:
    def test_roundtrip(self):
        source = TinyBlock()
        destination = TinyBlock()
        source.scale.data[:] = 7.0
        state = source.state_dict()
        destination.load_state_dict(state)
        np.testing.assert_allclose(destination.scale.data, source.scale.data)
        np.testing.assert_allclose(destination.linear.weight.data, source.linear.weight.data)

    def test_unknown_key_raises(self):
        block = TinyBlock()
        with pytest.raises(KeyError):
            block.load_state_dict({"bogus": np.zeros(1)})

    def test_buffers_saved_and_restored(self):
        bn_source = nn.BatchNorm2d(3)
        bn_source._buffers["running_mean"][:] = 5.0
        bn_target = nn.BatchNorm2d(3)
        bn_target.load_state_dict(bn_source.state_dict())
        np.testing.assert_allclose(bn_target._buffers["running_mean"], 5.0)


class TestContainers:
    def test_sequential_order(self):
        model = nn.Sequential(nn.Linear(2, 4, rng=np.random.default_rng(0)), nn.ReLU())
        out = model(Tensor(np.ones((1, 2), dtype=np.float32)))
        assert out.shape == (1, 4)
        assert np.all(out.data >= 0)

    def test_sequential_indexing_and_len(self):
        model = nn.Sequential(nn.ReLU(), nn.Identity(), nn.Flatten())
        assert len(model) == 3
        assert isinstance(model[1], nn.Identity)

    def test_module_list(self):
        blocks = nn.ModuleList([nn.Linear(3, 3, rng=np.random.default_rng(i))
                                for i in range(4)])
        assert len(blocks) == 4
        assert len(blocks.parameters()) == 8
        blocks.append(nn.Linear(3, 3, rng=np.random.default_rng(9)))
        assert len(blocks) == 5

    def test_identity(self):
        x = Tensor(np.ones((2, 2)))
        assert nn.Identity()(x) is x


class TestHooks:
    def test_forward_hook_called_with_output(self):
        captured = []
        layer = nn.Linear(2, 3, rng=np.random.default_rng(0))
        layer.register_forward_hook(lambda module, inputs, output: captured.append(output.shape))
        layer(Tensor(np.ones((5, 2), dtype=np.float32)))
        assert captured == [(5, 3)]

    def test_clear_forward_hooks(self):
        captured = []
        layer = nn.Linear(2, 3, rng=np.random.default_rng(0))
        layer.register_forward_hook(lambda *args: captured.append(1))
        layer.clear_forward_hooks()
        layer(Tensor(np.ones((1, 2), dtype=np.float32)))
        assert captured == []

    def test_repr_lists_children(self):
        model = nn.Sequential(nn.ReLU())
        assert "ReLU" in repr(model)

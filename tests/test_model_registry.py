"""Model-spec registry: capture, sanitization, and rebuild-by-name."""

import numpy as np
import pytest

from repro import nn
from repro.models import (
    CifarResNet,
    MLPClassifier,
    ModelSpecError,
    SimpleCNN,
    Transformer,
    build_from_spec,
    build_model,
    get_model_builder,
    model_names,
    register_model,
)
from repro.models.registry import _REGISTRY, sanitize_spec_value
from repro.quadratic.factory import neuron_conv2d, neuron_linear
from repro.tensor import Tensor


class TestRegistration:
    def test_zoo_models_registered(self):
        assert {"simple_cnn", "mlp_classifier", "cifar_resnet", "resnet18",
                "transformer", "neuron_conv2d", "neuron_linear"} <= set(model_names())

    def test_unknown_model_lists_available(self):
        with pytest.raises(KeyError, match="simple_cnn"):
            get_model_builder("made_up_net")

    def test_conflicting_registration_rejected(self):
        @register_model("_probe_model")
        class Probe(nn.Module):
            def forward(self, x):
                return x

        try:
            with pytest.raises(ValueError, match="already registered"):
                @register_model("_probe_model")
                class Other(nn.Module):
                    def forward(self, x):
                        return x
        finally:
            _REGISTRY.pop("_probe_model", None)


class TestSpecCapture:
    def test_direct_construction_attaches_spec(self):
        model = SimpleCNN(num_classes=4, neuron_type="proposed", rank=2,
                          base_width=4, image_size=8, seed=3)
        spec = model.model_spec
        assert spec["name"] == "simple_cnn"
        assert spec["kwargs"]["num_classes"] == 4
        assert spec["kwargs"]["neuron_type"] == "proposed"
        # Defaults are captured too, so the spec is complete on its own.
        assert spec["kwargs"]["in_channels"] == 3

    def test_positional_arguments_are_captured_by_name(self):
        model = CifarResNet(8, 5, "proposed", seed=1, base_width=4)
        kwargs = model.model_spec["kwargs"]
        assert kwargs["depth"] == 8
        assert kwargs["num_classes"] == 5
        assert kwargs["neuron_type"] == "proposed"

    def test_factory_builders_attach_spec(self):
        layer = neuron_linear(neuron_type="proposed", in_features=6,
                              out_features=4, rank=2, seed=7)
        spec = layer.model_spec
        assert spec["name"] == "neuron_linear"
        assert spec["kwargs"]["seed"] == 7

    def test_tuples_are_normalized_to_lists(self):
        model = MLPClassifier(12, 3, hidden_sizes=(8, 4), seed=0)
        assert model.model_spec["kwargs"]["hidden_sizes"] == [8, 4]

    def test_unregistered_module_has_no_spec(self):
        assert nn.Linear(3, 2).model_spec is None

    def test_subclass_does_not_inherit_parent_spec(self):
        # A subclass is a different architecture; stamping it with the
        # parent's spec would make build_from_spec reconstruct the wrong
        # model silently.
        class Widened(SimpleCNN):
            pass

        model = Widened(num_classes=4, base_width=4, image_size=8, seed=0)
        assert model.model_spec is None

    def test_registered_subclass_captures_its_own_spec(self):
        @register_model("_probe_sub")
        class Sub(SimpleCNN):
            pass

        try:
            model = Sub(num_classes=4, base_width=4, image_size=8, seed=0)
            assert model.model_spec["name"] == "_probe_sub"
        finally:
            _REGISTRY.pop("_probe_sub", None)

    def test_sanitize_rejects_non_primitives(self):
        with pytest.raises(ModelSpecError, match="Generator"):
            sanitize_spec_value(np.random.default_rng(0), context="rng")

    def test_sanitize_collapses_numpy_scalars(self):
        assert sanitize_spec_value(np.int64(3)) == 3
        assert isinstance(sanitize_spec_value(np.float32(0.5)), float)


class TestBuildRoundTrip:
    @pytest.mark.parametrize("make", [
        lambda: SimpleCNN(num_classes=3, neuron_type="proposed", rank=2,
                          base_width=4, image_size=8, seed=5),
        lambda: MLPClassifier(10, 4, hidden_sizes=(6,), neuron_type="proposed",
                              rank=2, seed=5),
        lambda: CifarResNet(8, num_classes=4, neuron_type="linear",
                            base_width=4, seed=5),
        lambda: neuron_conv2d(neuron_type="proposed", in_channels=2,
                              out_channels=3, kernel_size=3, rank=2, seed=5),
    ])
    def test_state_dicts_match_bit_exactly(self, make):
        original = make()
        rebuilt = build_from_spec(original.model_spec)
        state, rebuilt_state = original.state_dict(), rebuilt.state_dict()
        assert state.keys() == rebuilt_state.keys()
        for key in state:
            assert np.array_equal(state[key], rebuilt_state[key]), key

    def test_json_round_trip_of_spec_still_builds(self):
        import json

        original = MLPClassifier(10, 4, hidden_sizes=(6, 5), seed=2)
        spec = json.loads(json.dumps(original.model_spec))
        rebuilt = build_from_spec(spec)
        x = Tensor(np.random.default_rng(0).standard_normal((3, 10)).astype(np.float32))
        assert np.array_equal(original.eval()(x).data, rebuilt.eval()(x).data)

    def test_transformer_round_trip(self):
        original = Transformer(src_vocab_size=11, tgt_vocab_size=13, model_dim=8,
                               num_heads=2, num_layers=1, hidden_dim=16, seed=1)
        rebuilt = build_from_spec(original.model_spec)
        state, rebuilt_state = original.state_dict(), rebuilt.state_dict()
        assert state.keys() == rebuilt_state.keys()
        for key in state:
            assert np.array_equal(state[key], rebuilt_state[key]), key

    def test_build_model_rejects_non_primitive_kwargs(self):
        with pytest.raises(ModelSpecError):
            build_model("simple_cnn", num_classes=3,
                        neuron_kwargs={"rng": np.random.default_rng(0)})

    def test_build_from_spec_rejects_garbage(self):
        with pytest.raises(ValueError, match="not a model spec"):
            build_from_spec({"kwargs": {}})

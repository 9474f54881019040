"""Model zoo: ResNets, plain CNNs, MLPs and Transformers with switchable neurons.

Every model class registers in the model-spec registry (:mod:`.registry`), so
each instance carries a JSON-safe ``model_spec`` from which the architecture
can be rebuilt by name — the substrate of self-describing checkpoint bundles
(:mod:`repro.io.bundle`) and the serving layer (:mod:`repro.serve`).
"""

from .registry import (
    ModelSpecError,
    build_from_spec,
    build_model,
    get_model_builder,
    model_names,
    register_model,
)
from .resnet import BasicBlock, CifarResNet, ResNet18
from .cnn import SimpleCNN, MLPClassifier
from .transformer import (
    Transformer,
    MultiHeadAttention,
    FeedForward,
    EncoderLayer,
    DecoderLayer,
    sinusoidal_positions,
    make_padding_mask,
    make_causal_mask,
)

__all__ = [
    "ModelSpecError",
    "build_from_spec",
    "build_model",
    "get_model_builder",
    "model_names",
    "register_model",
    "BasicBlock",
    "CifarResNet",
    "ResNet18",
    "SimpleCNN",
    "MLPClassifier",
    "Transformer",
    "MultiHeadAttention",
    "FeedForward",
    "EncoderLayer",
    "DecoderLayer",
    "sinusoidal_positions",
    "make_padding_mask",
    "make_causal_mask",
]

"""Metrics: accuracy, BLEU, and the parameter/MAC profiler."""

from .accuracy import accuracy
from .bleu import (
    bleu_score,
    corpus_bleu,
    tokenize_13a,
    tokenize_international,
    EVALUATION_SETTINGS,
)
from .profiler import (
    LayerProfile,
    ModelProfile,
    profile_model,
)

__all__ = [
    "accuracy",
    "bleu_score",
    "corpus_bleu",
    "tokenize_13a",
    "tokenize_international",
    "EVALUATION_SETTINGS",
    "LayerProfile",
    "ModelProfile",
    "profile_model",
]

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
    OpTimeTable,
    profile_model,
    record_op_times,
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
    "OpTimeTable",
    "profile_model",
    "record_op_times",
]

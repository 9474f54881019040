"""Token-selection strategies for the generation engine.

A strategy turns one row of next-token logits into a chosen token id.  The
interface is deliberately tiny — ``select(logits, rng)`` — so new decoding
schemes (nucleus sampling, beam stubs, constrained decoding) plug in without
touching the engine: the engine owns *when* a row is stepped, a strategy
owns *which* token the row emits.

Determinism: strategies are stateless; all randomness flows through the
``rng`` argument, a per-request ``numpy`` generator the engine seeds via
:func:`repro.parallel.seeding.derive_seed`.  Two submissions with the same
seed therefore produce identical samples regardless of how the continuous
batch interleaves them with other traffic.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GenerationStrategy", "GreedyStrategy", "SamplingStrategy",
           "make_strategy", "token_logprobs", "STRATEGY_NAMES"]

#: Valid ``strategy`` names for :func:`make_strategy` (and the HTTP/CLI knob).
STRATEGY_NAMES = ("greedy", "sample")


def token_logprobs(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, numerically stable.

    Used to report per-step log-probabilities of the chosen tokens; computed
    from the *raw* logits, so the reported numbers are comparable across
    strategies (temperature reshapes the sampling distribution, not the
    model's own confidence).
    """
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class GenerationStrategy:
    """Interface: map one ``(vocab,)`` logits row to a token id."""

    name = "base"

    def select(self, logits: np.ndarray, rng: np.random.Generator) -> int:
        raise NotImplementedError


class GreedyStrategy(GenerationStrategy):
    """Deterministic argmax decoding (ties break to the lowest id)."""

    name = "greedy"

    def select(self, logits: np.ndarray, rng: np.random.Generator) -> int:
        return int(np.asarray(logits).argmax())


class SamplingStrategy(GenerationStrategy):
    """Temperature + top-k sampling.

    ``temperature`` rescales the logits before the softmax (lower is
    greedier; must be positive).  ``top_k`` (optional) restricts sampling to
    the k highest-scoring tokens.  Sampling uses the inverse-CDF trick on a
    single ``rng.random()`` draw, so one request consumes exactly one draw
    per step — the stream stays aligned however the batch is scheduled.
    """

    name = "sample"

    def __init__(self, temperature: float = 1.0, top_k: int | None = None):
        temperature = float(temperature)
        if not temperature > 0.0:
            raise ValueError(f"temperature must be > 0, got {temperature}")
        if top_k is not None and int(top_k) < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        self.temperature = temperature
        self.top_k = int(top_k) if top_k is not None else None

    def select(self, logits: np.ndarray, rng: np.random.Generator) -> int:
        logits = np.asarray(logits, dtype=np.float64) / self.temperature
        if self.top_k is not None and self.top_k < logits.shape[-1]:
            keep = np.argpartition(logits, -self.top_k)[-self.top_k:]
            masked = np.full_like(logits, -np.inf)
            masked[keep] = logits[keep]
            logits = masked
        probabilities = np.exp(token_logprobs(logits))
        cumulative = np.cumsum(probabilities)
        draw = rng.random() * cumulative[-1]
        return int(np.searchsorted(cumulative, draw, side="right")
                   .clip(0, logits.shape[-1] - 1))


def make_strategy(strategy=None, temperature: float | None = None,
                  top_k: int | None = None) -> GenerationStrategy:
    """Resolve a strategy name to a fresh strategy.

    ``None`` means greedy — unless a sampling knob (``temperature`` or
    ``top_k``) was given, which implies ``"sample"``; naming ``"greedy"``
    while also passing sampling knobs is rejected as contradictory.
    """
    if strategy is None:
        strategy = "greedy" if temperature is None and top_k is None \
            else "sample"
    if strategy == "greedy":
        if temperature is not None or top_k is not None:
            raise ValueError("greedy decoding takes no temperature/top_k; "
                             "use strategy='sample' for those knobs")
        return GreedyStrategy()
    if strategy == "sample":
        return SamplingStrategy(
            temperature=temperature if temperature is not None else 1.0,
            top_k=top_k)
    valid = ", ".join(repr(name) for name in STRATEGY_NAMES)
    raise ValueError(f"unknown generation strategy {strategy!r}; valid: {valid}")

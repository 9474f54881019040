"""Generation subsystem: KV-cached incremental decode + continuous batching.

Layering mirrors the prediction stack:

* :class:`DecodeState` — the per-slot KV caches the incremental decoder of
  :class:`~repro.models.transformer.Transformer` reads and writes.
* :mod:`~repro.serve.generate.strategies` — pluggable token selection
  (greedy, temperature/top-k sampling) with deterministic per-request seeds.
* :class:`GenerationEngine` — continuous batching: one batched decode step
  per token across all in-flight sequences, admission between steps,
  immediate retirement.
* :class:`GenerationPredictor` — the bundle-facing façade
  :func:`repro.serve.load` returns for bundles carrying a ``generation``
  section, giving ``repro serve`` / ``repro generate`` a surface shaped
  like :class:`~repro.serve.Predictor`.
"""

from __future__ import annotations

import numpy as np

from ...data.vocabulary import Vocabulary
from ...io.bundle import Bundle, load_bundle
from .engine import GenerationEngine
from .state import DecodeState
from .strategies import (GenerationStrategy, GreedyStrategy, SamplingStrategy,
                         STRATEGY_NAMES, make_strategy, token_logprobs)

__all__ = ["DecodeState", "GenerationEngine", "GenerationPredictor",
           "GenerationStrategy", "GreedyStrategy", "SamplingStrategy",
           "make_strategy", "token_logprobs", "generation_bundle_info",
           "STRATEGY_NAMES"]


def generation_bundle_info(task) -> dict:
    """The ``generation`` bundle section for a model trained on ``task``.

    Everything :class:`GenerationPredictor` needs to serve the bundle:
    the delimiter ids, the position budget and both vocabularies (as plain
    id→token lists, so the section stays JSON-safe).
    """
    return {
        "bos_id": int(task.bos_id),
        "eos_id": int(task.eos_id),
        "pad_id": int(task.pad_id),
        "max_len": int(task.max_len),
        "source_vocab": list(task.source_vocab.id_to_token),
        "target_vocab": list(task.target_vocab.id_to_token),
    }


def _rebuild_vocabulary(id_to_token) -> Vocabulary | None:
    """Reconstruct a :class:`Vocabulary` from its serialized id→token list."""
    if not id_to_token:
        return None
    vocabulary = Vocabulary(id_to_token[4:])  # specials re-add themselves
    if vocabulary.id_to_token != list(id_to_token):
        raise ValueError("generation bundle vocabulary does not round-trip; "
                         "its first four entries must be the standard "
                         "<pad>/<bos>/<eos>/<unk> specials")
    return vocabulary


class GenerationPredictor:
    """Serving façade for a generation bundle: engine + vocab + metadata.

    Built by :func:`repro.serve.load` when a bundle's section carries
    ``generation`` metadata (see :func:`generation_bundle_info`).
    ``max_batch`` is the decode-slot count and ``max_wait_ms``/
    ``queue_size`` configure the engine queue.  The decode state is
    preallocated by the engine, so there is nothing to warm.
    """

    def __init__(self, bundle_or_path, max_batch: int = 8,
                 max_wait_ms: float | None = None,
                 queue_size: int | None = None, max_len: int | None = None,
                 seed: int = 0):
        bundle = bundle_or_path if isinstance(bundle_or_path, Bundle) \
            else load_bundle(bundle_or_path)
        section = bundle.section.get("generation")
        if not section:
            raise ValueError(f"bundle {bundle.path} carries no 'generation' "
                             f"section; load it with repro.serve.Predictor")
        self.bundle = bundle
        self.model = bundle.model
        self.bos_id = int(section["bos_id"])
        self.eos_id = int(section["eos_id"])
        self.pad_id = int(section.get("pad_id", 0))
        self.max_len = int(section.get("max_len") or self.model.max_len)
        if max_len is not None:
            self.max_len = min(self.max_len, int(max_len))
        self.source_vocab = _rebuild_vocabulary(section.get("source_vocab"))
        self.target_vocab = _rebuild_vocabulary(section.get("target_vocab"))
        queue_options = {name: value for name, value in
                         (("max_wait_ms", max_wait_ms), ("queue_size", queue_size))
                         if value is not None}
        self.engine = GenerationEngine(
            self.model, bos_id=self.bos_id, eos_id=self.eos_id,
            max_batch=max_batch, max_len=self.max_len, seed=seed,
            **queue_options)

    # -- input/output mapping --------------------------------------------------

    def encode_source(self, text) -> list[int]:
        """Whitespace-tokenize ``text`` through the bundled source vocabulary."""
        if self.source_vocab is None:
            raise ValueError("this bundle ships no source vocabulary; pass "
                             "token ids instead of text")
        return self.source_vocab.encode(str(text).split(), add_eos=True)

    def _as_sequences(self, inputs) -> list[np.ndarray]:
        """Normalize one-or-many sources (ids or text) into id arrays."""
        if isinstance(inputs, str):
            inputs = [inputs]
        elif isinstance(inputs, np.ndarray):
            inputs = inputs[None, :] if inputs.ndim == 1 else inputs
        elif isinstance(inputs, (list, tuple)) and inputs \
                and not isinstance(inputs[0], (str, list, tuple, np.ndarray)):
            inputs = [inputs]  # one flat id sequence
        sequences = []
        for item in inputs:
            ids = self.encode_source(item) if isinstance(item, str) else item
            sequences.append(np.asarray(ids, dtype=np.int64))
        if not sequences:
            raise ValueError("generate needs at least one input sequence")
        return sequences

    # -- generation ------------------------------------------------------------

    def generate(self, inputs, max_new_tokens: int | None = None,
                 strategy=None, temperature: float | None = None,
                 top_k: int | None = None, seed: int | None = None,
                 normalize: bool = True, timeout: float | None = None
                 ) -> list[dict]:
        """Generate for one-or-many sources; one result record per input.

        Each record is the engine's result dict (``tokens``, per-step
        ``logprobs``, ``finish_reason``, ``steps``) plus ``text`` when the
        bundle ships a target vocabulary.  ``normalize`` is accepted (and
        ignored) for interface symmetry with the prediction stack.
        """
        futures = [self.engine.submit(sequence, max_new_tokens=max_new_tokens,
                                      strategy=strategy, temperature=temperature,
                                      top_k=top_k, seed=seed)
                   for sequence in self._as_sequences(inputs)]
        results = []
        for future in futures:
            record = dict(future.result(timeout=timeout))
            if self.target_vocab is not None:
                record["text"] = " ".join(self.target_vocab.decode(
                    record["tokens"]))
            results.append(record)
        return results

    def predict(self, inputs, **kwargs):
        raise ValueError("this bundle is a generation model; call generate() "
                         "(or POST .../generate over HTTP) instead of predict")

    predict_logits = predict_proba = predict_topk = predict

    # -- introspection / lifecycle ---------------------------------------------

    @property
    def classes(self):
        return None

    @property
    def input_shape(self):
        return None

    def describe(self) -> dict:
        spec = self.bundle.spec
        return {
            "model": spec.get("name"),
            "type": "generation",
            "engine": self.engine.name,
            "parameters": int(self.model.num_parameters()),
            "max_len": self.max_len,
            "bos_id": self.bos_id,
            "eos_id": self.eos_id,
            "pad_id": self.pad_id,
            "source_vocab_size": len(self.source_vocab)
            if self.source_vocab else None,
            "target_vocab_size": len(self.target_vocab)
            if self.target_vocab else None,
            "slots": self.engine.max_batch,
        }

    def stats(self) -> dict:
        return self.engine.stats()

    def close(self) -> None:
        self.engine.close()

    def __enter__(self) -> "GenerationPredictor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

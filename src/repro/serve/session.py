"""Grad-free, batched inference sessions.

An :class:`InferenceSession` owns one model held permanently in eval mode and
answers ``predict`` calls on the raw-logits level:

* **no graph, provably** — every forward runs under
  :class:`~repro.tensor.no_grad`, and the session asserts through the
  engine's graph-node counter that *zero* autograd nodes were constructed.
  A model whose forward sneaks graph state past inference mode fails loudly
  instead of silently serving at training-path cost.
* **micro-batching** — arbitrarily large requests are split into chunks of at
  most ``max_batch`` rows, bounding peak activation memory while keeping each
  chunk large enough for the engine's batched kernels to pay off.
* **warm plans** — :meth:`warm` runs throwaway forwards so the first real
  request replays a compiled plan instead of paying the trace cost.
* **thread safety** — a lock serializes forwards, making one session safely
  shareable across the threads of :mod:`repro.serve.http`.
* **trace-and-replay compilation** — with ``compile=True`` (the default) the
  first forward for each ``(chunk shape, dtype)`` records the model's op
  graph and compiles it into a :class:`~repro.tensor.plan.ExecutionPlan`;
  subsequent same-shape forwards replay the plan with zero Tensor/OpContext/
  graph-node allocation.  Plans are validated byte-identical against normal
  dispatch at compile time; models that cannot be traced (data-dependent
  control flow, array math outside the op registry) are cached as fallbacks
  and keep dispatching — compilation is always a transparent fast path,
  never a behavior change.
"""

from __future__ import annotations

import threading
from pathlib import Path

import numpy as np

from ..nn.module import Module
from ..tensor import Tensor, no_grad
from ..tensor.engine import graph_nodes_created
from ..tensor.plan import FALLBACK, PlanCache, compile_forward, plan_key

__all__ = ["InferenceSession"]


class InferenceSession:
    """Batched, no-grad prediction over a model or a loaded bundle.

    Parameters
    ----------
    model:
        A :class:`~repro.nn.Module`, a loaded :class:`~repro.io.Bundle`, or a
        path to a bundle ``.npz`` on disk.
    max_batch:
        Micro-batch size; requests larger than this are chunked.
    compile:
        Trace-and-replay compilation (default on).  Serving wants it;
        training paths never construct sessions, so they are unaffected.
        Disable to force every forward through normal dispatch.
    """

    def __init__(self, model, max_batch: int = 64, compile: bool = True):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.bundle = None
        if isinstance(model, (str, Path)):
            from ..io.bundle import load_bundle

            model = load_bundle(model)
        if not isinstance(model, Module):  # a Bundle (duck-typed: has .model)
            self.bundle = model
            model = model.model
        self.model = model.eval()
        self.max_batch = int(max_batch)
        self.compile_enabled = bool(compile)
        self.plan_cache = PlanCache()
        self.batches_served = 0
        self.samples_served = 0
        self._lock = threading.Lock()
        self._warmed: set[tuple] = set()

    # -- core ----------------------------------------------------------------

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        """Model outputs (logits) for a batch of inputs, computed grad-free.

        ``inputs`` must already be batched (leading batch dimension) and
        preprocessed; :class:`repro.serve.Pipeline` handles normalization and
        single-sample promotion.  Thread-safe.
        """
        inputs = np.asarray(inputs)
        if inputs.ndim < 2:
            raise ValueError(
                f"predict expects a batched array (leading batch dimension), "
                f"got shape {tuple(inputs.shape)}")
        with self._lock:
            outputs = [self._forward(chunk)
                       for chunk in self._micro_batches(inputs)]
            self.batches_served += len(outputs)
            self.samples_served += len(inputs)
        return outputs[0] if len(outputs) == 1 else np.concatenate(outputs, axis=0)

    @no_grad()
    def _forward(self, chunk: np.ndarray) -> np.ndarray:
        before = graph_nodes_created()
        traced_key = plan = out = None
        if self.compile_enabled:
            key = plan_key((chunk.shape,), (chunk.dtype,))
            entry = self.plan_cache.lookup(key)
            if entry is None:
                # First time this (shape, dtype) is seen: trace + compile, and
                # serve the trace run's own forward result.  A failed trace or
                # validation caches a fallback so the key dispatches forever.
                traced_key = key
                plan, out = compile_forward(self.model, chunk)
            elif entry is not FALLBACK:
                out = entry.replay(chunk)
        if out is None:
            out = self.model(Tensor(chunk)).data
        created = graph_nodes_created() - before
        if created:
            # Raised before a fresh plan is cached: replaying a plan traced
            # from such a model would silently mask the bug on every call.
            raise RuntimeError(
                f"inference forward constructed {created} autograd graph "
                f"node(s) despite no_grad; the model is doing graph work "
                f"outside the engine's gradient switch")
        if traced_key is not None:
            self.plan_cache.store(traced_key, plan)
        return out

    def _micro_batches(self, inputs: np.ndarray):
        for start in range(0, len(inputs), self.max_batch):
            yield inputs[start:start + self.max_batch]

    # -- warming ---------------------------------------------------------------

    def warm(self, input_shape: tuple | None = None,
             batch_sizes: tuple[int, ...] | None = None) -> bool:
        """Run throwaway forwards that compile the session's execution plans.

        With compilation enabled each warmed batch size records and compiles
        an execution plan, so the first real request replays instead of
        paying the trace cost; with it disabled the forwards only exercise
        the model.

        ``input_shape`` is the per-sample shape; when omitted it is taken from
        the session's bundle metadata.  ``batch_sizes`` defaults to
        ``(max_batch,)`` — the shape the steady-state traffic will hit.
        Returns ``False`` (no-op) when no input shape is known.

        Idempotent and thread-safe: a ``(input_shape, batch_sizes)``
        combination is warmed at most once per session — concurrent and
        repeated calls (e.g. several transports sharing one session) skip the
        redundant throwaway forwards.
        """
        if input_shape is None and self.bundle is not None:
            input_shape = self.bundle.input_shape
        if input_shape is None:
            return False
        sizes = tuple(batch_sizes) if batch_sizes else (self.max_batch,)
        key = (tuple(input_shape), sizes)
        with self._lock:
            if key in self._warmed:
                return True
            for batch in sizes:
                self._forward(np.zeros((batch, *input_shape), dtype=np.float32))
            self._warmed.add(key)
        return True

    # -- introspection ---------------------------------------------------------

    def plan_stats(self) -> dict:
        """Plan-cache counters plus whether compilation is enabled."""
        stats = self.plan_cache.stats()
        stats["compile"] = self.compile_enabled
        return stats

    def describe(self) -> dict:
        """Session + model summary (the backbone of ``/v1/models``)."""
        spec = getattr(self.model, "model_spec", None)
        info = {
            "model": spec["name"] if spec else type(self.model).__name__,
            "parameters": self.model.num_parameters(),
            "max_batch": self.max_batch,
            "batches_served": self.batches_served,
            "samples_served": self.samples_served,
            "plan_cache": self.plan_stats(),
        }
        if self.bundle is not None:
            if self.bundle.input_shape is not None:
                info["input_shape"] = list(self.bundle.input_shape)
            if self.bundle.classes is not None:
                info["num_classes"] = len(self.bundle.classes)
        return info

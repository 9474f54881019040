"""Continuous-batching generation engine.

The prediction engines in :mod:`repro.serve.batching` coalesce *independent
one-shot requests* into fused forwards.  Generation is a different shape of
work — each request is a multi-step loop whose length is unknown up front —
so batching happens *across steps* instead of across arrivals:

* A fixed pool of decode **slots** (one :class:`~.state.DecodeState` row
  each) holds the in-flight sequences.
* Every scheduler iteration runs **one batched** ``decode_step`` across all
  active slots — a sequence on token 3 and a sequence on token 40 share the
  same forward — then applies each request's own strategy to its logits row.
* Finished sequences retire **immediately** (their futures resolve
  mid-storm, not at a batch boundary) and their slots are re-admitted from
  the queue between steps, so the batch stays full while work is waiting.
* Prefill (the encoder pass) runs **solo per request** at admission: the
  byte-identity contract of the incremental decoder is anchored to batch-1
  reference numerics, and a solo prefill keeps a request's outputs
  independent of which other sequences happened to arrive alongside it.

Queueing and lifecycle are inherited: :class:`GenerationEngine` is a
:class:`~repro.serve.batching.QueuedEngine` — the same bounded queue with
:class:`~repro.serve.engine.QueueFull` backpressure, the same scheduler
thread, and the same ``close()``: sequences already decoding finish and get
real results, requests still queued fail with
:class:`~repro.serve.engine.EngineClosed`.  Only the scheduler loop differs,
and it has no coalescing window: an idle scheduler blocks on the queue until
a request (or the shutdown sentinel ``close()`` posts) arrives.
"""

from __future__ import annotations

import queue
from concurrent.futures import Future

import numpy as np

from ...parallel.seeding import derive_seed
from ..batching import QueuedEngine
from .strategies import GenerationStrategy, make_strategy, token_logprobs

__all__ = ["GenerationEngine"]


class _Request:
    """One in-flight (or queued) generation: its future and running output."""

    __slots__ = ("future", "source", "max_new_tokens", "strategy", "rng",
                 "tokens", "logprobs", "last_token", "slot")

    def __init__(self, future: Future, source: np.ndarray, max_new_tokens: int,
                 strategy: GenerationStrategy, rng: np.random.Generator):
        self.future = future
        self.source = source
        self.max_new_tokens = max_new_tokens
        self.strategy = strategy
        self.rng = rng
        self.tokens: list[int] = []
        self.logprobs: list[float] = []
        self.last_token = -1
        self.slot = -1


class GenerationEngine(QueuedEngine):
    """Continuous batching over one model's incremental decoder.

    Parameters
    ----------
    model:
        A :class:`~repro.models.transformer.Transformer` (anything exposing
        ``new_decode_state``/``prefill``/``decode_step`` and ``pad_id``).
    bos_id / eos_id:
        Sequence delimiters; decoding starts from ``bos_id`` and a row
        retires when it emits ``eos_id`` (or the model's ``pad_id``).
    max_batch:
        Number of decode slots — the ceiling on concurrently decoding
        sequences; further arrivals wait in the queue.
    max_len:
        Per-sequence position budget (clamped to the model's ``max_len``).
    queue_size:
        Bound on queued requests; beyond it ``submit`` raises
        :class:`QueueFull` (HTTP 429).

    Request ``i`` (in arrival order) samples from the stream
    ``derive_seed(0, "generate", i)`` unless the caller pins its own
    ``seed`` at :meth:`submit` time.
    """

    name = "generation"

    def __init__(self, model, bos_id: int, eos_id: int, max_batch: int = 8,
                 max_len: int | None = None, queue_size: int = 256,
                 autostart: bool = True):
        # No session: forwards run through the model's incremental decoder.
        # The thread starts only once the decode state below exists.
        super().__init__(None, max_batch=max_batch, queue_size=queue_size,
                         autostart=False)
        self.model = model
        self.bos_id = int(bos_id)
        self.eos_id = int(eos_id)
        self.pad_id = int(model.pad_id)
        self.state = model.new_decode_state(self.max_batch, max_len=max_len)
        self._active: dict[int, _Request] = {}
        self._free = list(range(self.max_batch - 1, -1, -1))
        # Counters beyond the flat schema (there, ``samples`` counts generated
        # tokens and ``batches`` decode steps); all guarded by _stats_lock.
        self._arrivals = 0
        self._completed = 0
        self._step_rows = 0
        if autostart:
            self.start()

    # -- submission ------------------------------------------------------------

    def submit(self, source, max_new_tokens: int | None = None, strategy=None,
               temperature: float | None = None, top_k: int | None = None,
               seed: int | None = None) -> Future:
        """Enqueue one sequence; returns a future resolving to a result dict.

        ``source`` is a 1-D sequence of source-token ids.  The result is
        ``{"tokens": [...], "logprobs": [...], "finish_reason": "eos" |
        "length" | "max_len", "steps": N}`` — generated ids (``eos``/``pad``
        excluded), the log-probability of each generated token under the
        model, and why decoding stopped.
        """
        source = np.asarray(source, dtype=np.int64)
        if source.ndim != 1 or source.shape[0] < 1:
            raise ValueError(f"source must be a non-empty 1-D token-id "
                             f"sequence, got shape {tuple(source.shape)}")
        if source.shape[0] > self.state.src_capacity:
            raise ValueError(f"source length {source.shape[0]} exceeds the "
                             f"engine's capacity {self.state.src_capacity}")
        budget = self.state.max_len - 1  # position 0 is the <bos> feed
        max_new_tokens = budget if max_new_tokens is None \
            else min(int(max_new_tokens), budget)
        if max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {max_new_tokens}")
        resolved = make_strategy(strategy, temperature=temperature, top_k=top_k)
        with self._stats_lock:  # request i (in arrival order) seeds stream i
            index = self._arrivals
            self._arrivals += 1
        components = ("generate", index) if seed is None else ("generate",)
        rng = np.random.default_rng(
            derive_seed(0 if seed is None else int(seed), *components))
        return self._enqueue(_Request(Future(), source, max_new_tokens,
                                      resolved, rng))

    # -- scheduler -------------------------------------------------------------

    def _drain_loop(self) -> None:
        """Admit → one batched decode step → retire, until closed and idle."""
        try:
            while True:
                self._admit()
                if self._active:
                    self._step()
                elif self._closed:
                    return
        except BaseException as error:  # admitted sequences left the queue —
            self._fail_batch(list(self._active.values()), error)  # fail them
            raise

    def _admit(self) -> None:
        """Move queued requests into free slots; block until work arrives
        when idle.

        An idle scheduler waits on the queue with no timeout: an arrival
        wakes it, and so does the shutdown sentinel ``close()`` posts.
        Nothing is admitted once the engine is closed: what is still queued
        stays there for the scheduler's exit path to fail with
        :class:`~repro.serve.engine.EngineClosed`.
        """
        block = not self._active
        while self._free and not self._closed:
            try:
                item = self._queue.get() if block else self._queue.get_nowait()
            except queue.Empty:
                return
            block = False
            if self._closed:  # the shutdown sentinel, or close() raced the get
                self._fail_request(item)
                return
            self._start_request(item)

    def _start_request(self, request: _Request) -> None:
        """Prefill one request into a free slot (solo — batch-1 numerics)."""
        if not request.future.set_running_or_notify_cancel():
            return
        slot = self._free.pop()
        try:
            self.model.prefill(self.state, np.array([slot], dtype=np.int64),
                               request.source[None, :])
        except Exception as error:  # noqa: BLE001 — a bad request must not kill the loop
            self._free.append(slot)
            try:
                request.future.set_exception(error)
            except Exception:  # pragma: no cover — future already resolved
                pass
            return
        request.slot = slot
        request.last_token = self.bos_id
        self._active[slot] = request

    def _step(self) -> None:
        """One batched decode step across every active slot."""
        rows = np.array(sorted(self._active), dtype=np.int64)
        tokens = np.array([self._active[slot].last_token for slot in rows],
                          dtype=np.int64)
        try:
            logits = self.model.decode_step(self.state, tokens, rows=rows)
        except Exception as error:  # noqa: BLE001 — fail the batch, keep serving
            for slot in rows:
                self._finish(self._active[slot], error=error)
            return
        logprobs = token_logprobs(logits)
        with self._stats_lock:
            self.batches += 1
            self._step_rows += rows.shape[0]
        for position, slot in enumerate(rows):
            request = self._active[int(slot)]
            token = request.strategy.select(logits[position], request.rng)
            if token == self.eos_id or token == self.pad_id:
                self._finish(request, reason="eos")
                continue
            request.tokens.append(token)
            request.logprobs.append(float(logprobs[position, token]))
            request.last_token = token
            with self._stats_lock:
                self.samples += 1
            if len(request.tokens) >= request.max_new_tokens:
                self._finish(request, reason="length")
            elif int(self.state.lengths[int(slot)]) >= self.state.max_len:
                self._finish(request, reason="max_len")

    def _finish(self, request: _Request, reason: str | None = None,
                error: Exception | None = None) -> None:
        del self._active[request.slot]
        self._free.append(request.slot)
        try:
            if error is not None:
                request.future.set_exception(error)
            else:
                with self._stats_lock:
                    self._completed += 1
                request.future.set_result({
                    "tokens": list(request.tokens),
                    "logprobs": list(request.logprobs),
                    "finish_reason": reason,
                    "steps": len(request.tokens),
                })
        except Exception:  # pragma: no cover — future already resolved
            pass

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        """The queued-engine schema plus the ``generation`` section.

        ``samples`` counts generated tokens (the unit of work a step
        produces) and ``batches`` counts decode steps; ``mean_batch_rows``
        is the average number of sequences sharing a decode step.  There is
        no ``max_wait_ms``: decode steps never wait on a coalescing window.
        """
        stats = super().stats()
        del stats["max_wait_ms"]
        with self._stats_lock:
            steps, step_rows = self.batches, self._step_rows
            completed = self._completed
        stats["mean_batch_rows"] = round(step_rows / steps, 3) if steps else 0.0
        stats["generation"] = {
            "tokens_generated": stats["samples"],
            "completed": completed,
            "active_sequences": len(self._active),
            "mean_batch_occupancy":
                (step_rows / (steps * self.max_batch)) if steps else 0.0,
            "slots": self.max_batch,
            "cache": self.state.describe(),
        }
        return stats

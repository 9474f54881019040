"""Protocol-agnostic serving engines: the scheduling layer under every transport.

PR 4's server had exactly one concurrency story — a lock inside
:class:`~repro.serve.InferenceSession` — which meant every HTTP request
serialized on one forward no matter how many handler threads were running.
This module names the boundary that was implicit there: a **serving engine**
owns *when and how* forwards run; transports (HTTP, CLI, in-process callers)
only ever ``submit`` work and wait on futures.  Anything that can schedule a
no-grad forward — a lock, a cross-request batcher, a process pool, a remote
backend — plugs in behind the same three methods:

* ``submit(inputs) -> concurrent.futures.Future`` — enqueue one request;
  the future resolves to the logits array for exactly those rows.
* ``stats() -> dict`` — scheduling counters for ``/v1/stats`` and benchmarks.
* ``close()`` — stop accepting work and fail anything still queued with
  :class:`EngineClosed` (clients get a clear error, never a hang).

Implementations:

* :class:`DirectEngine` (here) — ``submit`` runs the forward inline on the
  calling thread (the session's lock serializes concurrent callers) and
  returns an already-resolved future.
* The queued engines, all subclasses of
  :class:`~repro.serve.batching.QueuedEngine` (bounded queue, scheduler
  thread, one ``close`` semantics):
  :class:`~repro.serve.batching.BatchedEngine` coalesces requests from
  *different* callers into one fused forward,
  :class:`~repro.serve.pool.ProcessPoolEngine` runs those batches on worker
  processes, and :class:`~repro.serve.generate.GenerationEngine` runs
  continuous batching for sequence generation.

:func:`make_engine` is the factory the ``engine=`` knobs on
:class:`repro.Predictor` / :func:`repro.load` / ``repro serve`` resolve
through.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout

import numpy as np

__all__ = ["ServingEngine", "DirectEngine", "make_engine", "check_engine_name",
           "ENGINE_NAMES", "EngineError", "EngineClosed", "QueueFull"]

#: Every engine name :func:`make_engine` accepts — the single source of truth
#: error messages and CLI validation enumerate.
ENGINE_NAMES = ("direct", "batched", "pool")


class EngineError(RuntimeError):
    """Base class for serving-engine scheduling failures.

    Deliberately distinct from ``ValueError`` (bad request payloads): the
    HTTP layer maps subclasses to backpressure statuses (429/503), not 400.
    """


class QueueFull(EngineError):
    """The engine's bounded request queue is full — retry later (HTTP 429)."""


class EngineClosed(EngineError):
    """The engine is shut down and accepts no further work (HTTP 503)."""


class ServingEngine:
    """The submit/stats/close protocol every serving backend implements.

    Subclasses must implement :meth:`submit`, :meth:`stats` and
    :meth:`close`; :meth:`predict` is a convenience wrapper (submit + wait)
    shared by all of them.  Engines are context managers: ``with`` closes
    them on exit, failing any queued work loudly.
    """

    #: Short name used by :func:`make_engine` and reported in ``stats()``.
    name = "abstract"

    def submit(self, inputs: np.ndarray) -> Future:
        """Enqueue one batched request; the future resolves to its logits.

        ``inputs`` must carry a leading batch dimension (the same contract as
        :meth:`InferenceSession.predict`).  Raises :class:`QueueFull` when the
        engine cannot accept more work and :class:`EngineClosed` after
        :meth:`close`.
        """
        raise NotImplementedError

    def stats(self) -> dict:
        """Scheduling counters (requests/samples/batches, queue depth, ...)."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop accepting work; fail queued futures with :class:`EngineClosed`."""
        raise NotImplementedError

    # -- shared conveniences ---------------------------------------------------

    def warm(self, input_shape: tuple | None = None) -> None:
        """Warm whatever executes forwards (compile its plans).

        The default delegates to the engine's in-process session; engines
        whose forwards run elsewhere (the process pool) override this to
        warm every backend worker instead.
        """
        session = getattr(self, "session", None)
        if session is not None:
            session.warm(input_shape)

    def predict(self, inputs: np.ndarray, timeout: float | None = None) -> np.ndarray:
        """Blocking submit: enqueue ``inputs`` and wait for the logits.

        Raises :class:`TimeoutError` when the result is not ready within
        ``timeout`` seconds (the request may still complete in the
        background; its result is discarded).
        """
        future = self.submit(inputs)
        try:
            return future.result(timeout)
        except FutureTimeout as error:  # plain Exception subclass on py3.10
            future.cancel()  # drop it if the scheduler has not started it yet
            raise TimeoutError(
                f"{self.name} engine did not answer within {timeout}s "
                f"(the request may still be queued behind other work)") from error

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class DirectEngine(ServingEngine):
    """Lock-and-forward scheduling: ``submit`` runs the forward inline.

    This is PR 4's serving behavior expressed through the engine protocol:
    the calling thread executes the forward itself, serialized against other
    callers by the session's internal lock, and gets back an
    already-resolved future.  Zero scheduling latency, no cross-request
    fusion — the right engine for single-client and latency-floor workloads,
    and the baseline the batched engine is benchmarked against.

    Because nothing ever *waits* here — the future is resolved before
    ``submit`` returns — request timeouts cannot fire on this engine; they
    bound queue wait, which only queued engines (batched) have.
    """

    name = "direct"

    def __init__(self, session):
        self.session = session
        self._closed = False
        self._stats_lock = threading.Lock()
        self.requests = 0
        self.samples = 0

    def submit(self, inputs: np.ndarray) -> Future:
        if self._closed:
            raise EngineClosed("direct engine is closed")
        with self._stats_lock:  # count every accepted request, like BatchedEngine
            self.requests += 1
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            result = self.session.predict(inputs)
        except BaseException as error:  # noqa: BLE001 — delivered via the future
            future.set_exception(error)
        else:
            future.set_result(result)
            with self._stats_lock:
                self.samples += len(result)
        return future

    def stats(self) -> dict:
        with self._stats_lock:
            return {
                "engine": self.name,
                "requests": self.requests,
                "samples": self.samples,
                "max_batch": self.session.max_batch,
                "queue_depth": 0,  # nothing ever queues on the inline engine
                "closed": self._closed,
            }

    def close(self) -> None:
        self._closed = True


def check_engine_name(engine, context: str | None = None) -> None:
    """Raise ``ValueError`` enumerating the valid names unless
    :func:`make_engine` accepts ``engine``; ``context`` says whose it is."""
    if engine is None or isinstance(engine, ServingEngine) or engine in ENGINE_NAMES:
        return
    valid = ", ".join(repr(name) for name in ENGINE_NAMES)
    where = f" for {context}" if context else ""
    raise ValueError(f"unknown serving engine {engine!r}{where}; valid "
                     f"engines: {valid}, or a ServingEngine instance")


def make_engine(engine, session, max_wait_ms: float | None = None,
                queue_size: int | None = None,
                workers: int | None = None) -> ServingEngine:
    """Resolve an ``engine=`` knob into a live :class:`ServingEngine`.

    ``engine`` may be a ready-made :class:`ServingEngine` instance (returned
    as-is), ``None``/``"direct"`` for :class:`DirectEngine`, ``"batched"``
    for :class:`~repro.serve.batching.BatchedEngine`, or ``"pool"`` for
    :class:`~repro.serve.pool.ProcessPoolEngine` (the session must come from
    an on-disk bundle — workers re-load it by path).  The tuning kwargs only
    apply to the queued engines and fall back to their defaults when
    ``None``; ``workers`` only applies to the pool.
    """
    check_engine_name(engine)
    if isinstance(engine, ServingEngine):
        return engine
    if engine is None or engine == "direct":
        return DirectEngine(session)
    kwargs = {"max_wait_ms": max_wait_ms, "queue_size": queue_size}
    if engine == "pool":
        from .pool import ProcessPoolEngine

        kwargs["workers"] = workers
        cls = ProcessPoolEngine
    else:
        from .batching import BatchedEngine

        cls = BatchedEngine
    return cls(session, **{key: value for key, value in kwargs.items()
                           if value is not None})

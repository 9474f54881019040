"""Cross-request dynamic batching: the engine that fuses concurrent callers.

:class:`BatchedEngine` is why the engine boundary exists.  Under concurrent
load, :class:`~repro.serve.engine.DirectEngine` answers N single-sample
requests as N serialized one-row forwards — each one paying the full im2col
and BLAS-dispatch overhead the paper's fused kernels were built to amortize.
This engine recovers the batch efficiency *across* requests:

* ``submit`` appends the request to a **bounded queue** and returns a
  future immediately; a full queue raises
  :class:`~repro.serve.engine.QueueFull` (backpressure, HTTP 429) instead of
  buffering unbounded memory.
* A single **scheduler thread** drains the queue: it takes the oldest
  request, then keeps pulling until it has ``max_batch`` rows or
  ``max_wait_ms`` has elapsed since the batch opened — the classic dynamic
  batching window (arrivals during the window ride along for free; an idle
  queue never waits).  The window defaults to :data:`DEFAULT_MAX_WAIT_MS`,
  0.5 ms: long enough for the second of two near-simultaneous requests to
  join the batch, short enough that a batch whose rows are all in does not
  sit idle.  At 0 ms that second request misses the batch and runs alone.
* The coalesced rows run as **one fused no-grad forward** through the shared
  :class:`~repro.serve.InferenceSession`, and the output is demuxed back
  onto the per-request futures by row offset.

The queue/coalesce machinery lives in :class:`QueuedEngine` so other
engines can reuse the *same batching policy* with a different execution
backend — :class:`~repro.serve.pool.ProcessPoolEngine` plugs a worker-process
pool behind the identical scheduler, which is how dynamic batching and
multiprocessing compose instead of competing.  The same base also carries
the continuous-batching
:class:`~repro.serve.generate.GenerationEngine`, which keeps the queue and
lifecycle but replaces the coalescing loop with its admit → decode-step →
retire loop.

Numerical note: a fused batch is chunked by the session at ``max_batch``
rows, so when every request carries exactly ``max_batch`` rows the fused
execution is *byte-identical* to per-request forwards (chunk boundaries
coincide with request boundaries).  Mixed request sizes shift BLAS blocking
and may differ from per-request execution in float low bits — same caveat as
the session's own micro-batching, and classifications are unaffected.

``close()`` is the graceful-shutdown path, and it means the same thing on
every queued engine: it stops new submissions, lets the work in flight
finish, then fails every still-queued future with
:class:`~repro.serve.engine.EngineClosed` so blocked clients get a clear
error instead of a hang.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError

import numpy as np

from .engine import EngineClosed, QueueFull, ServingEngine

__all__ = ["BatchedEngine", "DEFAULT_MAX_WAIT_MS", "QueuedEngine"]

#: The coalescing window every queued prediction engine, ``serve()`` and
#: ``repro serve --max-wait-ms`` default to, in milliseconds.
DEFAULT_MAX_WAIT_MS = 0.5

#: Queue sentinel telling the scheduler thread to exit.
_SHUTDOWN = object()

#: What a request fails with when the engine closes before it ran.
_CLOSED_WHILE_QUEUED = ("serving engine closed while the request was still "
                       "queued; the server is shutting down — retry against a "
                       "live server")


class _Request:
    """One queued unit of work: validated inputs plus the caller's future."""

    __slots__ = ("inputs", "future", "rows")

    def __init__(self, inputs: np.ndarray):
        self.inputs = inputs
        self.rows = len(inputs)
        self.future: Future = Future()


def _request_groups(requests: list[_Request]):
    """Group requests by per-sample geometry: one fused forward per group.

    A single-model queue normally holds exactly one ``(per-sample shape,
    dtype)`` group; heterogeneous submissions (shape-agnostic test models)
    split into one forward each.
    """
    groups: dict[tuple, list[_Request]] = {}
    for request in requests:
        key = (request.inputs.shape[1:], request.inputs.dtype.str)
        groups.setdefault(key, []).append(request)
    return groups.values()


class QueuedEngine(ServingEngine):
    """Bounded queue + scheduler thread + coalescing policy, backend-agnostic.

    This base owns everything about *collecting* work: the bounded request
    queue with :class:`QueueFull` backpressure, the scheduler thread, the
    ``max_batch``-rows-or-``max_wait_ms`` coalescing window, shutdown
    draining, and the common stats schema (``requests``/``samples``/
    ``batches``/``mean_batch_rows``/``queue_depth`` — every queued engine
    reports these under the same key names, which ARCHITECTURE.md documents
    and the tests pin).  Subclasses own *executing* a coalesced batch by
    implementing :meth:`_handle_batch`; the one-shot engines below run it
    through :meth:`_execute`, each with its own forward:

    * :class:`BatchedEngine` runs it inline on the scheduler thread — one
      fused forward through the shared session.
    * :class:`~repro.serve.pool.ProcessPoolEngine` hands it to the next idle
      worker process and immediately goes back to coalescing the next batch,
      so batches run concurrently across workers.

    An engine whose work is not one-shot overrides :meth:`_drain_loop`
    instead (:class:`~repro.serve.generate.GenerationEngine` admits queued
    sequences into decode slots between steps); it must stop taking work
    from the queue once the closed flag is up and return when its in-flight
    work is done.  Subclasses validate their own ``submit`` arguments and
    hand the request to :meth:`_enqueue`.

    Subclasses may also hook :meth:`_shutdown_backend` (called by ``close``
    after the scheduler has stopped and the queue has drained) to release
    backend resources such as worker processes.
    """

    name = "queued"

    def __init__(self, session, max_batch: int | None = None,
                 max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
                 queue_size: int = 256, autostart: bool = True):
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        self.session = session
        self.max_batch = int(max_batch) if max_batch is not None else session.max_batch
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        self.max_wait_ms = float(max_wait_ms)
        self.queue_size = int(queue_size)
        self._queue: queue.Queue = queue.Queue(maxsize=self.queue_size)
        self._closed = False
        self._close_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.requests = 0
        self.samples = 0
        self.batches = 0
        self._thread = threading.Thread(target=self._scheduler_loop,
                                        name=f"repro-serve-{self.name}",
                                        daemon=True)
        self._started = False
        if autostart:
            self.start()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Start the scheduler thread (idempotent)."""
        if not self._started:
            self._started = True
            self._thread.start()

    def close(self, timeout: float | None = 5.0) -> None:
        """Drain gracefully: finish the in-flight batch, fail queued futures.

        Safe to call repeatedly and from any thread.  The scheduler stops
        collecting new work the moment the closed flag is up: at most the
        batch already being collected runs to completion, and every request
        still sitting in the queue fails with :class:`EngineClosed`.  After
        ``close`` returns, every future this engine handed out is resolved —
        completed, failed with its forward's error, or failed with
        :class:`EngineClosed` — except in the pathological case of a single
        in-flight forward outlasting ``timeout``, whose batch resolves when
        that forward finishes.  Backends with extra resources (worker
        processes) release them in :meth:`_shutdown_backend`.
        """
        with self._close_lock:
            already_closed = self._closed
            self._closed = True
        if not already_closed and self._started:
            try:  # wake an idle scheduler; a full queue wakes it anyway
                self._queue.put_nowait(_SHUTDOWN)
            except queue.Full:
                pass
        if self._started:
            self._thread.join(timeout)
        self._fail_pending()
        self._shutdown_backend(timeout)

    def _shutdown_backend(self, timeout: float | None) -> None:
        """Release backend resources after the scheduler stopped (hook)."""

    # -- submission ------------------------------------------------------------

    def submit(self, inputs: np.ndarray) -> Future:
        inputs = np.asarray(inputs)
        if inputs.ndim < 2:
            raise ValueError(
                f"submit expects a batched array (leading batch dimension), "
                f"got shape {tuple(inputs.shape)}")
        return self._enqueue(_Request(inputs))

    def _enqueue(self, request) -> Future:
        """Queue a validated request and return its future.

        The one enqueue step every queued engine shares: refuse after
        ``close``, raise :class:`QueueFull` on a full queue, count the
        request, and fail it loudly if ``close`` raced the enqueue.
        """
        if self._closed:
            raise EngineClosed(f"{self.name} engine is closed")
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            raise QueueFull(
                f"request queue is full ({self.queue_size} pending); the "
                f"server is overloaded — retry with backoff") from None
        with self._stats_lock:
            self.requests += 1
        if self._closed:
            # close() raced our enqueue and its drain may have missed us;
            # drain again so this future cannot hang forever.
            self._fail_pending()
        return request.future

    # -- scheduler -------------------------------------------------------------

    def _scheduler_loop(self) -> None:
        try:
            self._drain_loop()
        finally:
            # Whether we exited for shutdown or something unthinkable escaped
            # the loop itself: stop accepting work and fail what's queued, so
            # a dead scheduler can never strand blocked clients silently.
            self._closed = True
            self._fail_pending()

    def _drain_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                break
            if self._closed:  # drain mode: queued requests fail, none run
                self._fail_request(item)
                break
            batch, shutdown = self._collect(item)
            try:
                self._handle_batch(batch)
            except BaseException as error:  # popped requests aren't in the
                self._fail_batch(batch, error)  # queue — fail before bailing
                raise
            if shutdown:
                break

    def _collect(self, first) -> tuple[list[_Request], bool]:
        """The coalescing policy: pull until ``max_batch`` rows or the window
        closes.

        Returns the assembled batch plus a shutdown flag (a ``close`` arrived
        mid-collection).  Arrivals during the window ride along for free; an
        idle queue never waits.
        """
        batch = [first]
        rows = first.rows
        deadline = time.monotonic() + self.max_wait_ms / 1000.0
        shutdown = False
        while rows < self.max_batch:
            remaining = deadline - time.monotonic()
            try:
                item = (self._queue.get(timeout=remaining) if remaining > 0
                        else self._queue.get_nowait())
            except queue.Empty:
                break
            if item is _SHUTDOWN or self._closed:
                self._fail_request(item)
                shutdown = True
                break
            batch.append(item)
            rows += item.rows
        return batch, shutdown

    def _handle_batch(self, batch: list[_Request]) -> None:
        """Execute one coalesced batch; every future in it must resolve."""
        raise NotImplementedError

    def _execute(self, batch: list[_Request], forward) -> None:
        """Run ``batch`` as one ``forward(fused_rows)`` call per geometry group.

        Cancelled requests are dropped; each group's rows are concatenated,
        forwarded, and the outputs sliced back onto the per-request futures
        by row offset.  A group whose forward raises fails only its own
        futures.
        """
        live = [request for request in batch
                if request.future.set_running_or_notify_cancel()]
        for group in _request_groups(live):
            try:
                fused = (group[0].inputs if len(group) == 1 else
                         np.concatenate([request.inputs for request in group]))
                outputs = forward(fused)
                offset = 0
                for request in group:
                    request.future.set_result(outputs[offset:offset + request.rows])
                    offset += request.rows
            except BaseException as error:  # noqa: BLE001 — delivered per future
                self._fail_batch(group, error)
                continue
            with self._stats_lock:
                self.batches += 1
                self.samples += len(fused)

    # -- failure delivery ------------------------------------------------------

    @staticmethod
    def _fail_batch(batch: list[_Request], error: BaseException) -> None:
        """Deliver ``error`` to every unresolved future in ``batch``.

        ``set_exception`` is legal from both the pending and the running
        state; only futures that were cancelled (or resolved) in the
        meantime must be left alone.
        """
        for request in batch:
            if not request.future.done():
                try:
                    request.future.set_exception(error)
                except InvalidStateError:  # cancelled/resolved concurrently
                    pass

    @staticmethod
    def _fail_request(item) -> None:
        """Fail one drained request with a clear shutdown error."""
        if item is _SHUTDOWN:
            return
        if item.future.set_running_or_notify_cancel():
            item.future.set_exception(EngineClosed(_CLOSED_WHILE_QUEUED))

    def _fail_pending(self) -> None:
        """Fail every still-queued request with a clear shutdown error.

        The shutdown sentinel is not a request.  A drain that takes it while
        the scheduler still runs (a forward in flight when a submit raced
        ``close``, or outlasted its timeout) puts it back: it is the only
        wake-up for the scheduler's blocking ``get``.
        """
        woken = False
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                woken = True
            else:
                self._fail_request(item)
        if woken and self._thread.is_alive():
            try:
                self._queue.put_nowait(_SHUTDOWN)
            except queue.Full:  # a queued request wakes it just as well
                pass

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        """The common queued-engine stats schema (see ARCHITECTURE.md).

        Every queued engine reports ``requests``/``samples``/``batches``,
        the derived ``mean_batch_rows``, live ``queue_depth`` against
        ``queue_size``, and its coalescing knobs under these exact key names
        so dashboards and the bench harness can compare engines directly.
        """
        with self._stats_lock:
            requests, samples, batches = self.requests, self.samples, self.batches
        return {
            "engine": self.name,
            "requests": requests,
            "samples": samples,
            "batches": batches,
            "mean_batch_rows": round(samples / batches, 3) if batches else 0.0,
            "queue_depth": self._queue.qsize(),
            "queue_size": self.queue_size,
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_ms,
            "closed": self._closed,
        }


class BatchedEngine(QueuedEngine):
    """Queue–coalesce–demux scheduling over one shared inference session.

    Parameters
    ----------
    session:
        The :class:`~repro.serve.InferenceSession` that runs the fused
        forwards.  Only the scheduler thread calls into it, so the session's
        own lock is uncontended in steady state.
    max_batch:
        Row budget per fused forward (default: the session's ``max_batch``).
        A single oversized request still runs — the session chunks it.
    max_wait_ms:
        How long an *open* batch waits for more rows before running
        (default :data:`DEFAULT_MAX_WAIT_MS`).  This is latency spent only
        when the queue goes empty mid-batch; a deep queue fills batches
        without waiting.
    queue_size:
        Bound on queued requests; beyond it ``submit`` raises
        :class:`QueueFull` so overload surfaces as backpressure.
    autostart:
        Start the scheduler thread immediately (default).  Tests and
        embedders that want to control draining can pass ``False`` and call
        :meth:`start` themselves.
    """

    name = "batched"

    def _handle_batch(self, batch: list[_Request]) -> None:
        """Run a batch inline, guaranteeing every future in it resolves.

        The scheduler thread must survive *anything* — an escape here would
        kill it silently, hanging every queued client forever.  Whatever
        leaks out of :meth:`_run_batch` is delivered to the batch's futures
        instead (and the enclosing loop's exit path marks the engine closed
        and drains the queue, so even a truly broken scheduler fails loudly).
        """
        try:
            self._run_batch(batch)
        except BaseException as error:  # noqa: BLE001 — delivered per future
            self._fail_batch(batch, error)

    def _run_batch(self, batch: list[_Request]) -> None:
        self._execute(batch, self.session.predict)

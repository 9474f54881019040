"""Multi-process serving: a warm worker pool behind the batching scheduler.

:class:`~repro.serve.batching.BatchedEngine` coalesces concurrent requests
into fused forwards, but every fused forward still runs on *one* GIL-bound
interpreter — PR 5/6's wins (dynamic batching, compiled replay) cannot scale
past a single core.  :class:`ProcessPoolEngine` breaks that ceiling the same
way :mod:`repro.parallel` scales experiment sweeps: N warm worker processes,
each holding its own loaded bundle and plan cache, with the parent sharding
work across them.

The composition is deliberate — **batching and multiprocessing compose
instead of competing**:

* The engine *is* a :class:`~repro.serve.batching.QueuedEngine`: the exact
  bounded-queue / ``max_batch``-rows-or-``max_wait_ms`` coalescing policy of
  the batched engine assembles batches in the parent.
* Instead of running a batch inline, the scheduler hands it to the next idle
  worker over a request/response :class:`~multiprocessing.Pipe` and
  immediately goes back to coalescing — so up to ``workers`` fused batches
  execute concurrently, one per process.

Workers run :func:`worker_main` on the shared worker lifecycle of
:mod:`repro.parallel.fleet` (spawn, ready ack, depth tagging, seeding with
``derive_seed(seed, "serve-pool", rank)``, respawn-and-retry).  Each loads
the bundle **by path** into its own :class:`~repro.serve.InferenceSession`,
so nothing unpicklable crosses the process boundary and every worker warms
its own plan cache.  Model weights come from the bundle and inference draws
no randomness, so pool output is byte-identical to
:class:`~repro.serve.engine.DirectEngine` for aligned batches.  A batch whose
worker dies twice fails its futures with
:class:`~repro.serve.engine.EngineError`; ``close()`` drains the queue, fails
still-queued futures with :class:`~repro.serve.engine.EngineClosed`, then
stops the workers.

Cost model versus the single-process engines: each worker holds a full copy
of the bundle (memory is N × bundle) and spawn adds ~1 s of startup per
worker, in exchange for throughput that scales with cores.  See the
"choosing an engine" table in ARCHITECTURE.md.
"""

from __future__ import annotations

import os
import queue
import threading

from ..parallel.executor import parallel_depth
from ..parallel.fleet import WorkerFleet, serve_worker
from .batching import QueuedEngine, _demux, _fuse, _request_groups
from .engine import EngineClosed, EngineError

__all__ = ["ProcessPoolEngine", "worker_main"]

#: Shard-queue sentinel telling a dispatcher thread to exit.
_STOP = object()

#: Counters a worker reports with every reply and the parent aggregates.
_PLAN_COUNTER_KEYS = ("plans", "fallback_keys", "hits", "misses", "fallbacks",
                      "replays", "fused_chains", "fused_ops", "arena_bytes")


def worker_main(rank: int, conn, config: dict) -> None:
    """Entry point of one pool worker process.

    Loads ``config["bundle_path"]`` into a private
    :class:`~repro.serve.InferenceSession` and serves ``("predict", array)``
    and ``("warm", input_shape_or_None)``; both reply with ``(outputs,
    stats)`` (``outputs`` is ``None`` for ``warm``).
    """
    serve_worker(conn, "serve-pool", rank, config, _load_session,
                 {"predict": _predict, "warm": _warm})


def _load_session(config: dict):
    from .session import InferenceSession

    return InferenceSession(config["bundle_path"],
                            max_batch=config["max_batch"],
                            compile=config["compile"])


def _session_stats(session) -> dict:
    return {
        "pid": os.getpid(),
        "batches": session.batches_served,
        "samples": session.samples_served,
        "plan_cache": session.plan_stats(),
    }


def _predict(session, inputs):
    return session.predict(inputs), _session_stats(session)


def _warm(session, input_shape):
    session.warm(input_shape)
    return None, _session_stats(session)


class ProcessPoolEngine(QueuedEngine, WorkerFleet):
    """Shard coalesced batches across N warm worker processes.

    Parameters
    ----------
    session:
        Parent-side :class:`~repro.serve.InferenceSession` **loaded from a
        bundle on disk** — workers re-load the same bundle by path, so an
        in-memory model cannot be pool-served (there is no path to send).
        The parent session itself never runs forwards; it only supplies the
        bundle path, ``max_batch`` default, compile flag and pipeline
        metadata.
    workers:
        Number of worker processes (the concurrency of the pool).
    max_batch / max_wait_ms / queue_size:
        The shared coalescing policy — identical meaning to
        :class:`~repro.serve.batching.BatchedEngine`.
    seed:
        Root seed for deterministic worker identity: worker *i* is seeded
        with ``derive_seed(seed, "serve-pool", i)``.
    """

    name = "pool"
    fleet_role = "pool"
    worker_label = "pool worker"
    work_unit = "batch"
    fleet_error = EngineError
    closed_error = EngineClosed

    def __init__(self, session, workers: int = 2, max_batch: int | None = None,
                 max_wait_ms: float = 2.0, queue_size: int = 256,
                 seed: int = 0, autostart: bool = True):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if parallel_depth() > 0:
            raise EngineError(
                "refusing to start a process-pool engine inside a parallel "
                "worker (REPRO_PARALLEL_DEPTH is set); nested pools would "
                "oversubscribe the machine — serve with engine='direct' or "
                "'batched' here instead")
        if getattr(session, "bundle", None) is None or session.bundle.path is None:
            raise EngineError(
                "the pool engine serves bundles loaded from disk (workers "
                "re-load the model by path); construct the session from a "
                "bundle file, or use engine='direct'/'batched' for "
                "in-memory models")
        WorkerFleet.__init__(self)
        self.workers = int(workers)
        self.seed = int(seed)
        self.bundle_path = str(session.bundle.path)
        # Unbounded hand-off queue between the scheduler and the dispatcher
        # threads; _slots_free bounds it to at most `workers` in-flight
        # shards, so backpressure lands on the main bounded request queue.
        self._shard_queue: queue.Queue = queue.Queue()
        self._slots_free = threading.Semaphore(self.workers)
        self._dispatchers: list[threading.Thread] = []
        # The scheduler thread must not start before the workers exist.
        super().__init__(session, max_batch=max_batch, max_wait_ms=max_wait_ms,
                         queue_size=queue_size, autostart=False)
        try:
            self._start_workers(self.workers)
        except BaseException:
            self._closed = True
            raise
        for worker in self._workers:
            thread = threading.Thread(target=self._dispatch_loop, args=(worker,),
                                      name=f"repro-pool-worker-{worker.rank}",
                                      daemon=True)
            self._dispatchers.append(thread)
            thread.start()
        if autostart:
            self.start()

    def _worker_spec(self) -> tuple:
        return worker_main, {"bundle_path": self.bundle_path,
                             "max_batch": self.max_batch,
                             "compile": self.session.compile_enabled,
                             "seed": self.seed}

    # -- scheduling ------------------------------------------------------------

    def _handle_batch(self, batch) -> None:
        """Hand one coalesced batch to the next idle worker.

        Blocks while every worker is busy (that is the backpressure that
        keeps the bounded request queue meaningful), but keeps checking the
        closed flag so ``close()`` during a saturated pool fails the batch
        with :class:`EngineClosed` instead of deadlocking the scheduler.
        """
        while not self._slots_free.acquire(timeout=0.05):
            if self._closed:
                self._fail_batch(batch, EngineClosed(
                    "serving engine closed while the request was still "
                    "queued; the server is shutting down — retry against "
                    "a live server"))
                return
        if self._closed:
            self._slots_free.release()
            self._fail_batch(batch, EngineClosed(
                "serving engine closed while the request was still queued; "
                "the server is shutting down — retry against a live server"))
            return
        self._shard_queue.put(batch)

    def _dispatch_loop(self, worker) -> None:
        """One thread per worker: pull shards and run them on that worker."""
        while True:
            shard = self._shard_queue.get()
            if shard is _STOP:
                return
            try:
                self._run_shard(worker, shard)
            finally:
                self._slots_free.release()

    def _run_shard(self, worker, shard) -> None:
        """Execute one coalesced batch remotely; every future must resolve.

        A worker death is isolated and the forward retried once by the
        fleet; a model error raises ``RuntimeError`` with the worker
        traceback for these futures only.
        """
        live = [request for request in shard
                if request.future.set_running_or_notify_cancel()]
        for group in _request_groups(live):
            try:
                fused = _fuse(group)
                outputs, worker.last_stats = self._call(worker, ("predict", fused))
                _demux(group, outputs)
            except BaseException as error:  # noqa: BLE001 — delivered per future
                self._fail_batch(group, error)
                continue
            with self._stats_lock:
                self.batches += 1
                self.samples += len(fused)

    # -- warmup ----------------------------------------------------------------

    def warm(self, input_shape: tuple | None = None) -> None:
        """Broadcast a plan-cache warmup to every worker (each has its own)."""
        message = ("warm", tuple(input_shape) if input_shape is not None else None)
        for worker in self._workers:
            try:
                with worker.lock:
                    if not worker.alive:
                        continue
                    worker.conn.send(message)
                    reply = worker.conn.recv()
                if reply[0] == "ok":
                    worker.last_stats = reply[1][1]
            except (EOFError, OSError):
                pass  # a dead worker is respawned on its next shard instead

    # -- shutdown --------------------------------------------------------------

    def _shutdown_backend(self, timeout: float | None) -> None:
        """Stop dispatcher threads and worker processes after the drain.

        Runs after the scheduler has stopped and every still-queued request
        has been failed; only shards already handed to workers may be in
        flight.  Dispatchers finish those (a killed worker's pipe raises,
        which — with the closed flag up — fails the futures with
        :class:`EngineClosed`), then exit on their stop sentinels.
        """
        for _ in self._dispatchers:
            self._shard_queue.put(_STOP)
        deadline = timeout if timeout is not None else 5.0
        for thread in self._dispatchers:
            thread.join(deadline)
        for thread in self._dispatchers:
            if thread.is_alive():  # a forward is wedged: kill its process so
                for worker in self._workers:  # the blocked recv raises EOF
                    if worker.alive:
                        worker.process.terminate()
                thread.join(deadline)
                break
        self._stop_workers()

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        """Pool stats: the common queued-engine schema plus per-worker detail.

        ``plan_cache`` aggregates every worker's own cache counters (each
        process warms independently); ``per_worker`` carries the identity
        facts the determinism and depth tests pin (pid, derived seed, depth,
        ``effective_jobs`` as observed inside the worker) next to each
        worker's serving counters.
        """
        stats = super().stats()
        stats["restarts"] = self.restarts
        stats["workers"] = self.workers
        plan_cache = dict.fromkeys(_PLAN_COUNTER_KEYS, 0)
        plan_cache["compile"] = self.session.compile_enabled
        per_worker = []
        for worker in self._workers:
            worker_plan = worker.last_stats.get("plan_cache", {})
            for key in _PLAN_COUNTER_KEYS:
                plan_cache[key] += int(worker_plan.get(key, 0))
            per_worker.append({
                "worker": worker.rank,
                "pid": worker.info.get("pid"),
                "alive": worker.alive,
                "restarts": worker.restarts,
                "seed": worker.info.get("seed"),
                "depth": worker.info.get("depth"),
                "effective_jobs": worker.info.get("effective_jobs"),
                "batches": worker.last_stats.get("batches", 0),
                "samples": worker.last_stats.get("samples", 0),
                "plan_cache": worker_plan,
            })
        stats["plan_cache"] = plan_cache
        stats["per_worker"] = per_worker
        return stats


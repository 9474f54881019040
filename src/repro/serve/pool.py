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
* Instead of running a batch inline, the scheduler submits it as one fleet
  job, which the next idle worker's dispatcher thread runs over that
  worker's request/response :class:`~multiprocessing.Pipe`, and immediately
  goes back to coalescing — so up to ``workers`` fused batches execute
  concurrently, one per process.

Workers run :func:`worker_main` on the shared lifecycle of
:mod:`repro.parallel.fleet` (concurrent boot, depth tagging, seeding with
``derive_seed(0, "serve-pool", rank)``, dispatch, respawn-and-retry,
shutdown).  Each loads the bundle **by path** into its own
:class:`~repro.serve.InferenceSession`, so nothing unpicklable crosses the
process boundary and every worker warms its own plan cache.  Model weights
come from the bundle and inference draws no randomness, so pool output is
byte-identical to :class:`~repro.serve.engine.DirectEngine` for aligned
batches.  A batch whose worker dies twice fails its futures with
:class:`~repro.serve.engine.EngineError`; ``close()`` drains the queue, fails
still-queued futures with :class:`~repro.serve.engine.EngineClosed`, then
stops the fleet, terminating a worker whose forward outlasts the timeout.

Cost model versus the single-process engines: each worker holds a full copy
of the bundle (memory is N × bundle) and loads it at boot, in exchange for
throughput that scales with cores.  Workers are forks of the fleet's
preloaded server, so a boot or respawn costs the bundle load plus tens of
milliseconds; the server itself boots once per process (~0.5 s, which
``repro serve`` overlaps with loading its models).  See the
"choosing an engine" table in ARCHITECTURE.md.
"""

from __future__ import annotations

import os
import threading

from ..parallel.executor import parallel_depth
from ..parallel.fleet import WorkerFleet, serve_worker
from .batching import DEFAULT_MAX_WAIT_MS, QueuedEngine, _CLOSED_WHILE_QUEUED
from .engine import EngineClosed, EngineError

__all__ = ["ProcessPoolEngine", "worker_main"]

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

    Worker *i* is seeded with ``derive_seed(0, "serve-pool", i)``: a
    deterministic identity that inference itself never draws on.
    """

    name = "pool"
    fleet_role = "pool"
    worker_label = "pool worker"
    work_unit = "batch"
    fleet_error = EngineError
    closed_error = EngineClosed

    def __init__(self, session, workers: int = 2, max_batch: int | None = None,
                 max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
                 queue_size: int = 256, autostart: bool = True):
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
        self.bundle_path = str(session.bundle.path)
        # At most `workers` shards in flight, so backpressure lands on the
        # main bounded request queue.
        self._slots_free = threading.Semaphore(self.workers)
        # The scheduler thread must not start before the workers exist.
        super().__init__(session, max_batch=max_batch, max_wait_ms=max_wait_ms,
                         queue_size=queue_size, autostart=False)
        try:
            self._start_workers(self.workers)
        except BaseException:
            self._closed = True
            raise
        if autostart:
            self.start()

    def _worker_spec(self) -> tuple:
        return worker_main, {"bundle_path": self.bundle_path,
                             "max_batch": self.max_batch,
                             "compile": self.session.compile_enabled}

    # -- scheduling ------------------------------------------------------------

    def _handle_batch(self, batch) -> None:
        """Submit one coalesced batch to the next idle worker.

        Blocks while every worker is busy (that is the backpressure that
        keeps the bounded request queue meaningful), but keeps checking the
        closed flag so ``close()`` during a saturated pool fails the batch
        with :class:`EngineClosed` instead of deadlocking the scheduler.
        """
        while not self._slots_free.acquire(timeout=0.05):
            if self._closed:
                self._fail_batch(batch, EngineClosed(_CLOSED_WHILE_QUEUED))
                return

        def finished(job) -> None:
            self._slots_free.release()
            # Cancelled: the fleet stopped before a worker took the batch.
            error = (EngineClosed(_CLOSED_WHILE_QUEUED) if job.cancelled()
                     else job.exception())
            if error is not None:
                self._fail_batch(batch, error)

        job = self._submit(lambda worker: self._run_shard(worker, batch))
        job.add_done_callback(finished)

    def _run_shard(self, worker, shard) -> None:
        """Execute one coalesced batch remotely; every future must resolve.

        A worker death is isolated and the forward retried once by the
        fleet; a model error raises ``RuntimeError`` with the worker
        traceback for these futures only.
        """
        def forward(fused):
            outputs, worker.last_stats = self._call(worker, ("predict", fused))
            return outputs

        self._execute(shard, forward)

    # -- warmup ----------------------------------------------------------------

    def warm(self, input_shape: tuple | None = None) -> None:
        """Warm every worker's own plan cache; a worker's error raises here."""
        message = ("warm", tuple(input_shape) if input_shape is not None else None)
        for worker in self._workers:
            _, worker.last_stats = self._call(worker, message)

    # -- shutdown --------------------------------------------------------------

    def _shutdown_backend(self, timeout: float | None) -> None:
        """Stop the fleet once the scheduler has drained (see ``close``)."""
        self._stop_workers(timeout)

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        """Pool stats: the common queued-engine schema plus per-worker detail.

        ``plan_cache`` aggregates every worker's own cache counters (each
        process warms independently); ``per_worker`` carries the identity
        facts the determinism and depth tests pin (pid, derived seed, depth,
        ``effective_jobs`` as observed inside the worker, and whether it was
        forked from a preloaded server) next to each worker's serving
        counters.
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
                "preloaded": worker.info.get("preloaded"),
                "batches": worker.last_stats.get("batches", 0),
                "samples": worker.last_stats.get("samples", 0),
                "plan_cache": worker_plan,
            })
        stats["plan_cache"] = plan_cache
        stats["per_worker"] = per_worker
        return stats


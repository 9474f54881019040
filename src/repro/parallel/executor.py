"""Map a batch of tasks over a worker fleet (or inline), with retries.

:func:`run_tasks` is the single entry point used both by the experiment
runner (one task per experiment) and by the per-model grids inside one
experiment (one task per model).  Guarantees:

* **Determinism** — results come back in submission order, and every task can
  be given a seed derived from a root seed plus its key, so ``jobs=1`` and
  ``jobs=N`` produce byte-identical outputs.
* **One attempt loop** — :func:`_run_one` drives every task through
  :func:`~repro.parallel.worker.execute_task`: inline when ``jobs <= 1``,
  else on long-lived ``repro-sweep-<rank>`` fleet workers (fresh
  interpreters), one dispatcher thread each.  Callbacks run on the calling
  thread, and each task emits the same event stream at every ``jobs``.
* **Failure containment** — a task that raises is retried up to ``retries``
  times, then reported as a failed :class:`TaskResult`.  A worker death is
  charged to the task on that worker's pipe: the fleet respawns the worker
  and reruns the task once; a second death fails it as ``worker process
  crashed``.  One bad task never aborts the batch.
* **No nested pools** — tasks running inside a worker see
  ``parallel_depth() > 0`` and their own fan-outs clamp to ``jobs=1``.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field

from . import events as ev
from .events import TaskEvent
from .fleet import WorkerFleet, WorkerHandle, serve_worker
from .seeding import derive_seed
from .worker import effective_jobs, execute_task, parallel_depth

__all__ = ["Task", "TaskResult", "ParallelTaskError", "run_tasks",
           "effective_jobs", "parallel_depth"]


@dataclass(frozen=True)
class Task:
    """One unit of work: a dotted callable reference plus primitive kwargs.

    ``key`` must be unique within a batch; it names the task in events and is
    mixed into the derived per-task seed.  ``kwargs`` must contain only
    picklable primitives (the callable is resolved worker-side, so live
    objects never cross the process boundary).
    """

    key: str
    fn: str
    kwargs: dict = field(default_factory=dict)


@dataclass
class TaskResult:
    """Outcome of one task after all attempts."""

    key: str
    index: int
    ok: bool
    value: object = None
    error: str | None = None
    traceback: str | None = None
    attempts: int = 1
    elapsed_seconds: float = 0.0
    pid: int | None = None


class ParallelTaskError(RuntimeError):
    """Raised by :func:`raise_on_failure` when a batch has failed tasks."""

    def __init__(self, failures: list[TaskResult]):
        self.failures = failures
        # Include the worker-side tracebacks: this exception is usually all
        # that survives to the sweep-level failure report, so the real failing
        # frame inside the task must travel with it.
        details = "\n".join(
            f"--- {result.key} (after {result.attempts} attempt(s)) ---\n"
            f"{(result.traceback or result.error or 'unknown failure').rstrip()}"
            for result in failures)
        super().__init__(f"{len(failures)} task(s) failed after retries:\n{details}")


def raise_on_failure(results: list[TaskResult]) -> list[TaskResult]:
    """Return ``results`` unchanged, raising :class:`ParallelTaskError` if any failed."""
    failures = [result for result in results if not result.ok]
    if failures:
        raise ParallelTaskError(failures)
    return results


def run_tasks(tasks: list[Task], jobs: int | str | None = 1, retries: int = 1,
              on_event=None, on_result=None, seed: int | None = None) -> list[TaskResult]:
    """Execute ``tasks`` and return one :class:`TaskResult` per task, in order.

    ``on_event`` receives :class:`~repro.parallel.events.TaskEvent` instances
    as the batch progresses; ``on_result`` receives each finalized
    :class:`TaskResult` in *completion* order (for live reporting — the
    returned list is always in submission order).  ``seed`` (when given)
    derives a per-task seed from ``(seed, task.key)`` that the worker
    installs into the global RNGs before running the task.
    """
    tasks = list(tasks)
    keys = [task.key for task in tasks]
    if len(set(keys)) != len(keys):
        raise ValueError(f"task keys must be unique within a batch: {keys}")
    emit = on_event if on_event is not None else (lambda event: None)
    deliver = on_result if on_result is not None else (lambda result: None)
    payloads = [{
        "key": task.key,
        "fn": task.fn,
        "kwargs": dict(task.kwargs),
        "seed": None if seed is None else derive_seed(seed, task.key),
    } for task in tasks]

    jobs = min(effective_jobs(jobs), max(len(tasks), 1))
    if jobs > 1:
        return _run_pool(payloads, jobs, retries, emit, deliver)
    results = []
    for index, payload in enumerate(payloads):
        results.append(_run_one(payload, index, retries, emit, execute_task))
        deliver(results[-1])
    return results


def _run_one(payload: dict, index: int, retries: int, send, run) -> TaskResult:
    """Run one task to its final result, sending its events through ``send``.

    ``run(payload)`` makes one attempt and returns an :func:`execute_task`
    result; a ``"crashed"`` flag (a worker death the fleet already retried on
    a respawned worker) charges one more attempt.
    """
    key = payload["key"]
    attempt = 1
    send(TaskEvent(ev.SUBMITTED, key, attempt=attempt))
    while True:
        raw = run(payload)
        if raw.get("crashed"):
            send(TaskEvent(ev.RETRYING, key, attempt=attempt,
                           error="worker process crashed"))
            attempt += 1
        if raw["ok"] or attempt > retries:
            break
        send(TaskEvent(ev.RETRYING, key, attempt=attempt, error=raw.get("error")))
        attempt += 1
    result = TaskResult(key=key, index=index, ok=raw["ok"], value=raw.get("value"),
                        error=raw.get("error"), traceback=raw.get("traceback"),
                        attempts=attempt, pid=raw.get("pid"),
                        elapsed_seconds=raw.get("elapsed_seconds", 0.0))
    send(TaskEvent(ev.COMPLETED if result.ok else ev.FAILED, key,
                   attempt=attempt, elapsed_seconds=result.elapsed_seconds,
                   pid=result.pid, error=result.error))
    return result


def _worker_main(rank: int, conn, config: dict) -> None:
    """Entry point of one ``repro-sweep-<rank>`` worker process."""
    serve_worker(conn, "sweep", rank, config, lambda config: None,
                 {"run": lambda state, payload: execute_task(payload)})


class _WorkerCrashed(RuntimeError):
    """A sweep worker died twice on one task or could not be (re)started."""


class _SweepFleet(WorkerFleet):
    fleet_role = "sweep"
    worker_label = "sweep worker"
    work_unit = "task"
    fleet_error = remote_error = _WorkerCrashed

    def _worker_spec(self) -> tuple:
        return _worker_main, {}

    def _drive(self, handle: WorkerHandle, payloads: list[dict], pending,
               retries: int, outcomes) -> None:
        """Dispatcher thread: start ``handle``'s worker, run queued tasks on it.

        Events, results and any error go to ``outcomes``, then a final ``None``.
        """

        def attempt(payload: dict) -> dict:
            restarts = handle.restarts
            try:
                raw = self._call(handle, ("run", payload))
            except _WorkerCrashed as error:
                with handle.lock:  # the next task must not inherit a dead worker
                    self._respawn(handle)
                return {"key": payload["key"], "ok": False, "crashed": True,
                        "error": f"worker process crashed: {error}"}
            return {**raw, "crashed": handle.restarts > restarts}

        try:
            self._spawn(handle)
            for index in iter(pending.get, None):
                if self._closed:
                    break
                outcomes.put(_run_one(payloads[index], index, retries,
                                      outcomes.put, attempt))
        except BaseException as error:  # noqa: BLE001 — raised by the caller
            outcomes.put(error)
        finally:
            outcomes.put(None)


def _run_pool(payloads: list[dict], jobs: int, retries: int, emit,
              deliver) -> list[TaskResult]:
    """Run ``payloads`` on a ``jobs``-worker fleet; callbacks stay on this thread."""
    pending, outcomes = queue.SimpleQueue(), queue.SimpleQueue()
    for index in [*range(len(payloads)), *[None] * jobs]:
        pending.put(index)
    fleet = _SweepFleet()
    # Each dispatcher spawns its own worker, so workers boot concurrently and
    # the first one ready starts taking tasks at once.
    fleet._workers = [WorkerHandle(rank) for rank in range(jobs)]
    threads = [threading.Thread(target=fleet._drive,
                                args=(handle, payloads, pending, retries, outcomes),
                                name=f"repro-sweep-dispatch-{handle.rank}",
                                daemon=True)
               for handle in fleet._workers]
    results: dict[int, TaskResult] = {}
    try:
        for thread in threads:
            thread.start()
        running = jobs
        while running:
            item = outcomes.get()
            if item is None:
                running -= 1
            elif isinstance(item, TaskEvent):
                emit(item)
            elif isinstance(item, TaskResult):
                results[item.index] = item
                deliver(item)
            else:
                raise item
    finally:
        fleet._closed = True
        fleet._stop_workers()  # unblocks any dispatcher waiting on its worker
        for thread in threads:
            if thread.is_alive():
                thread.join()
        fleet._stop_workers()  # reaps a worker respawned during the first stop
    return [results[index] for index in range(len(payloads))]

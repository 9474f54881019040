"""One worker-process lifecycle: spawn, ready-ack, respawn-and-retry, stop.

Three owners run N long-lived workers that answer commands over a
:class:`~multiprocessing.Pipe`: the serving pool
(:class:`~repro.serve.pool.ProcessPoolEngine`, ``repro-pool-<rank>``), the
data-parallel trainer (:class:`~repro.training.DataParallelTrainer`,
``repro-dp-<rank>``) and the sweep executor
(:func:`~repro.parallel.executor.run_tasks`, ``repro-sweep-<rank>``).

* **Parent side** — :class:`WorkerFleet`, a base class the owner inherits.
  It spawns workers (``REPRO_MP_START`` policy, default ``spawn``), waits for
  each one's ready ack, and runs every command through :meth:`_call`.  Each
  worker has its own pipe, so a death belongs to the one command on it: the
  worker is respawned and that command alone retried once; a second death
  raises the owner's error.  A *remote* error (the handler raised inside a
  healthy worker) is raised at once and never retried.
* **Child side** — :func:`serve_worker`, which the owner's ``worker_main``
  calls.  It tags the process with ``REPRO_PARALLEL_DEPTH`` (so anything
  inside sees ``effective_jobs() == 1`` and cannot spawn pools of pools),
  seeds it with ``derive_seed(seed, role, rank)``, builds the owner's state,
  and answers commands until told to stop.

Wire protocol, one pickle per message: the child first sends ``("ready",
info)``, or ``("fatal", message, traceback)`` when setup raised, so start
failures carry the child's traceback; each ``(command, *args)`` gets
``("ok", payload)`` or ``("error", message, traceback)``; ``("stop",)`` ends
the loop.  Nothing here imports the serving, training or experiment stacks:
the owner supplies its entry point, config and error classes.
"""

from __future__ import annotations

import os
import threading
import traceback
from multiprocessing import get_context

from .seeding import derive_seed, seed_task_globals
from .worker import DEPTH_ENV, START_METHOD_ENV, effective_jobs, parallel_depth

__all__ = ["WorkerFleet", "WorkerHandle", "serve_worker"]


class WorkerHandle:
    """Parent-side handle for one worker process: pipe, liveness, counters."""

    __slots__ = ("rank", "process", "conn", "info", "last_stats", "restarts",
                 "lock")

    def __init__(self, rank: int):
        self.rank = rank
        self.process = None
        self.conn = None
        self.info: dict = {}  # the worker's ready ack (pid, seed, depth, ...)
        self.last_stats: dict = {}  # counters the owner keeps from replies
        self.restarts = 0
        # Serializes pipe access between the thread driving this worker and
        # out-of-band callers (broadcasts, respawns).
        self.lock = threading.Lock()

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class _WorkerDied(Exception):
    """A worker was found dead before talking to it."""


class WorkerFleet:
    """Base class owning N worker processes and their respawn-and-retry calls.

    The owner calls ``WorkerFleet.__init__(self)``, sets the class attributes
    below, and implements :meth:`_worker_spec`.  It reaches its workers
    through ``self._workers`` (filled by :meth:`_start_workers`) and
    :meth:`_call`, and stops them with :meth:`_stop_workers` after raising
    ``self._closed``.
    """

    #: Process names are ``repro-<fleet_role>-<rank>``.
    fleet_role = "fleet"
    #: Errors read ``"<worker_label> <rank> died twice running the same
    #: <work_unit> ..."``.
    worker_label = "worker"
    work_unit = "command"
    #: Raised when a worker cannot start or dies twice on one command.
    fleet_error: type[Exception] = RuntimeError
    #: Raised when a worker dies after the owner was closed.
    closed_error: type[Exception] = RuntimeError
    #: Raised when the worker's handler raised (carries its traceback).
    remote_error: type[Exception] = RuntimeError

    def __init__(self):
        self.restarts = 0
        self._closed = False
        self._restarts_lock = threading.Lock()
        self._context = get_context(os.environ.get(START_METHOD_ENV, "spawn"))
        self._workers: list[WorkerHandle] = []

    def _worker_spec(self) -> tuple:
        """``(target, config)``: the child entry point and its config dict.

        The target is called as ``target(rank, conn, config)`` and must end
        in :func:`serve_worker`.  It is looked up on every spawn, so a
        replaced module attribute takes effect for later workers.
        """
        raise NotImplementedError

    # -- lifecycle -------------------------------------------------------------

    def _start_workers(self, size: int) -> None:
        """Spawn ranks ``0..size-1``; on any failure reap them all and re-raise."""
        handles = [WorkerHandle(rank) for rank in range(size)]
        try:
            for handle in handles:
                self._spawn(handle)
        except BaseException:
            for handle in handles:
                self._discard(handle)
            raise
        self._workers = handles

    def _spawn(self, handle: WorkerHandle) -> None:
        """Start (or restart) one worker process and wait for its ready ack."""
        target, config = self._worker_spec()
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=target,
            args=(handle.rank, child_conn,
                  {**config, "depth": parallel_depth() + 1}),
            name=f"repro-{self.fleet_role}-{handle.rank}",
            daemon=True)
        process.start()
        child_conn.close()  # the child holds its own copy
        label = f"{self.worker_label} {handle.rank}"
        try:
            reply = parent_conn.recv()
        except (EOFError, OSError) as error:
            process.join(1.0)
            parent_conn.close()
            raise self.fleet_error(
                f"{label} died before answering ready "
                f"(exitcode {process.exitcode})") from error
        if reply[0] != "ready":
            process.join(1.0)
            parent_conn.close()
            raise self.fleet_error(
                f"{label} failed to start: {reply[1]}\n{reply[2]}")
        handle.process = process
        handle.conn = parent_conn
        handle.info = reply[1]

    def _discard(self, handle: WorkerHandle) -> None:
        """Isolate a dead/suspect worker: close its pipe, reap the process."""
        if handle.conn is not None:
            try:
                handle.conn.close()
            except OSError:
                pass
            handle.conn = None
        if handle.process is not None:
            if handle.process.is_alive():
                handle.process.terminate()
            handle.process.join(2.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(2.0)
            handle.process = None

    def _respawn(self, handle: WorkerHandle) -> None:
        """Respawn-and-retry step 1: replace a dead worker with a fresh one."""
        self._discard(handle)
        self._spawn(handle)
        handle.restarts += 1
        with self._restarts_lock:
            self.restarts += 1

    def _stop_workers(self) -> None:
        """Ask every worker to stop, escalating to terminate/kill.

        Takes no handle locks: a thread wedged in a call holds its handle's
        lock, and terminating that worker is what unblocks it.
        """
        for handle in self._workers:
            if handle.conn is not None:
                try:
                    handle.conn.send(("stop",))
                except OSError:
                    pass
            self._discard(handle)

    # -- calls -----------------------------------------------------------------

    def _call(self, handle: WorkerHandle, message: tuple):
        """Run ``message`` on ``handle``'s worker and return its reply payload.

        A dead worker or broken pipe triggers respawn-and-retry: respawn and
        retry exactly once; a second death raises :attr:`fleet_error`, and a
        death after close raises :attr:`closed_error`.  A remote error raises
        :attr:`remote_error` with the worker traceback, without a retry.
        """
        label = f"{self.worker_label} {handle.rank}"
        for attempt in (1, 2):
            try:
                with handle.lock:
                    if not handle.alive:  # found dead before sending
                        raise _WorkerDied(
                            f"worker process is dead (exitcode "
                            f"{handle.process.exitcode if handle.process else None})")
                    handle.conn.send(message)
                    reply = handle.conn.recv()
            except (_WorkerDied, EOFError, OSError) as error:
                if self._closed:
                    raise self.closed_error(
                        f"{label}: closed while a {self.work_unit} was in "
                        f"flight; shutting down") from error
                if attempt == 2:
                    raise self.fleet_error(
                        f"{label} died twice running the same "
                        f"{self.work_unit} (retried once on a respawned "
                        f"worker); giving up on it") from error
                try:  # respawn-and-retry: fresh worker, one more attempt
                    with handle.lock:
                        self._respawn(handle)
                except self.fleet_error as spawn_error:
                    raise self.fleet_error(
                        f"{label} died and could not be respawned: "
                        f"{spawn_error}") from spawn_error
                continue
            if reply[0] == "ok":
                return reply[1]
            raise self.remote_error(
                f"{label} {message[0]} failed: {reply[1]}\n"
                f"--- worker traceback ---\n{reply[2]}")
        raise AssertionError("unreachable")  # pragma: no cover


def serve_worker(conn, role: str, rank: int, config: dict, setup,
                 handlers: dict) -> None:
    """Child side of the fleet protocol; returns when told to stop.

    ``state = setup(config)`` builds the worker's state once; each command
    ``(name, *args)`` then runs ``handlers[name](state, *args)`` and its
    return value travels back as the ``ok`` payload.  A handler that raises
    is reported as ``("error", message, traceback)`` and the worker keeps
    serving.
    """
    os.environ[DEPTH_ENV] = str(config.get("depth", 1))
    seed = derive_seed(config.get("seed", 0), role, rank)
    seed_task_globals(seed)
    try:
        state = setup(config)
    except Exception as error:  # noqa: BLE001 — reported, not raised
        try:
            conn.send(("fatal", f"{type(error).__name__}: {error}",
                       traceback.format_exc()))
        finally:
            conn.close()
        return
    conn.send(("ready", {
        "pid": os.getpid(),
        "rank": rank,
        "seed": seed,
        "depth": int(os.environ[DEPTH_ENV]),
        "effective_jobs": effective_jobs(),
    }))
    try:
        while True:
            command = conn.recv()
            if command[0] == "stop":
                break
            try:
                handler = handlers.get(command[0])
                if handler is None:
                    raise ValueError(f"unknown {role} command {command[0]!r}")
                payload = handler(state, *command[1:])
            except Exception as error:  # noqa: BLE001 — shipped to the parent
                conn.send(("error", f"{type(error).__name__}: {error}",
                           traceback.format_exc()))
            else:
                conn.send(("ok", payload))
    except (EOFError, OSError, KeyboardInterrupt):  # parent vanished / ^C
        pass
    finally:
        conn.close()

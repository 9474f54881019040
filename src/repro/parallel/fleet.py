"""One worker-process lifecycle: boot, dispatch, respawn-and-retry, stop.

Three owners run N long-lived workers that answer commands over a
:class:`~multiprocessing.Pipe`: the serving pool
(:class:`~repro.serve.pool.ProcessPoolEngine`, ``repro-pool-<rank>``), the
data-parallel trainer (:class:`~repro.training.DataParallelTrainer`,
``repro-dp-<rank>``) and the sweep executor
(:func:`~repro.parallel.executor.run_tasks`, ``repro-sweep-<rank>``).

* **Parent side** — :class:`WorkerFleet`, a base class the owner inherits.
  Every worker has one long-lived dispatcher thread,
  ``repro-<role>-dispatch-<rank>``, which starts its worker and then runs
  the owner's jobs on it: :meth:`_submit` hands ``job(handle)`` to the next
  idle dispatcher and returns a :class:`~concurrent.futures.Future`.  Workers
  boot concurrently; :meth:`_start_workers` waits for every ready ack and
  reaps them all on any failure.  A job reaches its worker through
  :meth:`_call`.  Each worker has its own pipe, so a death belongs to the
  one command on it: the worker is respawned and that command alone
  retried once; a second death raises the owner's error.  A *remote* error
  (the handler raised inside a healthy worker) is raised at once and never
  retried.  :meth:`_stop_workers` is the one shutdown path: queued jobs are
  cancelled, in-flight ones finish, a worker still wedged after the timeout
  is terminated, and every process is reaped.
* **Child side** — :func:`serve_worker`, which the owner's ``worker_main``
  calls.  It tags the process with ``REPRO_PARALLEL_DEPTH`` (so anything
  inside sees ``effective_jobs() == 1`` and cannot spawn pools of pools),
  seeds it with ``derive_seed(seed, role, rank)``, builds the owner's state,
  and answers commands until told to stop.

Process start: every worker of every fleet is started with the
``forkserver`` method.  The first fleet in a process (or an earlier
:func:`start_forkserver` call) boots one server interpreter, which imports
:data:`PRELOAD` once; each worker, respawn and later fleet of that process
is then a fork of that server (tens of milliseconds) instead of a fresh
interpreter importing numpy and the package (about half a second).  Workers
never fork from the owner itself, so none inherits its threads, dynamically
registered specs, RNG state or sibling pipes.  Two consequences:

* A fork carries the server's environment as of the server's start, so the
  parent ships ``dict(os.environ)`` with every worker config and
  :func:`serve_worker` installs it before ``setup``.  Variables read at
  import time by C libraries (the BLAS thread counts) take effect as of the
  server's start: the first fleet of a process.
* The server finds :data:`PRELOAD` only through ``PYTHONPATH`` or an
  installed package (Python's forkserver does not pass it the parent's
  ``sys.path``).  A failed preload is skipped: each worker then imports on
  its own, with the same bytes and none of the gain.  The ready ack's
  ``preloaded`` flag says which happened.

Wire protocol, one pickle per message: the child first sends ``("ready",
info)``, or ``("fatal", message, traceback)`` when setup raised, so start
failures carry the child's traceback; each ``(command, *args)`` gets
``("ok", payload)`` or ``("error", message, traceback)``; ``("stop",)`` ends
the loop.  Nothing here imports the serving, training or experiment stacks:
the owner supplies its entry point, config and error classes.
"""

from __future__ import annotations

import os
import queue
import threading
import time
import traceback
from concurrent.futures import Future
from multiprocessing import get_context

from .seeding import derive_seed, seed_task_globals
from .worker import DEPTH_ENV, effective_jobs, parallel_depth

__all__ = ["START_METHOD", "PRELOAD", "WorkerFleet", "WorkerHandle",
           "serve_worker", "start_forkserver"]

#: How every fleet worker is started.
START_METHOD = "forkserver"
#: Modules the fork server imports once, before its first fork.
PRELOAD = ("repro",)
#: The pid that imported this module.  A worker forked from a server that
#: preloaded :data:`PRELOAD` sees the server's pid here, not its own.
_IMPORTED_IN_PID = os.getpid()


def start_forkserver() -> None:
    """Boot this process's fork server unless it is running; idempotent.

    Returns once the server process is launched: it imports :data:`PRELOAD`
    while the caller goes on, and answers fork requests after that.  Every
    fleet calls this before its first worker; a caller that knows a fleet
    is coming (``repro serve`` with a ``pool`` model) calls it early, so the
    server's boot overlaps its own work.  Imports the forkserver machinery
    on first use, so processes that start no fleet never load it.
    """
    from multiprocessing import forkserver

    forkserver.set_forkserver_preload(list(PRELOAD))
    forkserver.ensure_running()


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
        # Serializes pipe access between this worker's dispatcher and
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
    below, and implements :meth:`_worker_spec`.  It boots its workers with
    :meth:`_start_workers`, runs work with :meth:`_submit` (a job calls
    :meth:`_call` on the handle it is given), and stops them with
    :meth:`_stop_workers`.  ``self._workers`` holds the handles.
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
        self._workers: list[WorkerHandle] = []
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._dispatchers: list[threading.Thread] = []
        # Orders every submit against the stop sentinels, so no job can land
        # behind them and never run.
        self._jobs_lock = threading.Lock()

    def _worker_spec(self) -> tuple:
        """``(target, config)``: the child entry point and its config dict.

        The target is called as ``target(rank, conn, config)`` and must end
        in :func:`serve_worker`.  It is looked up on every worker start, so
        a replaced module attribute takes effect for later workers.
        """
        raise NotImplementedError

    # -- lifecycle -------------------------------------------------------------

    def _start_workers(self, size: int) -> None:
        """Boot ranks ``0..size-1`` concurrently, one dispatcher thread each.

        Each dispatcher starts its own worker; this waits for every ready
        ack, and on any failure stops the dispatchers, reaps every worker and
        re-raises the first error by rank.
        """
        start_forkserver()
        handles = [WorkerHandle(rank) for rank in range(size)]
        booted = [Future() for _ in handles]
        jobs = queue.SimpleQueue()
        threads = [threading.Thread(
            target=self._dispatch, args=(handle, jobs, ready),
            name=f"repro-{self.fleet_role}-dispatch-{handle.rank}", daemon=True)
            for handle, ready in zip(handles, booted)]
        with self._jobs_lock:
            self._jobs, self._dispatchers = jobs, threads
        for thread in threads:
            thread.start()
        try:
            for ready in booted:
                ready.result()
        except BaseException:
            self._halt(handles, None)
            raise
        self._workers = handles

    def _dispatch(self, handle: WorkerHandle, jobs, booted: Future) -> None:
        """Dispatcher thread: boot ``handle``'s worker, then run jobs on it.

        Exits on the ``None`` sentinel :meth:`_halt` queues per dispatcher.
        """
        try:
            self._spawn(handle)
        except BaseException as error:  # noqa: BLE001 — _start_workers raises it
            booted.set_exception(error)
            return
        booted.set_result(None)
        for job, future in iter(jobs.get, None):
            if self._closed:  # stopping: a job not yet started never runs
                future.cancel()
            if not future.set_running_or_notify_cancel():
                continue
            try:
                future.set_result(job(handle))
            except BaseException as error:  # noqa: BLE001 — the future carries it
                future.set_exception(error)

    def _submit(self, job) -> Future:
        """Run ``job(handle)`` on the next idle worker's dispatcher thread.

        Raises :attr:`closed_error` once the workers are stopped.
        """
        future = Future()
        with self._jobs_lock:
            if not self._dispatchers:
                raise self.closed_error(
                    f"{self.worker_label}s are stopped; cannot run a "
                    f"{self.work_unit}")
            self._jobs.put((job, future))
        return future

    def _spawn(self, handle: WorkerHandle) -> None:
        """Start (or restart) one worker process and wait for its ready ack."""
        target, config = self._worker_spec()
        context = get_context(START_METHOD)
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=target,
            args=(handle.rank, child_conn,
                  {**config, "depth": parallel_depth() + 1,
                   "environ": dict(os.environ)}),
            name=f"repro-{self.fleet_role}-{handle.rank}",
            daemon=True)
        process.start()
        child_conn.close()  # the child holds its own copy
        try:
            reply = parent_conn.recv()
        except (EOFError, OSError):
            reply = None
        if reply is None or reply[0] != "ready":
            process.join(1.0)
            parent_conn.close()
            label = f"{self.worker_label} {handle.rank}"
            raise self.fleet_error(
                f"{label} died before answering ready (exitcode "
                f"{process.exitcode})" if reply is None
                else f"{label} failed to start: {reply[1]}\n{reply[2]}")
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
        process, handle.process = handle.process, None
        if process is not None:
            for stop in (process.terminate, process.kill):
                if process.is_alive():
                    stop()
                    process.join(2.0)

    def _respawn(self, handle: WorkerHandle) -> None:
        """Respawn-and-retry step 1: replace a dead worker with a fresh one."""
        self._discard(handle)
        self._spawn(handle)
        handle.restarts += 1
        with self._restarts_lock:
            self.restarts += 1

    def _stop_workers(self, timeout: float | None = 5.0) -> None:
        """Close the fleet: stop the dispatchers, then every worker process.

        Jobs not yet started are cancelled; in-flight jobs get ``timeout``
        seconds (``None``: no bound) to finish.  A worker still wedged after
        that is terminated, so its blocked job raises :attr:`closed_error`.
        Idempotent.
        """
        self._closed = True
        self._halt(self._workers, timeout)

    def _halt(self, handles: list[WorkerHandle], timeout: float | None) -> None:
        """Stop the dispatchers, killing wedged workers, then reap ``handles``.

        Takes no handle locks: a wedged job holds its handle's lock, and
        terminating that worker is what unblocks it.
        """
        with self._jobs_lock:
            dispatchers, self._dispatchers = self._dispatchers, []
            for _ in dispatchers:
                self._jobs.put(None)
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in dispatchers:
            thread.join(None if deadline is None
                        else max(0.0, deadline - time.monotonic()))
        escalate = "terminate"
        while any(thread.is_alive() for thread in dispatchers):
            for handle in handles:  # a job is wedged: its recv raises on death
                process = handle.process
                if process is not None and process.is_alive():
                    getattr(process, escalate)()
            escalate = "kill"
            for thread in dispatchers:
                thread.join(0.5)
        for handle in handles:
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
    serving.  The parent's environment, shipped in ``config["environ"]``,
    replaces the one inherited from the fork server first.
    """
    os.environ.clear()
    os.environ.update(config["environ"])
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
        "preloaded": _IMPORTED_IN_PID != os.getpid(),
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

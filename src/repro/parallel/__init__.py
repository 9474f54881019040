"""Multi-process execution: experiment sweeps and the shared worker fleet.

* :mod:`~repro.parallel.executor` — :func:`run_tasks` maps a list of
  :class:`Task` descriptions over ``repro-sweep-<rank>`` fleet workers (or
  inline when ``jobs <= 1``) through one attempt loop, retrying failed tasks
  and reporting per-task failures instead of aborting the batch.
* :mod:`~repro.parallel.fleet` — ``WorkerFleet``, the one worker lifecycle
  (spawn, ready ack, respawn-and-retry, stop) shared by the sweep executor,
  the serving pool and the data-parallel trainer.
* :mod:`~repro.parallel.worker` — the worker-side task entry point.  Tasks
  carry a dotted ``"module:function"`` reference plus primitive kwargs, so
  nothing stateful ever crosses the process boundary.
* :mod:`~repro.parallel.locks` — ``fcntl``-based advisory file locks (with a
  portable ``O_EXCL`` fallback) so concurrent workers coordinate through the
  artifact cache without double-training or torn writes.
* :mod:`~repro.parallel.seeding` — deterministic per-task seed derivation, so
  results are byte-identical whatever the process placement or completion
  order.
"""

from .events import TaskEvent
from .executor import (
    ParallelTaskError,
    Task,
    TaskResult,
    effective_jobs,
    parallel_depth,
    run_tasks,
)
from .locks import FileLock, LockTimeout
from .seeding import derive_seed, spawn_rng
from .worker import execute_task, resolve_callable

__all__ = [
    "Task",
    "TaskResult",
    "TaskEvent",
    "ParallelTaskError",
    "run_tasks",
    "effective_jobs",
    "parallel_depth",
    "FileLock",
    "LockTimeout",
    "derive_seed",
    "spawn_rng",
    "execute_task",
    "resolve_callable",
]

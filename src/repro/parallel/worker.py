"""Worker-side task execution and the process-placement knobs.

A :class:`~repro.parallel.executor.Task` never carries live objects — only a
dotted ``"module:function"`` reference plus primitive kwargs — so the payload
pickles trivially and the worker re-imports and re-resolves everything by name
(the same way the experiment runner re-resolves an
:class:`~repro.experiments.registry.ExperimentSpec` from the registry).
Workers are forks of the fleet's fork server, a clean interpreter that has
only imported the package (see :mod:`repro.parallel.fleet`); they never fork
from the owner itself, which would leak its dynamically registered specs,
global RNG state and threads into them and break the byte-identity of N
workers against one.

:func:`execute_task` converts *all* task exceptions into a structured failure
payload (with the formatted traceback) instead of letting them propagate: a
raising worker function must surface as a per-task failure the parent can
retry or report, never as an unpicklable exception that kills its worker.
The worker-count and nesting knobs every multi-process owner reads live here.
"""

from __future__ import annotations

import os
import time
import traceback
from importlib import import_module

from .seeding import seed_task_globals

__all__ = ["resolve_callable", "execute_task", "effective_jobs",
           "parallel_depth"]

#: Environment variable tracking how many worker-process layers deep we are.
DEPTH_ENV = "REPRO_PARALLEL_DEPTH"

#: Environment variable naming the default worker count (set by the CLI so
#: fan-outs deep inside experiment drivers inherit ``--jobs``).
JOBS_ENV = "REPRO_JOBS"


def parallel_depth() -> int:
    """How many worker-process layers above this process (0 in the parent)."""
    try:
        return int(os.environ.get(DEPTH_ENV, "0"))
    except ValueError:
        return 0


def effective_jobs(jobs: int | str | None = None) -> int:
    """Resolve a requested worker count to a concrete, safe value.

    ``None`` falls back to ``$REPRO_JOBS`` (default 1); ``"auto"`` or any
    value ``<= 0`` means one worker per CPU; any other string raises
    ``ValueError``.  Inside a worker process the result is clamped to 1 so
    nested fan-outs run sequentially.
    """
    source = "--jobs"
    if jobs is None:
        source = f"${JOBS_ENV}"
        jobs = os.environ.get(JOBS_ENV) or 1
    if isinstance(jobs, str):
        text = jobs.strip().lower()
        if text != "auto" and not text.removeprefix("-").isdecimal():
            raise ValueError(f"{source} must be an integer or 'auto', got {jobs!r}")
        jobs = -1 if text == "auto" else int(text)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    if parallel_depth() > 0:
        return 1
    return int(jobs)


def resolve_callable(reference: str):
    """Import and return the callable named by ``"package.module:attribute"``.

    The attribute part may be dotted (``"pkg.mod:Class.method"``).
    """
    module_name, separator, attribute_path = reference.partition(":")
    if not separator or not module_name or not attribute_path:
        raise ValueError(f"task reference {reference!r} is not of the form "
                         f"'package.module:attribute'")
    target = import_module(module_name)
    for attribute in attribute_path.split("."):
        target = getattr(target, attribute)
    if not callable(target):
        raise TypeError(f"task reference {reference!r} resolved to "
                        f"non-callable {target!r}")
    return target


def execute_task(payload: dict) -> dict:
    """Run one task payload; always return a structured result dictionary.

    ``payload`` is ``{"key": str, "fn": "module:function", "kwargs": dict,
    "seed": int | None}``.  The result is ``{"key", "ok", "value" | "error" +
    "traceback", "elapsed_seconds", "pid"}``.
    """
    key = payload["key"]
    started = time.perf_counter()
    try:
        seed = payload.get("seed")
        if seed is not None:
            seed_task_globals(seed)
        function = resolve_callable(payload["fn"])
        value = function(**payload.get("kwargs", {}))
        return {"key": key, "ok": True, "value": value,
                "elapsed_seconds": time.perf_counter() - started,
                "pid": os.getpid()}
    except Exception as error:
        return {"key": key, "ok": False,
                "error": f"{type(error).__name__}: {error}",
                "traceback": traceback.format_exc(),
                "elapsed_seconds": time.perf_counter() - started,
                "pid": os.getpid()}


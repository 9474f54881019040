"""Shared experiment runner: content-addressed artifact cache + process-pool sweeps.

One runner executes every registered :class:`~repro.experiments.registry.ExperimentSpec`.
Before running, the experiment's configuration — spec name + spec version +
the full :class:`~repro.experiments.config.ExperimentScale` — is hashed; the
JSON artifact is cached under ``<cache_dir>/<name>-<scale>-<hash12>.json``.
A second invocation with an unchanged configuration is a cache hit and skips
the (expensive) training entirely, which makes sweeps incremental: interrupt
``run all`` at any point and re-running resumes where it left off, and
changing any scale knob (or bumping ``spec.version``) changes the hash and
transparently invalidates only the affected artifacts.

:func:`run_many` fans experiments out over a process pool
(:mod:`repro.parallel`): each worker re-resolves its spec *by name* from the
registry (specs never cross the process boundary), takes an ``fcntl`` file
lock on the artifact's cache key, re-checks the cache under the lock (a
concurrent worker may have just trained the same configuration — the loser of
the race gets a cache hit instead of a duplicate training run), and writes the
artifact via an atomic temp-file + rename so a crash can never leave a torn
JSON document to poison later cache reads.  Worker failures are retried once
and then reported as per-experiment errors; one bad experiment never aborts
the sweep.

Artifacts are deliberately free of wall-clock metadata, so ``--jobs N`` and
``--jobs 1`` produce byte-identical files (timings live on the in-memory
:class:`ExperimentOutcome` only).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from ..io.serialization import atomic_write_json, to_jsonable
from ..parallel import FileLock, Task, effective_jobs, run_tasks
from ..parallel.worker import JOBS_ENV
from .config import ExperimentScale, get_scale, scale_from_payload, scale_to_payload
from .registry import ExperimentSpec, get_spec

__all__ = ["ExperimentOutcome", "config_hash", "artifact_path", "bundle_dir_path",
           "active_bundle_dir", "run_experiment", "run_experiment_task",
           "run_many", "default_cache_dir", "BUNDLE_DIR_ENV"]

#: Version of the artifact JSON layout (not of any single experiment).
#: Bumped to 2 when wall-clock metadata left the artifact (parallel runs must
#: be byte-identical to sequential ones); to 3 when the meta section gained
#: the ``bundles`` listing of servable model bundles produced by the run.
ARTIFACT_FORMAT_VERSION = 3

#: While an experiment driver runs, this environment variable points at the
#: directory where it (and any grid-cell worker process it fans out to)
#: should drop servable model bundles.  An environment variable rather than a
#: Python context so the location crosses the process boundary of per-model
#: grids (the fleet ships the parent's environment to every worker).
BUNDLE_DIR_ENV = "REPRO_BUNDLE_DIR"


def default_cache_dir() -> Path:
    """Artifact cache root: ``$REPRO_ARTIFACTS`` or ``./artifacts``."""
    return Path(os.environ.get("REPRO_ARTIFACTS", "artifacts"))


@dataclass
class ExperimentOutcome:
    """Result of one :func:`run_experiment` call.

    ``artifact`` is the JSON structure written to / read from ``path``:
    ``{"meta": {...}, "result": <sanitized driver result>}``.  ``cache_hit``
    tells whether the driver actually ran; ``elapsed_seconds`` is 0.0 for
    cache hits.  ``error`` is set (and ``artifact`` empty) when the
    experiment failed after retries in a :func:`run_many` sweep.
    """

    name: str
    scale: str
    config_hash: str
    path: Path
    cache_hit: bool
    elapsed_seconds: float
    artifact: dict
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def result(self) -> dict:
        return self.artifact["result"]


def resolve_scale(scale: str | ExperimentScale) -> ExperimentScale:
    if isinstance(scale, ExperimentScale):
        return scale
    return get_scale(scale)


def config_hash(spec: ExperimentSpec, scale: ExperimentScale) -> str:
    """SHA-256 over the experiment's full configuration (name, version, scale)."""
    config = {
        "experiment": spec.name,
        "spec_version": spec.version,
        "scale": to_jsonable(asdict(scale)) if spec.uses_scale else None,
    }
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def artifact_path(cache_dir: Path, spec: ExperimentSpec, scale: ExperimentScale,
                  digest: str) -> Path:
    # Scale-independent experiments get one artifact regardless of the sweep's
    # --scale, matching their scale-independent config hash.
    scale_tag = scale.name if spec.uses_scale else "noscale"
    return Path(cache_dir) / f"{spec.name}-{scale_tag}-{digest[:12]}.json"


def bundle_dir_path(cache_dir: Path, spec: ExperimentSpec, scale: ExperimentScale,
                    digest: str) -> Path:
    """Where one experiment configuration's servable bundles live.

    Mirrors :func:`artifact_path` (same ``<name>-<scale>-<hash12>`` key) under
    ``<cache_dir>/bundles/``, so bundles are invalidated/recomputed exactly
    when their artifact is.
    """
    scale_tag = scale.name if spec.uses_scale else "noscale"
    return Path(cache_dir) / "bundles" / f"{spec.name}-{scale_tag}-{digest[:12]}"


def active_bundle_dir() -> Path | None:
    """The bundle directory of the currently-running experiment, if any.

    Set by :func:`run_experiment` for the duration of the driver call (and
    inherited by grid-cell worker processes); drivers and
    :func:`~repro.experiments.common.train_image_classifier` consult it to
    decide where — and whether — to save trained models as bundles.
    """
    value = os.environ.get(BUNDLE_DIR_ENV)
    return Path(value) if value else None


@contextlib.contextmanager
def _environment(name: str, value):
    """Set ``$name`` to ``str(value)`` for the duration, then restore it."""
    previous = os.environ.get(name)
    os.environ[name] = str(value)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = previous


def _lock_path(path: Path) -> Path:
    # Locks live in a sidecar directory so the artifact directory itself stays
    # clean (byte-comparable across sweeps).
    return path.parent / ".locks" / (path.name + ".lock")


def _read_artifact(path: Path) -> dict | None:
    """Load a cached artifact; ``None`` (→ cache miss) if unreadable or from a
    different artifact-format version, so layout changes recompute instead of
    serving stale structures."""
    try:
        artifact = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if artifact.get("meta", {}).get("format_version") != ARTIFACT_FORMAT_VERSION:
        return None
    return artifact


def run_experiment(name: str, scale: str | ExperimentScale = "bench",
                   cache_dir: str | Path | None = None,
                   force: bool = False) -> ExperimentOutcome:
    """Run one registered experiment, reusing its cached artifact when possible.

    ``force`` bypasses the cache check; the fresh
    artifact still overwrites the cache entry so later runs benefit.

    Concurrent-safe: the cache-check → train → write sequence runs under a
    per-cache-key file lock with a second cache check after acquisition, so
    two processes racing the same configuration train it exactly once — the
    second comes back as a cache hit.
    """
    spec = get_spec(name)
    scale = resolve_scale(scale)
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    digest = config_hash(spec, scale)
    path = artifact_path(cache_dir, spec, scale, digest)

    def cached_outcome() -> ExperimentOutcome | None:
        if force or not path.exists():
            return None
        artifact = _read_artifact(path)
        if artifact is None:
            return None
        return ExperimentOutcome(name=name, scale=scale.name, config_hash=digest,
                                 path=path, cache_hit=True, elapsed_seconds=0.0,
                                 artifact=artifact)

    outcome = cached_outcome()
    if outcome is not None:
        return outcome

    with FileLock(_lock_path(path)):
        # Double-checked locking: a concurrent worker may have produced the
        # artifact while we waited; serving it avoids a duplicate training run.
        outcome = cached_outcome()
        if outcome is not None:
            return outcome

        bundle_dir = bundle_dir_path(cache_dir, spec, scale, digest)
        start = time.perf_counter()
        with _environment(BUNDLE_DIR_ENV, bundle_dir):
            result = spec.runner(scale) if spec.uses_scale else spec.runner()
        elapsed = time.perf_counter() - start

        # Bundles the driver (or its grid-cell workers) dropped during the
        # run, recorded cache-dir-relative with POSIX separators: the listing
        # is deterministic, so sequential and parallel sweeps still produce
        # byte-identical artifacts.
        bundles = sorted(entry.relative_to(cache_dir).as_posix()
                         for entry in bundle_dir.glob("*.npz")) \
            if bundle_dir.is_dir() else []

        artifact = {
            "meta": {
                "experiment": spec.name,
                "artifact": spec.artifact,
                "title": spec.title,
                "scale": scale.name,
                "config_hash": digest,
                "spec_version": spec.version,
                "format_version": ARTIFACT_FORMAT_VERSION,
                "bundles": bundles,
            },
            "result": to_jsonable(result),
        }
        atomic_write_json(path, artifact)
    return ExperimentOutcome(name=name, scale=scale.name, config_hash=digest,
                             path=path, cache_hit=False, elapsed_seconds=elapsed,
                             artifact=artifact)


def run_experiment_task(name: str, scale, cache_dir: str,
                        force: bool = False) -> dict:
    """Worker entry point for one experiment of a parallel sweep.

    Receives only primitives (the scale as a :func:`scale_to_payload` dict)
    and re-resolves the spec by name inside the worker; returns a slim
    primitive payload — the parent re-reads the artifact JSON from disk
    rather than shipping it through the pickle channel.
    """
    outcome = run_experiment(name, scale=scale_from_payload(scale),
                             cache_dir=cache_dir, force=force)
    return {"name": outcome.name, "scale": outcome.scale,
            "config_hash": outcome.config_hash, "path": str(outcome.path),
            "cache_hit": outcome.cache_hit,
            "elapsed_seconds": outcome.elapsed_seconds}


def run_many(names: list[str], scale: str | ExperimentScale = "bench",
             cache_dir: str | Path | None = None, force: bool = False,
             jobs: int | str | None = None,
             progress=None, on_event=None) -> list[ExperimentOutcome]:
    """Run several experiments, fanning out over a process pool when ``jobs > 1``.

    Returns one :class:`ExperimentOutcome` per name, in input order; failed
    experiments (after one retry) come back with ``.error`` set instead of
    aborting the sweep.  ``progress`` receives each outcome as it is
    finalized; ``on_event`` receives raw
    :class:`~repro.parallel.events.TaskEvent` updates for live reporting.

    ``jobs`` may be an int, ``"auto"`` (one worker per CPU) or ``None``
    (``$REPRO_JOBS`` or 1).  With ``jobs=1`` everything runs inline in this
    process — byte-identical artifacts, no subprocesses.
    """
    names = list(names)
    scale = resolve_scale(scale)
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    resolved_jobs = effective_jobs(jobs)
    scale_payload = scale_to_payload(scale)

    def make_task(index: int, name: str) -> Task:
        return Task(key=f"{index:03d}:{name}",
                    fn="repro.experiments.runner:run_experiment_task",
                    kwargs={"name": name, "scale": scale_payload,
                            "cache_dir": str(cache_dir), "force": force})

    def finalize(result, name: str) -> ExperimentOutcome:
        if result.ok:
            payload = result.value
            path = Path(payload["path"])
            artifact = _read_artifact(path)
            if artifact is None:
                # The artifact vanished between the worker writing it and the
                # parent reading it back — surface as a failure, not a crash.
                return _failure_outcome(name, scale, cache_dir,
                                        f"artifact {path} unreadable after run")
            return ExperimentOutcome(name=payload["name"], scale=payload["scale"],
                                     config_hash=payload["config_hash"], path=path,
                                     cache_hit=payload["cache_hit"],
                                     elapsed_seconds=payload["elapsed_seconds"],
                                     artifact=artifact)
        error = result.error or "unknown failure"
        if result.traceback:
            error = f"{error}\n{result.traceback}"
        return _failure_outcome(name, scale, cache_dir, error)

    # Finalize each experiment the moment its task completes (live progress,
    # completion order); the returned list is assembled in input order.
    finalized: dict[int, ExperimentOutcome] = {}

    def handle_result(result) -> None:
        outcome = finalize(result, names[result.index])
        finalized[result.index] = outcome
        if progress is not None:
            progress(outcome)

    tasks = [make_task(index, name) for index, name in enumerate(names)]
    # Per-model grids deep inside a driver read the worker budget through
    # effective_jobs(): a single in-process experiment fans its grid out
    # that wide, while grids inside pool workers are clamped back to 1 by
    # the worker's parallel depth.
    with _environment(JOBS_ENV, resolved_jobs):
        run_tasks(tasks, jobs=resolved_jobs, retries=1, on_event=on_event,
                  on_result=handle_result)
    return [finalized[index] for index in range(len(names))]


def _failure_outcome(name: str, scale: ExperimentScale, cache_dir: Path,
                     error: str) -> ExperimentOutcome:
    return ExperimentOutcome(name=name, scale=scale.name, config_hash="",
                             path=cache_dir / f"{name}-{scale.name}-failed.json",
                             cache_hit=False, elapsed_seconds=0.0,
                             artifact={}, error=error)

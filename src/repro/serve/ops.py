"""Zero-downtime model operations: the control plane over one served model.

Everything before this module treats a mounted model as immutable: changing
a bundle meant restarting the process, and the only per-model telemetry was
counters.  :class:`ManagedModel` wraps a :class:`~repro.serve.Predictor`
with the operations a long-running server actually needs:

* **hot reload** — load the replacement bundle *off-path* (build + warm a
  fresh predictor while the old one keeps serving), atomically swap the
  mount, then drain the old engine (wait for its in-flight requests to
  finish) and ``close()`` it.  Requests that resolved the old predictor
  before the swap complete on it; requests arriving after the swap run on
  the new one — zero dropped requests under load, by construction.
* **canary routing** — mount a *candidate* predictor next to the primary
  and deterministically route a configurable percentage of traffic to it
  (request ``i`` goes to the canary iff ``floor((i+1)·p/100) >
  floor(i·p/100)`` — an evenly spread, reproducible split).  ``promote()``
  swaps the candidate in as the new primary (draining the old one);
  ``clear_canary()`` retires it.
* **shadow routing** — mirror requests to the candidate on a background
  thread whose *outputs are compared and counted but never returned*:
  primary latency is untouched, and the agreed/mismatched counters tell you
  whether the candidate actually answers like the incumbent before it takes
  real traffic.
* **per-model observability** — a fixed-bucket
  :class:`~repro.serve.metrics.LatencyHistogram` per mount (p50/p95/p99),
  in-flight gauges, and reload/shed/split counters, all surfaced through
  :meth:`stats` as the v2 stats schema.
* **per-model admission control** — an optional ``max_inflight`` cap; a
  saturated model sheds load with :class:`ModelOverloaded` (HTTP 429)
  while every other mounted model keeps serving, instead of one hot model
  taking the whole process down with it.

The :class:`~repro.serve.router.ModelRouter` wraps every mounted predictor
in a ``ManagedModel`` and forwards the admin API
(``POST /v1/admin/models/<name>/{reload,canary,promote}``,
``DELETE .../canary``) onto these methods.
"""

from __future__ import annotations

import math
import queue
import threading
import time

import numpy as np

from .engine import EngineClosed, QueueFull
from .metrics import LatencyHistogram

__all__ = ["ManagedModel", "ModelOverloaded"]

#: Shadow-queue sentinel telling the mirror thread to exit.
_STOP = object()

#: How long a reload/promote waits for the outgoing mount's in-flight
#: requests before closing its engine anyway (a safety valve against a
#: wedged forward, not a normal path).
_DRAIN_TIMEOUT_S = 30.0

#: Bound on queued shadow mirrors; beyond it mirrors are *dropped* (and
#: counted) rather than back-pressuring real traffic — shadows are
#: observability, not correctness.
_SHADOW_QUEUE_SIZE = 64


class ModelOverloaded(QueueFull):
    """This model's admission cap is reached — shed with HTTP 429.

    A :class:`~repro.serve.engine.QueueFull` subclass so the HTTP layer's
    existing 429 + ``Retry-After`` mapping applies; distinct type so tests
    and callers can tell per-model shedding from engine-queue backpressure.
    """


class _Mount:
    """One live predictor generation: the predictor, its origin, its gauge.

    In-flight accounting lives per *mount*, not per model: a hot reload
    swaps the primary mount and then waits for exactly the old mount's
    ``inflight`` to reach zero before closing it, while the new mount is
    already taking traffic.  ``inflight`` is guarded by the owning
    :class:`ManagedModel`'s condition lock.
    """

    __slots__ = ("predictor", "source", "inflight", "latency")

    def __init__(self, predictor, source: str | None = None):
        self.predictor = predictor
        self.source = str(source) if source is not None else None
        self.inflight = 0
        self.latency = LatencyHistogram()


class ManagedModel:
    """The operable wrapper the router mounts: predictor + control plane.

    Parameters
    ----------
    predictor:
        The live :class:`~repro.serve.Predictor` to manage.
    source:
        Where the predictor came from (a bundle path).  Reloads without an
        explicit bundle re-load this path; ``None`` (in-memory models) makes
        such reloads a clear error.
    load_options:
        Keyword arguments for :func:`repro.serve.load` that reloads and
        canaries inherit (``engine``, ``max_batch``, ``workers``, ...), so a
        swapped-in bundle serves through the same engine configuration as
        the mount it replaces.
    max_inflight:
        Admission cap: with more than this many requests in flight on the
        model (primary + canary together), new arrivals shed with
        :class:`ModelOverloaded`.  ``None`` (default) disables shedding.

    A reload or promote waits up to :data:`_DRAIN_TIMEOUT_S` for the
    outgoing mount's in-flight requests before closing its engine anyway.
    """

    def __init__(self, predictor, source: str | None = None,
                 load_options: dict | None = None,
                 max_inflight: int | None = None):
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1 (or None to disable "
                             f"admission control), got {max_inflight}")
        self._lock = threading.Condition(threading.Lock())
        self._ops_lock = threading.RLock()  # serializes reload/canary/promote
        self._primary = _Mount(predictor, source)
        self._canary: _Mount | None = None
        self._canary_percent = 0.0
        self._canary_shadow = False
        self._closed = False
        self.load_options = dict(load_options or {})
        self.max_inflight = max_inflight
        # Control-plane counters (all guarded by self._lock).
        self.reloads = 0
        self.shed = 0
        self.primary_requests = 0
        self.canary_requests = 0
        self.canary_errors = 0
        self._shadow_counts = {"mirrored": 0, "compared": 0, "agreed": 0,
                               "mismatched": 0, "errors": 0, "dropped": 0}
        self._shadow_queue: queue.Queue | None = None
        self._shadow_thread: threading.Thread | None = None

    # -- the primary mount -----------------------------------------------------

    @property
    def predictor(self):
        """The current primary predictor (changes across reloads/promotes)."""
        return self._primary.predictor

    @property
    def engine(self):
        return self._primary.predictor.engine

    @property
    def bundle_path(self) -> str | None:
        return self._primary.source

    # -- request path ----------------------------------------------------------

    def _acquire(self) -> tuple[_Mount, bool]:
        """Admission control + canary routing: pick the mount for one request."""
        with self._lock:
            if self._closed:
                raise EngineClosed(
                    "model is closed; the server is draining — retry against "
                    "a live server")
            inflight = self._primary.inflight + \
                (self._canary.inflight if self._canary is not None else 0)
            if self.max_inflight is not None and inflight >= self.max_inflight:
                self.shed += 1
                raise ModelOverloaded(
                    f"model is saturated ({inflight} requests in flight, "
                    f"admission cap {self.max_inflight}); shedding this "
                    f"request — retry with backoff")
            mount, is_canary = self._route_locked()
            mount.inflight += 1
            if is_canary:
                self.canary_requests += 1
            else:
                self.primary_requests += 1
            return mount, is_canary

    def _route_locked(self) -> tuple[_Mount, bool]:
        """Deterministic canary split: an even spread, not a random draw."""
        canary = self._canary
        if canary is None or self._canary_shadow or self._canary_percent <= 0:
            return self._primary, False
        served = self.primary_requests + self.canary_requests
        percent = self._canary_percent
        takes = math.floor((served + 1) * percent / 100.0) > \
            math.floor(served * percent / 100.0)
        return (canary, True) if takes else (self._primary, False)

    def _release(self, mount: _Mount) -> None:
        with self._lock:
            mount.inflight -= 1
            self._lock.notify_all()

    def _request(self, method: str, inputs, normalize: bool = True,
                 timeout: float | None = None, **kwargs):
        """One managed request: admit, route, time, mirror; then answer."""
        mount, is_canary = self._acquire()
        start = time.perf_counter()
        try:
            result = getattr(mount.predictor, method)(
                inputs, normalize=normalize, timeout=timeout, **kwargs)
        except BaseException:
            if is_canary:
                with self._lock:
                    self.canary_errors += 1
            raise
        finally:
            self._release(mount)
        mount.latency.record(time.perf_counter() - start)
        # Shadow comparison is defined over class indices, so only the
        # predict family mirrors; generation results pass straight through.
        if not is_canary and method != "generate":
            self._mirror_to_shadow(inputs, method, result, normalize)
        return result

    def predict(self, inputs, normalize: bool = True,
                timeout: float | None = None) -> np.ndarray:
        return self._request("predict", inputs, normalize=normalize,
                             timeout=timeout)

    def predict_topk(self, inputs, k: int = 5, normalize: bool = True,
                     timeout: float | None = None) -> list[dict]:
        return self._request("predict_topk", inputs, k=k, normalize=normalize,
                             timeout=timeout)

    def generate(self, inputs, timeout: float | None = None,
                 **options) -> list[dict]:
        """Generation bundles only: route one generate call like a predict.

        Goes through the same admission/canary/latency machinery as the
        predict family; raises ``ValueError`` (HTTP 400) when the mounted
        predictor is a classifier without a generate surface.
        """
        if not hasattr(self._primary.predictor, "generate"):
            raise ValueError("this model is a classifier bundle; it serves "
                             "predict, not generate")
        return self._request("generate", inputs, timeout=timeout, **options)

    # -- shadow mirroring ------------------------------------------------------

    @staticmethod
    def _result_classes(method: str, result) -> list[int]:
        """Top-1 class indices of a ``predict`` or ``predict_topk`` answer."""
        if method == "predict_topk":
            return [int(record["class_index"]) for record in result]
        return [int(index) for index in np.asarray(result).reshape(-1)]

    def _mirror_to_shadow(self, inputs, method: str, result,
                          normalize: bool) -> None:
        shadow_queue = self._shadow_queue
        if shadow_queue is None or not self._canary_shadow:
            return
        try:
            shadow_queue.put_nowait(
                (inputs, self._result_classes(method, result), normalize))
            with self._lock:
                self._shadow_counts["mirrored"] += 1
        except queue.Full:  # shadows are observability: drop, never backpressure
            with self._lock:
                self._shadow_counts["dropped"] += 1

    def _ensure_shadow_thread(self) -> None:
        if self._shadow_thread is None or not self._shadow_thread.is_alive():
            self._shadow_queue = queue.Queue(maxsize=_SHADOW_QUEUE_SIZE)
            self._shadow_thread = threading.Thread(
                target=self._shadow_loop, name="repro-serve-shadow", daemon=True)
            self._shadow_thread.start()

    def _shadow_loop(self) -> None:
        while True:
            item = self._shadow_queue.get()
            if item is _STOP:
                return
            inputs, primary_classes, normalize = item
            with self._lock:
                mount = self._canary
                if mount is None or not self._canary_shadow or self._closed:
                    continue
                mount.inflight += 1  # participates in the canary's drain
            start = time.perf_counter()
            try:
                shadow_classes = [int(index) for index in
                                  mount.predictor.predict(inputs,
                                                          normalize=normalize)]
            except Exception:  # noqa: BLE001 — a broken shadow is a counter
                with self._lock:
                    self._shadow_counts["errors"] += 1
                continue
            finally:
                self._release(mount)
            mount.latency.record(time.perf_counter() - start)
            with self._lock:
                self._shadow_counts["compared"] += 1
                if shadow_classes == primary_classes:
                    self._shadow_counts["agreed"] += 1
                else:
                    self._shadow_counts["mismatched"] += 1

    def _stop_shadow_thread(self) -> None:
        thread, self._shadow_thread = self._shadow_thread, None
        shadow_queue, self._shadow_queue = self._shadow_queue, None
        if thread is not None and thread.is_alive():
            shadow_queue.put(_STOP)
            thread.join(5.0)

    # -- control plane ---------------------------------------------------------

    def _build(self, bundle: str):
        """Load + warm a predictor off-path with the mount's inherited options."""
        from . import load

        return load(bundle, **{"warm": True, **self.load_options})

    def _swap_primary(self, new_mount: _Mount) -> _Mount:
        with self._lock:
            old, self._primary = self._primary, new_mount
            self.reloads += 1
            return old

    def _retire(self, mount: _Mount) -> bool:
        """Drain one outgoing mount, then close its engine.

        Waits (up to :data:`_DRAIN_TIMEOUT_S`) for every request already
        routed to the mount to finish — they hold engine futures that
        ``close()`` would otherwise fail — and only then closes the engine.
        Returns whether the drain completed cleanly within the timeout.
        """
        deadline = time.monotonic() + _DRAIN_TIMEOUT_S
        with self._lock:
            while mount.inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._lock.wait(remaining)
            drained = mount.inflight == 0
        mount.predictor.close()
        return drained

    def _require_open(self, operation: str) -> None:
        if self._closed:
            raise EngineClosed(f"model is closed; cannot {operation}")

    def reload(self, bundle: str | None = None) -> dict:
        """Hot-swap the primary to ``bundle`` (default: re-load the current one).

        Builds and warms the replacement while the incumbent keeps serving,
        atomically swaps the mount, then drains and closes the old engine.
        In-flight requests complete on whichever mount they resolved — no
        request is dropped by a reload.
        """
        with self._ops_lock:
            self._require_open("reload")
            source = str(bundle) if bundle is not None else self._primary.source
            if source is None:
                raise ValueError(
                    "this model was not loaded from a bundle, so there is no "
                    "path to reload; pass a bundle path explicitly")
            old = self._swap_primary(_Mount(self._build(source), source))
            drained = self._retire(old)
            return {"status": "reloaded", "bundle": source,
                    "previous_bundle": old.source, "reloads": self.reloads,
                    "drained": drained}

    def set_canary(self, bundle: str, percent: float = 10.0,
                   shadow: bool = False) -> dict:
        """Stage ``bundle`` as the candidate: split traffic or mirror it.

        ``percent`` of requests route to the candidate (and are answered by
        it); with ``shadow=True`` the candidate instead receives mirrored
        copies whose outputs are compared against the primary's and counted,
        never returned.  Replaces (and retires) any existing candidate.
        """
        percent = float(percent)
        if not shadow and not 0.0 < percent <= 100.0:
            raise ValueError(f"canary percent must be in (0, 100], got "
                             f"{percent} (or pass shadow=true for a "
                             f"mirror-only candidate)")
        with self._ops_lock:
            self._require_open("stage a canary")
            predictor = self._build(str(bundle))
            with self._lock:
                old_canary, self._canary = self._canary, \
                    _Mount(predictor, bundle)
                self._canary_percent = 0.0 if shadow else percent
                self._canary_shadow = bool(shadow)
                # Routing counters restart with the episode: the split (and
                # the even-spread formula driving it) is measured from the
                # moment this candidate was staged, not from process start.
                self.primary_requests = 0
                self.canary_requests = 0
                self.canary_errors = 0
                self._shadow_counts = dict.fromkeys(self._shadow_counts, 0)
            if shadow:
                self._ensure_shadow_thread()
            if old_canary is not None:
                self._retire(old_canary)
            return {"status": "canary", "bundle": str(bundle),
                    "percent": self._canary_percent, "shadow": bool(shadow)}

    def promote(self) -> dict:
        """Make the candidate the primary; drain and close the old primary."""
        with self._ops_lock:
            self._require_open("promote")
            with self._lock:
                if self._canary is None:
                    raise ValueError(
                        "no canary is staged on this model; stage one with "
                        "POST .../canary (or use .../reload to swap directly)")
                candidate, self._canary = self._canary, None
                self._canary_percent = 0.0
                self._canary_shadow = False
            old = self._swap_primary(candidate)
            drained = self._retire(old)
            return {"status": "promoted", "bundle": candidate.source,
                    "previous_bundle": old.source, "reloads": self.reloads,
                    "drained": drained}

    def clear_canary(self) -> dict:
        """Retire the candidate (if any) without touching the primary."""
        with self._ops_lock:
            with self._lock:
                candidate, self._canary = self._canary, None
                self._canary_percent = 0.0
                self._canary_shadow = False
            if candidate is None:
                return {"status": "no-canary"}
            self._retire(candidate)
            return {"status": "canary-cleared", "bundle": candidate.source}

    def close(self) -> None:
        """Drain and close both mounts; idempotent and race-safe."""
        with self._ops_lock:
            with self._lock:
                if self._closed:
                    return
                self._closed = True
                candidate, self._canary = self._canary, None
            self._stop_shadow_thread()
            if candidate is not None:
                self._retire(candidate)
            self._retire(self._primary)

    def __enter__(self) -> "ManagedModel":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection ---------------------------------------------------------

    def describe(self) -> dict:
        """The primary predictor's description plus control-plane facts."""
        info = self._primary.predictor.describe()
        info["bundle"] = self._primary.source
        info["reloads"] = self.reloads
        with self._lock:
            canary = self._canary
            info["canary"] = None if canary is None else {
                "bundle": canary.source,
                "percent": self._canary_percent,
                "shadow": self._canary_shadow,
            }
        return info

    def stats(self) -> dict:
        """One model's entry in the v2 stats schema.

        Sections: ``scheduler`` (the engine's own stats, including the pool
        engine's worker ``restarts``), ``plan_cache``, ``latency`` (primary
        histogram), ``admission``, ``bundle`` (path + reload count),
        ``requests_routed`` and ``canary`` (``None`` when no candidate is
        staged).
        """
        scheduler = self._primary.predictor.stats()
        entry = {"scheduler": {key: value for key, value in scheduler.items()
                               if key != "plan_cache"},
                 "plan_cache": scheduler.get("plan_cache"),
                 "latency": self._primary.latency.summary()}
        with self._lock:
            inflight = self._primary.inflight + \
                (self._canary.inflight if self._canary is not None else 0)
            entry["admission"] = {
                "max_inflight": self.max_inflight,
                "inflight": inflight,
                "shed": self.shed,
            }
            entry["bundle"] = {"path": self._primary.source,
                               "reloads": self.reloads}
            entry["requests_routed"] = {"primary": self.primary_requests,
                                        "canary": self.canary_requests}
            canary = self._canary
            if canary is None:
                entry["canary"] = None
            else:
                entry["canary"] = {
                    "bundle": canary.source,
                    "percent": self._canary_percent,
                    "shadow": self._canary_shadow,
                    "requests": self.canary_requests,
                    "errors": self.canary_errors,
                    "latency": canary.latency.summary(),
                    "shadow_stats": dict(self._shadow_counts)
                    if self._canary_shadow else None,
                }
        return entry

"""Stable inference API: load bundles, predict batches, serve over HTTP.

This package is the grad-free counterpart of :mod:`repro.training` — the
paper's efficiency story is ultimately an *inference* story, and this is the
entry point that measures and serves it.  Since PR 5 it is layered around a
pluggable engine boundary:

* :class:`InferenceSession` — eval-mode, ``no_grad``, micro-batched forwards
  with warm compiled plans and a zero-graph-construction guarantee.
* :class:`ServingEngine` — the scheduling protocol (``submit``/``stats``/
  ``close``): :class:`DirectEngine` runs forwards inline on the caller's
  thread; :class:`BatchedEngine` coalesces concurrent requests into fused
  forwards through a background scheduler (cross-request dynamic batching);
  :class:`ProcessPoolEngine` shards those fused batches across N warm
  worker processes to scale past the single-interpreter ceiling.
* :class:`Pipeline` — raw inputs in (normalization, single-sample promotion),
  softmax/top-k records out.
* :class:`Predictor` — the façade combining all three; ``repro.load(path)``
  returns one, and ``engine="batched"`` turns on cross-request batching.
* :class:`ModelRouter` + :mod:`repro.serve.http` — named multi-model routing
  behind a stdlib ``ThreadingHTTPServer``: ``GET /v1/models``,
  ``POST /v1/models/<name>/predict``, ``GET /v1/stats``.

The one-liner::

    import repro
    predictor = repro.load("artifacts/bundles/fig4-smoke-....../cifar_resnet-....npz")
    classes = predictor.predict(batch)          # (N,) class indices
    records = predictor.predict_topk(batch, 3)  # labeled top-3 with probabilities
"""

from __future__ import annotations

import numpy as np

from .batching import BatchedEngine, QueuedEngine
from .engine import DirectEngine, EngineClosed, EngineError, QueueFull, ServingEngine, make_engine
from .generate import DecodeState, GenerationEngine, GenerationPredictor
from .http import make_server, serve
from .metrics import LatencyHistogram
from .ops import ManagedModel, ModelOverloaded
from .pipeline import Pipeline, softmax, top_k
from .pool import ProcessPoolEngine
from .router import ModelRouter
from .session import InferenceSession

__all__ = ["InferenceSession", "Pipeline", "Predictor", "load",
           "ServingEngine", "DirectEngine", "BatchedEngine", "QueuedEngine",
           "ProcessPoolEngine", "make_engine",
           "DecodeState", "GenerationEngine", "GenerationPredictor",
           "EngineError", "EngineClosed", "QueueFull", "ModelRouter",
           "ManagedModel", "ModelOverloaded", "LatencyHistogram",
           "make_server", "serve", "softmax", "top_k"]


class Predictor:
    """High-level inference façade over one model: session + engine + pipeline.

    Construct from an in-memory model, a loaded bundle or a bundle path —
    the common path is :func:`load`.  For bundles, normalization stats,
    class labels and the expected input shape default to the bundle
    metadata; explicit arguments override them.

    ``engine`` selects the scheduling layer every forward goes through:
    ``"direct"`` (default — inline, lock-serialized, PR 4 behavior),
    ``"batched"`` (a background scheduler fuses concurrent requests into one
    forward; tune with ``max_wait_ms``/``queue_size``) or ``"pool"``
    (the batched scheduler sharding fused batches across ``workers`` warm
    worker processes — bundle-backed models only, since workers re-load the
    bundle by path).  A ready-made :class:`ServingEngine` instance is
    accepted too — that is the hook a multi-process or multi-backend engine
    plugs into; the predictor then adopts the engine's own session (so
    ``describe``/``warm`` target the session that actually serves) and
    ``max_batch`` is ignored.  A session the predictor builds always
    compiles: each plan is checked byte-identical against dispatch before
    use and falls back to dispatch by itself.
    """

    def __init__(self, model, normalization: dict | None = None,
                 classes: list[str] | None = None, input_shape: tuple | None = None,
                 max_batch: int = 64, warm: bool = False, engine="direct",
                 max_wait_ms: float | None = None, queue_size: int | None = None,
                 workers: int | None = None):
        if isinstance(engine, ServingEngine) and \
                getattr(engine, "session", None) is not None:
            self.session = engine.session
        else:
            self.session = InferenceSession(model, max_batch=max_batch)
        self.engine = make_engine(engine, self.session,
                                  max_wait_ms=max_wait_ms, queue_size=queue_size,
                                  workers=workers)
        bundle = self.session.bundle
        if bundle is not None:  # explicit arguments win over bundle metadata
            normalization = normalization if normalization is not None \
                else bundle.normalization
            classes = classes if classes is not None else bundle.classes
            input_shape = input_shape if input_shape is not None \
                else bundle.input_shape
        self.pipeline = Pipeline(normalization=normalization, classes=classes,
                                 input_shape=input_shape)
        if warm:
            # Through the engine, not the session: the pool engine warms
            # every worker's plan cache, not the parent's idle session.
            self.engine.warm(self.pipeline.input_shape)

    # -- convenience properties -------------------------------------------------

    @property
    def model(self):
        return self.session.model

    @property
    def classes(self) -> list[str] | None:
        return self.pipeline.classes

    @property
    def input_shape(self) -> tuple | None:
        return self.pipeline.input_shape

    # -- prediction -------------------------------------------------------------

    def predict(self, inputs, normalize: bool = True,
                timeout: float | None = None) -> np.ndarray:
        """Predicted class index per sample, shape ``(N,)``."""
        return self.predict_logits(inputs, normalize=normalize,
                                   timeout=timeout).argmax(axis=-1)

    def predict_logits(self, inputs, normalize: bool = True,
                       timeout: float | None = None) -> np.ndarray:
        """Raw model outputs, shape ``(N, num_classes)``, via the engine.

        The single dispatch point: preprocess, then *submit* the forward to
        the engine (so e.g. a :class:`BatchedEngine` can fuse it with
        concurrent requests).  ``timeout`` bounds the wait for the result.
        """
        return self.engine.predict(
            self.pipeline.preprocess(inputs, normalize=normalize),
            timeout=timeout)

    def predict_proba(self, inputs, normalize: bool = True,
                      timeout: float | None = None) -> np.ndarray:
        """Softmax class probabilities, shape ``(N, num_classes)``."""
        return softmax(self.predict_logits(inputs, normalize=normalize,
                                           timeout=timeout))

    def predict_topk(self, inputs, k: int = 5, normalize: bool = True,
                     timeout: float | None = None) -> list[dict]:
        """Labeled top-``k`` records per sample (the HTTP response payload)."""
        return self.pipeline.postprocess(
            self.predict_logits(inputs, normalize=normalize, timeout=timeout),
            k=k)

    # -- introspection / lifecycle ----------------------------------------------

    def describe(self) -> dict:
        """Model + session summary (served on ``/v1/models``)."""
        info = self.session.describe()
        info["engine"] = self.engine.name
        if self.input_shape is not None:
            info["input_shape"] = list(self.input_shape)
        if self.classes is not None:
            info["num_classes"] = len(self.classes)
        return info

    def stats(self) -> dict:
        """Engine scheduling stats + plan-cache stats (served on ``/v1/stats``).

        ``setdefault`` because multi-process engines already report an
        aggregated ``plan_cache`` across their workers — the parent
        session's (empty) cache must not mask it.
        """
        stats = self.engine.stats()
        stats.setdefault("plan_cache", self.session.plan_stats())
        return stats

    def close(self) -> None:
        """Close the engine: stop accepting work, fail queued futures loudly."""
        self.engine.close()

    def __enter__(self) -> "Predictor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def load(path, max_batch: int = 64, warm: bool = True, engine="direct",
         max_wait_ms: float | None = None, queue_size: int | None = None,
         workers: int | None = None):
    """Load a bundle from ``path`` into a ready-to-serve predictor.

    Re-exported as :func:`repro.load`; warming is on by default so the first
    request after process start doesn't pay the buffer-allocation cost —
    warming also traces and compiles the execution plan for the
    steady-state batch shape, so real traffic replays from the first
    request.  ``engine="batched"`` opts the predictor into cross-request
    dynamic batching (what ``repro serve`` uses by default);
    ``engine="pool"`` shards fused batches across ``workers`` warm worker
    processes.

    Bundles whose section carries ``generation`` metadata (sequence models
    exported with :func:`repro.serve.generate.generation_bundle_info`) come
    back as a :class:`~repro.serve.generate.GenerationPredictor` instead,
    built from the two options it uses: ``max_batch`` sizes its
    decode-slot pool and ``queue_size`` bounds its queue.  The
    prediction-only options (``warm``/``engine``/``max_wait_ms``/
    ``workers``) do not apply to it — its scheduler has no
    coalescing window — so ``repro serve`` can pass one set of options to
    every model it mounts.
    """
    from ..io.bundle import Bundle, load_bundle

    bundle = path if isinstance(path, Bundle) else load_bundle(path)
    if bundle.section.get("generation"):
        from .generate import GenerationPredictor

        return GenerationPredictor(bundle, max_batch=max_batch,
                                   queue_size=queue_size)
    return Predictor(bundle, max_batch=max_batch, warm=warm, engine=engine,
                     max_wait_ms=max_wait_ms, queue_size=queue_size,
                     workers=workers)

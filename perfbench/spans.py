"""Spans around calls into the program's layers, for the traced run only.

A :class:`Recorder` replaces a function or method with a wrapper that
records ``(name, start, end, key, child_seconds)``: ``time.monotonic``
timestamps (one clock for every process on the machine, so spans from the
server, its pool workers and the trainer's workers line up), a key joining the
span to a request or a batch, and the time covered by spans nested inside it
on the same thread, from which self time follows.  Spans stay in memory and
are written to ``$PERFBENCH_SPAN_DIR/<role>-<pid>.json`` when the process
ends.  Nothing under ``src/`` is modified: the wrappers are installed on the
imported modules of the process being traced.

Worker processes are spawned by name, so the worker entry points
``repro.serve.pool.worker_main`` and ``repro.training.distributed.worker_main``
are replaced with :func:`pool_worker_main` and :func:`dp_worker_main`, which
install the same timers in the child and then call the original.  Where a
layer has no public seam the private method that is the seam is wrapped and
named in the comment beside it.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import threading
import time
from pathlib import Path

SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"


class Recorder:
    """In-memory span store for one process."""

    def __init__(self, role: str):
        self.role = role
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._dumped = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self):
        """Request id of the HTTP request the calling thread is handling."""
        return getattr(self._local, "rid", None)

    @request_id.setter
    def request_id(self, rid) -> None:
        self._local.rid = rid

    def add(self, name: str, start: float, end: float, key=None) -> None:
        self.spans.append((name, start, end, key, 0.0))

    def wrap(self, owner, attr: str, name: str, key=None):
        """Time every call of ``owner.attr``; ``key(args, result)`` labels it.

        Without ``key`` the span carries the request id of the calling
        thread (set by the HTTP handler wrapper), or ``None``.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack = recorder._stack()
            stack.append(0.0)
            result = None
            start = time.monotonic()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                children = stack.pop()
                if stack:
                    stack[-1] += end - start
                label = key(args, result) if key else recorder.request_id
                recorder.spans.append((name, start, end, label, children))

        setattr(owner, attr, timed)
        return original

    def op_hook(self, op_name: str, seconds: float) -> None:
        """``add_op_timing_hook`` callback: one span per dispatched op."""
        end = time.monotonic()
        self.spans.append(("op:" + op_name, end - seconds, end, None, 0.0))

    def dump(self) -> None:
        directory = os.environ.get(SPAN_DIR_ENV)
        if self._dumped or not directory:
            return
        self._dumped = True
        path = Path(directory) / f"{self.role}-{os.getpid()}.json"
        partial = path.with_suffix(".partial")
        partial.write_text(json.dumps({"role": self.role, "pid": os.getpid(),
                                       "spans": list(self.spans)}))
        os.replace(partial, path)


def load_spans(directory: Path) -> list[dict]:
    """Every span file a traced run left behind."""
    return [json.loads(path.read_text())
            for path in sorted(Path(directory).glob("*.json"))]


# -- what each process records ----------------------------------------------


def _tag_future(recorder: Recorder, submit):
    """Wrap an engine ``submit`` so its future remembers (request id, time)."""

    @functools.wraps(submit)
    def tagged(*args, **kwargs):
        start = time.monotonic()
        future = submit(*args, **kwargs)
        future.perfbench = (recorder.request_id, start)
        return future

    return tagged


def _batch_runner(recorder: Recorder, run, requests_arg: int):
    """Wrap a batch executor: queue wait and execution span per request."""

    @functools.wraps(run)
    def timed(*args):
        requests = args[requests_arg]
        start = time.monotonic()
        try:
            return run(*args)
        finally:
            end = time.monotonic()
            for request in requests:
                rid, submitted = getattr(request.future, "perfbench", (None, start))
                recorder.add("batching.queue_wait", submitted, start, rid)
                recorder.add("batching.exec", start, end, rid)

    return timed


def install_compute(recorder: Recorder) -> None:
    """Forward-path timers shared by the server and every worker process."""
    import repro.serve.session as session_module
    from repro.tensor import add_op_timing_hook
    from repro.tensor.plan import ExecutionPlan
    from repro.tensor.tensor import Tensor

    recorder.wrap(session_module.InferenceSession, "predict", "session.predict")
    recorder.wrap(ExecutionPlan, "replay", "plan.replay")
    recorder.wrap(session_module, "compile_forward", "plan.compile")
    recorder.wrap(Tensor, "backward", "engine.backward")
    add_op_timing_hook(recorder.op_hook)


def install_server(recorder: Recorder) -> None:
    """Timers for the ``repro serve`` process (see ``traced_serve.py``)."""
    import repro.serve.pool as pool
    from repro.models.transformer import Transformer
    from repro.serve.batching import BatchedEngine, QueuedEngine
    from repro.serve.generate.engine import GenerationEngine
    from repro.serve.http import PredictionHandler
    from repro.serve.ops import ManagedModel
    from repro.serve.pipeline import Pipeline

    install_compute(recorder)
    recorder.wrap(PredictionHandler, "do_POST", "http.handler")
    timed_post = PredictionHandler.do_POST

    def do_post(handler):
        recorder.request_id = handler.headers.get("X-Request-Id")
        try:
            timed_post(handler)
        finally:
            recorder.request_id = None

    PredictionHandler.do_POST = do_post
    recorder.wrap(ManagedModel, "predict_topk", "ops.call")
    recorder.wrap(ManagedModel, "generate", "ops.call")
    recorder.wrap(Pipeline, "preprocess", "pipeline.preprocess")
    recorder.wrap(Pipeline, "postprocess", "pipeline.postprocess")
    QueuedEngine.submit = _tag_future(recorder, QueuedEngine.submit)
    # Private seams: the batch executors receive the coalesced requests.
    BatchedEngine._run_batch = _batch_runner(recorder, BatchedEngine._run_batch, 1)
    pool.ProcessPoolEngine._run_shard = _batch_runner(
        recorder, pool.ProcessPoolEngine._run_shard, 2)
    recorder.wrap(pool.ProcessPoolEngine, "_spawn", "pool.spawn")  # private
    pool.worker_main = pool_worker_main

    GenerationEngine.submit = _tag_future(recorder, GenerationEngine.submit)
    start_request = GenerationEngine._start_request  # private: admission

    def admit(engine, request):
        rid, submitted = getattr(request.future, "perfbench", (None, None))
        if submitted is not None:
            recorder.add("generate.queue_wait", submitted, time.monotonic(), rid)
        return start_request(engine, request)

    GenerationEngine._start_request = admit
    recorder.wrap(GenerationEngine, "_step", "generate.step")  # private
    recorder.wrap(Transformer, "prefill", "generate.prefill")
    recorder.wrap(Transformer, "decode_step", "generate.decode_step",
                  key=lambda args, result: len(args[2]))


def install_trainer(recorder: Recorder) -> None:
    """Timers for the data-parallel trainer process (see ``training.py``)."""
    import repro.training.distributed as distributed
    from repro.data.dataloader import DataLoader
    from repro.optim.sgd import SGD
    from repro.training.trainer import Trainer

    install_compute(recorder)
    recorder.wrap(distributed.DataParallelTrainer, "_optimize_batch",
                  "dp.step")  # private: the sharded step
    recorder.wrap(distributed.DataParallelTrainer, "_spawn",
                  "dp.spawn")  # private: worker start
    recorder.wrap(SGD, "step", "optim.step")
    recorder.wrap(Trainer, "save_checkpoint", "checkpoint.save",
                  key=lambda args, result: (os.path.getsize(result)
                                            if result else 0))
    iterate = DataLoader.__iter__

    def timed_iter(loader):
        batches = iterate(loader)
        while True:
            start = time.monotonic()
            try:
                batch = next(batches)
            except StopIteration:
                return
            recorder.add("data.next", start, time.monotonic())
            yield batch

    DataLoader.__iter__ = timed_iter
    distributed.worker_main = dp_worker_main


# -- worker entry points ------------------------------------------------------


def _run_worker(role: str, target, args, extra=None) -> None:
    recorder = Recorder(role)
    install_compute(recorder)
    if extra is not None:
        extra(recorder)

    def on_terminate(signum, frame):  # the parent reaps workers with SIGTERM
        recorder.dump()
        os._exit(0)

    signal.signal(signal.SIGTERM, on_terminate)
    try:
        target(*args)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        recorder.dump()


def pool_worker_main(*args) -> None:
    """Traced stand-in for ``repro.serve.pool.worker_main``."""
    import repro.serve.pool as pool

    _run_worker("pool-worker", pool.worker_main, args)


def dp_worker_main(*args) -> None:
    """Traced stand-in for ``repro.training.distributed.worker_main``."""
    import repro.training.dp_worker as dp_worker

    def shard_timer(recorder):
        recorder.wrap(dp_worker, "compute_shard_gradients", "dp.worker_compute")

    _run_worker("dp-worker", dp_worker.worker_main, args, shard_timer)

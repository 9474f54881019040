"""Unified benchmark harness behind ``python -m repro bench``.

Produces the repository's perf trajectory (``BENCH_autograd.json``) from the
same machinery the sweeps use:

* **Figure/table timings** come from the cached experiment runner
  (:func:`repro.experiments.runner.run_many` with ``force=True``), so the
  numbers measure exactly what ``python -m repro run`` executes — no separate
  pytest harness with its own import and fixture overhead.
* **Micro-benchmarks** are described once, in the :data:`MICROS` table: how
  each runs, where its result lands in the summary and how to read its
  ``(mean, best-of-rounds)`` speedup ratios.  The fused-kernel micro keeps
  its workloads and result keys fixed so the speedup trajectory stays
  comparable across PRs.

:func:`check_gates` is the CI gate: it fails the run when a gated micro's
speedup regresses below its floor (``repro bench --gate NAME=RATIO``).
``python -m repro bench fig4 table2 --scale smoke`` times the headline
repros.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .experiments.runner import default_cache_dir, run_many
from .io.serialization import atomic_write_json
from .parallel import fleet

__all__ = ["time_alternating", "fused_kernel_benchmarks",
           "inference_benchmarks", "serving_benchmarks", "pool_benchmarks",
           "trace_benchmarks", "generation_benchmarks", "training_benchmarks",
           "benchmark_experiments", "Micro", "MICROS", "select",
           "environment", "build_summary", "check_gates", "write_summary"]

#: Fused micro-benchmark result keys, kept identical to the historical
#: pytest-benchmark test names so BENCH_autograd.json stays a trajectory.
FUSED_BENCH_KEYS = {
    ("linear", True): "test_bench_fused_quadratic_linear",
    ("linear", False): "test_bench_unfused_quadratic_linear",
    ("conv", True): "test_bench_fused_quadratic_conv",
    ("conv", False): "test_bench_unfused_quadratic_conv",
}


def time_alternating(functions, rounds: int = 10, warmup: int = 1) -> list[dict]:
    """Wall-clock statistics (mean, min, stddev over ``rounds`` calls) for
    each of ``functions``, called in turn once per round, so a change in
    machine load mid-run lands on all of them alike instead of on whichever
    ran during it."""
    for _ in range(warmup):
        for function in functions:
            function()
    samples = [[] for _ in functions]
    for _ in range(rounds):
        for function, times in zip(functions, samples):
            started = time.perf_counter()
            function()
            times.append(time.perf_counter() - started)
    return [{
        "mean_seconds": statistics.fmean(times),
        "min_seconds": min(times),
        "stddev_seconds": statistics.stdev(times) if len(times) > 1 else 0.0,
        "rounds": rounds,
    } for times in samples]


def _speedup(slow: dict, fast: dict) -> dict:
    """``speedup`` (mean) and ``speedup_best`` (best-of-rounds) of ``fast``
    over ``slow``, two :func:`time_alternating` results; empty when ``fast``
    timed zero."""
    if fast["mean_seconds"] <= 0 or fast["min_seconds"] <= 0:
        return {}
    return {"speedup": slow["mean_seconds"] / fast["mean_seconds"],
            "speedup_best": slow["min_seconds"] / fast["min_seconds"]}


def _storm(engine, inputs: np.ndarray, clients: int, requests_per_client: int,
           histogram=None) -> None:
    """Closed-loop burst: ``clients`` threads start together, each submits
    ``requests_per_client`` requests of ``inputs`` and then awaits them.

    ``histogram`` (optional) records each request's submit → done latency.
    The first client error is re-raised.
    """
    barrier = threading.Barrier(clients)
    errors: list[Exception] = []

    def client():
        try:
            barrier.wait()
            futures = []
            for _ in range(requests_per_client):
                submitted = time.perf_counter()
                future = engine.submit(inputs)
                if histogram is not None:
                    # Completion callback, not result(): per-request latency
                    # is submit → done, independent of await order.
                    future.add_done_callback(
                        lambda f, t0=submitted: histogram.record(
                            time.perf_counter() - t0))
                futures.append(future)
            for future in futures:
                future.result(timeout=300)
        except Exception as error:  # noqa: BLE001 — re-raised below
            errors.append(error)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _default_worker_counts() -> tuple[int, ...]:
    """Worker counts for the scaling micros: 1, 2 and 4, capped at the core
    count so the gated top-vs-bottom ratio never measures oversubscription."""
    cores = os.cpu_count() or 1
    return tuple(sorted({min(count, cores) for count in (1, 2, 4)}))


def _fused_workloads():
    """The fused-vs-unfused training-step pairs (one dense, one conv layer)."""
    from .quadratic import EfficientQuadraticConv2d, EfficientQuadraticLinear
    from .tensor import Tensor

    dense_layer = EfficientQuadraticLinear(256, 32, rank=9, lambda_init=0.1,
                                           rng=np.random.default_rng(0))
    dense_x = Tensor(np.random.default_rng(1).standard_normal((128, 256))
                     .astype(np.float32), requires_grad=True)
    conv_layer = EfficientQuadraticConv2d(16, 4, 3, padding=1, rank=9, lambda_init=0.1,
                                          rng=np.random.default_rng(0))
    conv_x = Tensor(np.random.default_rng(1).standard_normal((8, 16, 16, 16))
                    .astype(np.float32), requires_grad=True)

    def train_step(layer, x, forward):
        for parameter in layer.parameters():
            parameter.zero_grad()
        x.zero_grad()
        forward(x).sum().backward()

    return {
        "linear": (dense_layer, dense_x),
        "conv": (conv_layer, conv_x),
    }, train_step


def fused_kernel_benchmarks(rounds: int = 30, warmup: int = 3) -> tuple[dict, dict]:
    """Time fused vs unfused kernels; return ``(fused_ops, fused_speedups)``.

    ``fused_speedups`` carries the legacy mean-based ratios (the trajectory
    numbers) plus ``*_speedup_best`` best-of-rounds ratios, which are far less
    sensitive to scheduler noise and are what the CI gate prefers.
    """
    workloads, train_step = _fused_workloads()
    fused_ops: dict[str, dict] = {}
    speedups: dict[str, float] = {}
    for kind, (layer, x) in workloads.items():
        # Timed alternately (:func:`time_alternating`), so load that changes
        # mid-run lands on both sides of the ratio alike.
        fused, unfused = time_alternating(
            [lambda: train_step(layer, x, layer),
             lambda: train_step(layer, x, layer._forward_unfused)],
            rounds=rounds, warmup=warmup)
        fused_ops[FUSED_BENCH_KEYS[kind, True]] = fused
        fused_ops[FUSED_BENCH_KEYS[kind, False]] = unfused
        ratios = _speedup(unfused, fused)
        for name, ratio in ratios.items():
            speedups[f"quadratic_{kind}_{name}"] = ratio
    return fused_ops, speedups


def inference_benchmarks(rounds: int = 5, warmup: int = 2,
                         batch_size: int = 64) -> dict:
    """Time batched :class:`~repro.serve.InferenceSession.predict` against a
    naive per-sample loop over the same session.

    This is the serving layer's headline number: one warm session answers the
    same ``batch_size`` samples either as a single micro-batched forward or
    as ``batch_size`` one-sample forwards.  The batched path amortizes the
    im2col expansion and the BLAS dispatch across the whole batch, which is
    exactly the inference-efficiency claim ``repro serve`` exists to exploit.
    """
    from .models import SimpleCNN
    from .serve import InferenceSession

    model = SimpleCNN(num_classes=10, neuron_type="proposed", rank=3,
                      base_width=8, image_size=16, seed=0)
    # compile=False: this micro isolates micro-batching amortization, so both
    # paths run classic dispatch (trace-and-replay has its own section).
    session = InferenceSession(model, max_batch=batch_size, compile=False)
    inputs = np.random.default_rng(1).standard_normal(
        (batch_size, 3, 16, 16)).astype(np.float32)
    session.warm(input_shape=inputs.shape[1:], batch_sizes=(batch_size, 1))

    # Timed alternately, as in :func:`fused_kernel_benchmarks`.
    batched, per_sample = time_alternating(
        [lambda: session.predict(inputs),
         lambda: [session.predict(inputs[index:index + 1])
                  for index in range(batch_size)]],
        rounds=rounds, warmup=warmup)
    return {
        "model": "simple_cnn/proposed",
        "batch_size": batch_size,
        "batched": batched,
        "per_sample": per_sample,
        **_speedup(per_sample, batched),
    }


def serving_benchmarks(rounds: int = 3, warmup: int = 1, clients: int = 8,
                       requests_per_client: int = 25) -> dict:
    """Throughput of the batched vs the direct serving engine under
    concurrent load: ``clients`` threads each fire ``requests_per_client``
    single-sample requests (submitted as futures, then awaited).

    This is the cross-request story the engine layer exists for: the direct
    engine answers 8 threads as 8×R serialized one-row forwards, each paying
    the full im2col/BLAS-dispatch overhead, while the batched engine's
    scheduler coalesces the queue into fused forwards.  Requests/sec for both
    engines and their ratio land in ``BENCH_autograd.json`` under
    ``serving`` (CI floor: 2x at 8 clients).
    """
    from .models import SimpleCNN
    from .serve import BatchedEngine, DirectEngine, InferenceSession
    from .serve.metrics import LatencyHistogram

    model = SimpleCNN(num_classes=10, neuron_type="proposed", rank=3,
                      base_width=8, image_size=16, seed=0)
    sample = np.random.default_rng(1).standard_normal((1, 3, 16, 16)) \
        .astype(np.float32)
    total_requests = clients * requests_per_client

    # compile=False on both sides: this micro isolates the scheduling layer
    # (queue/coalesce/demux vs serialized one-row forwards); plan compilation
    # is measured separately by :func:`trace_benchmarks`.
    session_direct = InferenceSession(model, max_batch=64, compile=False)
    session_direct.warm(input_shape=sample.shape[1:], batch_sizes=(1,))
    session_batched = InferenceSession(model, max_batch=64, compile=False)
    session_batched.warm(input_shape=sample.shape[1:],
                         batch_sizes=(64, clients, 1))

    # The batched engine runs at its default coalescing window, the one
    # ``repro serve`` ships.
    direct_engine = DirectEngine(session_direct)
    batched_engine = BatchedEngine(session_batched, max_batch=64,
                                   queue_size=total_requests + clients)
    direct_latency = LatencyHistogram()
    batched_latency = LatencyHistogram()
    try:
        # Timed alternately, as in :func:`fused_kernel_benchmarks`.
        direct, batched = time_alternating(
            [lambda: _storm(direct_engine, sample, clients,
                            requests_per_client, direct_latency),
             lambda: _storm(batched_engine, sample, clients,
                            requests_per_client, batched_latency)],
            rounds=rounds, warmup=warmup)
        batched_stats = batched_engine.stats()
    finally:
        batched_engine.close()
        direct_engine.close()

    def _percentiles(histogram):
        summary = histogram.summary()
        return {key: summary[key]
                for key in ("count", "mean_ms", "p50_ms", "p95_ms", "p99_ms")}

    return {
        "model": "simple_cnn/proposed",
        "clients": clients,
        "requests_per_client": requests_per_client,
        "rows_per_request": 1,
        "direct": direct,
        "batched": batched,
        "direct_rps": total_requests / direct["mean_seconds"],
        "batched_rps": total_requests / batched["mean_seconds"],
        "direct_latency": _percentiles(direct_latency),
        "batched_latency": _percentiles(batched_latency),
        "mean_batch_rows": batched_stats["mean_batch_rows"],
        **_speedup(direct, batched),
    }


def pool_benchmarks(rounds: int = 2, warmup: int = 1, clients: int = 4,
                    requests_per_client: int = 6, rows_per_request: int = 16,
                    worker_counts: tuple[int, ...] | None = None) -> dict:
    """Worker-count scaling curve of the process-pool serving engine.

    The workload is deliberately *compute-bound* — multi-row requests, so
    each fused forward carries real convolution work — because that is the
    regime the pool exists for: :func:`serving_benchmarks` already shows the
    batched engine winning the scheduling game at single-row requests, and
    this micro shows what no single-process engine can do — put more than
    one core behind the forwards.  ``clients`` threads each fire
    ``requests_per_client`` requests of ``rows_per_request`` rows at a
    single-process :class:`~repro.serve.BatchedEngine` baseline and at a
    :class:`~repro.serve.ProcessPoolEngine` for each worker count (default:
    1, 2 and 4, capped at the core count); rows/sec per configuration lands
    under ``serving.pool`` in ``BENCH_autograd.json`` as the scaling curve.

    ``speedup`` compares the *largest* pool against the batched baseline —
    that ratio is CI-gated (``--gate pool=RATIO``) on multi-core runners.
    On a single-core box the pool cannot win (same arithmetic plus IPC), and
    the recorded curve will honestly say so.
    """
    import tempfile
    from pathlib import Path

    from .io.bundle import save_bundle
    from .models import SimpleCNN
    from .serve import BatchedEngine, InferenceSession, ProcessPoolEngine

    worker_counts = worker_counts or _default_worker_counts()
    model = SimpleCNN(num_classes=10, neuron_type="proposed", rank=3,
                      base_width=8, image_size=16, seed=0)
    request = np.random.default_rng(1).standard_normal(
        (rows_per_request, 3, 16, 16)).astype(np.float32)
    total_requests = clients * requests_per_client
    total_rows = total_requests * rows_per_request

    # compile=False everywhere, matching serving_benchmarks: this micro
    # isolates scheduling + parallel execution, not plan compilation.  Every
    # engine runs at its default coalescing window.
    engine_kwargs = {"max_batch": rows_per_request * 2,
                     "queue_size": total_requests + clients}
    with tempfile.TemporaryDirectory(prefix="repro-bench-pool-") as tmp:
        bundle_path = save_bundle(Path(tmp) / "bench_pool.npz", model,
                                  info={"input_shape": [3, 16, 16]})

        def session():
            return InferenceSession(bundle_path, max_batch=rows_per_request * 2,
                                    compile=False)

        engines = [BatchedEngine(session(), **engine_kwargs)]
        try:
            for workers in worker_counts:
                engines.append(ProcessPoolEngine(session(), workers=workers,
                                                 **engine_kwargs))
                engines[-1].warm((3, 16, 16))
            # Timed alternately, one storm per engine each round, so load
            # that changes mid-run lands on every point of the curve alike.
            timings = time_alternating(
                [lambda engine=engine: _storm(engine, request, clients,
                                              requests_per_client)
                 for engine in engines], rounds=rounds, warmup=warmup)
        finally:
            for engine in engines:
                engine.close()
    for timing in timings:
        timing["rows_per_second"] = total_rows / timing["mean_seconds"]
        timing["rows_per_second_best"] = total_rows / timing["min_seconds"]
    batched, *pool_timings = timings
    pools = {str(workers): timing
             for workers, timing in zip(worker_counts, pool_timings)}

    return {
        "model": "simple_cnn/proposed",
        "clients": clients,
        "requests_per_client": requests_per_client,
        "rows_per_request": rows_per_request,
        "worker_counts": list(worker_counts),
        "batched": batched,
        "workers": pools,
        **_speedup(batched, pools[str(max(worker_counts))]),
    }


def trace_benchmarks(rounds: int = 100, warmup: int = 10,
                     batch_sizes: tuple[int, ...] = (1, 8)) -> dict:
    """Traced-replay vs dispatched no-grad forward through a warm session.

    Both paths run the same weights on the same arrays; the only difference
    is dispatched op-by-op execution vs replaying the compiled
    :class:`~repro.tensor.plan.ExecutionPlan`, so the ratio isolates what the
    compiler saves: per-op registry lookup, Tensor/OpContext construction,
    and per-op output allocation (fused chains + arena buffers).  The two are
    timed alternately, one dispatched call and then one replay per round
    (:func:`time_alternating`): timed in two blocks, load that changed
    between the blocks swung the ratio by more than the gate's margin.

    The gated micro uses ``mlp_classifier`` — small dense matmuls, so the
    forward is dispatch-overhead-dominated and the ratio directly measures
    interpreter cost (the thing the compiler removes).  ``simple_cnn`` is
    recorded alongside for reference but not gated: its quadratic convolutions
    dominate the forward, bounding the achievable ratio (Amdahl).
    """
    from .models import MLPClassifier, SimpleCNN
    from .tensor import Tensor, no_grad
    from .tensor.plan import compile_forward

    def measure(model, sample_shape):
        model = model.eval()
        batches = {}
        plan_info = {}
        for batch in batch_sizes:
            inputs = np.random.default_rng(2).standard_normal(
                (batch, *sample_shape)).astype(np.float32)
            plan, _ = compile_forward(model, inputs)
            entry = {}
            if plan is None:  # untraceable model: record the miss, don't crash
                entry["fallback"] = True
            else:
                with no_grad():
                    dispatched, traced = time_alternating(
                        [lambda: model(Tensor(inputs)).data,
                         lambda: plan.replay(inputs)],
                        rounds=rounds, warmup=warmup)
                entry = {"dispatched": dispatched, "traced": traced,
                         **_speedup(dispatched, traced)}
                plan_info = {k: v for k, v in plan.describe().items()
                             if k != "replays"}
            batches[str(batch)] = entry
        return batches, plan_info

    mlp = MLPClassifier(in_features=3 * 16 * 16, num_classes=10,
                        neuron_type="proposed", seed=0)
    cnn = SimpleCNN(num_classes=10, neuron_type="proposed", rank=3,
                    base_width=8, image_size=16, seed=0)
    mlp_batches, mlp_plan = measure(mlp, (3, 16, 16))
    cnn_batches, cnn_plan = measure(cnn, (3, 16, 16))
    return {
        "model": "mlp_classifier/proposed",
        "batches": mlp_batches,
        "plan": mlp_plan,
        "reference": {
            "simple_cnn/proposed": {"batches": cnn_batches, "plan": cnn_plan},
        },
    }


def generation_benchmarks(rounds: int = 3, warmup: int = 1, batch: int = 16,
                          max_len: int = 32) -> dict:
    """Incremental KV-cached decoding vs the full-prefix recompute.

    Both paths drive the same Transformer through ``max_len - 1`` forced
    decode steps (termination disabled, so the measured work is identical
    and independent of what an untrained model happens to emit): the
    incremental path feeds one token per step through
    :meth:`~repro.models.transformer.Transformer.decode_step`, the reference
    re-runs :meth:`~repro.models.transformer.Transformer.decode` over the
    whole growing prefix — O(T) versus O(T²) in decoder forwards.  Tokens/sec
    for both and their ratio land under ``generation`` in
    ``BENCH_autograd.json`` (CI floor: 2x at ``max_len`` 32).  The two paths
    are timed alternately (:func:`time_alternating`).
    """
    from .models import Transformer
    from .tensor import no_grad

    model = Transformer(src_vocab_size=101, tgt_vocab_size=97, model_dim=64,
                        num_heads=4, num_layers=2, hidden_dim=128,
                        neuron_type="proposed", rank=4, max_len=max_len,
                        seed=0).eval()
    rng = np.random.default_rng(3)
    src_ids = rng.integers(4, 101, size=(batch, min(12, max_len)), dtype=np.int64)
    steps = max_len - 1
    bos = 1

    def incremental():
        with no_grad():
            state = model.start_decode(src_ids, max_len=max_len)
            tokens = np.full(batch, bos, dtype=np.int64)
            for _ in range(steps):
                logits = model.decode_step(state, tokens)
                tokens = logits.argmax(axis=-1)
                tokens = np.where(tokens == model.pad_id, bos, tokens)

    def reference():
        with no_grad():
            memory, src_mask = model.encode(src_ids)
            generated = np.full((batch, 1), bos, dtype=np.int64)
            for _ in range(steps):
                logits = model.decode(generated, memory, src_mask)
                tokens = logits.data[:, -1, :].argmax(axis=-1)
                tokens = np.where(tokens == model.pad_id, bos, tokens)
                generated = np.concatenate([generated, tokens[:, None]], axis=1)

    incremental_stats, reference_stats = time_alternating(
        [incremental, reference], rounds=rounds, warmup=warmup)
    tokens_per_round = batch * steps
    return {
        "model": "transformer/proposed",
        "batch": batch,
        "max_len": max_len,
        "steps": steps,
        "incremental": incremental_stats,
        "reference": reference_stats,
        "incremental_tokens_per_second":
            tokens_per_round / incremental_stats["mean_seconds"],
        "reference_tokens_per_second":
            tokens_per_round / reference_stats["mean_seconds"],
        **_speedup(reference_stats, incremental_stats),
    }


def training_benchmarks(rounds: int = 2, warmup: int = 1, world_size: int = 4,
                        worker_counts: tuple[int, ...] | None = None,
                        batches: int = 4, batch_size: int = 64) -> dict:
    """Worker-count scaling curve of data-parallel training.

    One epoch of :class:`~repro.training.DataParallelTrainer` over a fixed
    synthetic workload, at a **fixed** ``world_size`` and varying worker
    counts (default: 1, 2 and 4, capped at the core count) — so every
    configuration computes byte-identical parameters (the shard arithmetic
    never changes) and the curve measures pure execution scaling: shards
    running concurrently in worker processes versus sequentially inline.
    Samples/sec per worker count lands under ``training`` in
    ``BENCH_autograd.json``.

    Every trainer and loader is built first; the epochs are then timed
    alternately, one per worker count each round (:func:`time_alternating`),
    so a change in machine load lands on every fleet alike instead of on
    whichever was timed during it.  The warmup round spawns the worker
    fleets, so process startup is excluded from the timed rounds
    (steady-state training amortizes spawn over the whole run).  ``speedup`` compares the largest fleet against inline
    execution; that ratio is CI-gated (``--gate train=RATIO``) on
    multi-core runners — on one core the workers pay IPC for the same
    arithmetic and the recorded curve will honestly say so.
    """
    from .data import DataLoader
    from .models import build_model
    from .nn import CrossEntropyLoss
    from .optim import SGD
    from .training import DataParallelTrainer

    worker_counts = worker_counts or _default_worker_counts()
    rng = np.random.default_rng(7)
    inputs = rng.standard_normal(
        (batches * batch_size, 3, 16, 16)).astype(np.float32)
    targets = rng.integers(0, 10, size=batches * batch_size)
    total_samples = batches * batch_size

    trainers = []
    try:
        for workers in worker_counts:
            model = build_model("simple_cnn", num_classes=10, neuron_type="proposed",
                                rank=3, base_width=8, image_size=16, seed=0)
            optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)
            trainers.append(DataParallelTrainer(
                model, optimizer, CrossEntropyLoss(), world_size=world_size,
                workers=workers, seed=0))
        epochs = [partial(trainer.train_epoch,
                          DataLoader(inputs, targets, batch_size=batch_size,
                                     shuffle=False, seed=0))
                  for trainer in trainers]
        timings = time_alternating(epochs, rounds=rounds, warmup=warmup)
    finally:
        for trainer in trainers:
            trainer.close()
    results = {}
    for workers, timing in zip(worker_counts, timings):
        timing["samples_per_second"] = total_samples / timing["mean_seconds"]
        timing["samples_per_second_best"] = total_samples / timing["min_seconds"]
        results[str(workers)] = timing
    return {
        "model": "simple_cnn/proposed",
        "world_size": world_size,
        "batch_size": batch_size,
        "batches": batches,
        "worker_counts": list(worker_counts),
        "workers": results,
        **_speedup(results[str(min(worker_counts))],
                   results[str(max(worker_counts))]),
    }


def benchmark_experiments(names: list[str], scale: str = "smoke",
                          cache_dir=None, progress=None) -> dict:
    """End-to-end wall time per experiment via the cached runner (cache bypassed).

    Always runs sequentially (``jobs=1``): concurrent experiments contend for
    cores and would inflate each other's wall times, corrupting the trajectory
    that successive PRs compare against.  The fresh artifacts still land in
    the cache, so a later ``repro run`` of the same configuration is a cache
    hit — benching warms the sweep.
    """
    cache_dir = cache_dir if cache_dir is not None else default_cache_dir()
    outcomes = run_many(names, scale=scale, cache_dir=cache_dir, force=True,
                        jobs=1, progress=progress)
    timings: dict[str, dict] = {}
    for outcome in outcomes:
        if not outcome.ok:
            raise RuntimeError(f"benchmark run of '{outcome.name}' failed: "
                               f"{outcome.error}")
        timings[outcome.name] = {
            "mean_seconds": outcome.elapsed_seconds,
            "min_seconds": outcome.elapsed_seconds,
            "stddev_seconds": 0.0,
            "rounds": 1,
        }
    return timings


#: Summary sections every run writes, left empty when their micro is not
#: selected, so every ``BENCH_autograd.json`` has the same top-level layout.
_SECTIONS = ("fused_ops", "fused_speedups", "inference", "serving", "trace",
             "generation", "training")


def _single(label: str):
    """Reader for a section holding one ``speedup``/``speedup_best`` pair."""
    def read(section: dict) -> list:
        ratio = section.get("speedup")
        if ratio is None:
            return []
        return [(label, ratio, section.get("speedup_best", ratio))]
    return read


def _fused_ratios(summary: dict) -> list:
    """One pair per fused kernel, read from ``fused_speedups``."""
    speedups = summary.get("fused_speedups", {})
    return [(name, ratio, speedups.get(f"{name}_best", ratio))
            for name, ratio in sorted(speedups.items())
            if not name.endswith("_best")]


def _trace_ratios(trace: dict) -> list:
    """One pair per benched batch size of the gated ``mlp_classifier`` micro
    (the ``simple_cnn`` reference is compute-bound and recorded ungated)."""
    batches = sorted(trace.get("batches", {}).items(), key=lambda kv: int(kv[0]))
    return [(f"traced vs dispatched at batch {batch}", entry.get("speedup"),
             entry.get("speedup_best", entry.get("speedup")))
            for batch, entry in batches]


@dataclass(frozen=True)
class Micro:
    """One ``repro bench`` micro-benchmark.

    ``run`` maps the CLI's ``--rounds`` to the micro's result dict (applying
    the micro's own rounds rule); :func:`build_summary` merges that result
    into the summary under ``path`` (``()`` merges it at the top level);
    ``read`` turns the section at ``path`` into ``(label, mean ratio,
    best-of-rounds ratio)`` triples — the numbers printed and gated.  A ratio
    that is absent reads as ``None``.
    """

    name: str
    run: Callable[[int], dict]
    path: tuple[str, ...]
    read: Callable[[dict], list]

    def ratios(self, summary: dict) -> list:
        section = summary
        for key in self.path:
            section = section.get(key, {})
        return self.read(section)


#: Every micro-benchmark, in run order.
MICROS = {micro.name: micro for micro in (
    Micro("fused",
          lambda rounds: dict(zip(("fused_ops", "fused_speedups"),
                                  fused_kernel_benchmarks(rounds=rounds))),
          (), _fused_ratios),
    Micro("inference",
          lambda rounds: inference_benchmarks(rounds=max(3, rounds // 6)),
          ("inference",), _single("batched vs per-sample loop")),
    Micro("serving",
          lambda rounds: serving_benchmarks(rounds=max(3, rounds // 10)),
          ("serving",), _single("batched vs direct engine")),
    Micro("pool",
          lambda rounds: pool_benchmarks(rounds=max(2, rounds // 15)),
          ("serving", "pool"), _single("largest pool vs batched engine")),
    Micro("trace",
          lambda rounds: trace_benchmarks(rounds=max(10, rounds * 3)),
          ("trace",), _trace_ratios),
    Micro("generate",
          lambda rounds: generation_benchmarks(rounds=max(3, rounds // 10)),
          ("generation",), _single("incremental vs full-prefix decode")),
    Micro("train",
          lambda rounds: training_benchmarks(rounds=max(2, rounds // 15)),
          ("training",), _single("largest vs smallest worker fleet")),
)}


def select(micros: str | None, gates: list[str]) -> tuple[list[str], dict]:
    """Validate ``--micros a,b`` and ``--gate NAME=RATIO`` arguments.

    Returns the selected micro names in run order (``None`` selects every
    micro, ``""`` none) and the ``{name: floor}`` gates.  Raises
    :class:`ValueError` on a malformed gate, an unknown name, or a gate on a
    micro that is not selected (it would pass vacuously).
    """
    names = set(MICROS) if micros is None else \
        {name.strip() for name in micros.split(",") if name.strip()}
    floors = {}
    for gate in gates:
        name, _, ratio = gate.partition("=")
        try:
            floor = float(ratio)
        except ValueError:
            floor = math.nan
        if math.isnan(floor):  # a NaN floor would pass every ratio
            raise ValueError(f"--gate expects NAME=RATIO, got {gate!r}")
        floors[name] = floor
    unknown = sorted((names | floors.keys()) - MICROS.keys())
    if unknown:
        raise ValueError(f"unknown micro {', '.join(map(repr, unknown))}; "
                         f"valid names: {', '.join(MICROS)}")
    vacuous = [name for name in floors if name not in names]
    if vacuous:
        raise ValueError(f"--gate {', '.join(vacuous)} would pass vacuously: "
                         f"not selected by --micros")
    return [name for name in MICROS if name in names], floors


#: Environment variables that set the BLAS thread count.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git(*args: str) -> str:
    """Output of ``git <args>`` run beside this file; ``""`` when it fails."""
    try:
        return subprocess.run(["git", *args],
                              cwd=os.path.dirname(os.path.abspath(__file__)),
                              text=True, capture_output=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return ""


def environment() -> dict:
    """What a run's numbers depend on: cores, BLAS, numpy, interpreter, commit.

    ``worker_start_method`` and ``worker_preload`` say how the micros'
    worker processes boot (forks of one server that imported those
    modules).  ``git_dirty`` is true when the tree differs from ``git_sha``
    (modified or untracked files), so such numbers are not read as the
    commit's own, and ``None`` outside a git checkout.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # noqa: BLE001 — older numpy: record what is known
        blas = {"name": "unknown", "version": "unknown"}
    sha = _git("rev-parse", "HEAD")
    return {
        "nproc": os.cpu_count() or 1,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_ENV},
        "worker_start_method": fleet.START_METHOD,
        "worker_preload": list(fleet.PRELOAD),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha or "not a git checkout",
        "git_dirty": bool(_git("status", "--porcelain")) if sha else None,
    }


def build_summary(figure_repros: dict, results: dict, scale: str,
                  started: float) -> dict:
    """The ``BENCH_autograd.json`` document for ``{micro name: result}``."""
    summary = {section: {} for section in _SECTIONS}
    for name, result in results.items():
        section = summary
        for key in MICROS[name].path:
            section = section.setdefault(key, {})
        section.update(result)
    summary.update({
        "figure_repros": figure_repros,
        "scale": scale,
        "targets": sorted(figure_repros),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime(started)),
        "harness_seconds": time.time() - started,
        "environment": environment(),
    })
    return summary


def check_gates(summary: dict, floors: dict) -> list[str]:
    """Regression messages for every gated ratio below its micro's floor.

    A ratio passes if *either* its mean-based or its best-of-rounds value
    clears the floor — a genuine regression drags both down, while a
    noisy-neighbor scheduling blip rarely corrupts the best-of-rounds number.
    A gated micro with no result is a violation.
    """
    violations = []
    for name, floor in floors.items():
        ratios = MICROS[name].ratios(summary)
        if not ratios:
            violations.append(f"{name} benchmark missing from the summary")
        for label, ratio, best in ratios:
            if ratio is None:
                violations.append(f"{name}: {label} ratio missing")
            elif max(ratio, best) < floor:
                violations.append(f"{name}: {label} = {ratio:.3f}x "
                                  f"(best-of-rounds {best:.3f}x) is below "
                                  f"the {floor:.2f}x floor")
    return violations


def write_summary(summary: dict, output) -> None:
    atomic_write_json(output, {key: summary[key] for key in sorted(summary)})

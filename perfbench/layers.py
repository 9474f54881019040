"""Per-layer metrics of a traced run, computed from its span files.

Every ``*_ms`` metric is a p50 per call unless its comment says mean.  Spans
count when they lie inside the timed window, except set-up work (plan
compiles, worker spawns), which happens before it.  A metric whose layer a
workload does not exercise reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from .common import mean, percentile

#: End-to-end metric units; their workload-specific names are in run.py.
E2E_UNITS = {"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms",
             "latency_p90_ms": "ms", "peak_rss_mb": "MB"}

_OPS = ("quadratic_conv2d", "quadratic_response", "linear", "matmul",
        "attention_softmax")

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [("http.handler_ms", "ms", "lower"),
     ("http.self_ms", "ms", "lower"),
     ("http.wire_ms", "ms", "lower"),
     ("http.request_bytes", "bytes", "lower"),
     ("http.response_bytes", "bytes", "lower"),
     ("ops.call_ms", "ms", "lower"),
     ("ops.rejected", "count", "lower"),
     ("pipeline.preprocess_ms", "ms", "lower"),
     ("pipeline.postprocess_ms", "ms", "lower"),
     ("batching.queue_wait_ms", "ms", "lower"),
     ("batching.rows_per_batch", "rows", "higher"),
     ("batching.batches", "count", "higher"),
     ("session.predict_ms", "ms", "lower"),
     ("plan.replay_ms", "ms", "lower"),
     ("plan.hits", "count", "higher"),
     ("plan.misses", "count", "lower"),
     ("plan.fallbacks", "count", "lower"),
     ("plan.compile_ms", "ms", "lower"),
     ("pool.worker_forward_ms", "ms", "lower"),
     ("pool.overhead_ms", "ms", "lower"),
     ("pool.restarts", "count", "lower"),
     ("pool.spawn_s", "s", "lower")]
    + [(f"engine.op_ms.{op}{suffix}", "ms", "lower")
       for op in _OPS for suffix in ("", ".backward")]
    + [("engine.ops_per_step", "count", "lower"),
       ("engine.backward_ms", "ms", "lower"),
       ("generate.prefill_ms", "ms", "lower"),
       ("generate.decode_step_ms", "ms", "lower"),
       ("generate.rows_per_step", "rows", "higher"),
       ("generate.scheduler_self_ms", "ms", "lower"),
       ("generate.queue_wait_ms", "ms", "lower"),
       ("generate.cache_mb", "MB", "lower"),
       ("generate.cache_grows", "count", "lower"),
       ("dp.worker_compute_ms", "ms", "lower"),
       ("dp.parent_ms", "ms", "lower"),
       ("dp.message_mb", "MB", "lower"),
       ("dp.restarts", "count", "lower"),
       ("dp.spawn_s", "s", "lower"),
       ("optim.step_ms", "ms", "lower"),
       ("data.next_ms", "ms", "lower"),
       ("checkpoint.save_ms", "ms", "lower"),
       ("checkpoint.mb", "MB", "lower"),
       ("attribution.covered_share", "ratio", "higher")]
    + [(f"overhead.{name}", unit,
        "higher" if name == "throughput_per_s" else "lower")
       for name, unit in E2E_UNITS.items()]
)


class Spans:
    """Span files of one traced run, indexed by span name."""

    def __init__(self, files: list[dict], window: tuple[float, float]):
        self.window = window
        self.by_name: dict[str, list] = defaultdict(list)
        for file in files:
            for name, start, end, key, children in file["spans"]:
                self.by_name[name].append((start, end, key, children, file["role"]))

    def get(self, name: str, roles=None, windowed: bool = True) -> list:
        low, high = self.window
        return [span for span in self.by_name.get(name, ())
                if (roles is None or span[4] in roles)
                and (not windowed or (span[0] >= low and span[1] <= high))]

    def ms(self, name: str, **filters) -> list[float]:
        return [(end - start) * 1e3 for start, end, *_ in self.get(name, **filters)]


def _p50(values) -> float:
    return percentile(values, 50)


def _run_keyed(spans: list) -> dict:
    """Spans of timed requests by request id (warm-up ids start "warm-")."""
    return {key: span for span in spans
            if isinstance((key := span[2]), str) and key.startswith("run-")}


def _model_stats(stats: dict) -> dict:
    return stats["models"]["default"]


def serving_layers(spans: Spans, run: dict) -> dict:
    values = {}
    handler = _run_keyed(spans.get("http.handler"))
    latency = run["latencies"]
    values["http.handler_ms"] = _p50([(s[1] - s[0]) * 1e3 for s in handler.values()])
    values["http.self_ms"] = _p50([(s[1] - s[0] - s[3]) * 1e3
                                   for s in handler.values()])
    wire = {rid: latency[rid] - (s[1] - s[0])
            for rid, s in handler.items() if rid in latency}
    values["http.wire_ms"] = _p50([value * 1e3 for value in wire.values()])
    values["http.request_bytes"] = mean([len(run["bodies"][r[1]])
                                         for r in run["records"]])  # mean
    values["http.response_bytes"] = mean([len(r[5]) for r in run["records"]])  # mean
    ops = _run_keyed(spans.get("ops.call"))
    values["ops.call_ms"] = _p50([(s[1] - s[0]) * 1e3 for s in ops.values()])
    before, after = _model_stats(run["stats_before"]), _model_stats(run["stats_after"])
    values["ops.rejected"] = after["admission"]["shed"] - before["admission"]["shed"]
    values["pipeline.preprocess_ms"] = _p50(spans.ms("pipeline.preprocess"))
    values["pipeline.postprocess_ms"] = _p50(spans.ms("pipeline.postprocess"))
    waits = _run_keyed(spans.get("batching.queue_wait"))
    values["batching.queue_wait_ms"] = _p50([(s[1] - s[0]) * 1e3
                                             for s in waits.values()])
    scheduler, previous = after["scheduler"], before["scheduler"]
    if scheduler["engine"] != "generation":
        batches = scheduler["batches"] - previous["batches"]
        values["batching.batches"] = batches
        values["batching.rows_per_batch"] = (
            (scheduler["samples"] - previous["samples"]) / batches if batches else 0.0)
        plan = after.get("plan_cache") or {}
        for key in ("hits", "misses", "fallbacks"):
            values[f"plan.{key}"] = plan.get(key, 0)
    values["session.predict_ms"] = _p50(spans.ms("session.predict"))
    values["plan.replay_ms"] = _p50(spans.ms("plan.replay"))
    values["plan.compile_ms"] = _p50(spans.ms("plan.compile", windowed=False))
    worker_forward = spans.ms("session.predict", roles={"pool-worker"})
    values["pool.worker_forward_ms"] = _p50(worker_forward)
    if worker_forward:  # mean per batch: engine-side batch time - worker forward
        batch_spans = {(s[0], s[1]) for s in spans.get("batching.exec")}
        values["pool.overhead_ms"] = (mean([(end - start) * 1e3
                                            for start, end in batch_spans])
                                      - mean(worker_forward))
        values["pool.restarts"] = scheduler.get("restarts", 0)
    values["pool.spawn_s"] = _p50([ms / 1e3 for ms in
                                   spans.ms("pool.spawn", windowed=False)])

    values["generate.prefill_ms"] = _p50(spans.ms("generate.prefill"))
    values["generate.decode_step_ms"] = _p50(spans.ms("generate.decode_step"))
    values["generate.rows_per_step"] = mean([s[2] for s in
                                             spans.get("generate.decode_step")])  # mean
    values["generate.scheduler_self_ms"] = _p50(
        [(s[1] - s[0] - s[3]) * 1e3 for s in spans.get("generate.step")])
    values["generate.queue_wait_ms"] = _p50(
        [(s[1] - s[0]) * 1e3 for s in spans.get("generate.queue_wait")
         if str(s[2]).startswith("run-")])
    if "generation" in scheduler:
        cache = scheduler["generation"]["cache"]
        values["generate.cache_mb"] = cache["cache_bytes"] / 1e6
        values["generate.cache_grows"] = cache["grows"]
    values["attribution.covered_share"] = _serving_coverage(spans, run, handler,
                                                            ops, wire)
    return values


def _serving_coverage(spans: Spans, run: dict, handler: dict, ops: dict,
                      wire: dict) -> float:
    """Mean measured blocking-path time over mean request latency.

    Predict: wire + HTTP self + preprocess + queue wait + batch execution +
    postprocess.  Generate: wire + HTTP self + the part of each request's
    ops call during which the scheduler was busy (prefill or a decode step).
    What is left is time no span covers: the ops and façade layers' own
    code and thread hand-offs.
    """
    latency = mean([run["latencies"][rid] for rid in wire]) * 1e3
    if not latency:
        return 0.0
    http_self = mean([(s[1] - s[0] - s[3]) * 1e3 for s in handler.values()])
    covered = mean([value * 1e3 for value in wire.values()]) + http_self
    if spans.get("generate.step"):
        busy = sorted((s[0], s[1]) for name in ("generate.step", "generate.prefill")
                      for s in spans.get(name))
        covered += mean([_overlap(s[0], s[1], busy) * 1e3 for s in ops.values()])
    else:
        for name in ("pipeline.preprocess", "batching.queue_wait",
                     "batching.exec", "pipeline.postprocess"):
            covered += mean([(s[1] - s[0]) * 1e3
                             for s in _run_keyed(spans.get(name)).values()])
    return covered / latency


def _overlap(start: float, end: float, busy: list) -> float:
    total = 0.0
    for low, high in busy:
        if high > start and low < end:
            total += min(high, end) - max(low, start)
    return total


def training_layers(spans: Spans, run: dict) -> dict:
    values = {}
    compute = spans.get("dp.worker_compute", roles={"dp-worker"})
    values["dp.worker_compute_ms"] = _p50([(s[1] - s[0]) * 1e3 for s in compute])
    steps = spans.get("dp.step")
    parent = []
    for start, end, *_ in steps:
        inside = [s[1] - s[0] for s in compute if s[0] >= start and s[1] <= end]
        parent.append((end - start - max(inside, default=0.0)) * 1e3)
    values["dp.parent_ms"] = _p50(parent)
    values["dp.message_mb"] = run["message_mb"]
    values["dp.restarts"] = run["restarts"]
    values["dp.spawn_s"] = _p50([ms / 1e3 for ms in spans.ms("dp.spawn", windowed=False)])
    values["optim.step_ms"] = _p50(spans.ms("optim.step"))
    values["data.next_ms"] = _p50(spans.ms("data.next"))
    values["checkpoint.save_ms"] = _p50(spans.ms("checkpoint.save"))
    values["checkpoint.mb"] = mean([s[2] / 1e6 for s in spans.get("checkpoint.save")])  # mean
    ops = sum(len(spans.get(name)) for name in spans.by_name if name.startswith("op:"))
    values["engine.ops_per_step"] = ops / len(steps) if steps else 0.0
    low, high = spans.window
    covered = sum((s[1] - s[0]) for name in ("data.next", "dp.step", "checkpoint.save")
                  for s in spans.get(name))
    values["attribution.covered_share"] = covered / (high - low)
    return values


def per_layer(workload: str, untraced: dict, traced: dict, files: list) -> dict:
    """Every per-layer metric for one workload (0 where the layer is idle)."""
    spans = Spans(files, traced["window"])
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    for op in _OPS:
        values[f"engine.op_ms.{op}"] = _p50(spans.ms("op:" + op))
        values[f"engine.op_ms.{op}.backward"] = _p50(spans.ms(f"op:{op}:backward"))
    values["engine.backward_ms"] = _p50(spans.ms("engine.backward"))
    if workload == "train_dp":
        values.update(training_layers(spans, traced))
    else:
        values.update(serving_layers(spans, traced))
    for name in E2E_UNITS:
        values[f"overhead.{name}"] = traced[name] - untraced[name]
    return {name: float(value) for name, value in values.items()}

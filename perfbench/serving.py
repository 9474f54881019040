"""Serving workloads: ``python -m repro serve`` in its own process, HTTP load.

Load comes from this process: ``CONNECTIONS`` threads, each owning one
keep-alive ``http.client`` connection and running a closed loop (the next
request goes out only after the previous reply has been read in full).  With
two connections no server-side queue deeper than two can form, so closed-loop
throughput is the capacity figure on a two-core machine.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import re
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from .common import ROOT, child_env, percentile, vm_hwm_mb
from .spans import SPAN_DIR_ENV

CONNECTIONS = 2
#: Server starts per measurement; ``setup_s`` is their median.
SETUPS = 3
WARMUP_SECONDS = 1.5
#: Absolute tolerance on returned class probabilities.  Requests fused into
#: different batch sizes than the reference's regroup BLAS sums, which moves
#: float64 probabilities by ~1e-8; anything past this is a wrong answer.
PROBABILITY_TOLERANCE = 1e-5
_LISTENING = re.compile(rb"on http://[0-9.]+:(\d+)")


@dataclasses.dataclass
class Fixture:
    """Everything a serving workload needs, built before any timing."""

    bundle: Path
    engine_args: list
    path: str
    bodies: list          # encoded request bodies, reused round-robin
    check: object         # check(body_index, response_dict) -> (ok, work)
    seed: int
    #: Sent once before the warm-up loop so every batch shape that two
    #: coalesced requests can form is compiled before timing starts.
    warm_bodies: list = dataclasses.field(default_factory=list)


# -- fixtures -----------------------------------------------------------------


def _classifier_bundle(workdir: Path) -> Path:
    from repro.io.bundle import save_bundle
    from repro.models import SimpleCNN

    model = SimpleCNN(num_classes=10, neuron_type="proposed", rank=3,
                      base_width=8, image_size=16, seed=0)
    return save_bundle(workdir / "simple_cnn_proposed.npz", model,
                       info={"input_shape": [3, 16, 16]})


def check_predictions(response: dict, reference: np.ndarray) -> bool:
    """Top-1 class and returned probabilities against reference probabilities.

    ``reference`` holds one probability row per input row.  A top-1 class
    counts as right when it is the reference's, or when the reference
    cannot separate it from the best class within the tolerance.
    """
    predictions = response.get("predictions")
    if not isinstance(predictions, list) or len(predictions) != len(reference):
        return False
    for record, row in zip(predictions, reference):
        best = row.max()
        if row[record["class_index"]] < best - PROBABILITY_TOLERANCE:
            return False
        for entry in record["top_k"]:
            if abs(entry["probability"] - row[entry["class_index"]]) > PROBABILITY_TOLERANCE:
                return False
    return True


def check_generation(response: dict, reference: list) -> bool:
    """Generated token ids must equal the in-process greedy reference."""
    outputs = response.get("outputs")
    return (isinstance(outputs, list) and len(outputs) == len(reference)
            and all(output.get("tokens") == tokens
                    for output, tokens in zip(outputs, reference)))


def predict_fixture(workdir: Path, seed: int, rows: int, distinct: int,
                    engine_args: list) -> Fixture:
    """1-row or multi-row top-5 requests; reference from a DirectEngine."""
    from repro.serve import load

    bundle = _classifier_bundle(workdir)
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal((rows, 3, 16, 16)).astype(np.float32)
              for _ in range(distinct)]
    with load(bundle, engine="direct") as reference_model:
        references = [reference_model.predict_proba(batch) for batch in inputs]
    bodies = [json.dumps({"inputs": batch.tolist(), "top_k": 5}).encode()
              for batch in inputs]
    fused = json.dumps({"inputs": np.concatenate(inputs[:2]).tolist()}).encode()

    def check(index: int, response: dict):
        return check_predictions(response, references[index]), rows

    return Fixture(bundle, engine_args, "/v1/models/default/predict", bodies,
                   check, seed, [fused])


def _translation_bundle(workdir: Path):
    """The table2 smoke recipe with proposed neurons, trained until it ends
    sequences on eos (6 epochs over 256 pairs); deterministic."""
    from repro.data import SyntheticTranslationTask
    from repro.experiments import get_scale
    from repro.experiments.table2 import (build_transformer,
                                          save_translation_bundle,
                                          train_translation_model)

    scale = dataclasses.replace(get_scale("smoke"), translation_train_size=256,
                                translation_epochs=6)
    task = SyntheticTranslationTask(train_size=256, test_size=8,
                                    seed=scale.seed + 31)
    model = build_transformer(task, scale, neuron_type="proposed")
    train_translation_model(model, task, scale)
    name = save_translation_bundle(model, task, bundle_dir=workdir)
    return workdir / name, task


def generate_fixture(workdir: Path, seed: int, sources_per_request: int = 4,
                     distinct: int = 54) -> Fixture:
    """Greedy ``/generate`` requests of 4 sources, lengths 4-12 from the seed.

    Every length occurs equally often and the seed orders them and picks the
    sentences, so seeds differ in content but not in how much work there is
    (a seed-dependent length mix would move tokens/s and p90 by itself).
    Each source is the first ``length - 1`` tokens of a sentence plus eos.
    """
    from repro.data import SyntheticTranslationTask
    from repro.io.bundle import load_bundle

    bundle, task = _translation_bundle(workdir)
    model = load_bundle(bundle).model.eval()
    rng = np.random.default_rng(seed)
    lengths = rng.permutation(np.resize(np.arange(4, 13), distinct * sources_per_request))
    encoded = (task.source_vocab.encode(list(pair.source_tokens), add_eos=False)
               for pair in SyntheticTranslationTask(train_size=8 * len(lengths),
                                                    test_size=1,
                                                    seed=10_000 + seed).train_pairs)
    sources = []
    for length in lengths:
        ids = next(ids for ids in encoded if len(ids) >= length - 1)
        sources.append([int(token) for token in ids[:length - 1]] + [task.eos_id])
    requests = [sources[start:start + sources_per_request]
                for start in range(0, len(sources), sources_per_request)]
    decoded = {}
    for source in sources:
        key = tuple(source)
        if key not in decoded:  # batch-1, as the engine prefills solo
            decoded[key] = model.greedy_decode(
                np.array([source]), bos_id=task.bos_id, eos_id=task.eos_id,
                max_len=task.max_len)[0]
    references = [[decoded[tuple(source)] for source in request]
                  for request in requests]
    bodies = [json.dumps({"inputs": request, "strategy": "greedy"}).encode()
              for request in requests]

    def check(index: int, response: dict):
        ok = check_generation(response, references[index])
        tokens = sum(len(output.get("tokens", []))
                     for output in response.get("outputs", []))
        return ok, tokens

    return Fixture(bundle, [], "/v1/models/default/generate", bodies, check, seed)


# -- the server process -------------------------------------------------------


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, fixture: Fixture, workdir: Path, span_dir: Path | None):
        entry = (["-m", "repro"] if span_dir is None
                 else [str(ROOT / "perfbench" / "traced_serve.py")])
        command = [sys.executable, *entry, "serve", str(fixture.bundle),
                   "--host", "127.0.0.1", "--port", "0", "--quiet",
                   *fixture.engine_args]
        env = child_env(**({SPAN_DIR_ENV: str(span_dir)} if span_dir else {}))
        self.log_path = workdir / "server.log"
        started = time.monotonic()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                            stderr=log, env=env, cwd=ROOT)
        deadline = started + 120
        try:
            self.port = self._read_port(deadline)
            while True:  # first 200 after load and warm-up
                try:
                    self.get("/v1/models")
                    break
                except OSError:
                    if self.process.poll() is not None or time.monotonic() > deadline:
                        raise
                    time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - started

    def _read_port(self, deadline: float) -> int:
        output = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError(f"server did not start; see {self.log_path}: "
                                   f"{self.log_path.read_text()[-2000:]}")
            readable, _, _ = select.select([self.process.stdout], [], [], remaining)
            if readable:
                output += self.process.stdout.readline()
                match = _LISTENING.search(output)
                if match:
                    return int(match.group(1))

    def request(self, method: str, path: str, body: bytes | None = None) -> bytes:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request(method, path, body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            payload = response.read()
            if response.status != 200:
                raise RuntimeError(f"{method} {path} answered {response.status}")
            return payload
        finally:
            connection.close()

    def get(self, path: str) -> dict:
        return json.loads(self.request("GET", path))

    def pids(self, stats: dict) -> list[int]:
        workers = stats["models"]["default"]["scheduler"].get("per_worker", [])
        return [self.process.pid] + [worker["pid"] for worker in workers
                                     if worker.get("pid")]

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


# -- load ---------------------------------------------------------------------


def drive(port: int, fixture: Fixture, seconds: float, phase: str):
    """Closed-loop load on ``CONNECTIONS`` keep-alive connections.

    Returns the per-request records ``(rid, body_index, sent, done, status,
    payload)`` and the timed window ``(start, end)``.
    """
    count = len(fixture.bodies)
    orders = [np.random.default_rng([fixture.seed, index]).permutation(count)
              for index in range(CONNECTIONS)]
    records: list[list] = [[] for _ in range(CONNECTIONS)]
    headers = {"Content-Type": "application/json"}

    def client(index: int) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        order, sequence = orders[index], 0
        try:
            while time.monotonic() < deadline:
                body_index = int(order[sequence % count])
                rid = f"{phase}-{index}-{sequence}"
                sequence += 1
                sent = time.monotonic()
                try:
                    connection.request("POST", fixture.path,
                                       body=fixture.bodies[body_index],
                                       headers={**headers, "X-Request-Id": rid})
                    response = connection.getresponse()
                    payload = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException):
                    connection.close()  # reconnects on the next request
                    status, payload = 0, b""
                records[index].append((rid, body_index, sent, time.monotonic(),
                                       status, payload))
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(index,), daemon=True)
               for index in range(CONNECTIONS)]
    start = time.monotonic()
    deadline = start + seconds
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [record for per_client in records for record in per_client], \
        (start, time.monotonic())


def evaluate(fixture: Fixture, records: list) -> dict:
    """Output checks: every answer must be a 200 with the reference's output."""
    latencies, failed, work = {}, 0, 0
    for rid, body_index, sent, done, status, payload in records:
        ok = False
        if status == 200:
            try:
                ok, units = fixture.check(body_index, json.loads(payload))
            except (ValueError, KeyError, TypeError):
                ok = False
        if ok:
            work += units
            latencies[rid] = done - sent
        else:
            failed += 1
    return {"latencies": latencies, "failed": failed, "work": work}


def measure(fixture: Fixture, seconds: float, workdir: Path,
            span_dir: Path | None = None) -> dict:
    """Set up ``SETUPS`` times, warm, run the timed closed loop, check."""
    setups = []
    for _ in range(SETUPS - 1):
        server = Server(fixture, workdir, span_dir)
        setups.append(server.setup_s)
        server.stop()
    server = Server(fixture, workdir, span_dir)
    setups.append(server.setup_s)
    try:
        for body in fixture.warm_bodies:
            server.request("POST", fixture.path, body)
        warm_records, _ = drive(server.port, fixture, WARMUP_SECONDS, "warm")
        before = server.get("/v1/stats")
        records, window = drive(server.port, fixture, seconds, "run")
        after = server.get("/v1/stats")
        peak_rss = vm_hwm_mb(server.pids(after))
    finally:
        server.stop()
    warm = evaluate(fixture, warm_records)
    checked = evaluate(fixture, records)
    latencies = list(checked["latencies"].values())
    wall = window[1] - window[0]
    return {
        "setup_s": float(np.median(setups)),
        "setups": setups,
        "throughput_per_s": checked["work"] / wall,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "samples": len(latencies),
        "peak_rss_mb": peak_rss,
        "attempted": len(records) + len(warm_records),
        "failed": checked["failed"] + warm["failed"],
        "window": window,
        "records": records,
        "bodies": fixture.bodies,
        "latencies": checked["latencies"],
        "stats_before": before,
        "stats_after": after,
    }


def fixture_for(workload: str, workdir: Path, seed: int) -> Fixture:
    if workload == "predict_small":
        return predict_fixture(workdir, seed, rows=1, distinct=64,
                               engine_args=["--engine", "batched"])
    if workload == "predict_bulk":
        return predict_fixture(workdir, seed, rows=32, distinct=8,
                               engine_args=["--engine", "pool", "--workers", "2"])
    if workload == "generate":
        return generate_fixture(workdir, seed)
    raise ValueError(f"not a serving workload: {workload!r}")

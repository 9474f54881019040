"""The ``train_dp`` workload: ``DataParallelTrainer.fit`` in its own process.

The harness (:func:`measure`) runs this file as a child, so the trainer's
peak memory is its own and a traced child installs its timers from a clean
interpreter.  The child prints one JSON line with its measurements.

One *round* is a fresh ``fit`` of one epoch (8 batches of 64 seeded
synthetic 16x16 images, ``world_size`` 2 on 2 worker processes, SGD with
momentum, a step checkpoint every 4 steps) from the same initial state, so
every round must end on the same bytes.  The timed phase repeats rounds for
``--seconds``; afterwards an untimed ``workers=1`` round is the reference.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench.common import ROOT, child_env, percentile, vm_hwm_mb
from perfbench.spans import SPAN_DIR_ENV, Recorder, install_trainer

BATCH = 64
BATCHES = 8
WORLD_SIZE = 2
WORKERS = 2
CHECKPOINT_EVERY_STEPS = 4
SETUPS = 3


def parameters_digest(model) -> str:
    """sha256 over every parameter and buffer, in ``state_dict`` key order."""
    digest = hashlib.sha256()
    for key, value in sorted(model.state_dict().items()):
        digest.update(key.encode())
        digest.update(value.tobytes())
    return digest.hexdigest()


def check_rounds(digests: list[str], reference: str) -> list[bool]:
    """Per round: did it end byte-identical to the ``workers=1`` reference?"""
    return [digest == reference for digest in digests]


def _build(workers: int):
    from repro.models import build_model
    from repro.nn import CrossEntropyLoss
    from repro.optim import SGD
    from repro.training import DataParallelTrainer

    model = build_model("simple_cnn", num_classes=10, neuron_type="proposed",
                        rank=3, base_width=8, image_size=16, seed=0)
    optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)
    return DataParallelTrainer(model, optimizer, CrossEntropyLoss(),
                               world_size=WORLD_SIZE, workers=workers, seed=0)


def _child(config: dict) -> dict:
    import numpy as np

    import repro.models  # noqa: F401 — imports are not set-up time
    import repro.training  # noqa: F401
    from repro.data import DataLoader

    if config["traced"]:
        recorder = Recorder("trainer")
        install_trainer(recorder)
    rng = np.random.default_rng(config["seed"])
    inputs = rng.standard_normal((BATCH * BATCHES, 3, 16, 16)).astype(np.float32)
    targets = rng.integers(0, 10, size=BATCH * BATCHES)

    def loader():
        return DataLoader(inputs, targets, batch_size=BATCH, shuffle=True,
                          seed=config["seed"])

    setups = []
    for index in range(SETUPS):
        start = time.monotonic()
        trainer = _build(WORKERS)
        trainer.fit(DataLoader(inputs[:BATCH], targets[:BATCH],
                               batch_size=BATCH, shuffle=False), epochs=1)
        setups.append(time.monotonic() - start)
        if index < SETUPS - 1:
            trainer.close()
    pristine = _build(1)
    initial_model = pristine.model.state_dict()
    initial_optimizer = pristine.optimizer.state_dict()

    stamps: list[float] = []
    step = trainer.optimizer.step

    def clocked_step():
        step()
        stamps.append(time.monotonic())

    trainer.optimizer.step = clocked_step
    checkpoints = Path(config["workdir"]) / "checkpoints"
    rounds = []
    start = time.monotonic()
    deadline = start + config["seconds"]
    while not rounds or time.monotonic() < deadline:
        trainer.model.load_state_dict(initial_model)
        trainer.optimizer.load_state_dict(initial_optimizer)
        stamps.clear()
        stamps.append(time.monotonic())
        trainer.fit(loader(), epochs=1, checkpoint_dir=checkpoints,
                    checkpoint_every_steps=CHECKPOINT_EVERY_STEPS)
        rounds.append({"stamps": list(stamps),
                       "digest": parameters_digest(trainer.model)})
    end = time.monotonic()
    described = trainer.describe()
    pids = [os.getpid()] + [worker["pid"] for worker in described["per_worker"]]
    peak_rss = vm_hwm_mb(pids)
    trainer.close()

    state_bytes = sum(value.nbytes for value in initial_model.values())
    grad_bytes = sum(parameter.data.nbytes
                     for parameter in pristine.model.parameters())
    batch_bytes = inputs[:BATCH].nbytes + targets[:BATCH].nbytes
    pristine.fit(loader(), epochs=1)  # untimed workers=1 reference
    if config["traced"]:
        recorder.dump()
    return {
        "setups": setups,
        "window": [start, end],
        "rounds": rounds,
        "samples": len(rounds) * BATCH * BATCHES,
        "reference": parameters_digest(pristine.model),
        "peak_rss_mb": peak_rss,
        "restarts": described["restarts"],
        # Both directions of one step, from array sizes (not measured on
        # the pipe): a state_dict per shard out, gradient sums back.
        "message_mb": (WORLD_SIZE * (state_bytes + grad_bytes)
                       + batch_bytes) / 1e6,
    }


def measure(seed: int, seconds: float, workdir: Path,
            span_dir: Path | None = None) -> dict:
    """Run one trainer child and turn its report into workload metrics."""
    config = {"seed": seed, "seconds": seconds, "workdir": str(workdir),
              "traced": span_dir is not None}
    env = child_env(**({SPAN_DIR_ENV: str(span_dir)} if span_dir else {}))
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "training.py"), json.dumps(config)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    if completed.returncode != 0:
        raise RuntimeError(f"trainer child failed:\n{completed.stderr[-3000:]}")
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    steps, failed, intervals = 0, 0, []
    matches = check_rounds([r["digest"] for r in report["rounds"]],
                           report["reference"])
    for round_report, ok in zip(report["rounds"], matches):
        stamps = round_report["stamps"]
        steps += len(stamps) - 1
        if not ok:
            failed += len(stamps) - 1
        intervals += [b - a for a, b in zip(stamps, stamps[1:])]
    start, end = report["window"]
    return {
        "setup_s": statistics.median(report["setups"]),
        "setups": report["setups"],
        "throughput_per_s": report["samples"] / (end - start),
        "latency_p50_ms": percentile(intervals, 50) * 1e3,
        "latency_p90_ms": percentile(intervals, 90) * 1e3,
        "samples": len(intervals),
        "peak_rss_mb": report["peak_rss_mb"],
        "attempted": steps,
        "failed": failed,
        "window": (start, end),
        "restarts": report["restarts"],
        "message_mb": report["message_mb"],
    }


if __name__ == "__main__":
    print(json.dumps(_child(json.loads(sys.argv[1]))))

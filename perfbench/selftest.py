"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench/selftest.py``.

Not named ``test_*.py`` on purpose: the short workload runs take about two
minutes, so the repository's own test run does not collect this file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import serving, training  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_short_run_emits_every_metric_with_its_unit(workload, trace):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in expected}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_dp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


@pytest.fixture(scope="module")
def classifier(tmp_path_factory):
    from repro.serve import load

    bundle = serving._classifier_bundle(tmp_path_factory.mktemp("bundle"))
    inputs = np.random.default_rng(0).standard_normal((6, 3, 16, 16)).astype(np.float32)
    with load(bundle, engine="direct") as direct:
        reference = direct.predict_proba(inputs)
    with load(bundle, engine="batched") as batched:
        response = {"predictions": batched.predict_topk(inputs, k=5)}
    return response, reference


def test_prediction_check_accepts_the_served_answer(classifier):
    response, reference = classifier
    assert serving.check_predictions(response, reference)


@pytest.mark.parametrize("corrupt", [
    lambda ref: np.roll(ref, 1, axis=1),            # classes shifted
    lambda ref: ref + 1e-4,                         # probabilities off
    lambda ref: ref[:-1],                           # a row missing
])
def test_prediction_check_rejects_a_corrupted_reference(classifier, corrupt):
    response, reference = classifier
    assert not serving.check_predictions(response, corrupt(reference.copy()))


def test_generation_check_rejects_a_corrupted_reference():
    from repro.data import SyntheticTranslationTask
    from repro.experiments import get_scale
    from repro.experiments.table2 import build_transformer
    from repro.serve.generate import GenerationEngine

    task = SyntheticTranslationTask(train_size=16, test_size=1, seed=7)
    model = build_transformer(task, get_scale("smoke"), neuron_type="proposed").eval()
    sources = [[5, 9, 12, 2], [7, 4, 11, 6, 3, 2]]
    reference = [model.greedy_decode(np.array([source]), bos_id=task.bos_id,
                                     eos_id=task.eos_id, max_len=task.max_len)[0]
                 for source in sources]
    with GenerationEngine(model, bos_id=task.bos_id, eos_id=task.eos_id,
                          max_len=task.max_len) as engine:
        outputs = [engine.submit(np.array(source)).result(30) for source in sources]
    response = {"outputs": outputs}
    assert serving.check_generation(response, reference)
    flipped = [list(tokens) + [3] for tokens in reference]  # one token longer
    assert not serving.check_generation(response, flipped)
    assert not serving.check_generation(response, reference[:1])


def test_round_check_rejects_a_corrupted_reference():
    trainer = training._build(1)
    reference = training.parameters_digest(trainer.model)
    assert training.check_rounds([reference], reference) == [True]
    name, parameter = next(iter(trainer.model.named_parameters()))
    parameter.data.flat[0] = np.nextafter(parameter.data.flat[0], np.inf)
    corrupted = training.parameters_digest(trainer.model)
    assert training.check_rounds([reference], corrupted) == [False]

"""``repro serve`` startup: the settings each command line mounts models
with, and cleanup when startup fails."""

import multiprocessing
import threading

import pytest

import repro.serve
from repro import cli
from repro.data import SyntheticTranslationTask
from repro.experiments import get_scale
from repro.experiments.table2 import build_transformer, save_translation_bundle
from repro.io import save_bundle
from repro.models import SimpleCNN
from repro.serve.batching import DEFAULT_MAX_WAIT_MS
from repro.serve.http import PredictionServer, serve


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """A classifier bundle and a generation bundle, keyed by placeholder."""
    root = tmp_path_factory.mktemp("serve-startup")
    classifier = save_bundle(
        root / "cls.npz",
        SimpleCNN(num_classes=4, neuron_type="proposed", rank=2, base_width=4,
                  image_size=8, seed=3),
        info={"classes": ["a", "b", "c", "d"], "input_shape": [3, 8, 8]})
    scale = get_scale("smoke")
    task = SyntheticTranslationTask(train_size=32, test_size=8,
                                    seed=scale.seed + 31)
    model = build_transformer(task, scale, neuron_type="proposed").eval()
    name = save_translation_bundle(model, task, discriminator={"test": 1},
                                   bundle_dir=root)
    return {"{cls}": str(classifier), "{gen}": str(root / name)}


def _classifier(engine: str, workers: int | None = None) -> dict:
    return {"engine": engine, "max_batch": 64, "slots": None,
            "max_wait_ms": DEFAULT_MAX_WAIT_MS, "queue_size": 256,
            "workers": workers, "compile": True}


def _load_options(engine: str, workers: int = 2) -> dict:
    """What a hot reload of the model re-loads the bundle with."""
    return {"engine": engine, "max_batch": 64,
            "max_wait_ms": DEFAULT_MAX_WAIT_MS, "queue_size": 256,
            "workers": workers}


#: The ``repro serve`` command lines perfbench and CI start servers with, and
#: the settings every model they mount ends up with.
COMMAND_LINES = {
    "batched": (["{cls}", "--engine", "batched"],
                {"default": (_classifier("batched"), _load_options("batched"))}),
    "pool": (["{cls}", "--engine", "pool", "--workers", "2"],
             {"default": (_classifier("pool", 2), _load_options("pool"))}),
    "generation": (["{gen}"],
                   {"default": ({"engine": "generation", "max_batch": 64,
                                 "slots": 64, "max_wait_ms": None,
                                 "queue_size": 256, "workers": None,
                                 "compile": None},
                                _load_options("batched"))}),
    "per-model": (["--model", "hot={cls}", "--model", "cold={cls}",
                   "--model-engine", "hot=pool", "--model-workers", "hot=4"],
                  {"hot": (_classifier("pool", 4), _load_options("pool", 4)),
                   "cold": (_classifier("batched"),
                            _load_options("batched"))}),
}


def _settings(entry: dict) -> dict:
    scheduler = entry["scheduler"]
    return {"engine": scheduler["engine"],
            "max_batch": scheduler["max_batch"],
            "slots": scheduler.get("generation", {}).get("slots"),
            "max_wait_ms": scheduler.get("max_wait_ms"),
            "queue_size": scheduler["queue_size"],
            "workers": scheduler.get("workers"),
            "compile": (entry["plan_cache"] or {}).get("compile")}


@pytest.mark.parametrize("form", sorted(COMMAND_LINES))
def test_command_line_mounts_models_with_its_settings(form, bundles,
                                                      monkeypatch):
    argv, expected = COMMAND_LINES[form]
    for placeholder, path in bundles.items():
        argv = [arg.replace(placeholder, path) for arg in argv]
    mounted = {}

    def record_and_return(server):  # serve() then drains and closes as usual
        for name, model in server.router.items():
            mounted[name] = (_settings(server.router.stats()[name]),
                             model.load_options)

    monkeypatch.setattr(PredictionServer, "serve_forever", record_and_return)
    assert cli.main(["serve", *argv, "--port", "0", "--quiet"]) == 0
    assert mounted == expected


def _serving_resources() -> tuple[int, int]:
    """Live serving threads and live child processes."""
    threads = sum(thread.name.startswith("repro-")
                  for thread in threading.enumerate())
    return threads, len(multiprocessing.active_children())


class TestFailedStartupClosesMountedModels:
    def test_missing_bundle_closes_the_models_mounted_before_it(
            self, bundles, tmp_path):
        baseline = _serving_resources()
        models = {"first": {"path": bundles["{cls}"], "engine": "pool",
                            "workers": 1},
                  "second": bundles["{cls}"],
                  "third": str(tmp_path / "missing.npz")}
        with pytest.raises(OSError):
            serve(models=models, port=0, quiet=True)
        assert _serving_resources() == baseline

    def test_unknown_default_model_fails_before_loading(self, bundles,
                                                        monkeypatch):
        baseline = _serving_resources()
        loaded = []
        real_load = repro.serve.load
        monkeypatch.setattr(repro.serve, "load", lambda path, **options:
                            loaded.append(path) or real_load(path, **options))
        models = {"first": {"path": bundles["{cls}"], "engine": "pool",
                            "workers": 1},
                  "second": bundles["{cls}"]}
        with pytest.raises(KeyError, match="available models: first, second"):
            serve(models=models, port=0, quiet=True, default_model="typo")
        assert loaded == []
        assert _serving_resources() == baseline

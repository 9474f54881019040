"""Generation serving surface: bundles, load dispatch, HTTP route, stats."""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.data import SyntheticTranslationTask
from repro.experiments import get_scale
from repro.experiments.table2 import build_transformer, save_translation_bundle
from repro.io import load_bundle, save_bundle
from repro.models import SimpleCNN
from repro.serve import GenerationPredictor, Predictor, load


@pytest.fixture(scope="module")
def gen_bundle(tmp_path_factory):
    """A servable generation bundle at table2 smoke geometry (untrained)."""
    scale = get_scale("smoke")
    task = SyntheticTranslationTask(train_size=32, test_size=8,
                                    seed=scale.seed + 31)
    model = build_transformer(task, scale, neuron_type="proposed")
    model.eval()
    bundle_dir = tmp_path_factory.mktemp("gen-bundles")
    name = save_translation_bundle(model, task, discriminator={"test": 1},
                                   bundle_dir=bundle_dir)
    assert name is not None
    return str(bundle_dir / name), model, task


@pytest.fixture(scope="module")
def cls_bundle(tmp_path_factory):
    """A plain classifier bundle (no generation section)."""
    model = SimpleCNN(num_classes=4, neuron_type="linear", base_width=4,
                      image_size=8, seed=5)
    path = tmp_path_factory.mktemp("cls-bundles") / "cls.npz"
    save_bundle(path, model, info={"classes": ["a", "b", "c", "d"],
                                   "input_shape": [3, 8, 8]})
    return str(path)


class TestBundleRoundTrip:
    def test_bundle_records_generation_section(self, gen_bundle):
        path, _, task = gen_bundle
        bundle = load_bundle(path)
        section = bundle.section.get("generation")
        assert section is not None
        assert section["bos_id"] == task.bos_id
        assert section["eos_id"] == task.eos_id
        assert section["pad_id"] == task.pad_id
        assert section["max_len"] == task.max_len
        assert len(section["source_vocab"]) == len(task.source_vocab)
        assert len(section["target_vocab"]) == len(task.target_vocab)

    def test_load_dispatches_on_generation_section(self, gen_bundle, cls_bundle):
        path, _, _ = gen_bundle
        predictor = load(path, warm=False)
        assert isinstance(predictor, GenerationPredictor)
        assert predictor.describe()["type"] == "generation"
        predictor.close()
        classifier = load(cls_bundle, engine="direct", warm=False)
        assert isinstance(classifier, Predictor)
        assert not isinstance(classifier, GenerationPredictor)
        classifier.close()

    def test_predict_on_generation_bundle_is_a_clear_error(self, gen_bundle):
        path, _, _ = gen_bundle
        with load(path, warm=False) as predictor:
            with pytest.raises(ValueError, match="generation"):
                predictor.predict(np.zeros((1, 4)))


class TestGenerationPredictor:
    def test_token_inputs_match_greedy_decode(self, gen_bundle):
        path, model, task = gen_bundle
        sources = np.array([[5, 9, 12, 3, 2], [7, 4, 11, 6, 2]])
        with load(path, warm=False) as predictor:
            outputs = predictor.generate(sources)
        expected = model.greedy_decode(sources, bos_id=task.bos_id,
                                       eos_id=task.eos_id,
                                       max_len=task.max_len)
        assert [record["tokens"] for record in outputs] == expected

    def test_text_inputs_round_trip_through_vocabularies(self, gen_bundle):
        path, _, task = gen_bundle
        sentence = " ".join(list(task.source_vocab.id_to_token)[4:7])
        with load(path, warm=False) as predictor:
            outputs = predictor.generate([sentence], max_new_tokens=5)
        record = outputs[0]
        assert "text" in record
        assert record["text"] == " ".join(
            task.target_vocab.decode(record["tokens"]))

    def test_stats_carry_the_generation_section(self, gen_bundle):
        path, _, _ = gen_bundle
        with load(path, warm=False) as predictor:
            predictor.generate([[5, 9, 3]], max_new_tokens=2)
            stats = predictor.stats()
        assert stats["engine"] == "generation"
        assert set(stats["generation"]) == {
            "tokens_generated", "completed", "active_sequences",
            "mean_batch_occupancy", "slots", "cache"}
        assert stats["generation"]["completed"] == 1


def _post_json(url: str, payload: dict | None = None, method: str = "POST"):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.load(response)


@pytest.fixture
def live_server(gen_bundle, cls_bundle):
    """One server mounting a generation model and a classifier side by side."""
    from repro.serve.http import serve

    gen_path, model, task = gen_bundle
    captured = {}
    done = threading.Event()

    def run():
        serve(models={"gen": gen_path, "cls": cls_bundle}, port=0, quiet=True,
              engine="direct",
              ready=lambda server: captured.update(server=server))
        done.set()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10
    while "server" not in captured and time.monotonic() < deadline:
        time.sleep(0.02)
    base = "http://%s:%s" % captured["server"].server_address[:2]
    yield base, model, task
    captured["server"].shutdown()
    assert done.wait(10)


class TestHTTPGenerate:
    def test_generate_route_matches_in_process_decode(self, live_server):
        base, model, task = live_server
        sources = [[5, 9, 12, 3, 2], [7, 4, 11, 6, 2]]
        reply = _post_json(f"{base}/v1/models/gen/generate",
                           {"inputs": sources})
        assert reply["model"] == "gen"
        assert reply["count"] == 2
        expected = model.greedy_decode(np.array(sources), bos_id=task.bos_id,
                                       eos_id=task.eos_id,
                                       max_len=task.max_len)
        for record, want in zip(reply["outputs"], expected):
            assert record["tokens"] == want
            assert len(record["logprobs"]) == len(record["tokens"])
            assert record["finish_reason"] in ("eos", "length", "max_len")

    def test_generate_accepts_sampling_options(self, live_server):
        base, _, _ = live_server
        first = _post_json(f"{base}/v1/models/gen/generate",
                           {"inputs": [[5, 9, 3]], "strategy": "sample",
                            "temperature": 0.9, "top_k": 5, "seed": 11,
                            "max_new_tokens": 6})
        second = _post_json(f"{base}/v1/models/gen/generate",
                            {"inputs": [[5, 9, 3]], "strategy": "sample",
                             "temperature": 0.9, "top_k": 5, "seed": 11,
                             "max_new_tokens": 6})
        assert first["outputs"][0]["tokens"] == second["outputs"][0]["tokens"]

    def _expect_error(self, url, code, payload=None):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_json(url, payload)
        assert excinfo.value.code == code
        return json.load(excinfo.value)["error"]

    def test_error_taxonomy(self, live_server):
        base, _, _ = live_server
        # missing inputs → 400
        assert "inputs" in self._expect_error(
            f"{base}/v1/models/gen/generate", 400, payload={})
        # bad strategy → 400
        self._expect_error(f"{base}/v1/models/gen/generate", 400,
                           payload={"inputs": [[5, 9]], "strategy": "beam"})
        # unknown model → 404
        self._expect_error(f"{base}/v1/models/ghost/generate", 404,
                           payload={"inputs": [[5, 9]]})
        # generate on a classifier bundle → 400 with a pointed message
        assert "predict" in self._expect_error(
            f"{base}/v1/models/cls/generate", 400, payload={"inputs": [[5]]})
        # predict on a generation bundle → 400 as well
        assert "generation" in self._expect_error(
            f"{base}/v1/models/gen/predict", 400,
            payload={"inputs": [[0.0, 1.0]]})

    @pytest.mark.parametrize("top_k,status", [
        (None, 200),       # null keeps the default
        ([1], 400),        # int([1]) is a TypeError: still a 400
        ({"k": 1}, 400),
        ("abc", 400),      # int("abc") is a ValueError
    ], ids=["null", "list", "object", "string"])
    @pytest.mark.parametrize("model,verb,inputs", [
        ("cls", "predict", np.zeros((1, 3, 8, 8)).tolist()),
        ("gen", "generate", [[5, 9, 3]]),
    ], ids=["predict", "generate"])
    def test_field_types_get_a_status_never_a_dropped_connection(
            self, live_server, model, verb, inputs, top_k, status):
        base, _, _ = live_server
        url = f"{base}/v1/models/{model}/{verb}"
        payload = {"inputs": inputs, "top_k": top_k, "max_new_tokens": 2}
        if status != 200:
            assert self._expect_error(url, status, payload=payload)
            return
        reply = _post_json(url, payload)
        assert reply["count"] == 1
        if verb == "predict":  # predict's HTTP default is top_k=1
            assert len(reply["predictions"][0]["top_k"]) == 1

    def test_stats_v2_pin_the_generation_section(self, live_server):
        base, _, _ = live_server
        _post_json(f"{base}/v1/models/gen/generate",
                   {"inputs": [[5, 9, 3]], "max_new_tokens": 2})
        stats = _post_json(f"{base}/v1/stats", method="GET")
        scheduler = stats["models"]["gen"]["scheduler"]
        assert scheduler["engine"] == "generation"
        assert set(scheduler["generation"]) == {
            "tokens_generated", "completed", "active_sequences",
            "mean_batch_occupancy", "slots", "cache"}
        assert scheduler["generation"]["tokens_generated"] >= 1
        # the classifier entry has no generation section
        assert "generation" not in stats["models"]["cls"]["scheduler"]

"""Serving stack: inference sessions, the pipeline, the HTTP server, CLI verbs."""

import json
import socket
import sys
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro
from repro import cli
from repro.io import save_bundle
from repro.models import SimpleCNN
from repro.serve import InferenceSession, Predictor, make_server, softmax, top_k
from repro.serve.http import PredictionHandler
from repro.tensor import Tensor, graph_nodes_created


def _tiny_model(seed: int = 3) -> SimpleCNN:
    return SimpleCNN(num_classes=4, neuron_type="proposed", rank=2, base_width=4,
                     image_size=8, seed=seed)


def _inputs(count: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((count, 3, 8, 8)) \
        .astype(np.float32)


@pytest.fixture
def bundle_path(tmp_path):
    return save_bundle(tmp_path / "model.npz", _tiny_model(),
                       info={"normalization": {"mean": 0.25, "std": 2.0},
                             "classes": ["cat", "dog", "ship", "truck"],
                             "input_shape": [3, 8, 8]})


class TestInferenceSession:
    def test_matches_direct_eval_forward(self):
        model = _tiny_model()
        x = _inputs(5)
        expected = model.eval()(Tensor(x)).data
        session = InferenceSession(model, max_batch=16)
        np.testing.assert_array_equal(session.predict(x), expected)

    def test_micro_batching_covers_all_samples(self):
        model = _tiny_model()
        x = _inputs(7)
        full = InferenceSession(model, max_batch=64).predict(x)
        chunked = InferenceSession(model, max_batch=3).predict(x)
        assert chunked.shape == full.shape == (7, 4)
        # Chunk boundaries may shift BLAS blocking; results agree to float
        # tolerance and classifications agree exactly.
        np.testing.assert_allclose(chunked, full, atol=1e-5)
        np.testing.assert_array_equal(chunked.argmax(-1), full.argmax(-1))

    def test_zero_graph_construction(self):
        session = InferenceSession(_tiny_model(), max_batch=4)
        x = _inputs(6)
        session.predict(x)  # first call may warm caches
        before = graph_nodes_created()
        session.predict(x)
        assert graph_nodes_created() == before

    @pytest.mark.parametrize("compile", [True, False])
    def test_strict_mode_catches_graph_building_models(self, compile):
        import repro.tensor.engine as engine

        class Sneaky(SimpleCNN):
            """Re-enables gradients inside forward, as a buggy model might."""

            def forward(self, x):
                engine._state.grad_enabled = True
                return super().forward(x)

        model = Sneaky(num_classes=4, neuron_type="linear", base_width=4,
                       image_size=8, seed=0)
        session = InferenceSession(model, max_batch=4, compile=compile)
        try:
            for _ in range(2):  # a failed trace caches no plan to replay
                with pytest.raises(RuntimeError, match="graph"):
                    session.predict(_inputs(2))
                assert len(session.plan_cache) == 0
        finally:
            engine._state.grad_enabled = True  # restore for the rest of the suite

    def test_loads_bundle_path_directly(self, bundle_path):
        session = InferenceSession(bundle_path)
        assert session.bundle is not None
        assert session.predict(_inputs(2)).shape == (2, 4)

    def test_warm_populates_caches_and_reports(self, bundle_path):
        session = InferenceSession(bundle_path, max_batch=8)
        assert session.warm() is True
        assert InferenceSession(_tiny_model()).warm() is False  # no shape known

    def test_batched_input_required(self):
        session = InferenceSession(_tiny_model())
        with pytest.raises(ValueError, match="batched"):
            session.predict(np.zeros(8, dtype=np.float32))

    def test_serving_stats_accumulate(self):
        session = InferenceSession(_tiny_model(), max_batch=2)
        session.predict(_inputs(5))
        assert session.samples_served == 5
        assert session.batches_served == 3  # ceil(5 / 2)


class TestConcurrentSessions:
    """Two sessions forwarding at once must not share any buffers."""

    CALLS = 500

    @pytest.mark.parametrize("compile", [True, False])
    def test_two_models_on_two_threads_match_serial_answers(self, compile):
        models = [_tiny_model(),
                  SimpleCNN(num_classes=4, neuron_type="linear", base_width=4,
                            image_size=8, seed=5)]
        batches = [_inputs(2, seed=seed) for seed in range(4)]
        sessions = [InferenceSession(model, compile=compile) for model in models]
        references = [[session.predict(x) for x in batches] for session in sessions]
        mismatches = [0, 0]
        errors = []

        def hammer(index):
            session, expected = sessions[index], references[index]
            try:
                for call in range(self.CALLS):
                    which = call % len(batches)
                    if not np.array_equal(session.predict(batches[which]),
                                          expected[which]):
                        mismatches[index] += 1
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(index,))
                       for index in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert mismatches == [0, 0]


class TestPipeline:
    def test_softmax_rows_sum_to_one(self):
        logits = np.array([[1.0, 2.0, 3.0], [1000.0, 1000.0, -1000.0]])
        probabilities = softmax(logits)
        np.testing.assert_allclose(probabilities.sum(-1), [1.0, 1.0])
        assert np.isfinite(probabilities).all()

    def test_top_k_sorted_and_deterministic_on_ties(self):
        indices, values = top_k(np.array([[0.2, 0.5, 0.2, 0.1]]), 3)
        assert indices[0].tolist() == [1, 0, 2]  # tie 0.2/0.2 → ascending index
        np.testing.assert_allclose(values[0], [0.5, 0.2, 0.2])

    def test_top_k_clamped_to_num_classes(self):
        indices, _ = top_k(np.array([[0.6, 0.4]]), 99)
        assert indices.shape == (1, 2)

    def test_normalization_applied_from_bundle(self, bundle_path):
        bundle = repro.load_bundle(bundle_path)
        predictor = Predictor(bundle)
        raw = _inputs(3)
        normalized = (raw - np.float32(0.25)) / np.float32(2.0)
        np.testing.assert_array_equal(
            predictor.predict_logits(raw),
            predictor.predict_logits(normalized, normalize=False))

    def test_single_sample_promoted_to_batch(self, bundle_path):
        predictor = repro.load(bundle_path, warm=False)
        records = predictor.predict_topk(_inputs(1)[0], k=2)
        assert len(records) == 1
        assert records[0]["label"] in ("cat", "dog", "ship", "truck")
        assert len(records[0]["top_k"]) == 2

    def test_wrong_shape_rejected(self, bundle_path):
        predictor = repro.load(bundle_path, warm=False)
        with pytest.raises(ValueError, match="does not match"):
            predictor.predict(np.zeros((2, 3, 5, 5), dtype=np.float32))

    def test_pipeline_without_metadata_passes_through(self):
        records = Predictor(_tiny_model()).predict_topk(_inputs(2), k=1)
        assert [r["label"].startswith("class_") for r in records] == [True, True]


class TestTopLevelAPI:
    def test_repro_load_predict(self, bundle_path):
        predictor = repro.load(bundle_path)
        classes = predictor.predict(_inputs(4))
        assert classes.shape == (4,)
        assert set(classes) <= {0, 1, 2, 3}
        probabilities = predictor.predict_proba(_inputs(4))
        np.testing.assert_allclose(probabilities.sum(-1), np.ones(4))

    def test_describe_reports_model_and_shape(self, bundle_path):
        info = repro.load(bundle_path, warm=False).describe()
        assert info["model"] == "simple_cnn"
        assert info["input_shape"] == [3, 8, 8]
        assert info["num_classes"] == 4
        assert info["parameters"] > 0


@pytest.fixture
def http_server(bundle_path):
    predictor = repro.load(bundle_path, warm=False)
    server = make_server({"default": predictor}, port=0, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", predictor
    server.shutdown()
    server.server_close()


def _post_json(url: str, payload: dict) -> dict:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=body,
                                     headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.load(response)


class TestHTTP:
    def test_describe_model(self, http_server):
        base, _ = http_server
        with urllib.request.urlopen(f"{base}/v1/models/default",
                                    timeout=30) as response:
            payload = json.load(response)
        assert payload["name"] == "default"
        assert payload["model"] == "simple_cnn"
        assert payload["input_shape"] == [3, 8, 8]

    def test_predict_matches_in_process_answer(self, http_server):
        base, predictor = http_server
        inputs = _inputs(3)
        response = _post_json(f"{base}/v1/models/default/predict",
                              {"inputs": inputs.tolist(), "top_k": 2})
        assert response["count"] == 3
        http_classes = [record["class_index"] for record in response["predictions"]]
        assert http_classes == predictor.predict(inputs).tolist()
        assert all(len(record["top_k"]) == 2 for record in response["predictions"])

    def test_concurrent_requests_share_one_session_safely(self, http_server):
        base, predictor = http_server
        inputs = _inputs(2)
        expected = predictor.predict(inputs).tolist()
        results, errors = [], []

        def hit():
            try:
                response = _post_json(f"{base}/v1/models/default/predict",
                                      {"inputs": inputs.tolist()})
                results.append([r["class_index"] for r in response["predictions"]])
            except Exception as error:  # noqa: BLE001 — collected for assertion
                errors.append(error)

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert results == [expected] * 8

    @pytest.mark.parametrize("body,fragment", [
        (b"{not json", "Expecting"),
        (b"{}", "inputs"),
        (b"[1, 2, 3]", "inputs"),
    ])
    def test_malformed_requests_get_400(self, http_server, body, fragment):
        base, _ = http_server
        request = urllib.request.Request(f"{base}/v1/models/default/predict", data=body)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert fragment in json.load(excinfo.value)["error"]

    def test_wrong_shape_gets_400(self, http_server):
        base, _ = http_server
        request = urllib.request.Request(
            f"{base}/v1/models/default/predict",
            data=json.dumps({"inputs": [[1.0, 2.0]]}).encode())
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert "does not match" in json.load(excinfo.value)["error"]

    def test_make_server_needs_a_router_or_a_mapping(self, http_server):
        _, predictor = http_server
        with pytest.raises(TypeError, match="'default': predictor"):
            make_server(predictor, port=0, quiet=True)

    def test_unknown_path_gets_404(self, http_server):
        base, _ = http_server
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/nope", timeout=30)
        assert excinfo.value.code == 404

    def test_keep_alive_connection_survives_error_responses(self, http_server):
        """Error paths must drain the request body, or the unread bytes
        poison the next request on the same keep-alive connection."""
        import http.client

        base, predictor = http_server
        host, port = base.removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            # 404 with a body left behind would corrupt the next request.
            connection.request("POST", "/nope", body=b'{"inputs": [1, 2, 3]}')
            response = connection.getresponse()
            assert response.status == 404 and response.read()
            connection.request("GET", "/v1/models")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["default"] == "default"
            # A 400 (bad JSON) must equally leave the connection clean.
            connection.request("POST", "/v1/models/default/predict",
                               body=b"{broken")
            response = connection.getresponse()
            assert response.status == 400 and response.read()
            inputs = _inputs(1)
            connection.request("POST", "/v1/models/default/predict",
                               body=json.dumps({"inputs": inputs.tolist()}).encode())
            response = connection.getresponse()
            assert response.status == 200
            payload = json.loads(response.read())
            assert payload["predictions"][0]["class_index"] == \
                predictor.predict(inputs).tolist()[0]
        finally:
            connection.close()

    def test_chunked_body_gets_411_and_closes_the_connection(self, http_server):
        """A chunked body is not decoded; replying without draining it would
        leave chunk bytes to corrupt the next request, so the server refuses
        it with 411 and closes the connection.

        A raw socket, because the server may answer and close before the
        body is written: ``http.client`` then raises ``BrokenPipeError`` from
        the body write before the reply can be read."""
        import http.client

        base, _ = http_server
        host, port = base.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            sock.sendall(b"POST /v1/models/default/predict HTTP/1.1\r\n"
                         b"Host: " + host.encode() + b"\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Transfer-Encoding: chunked\r\n\r\n")
            try:
                sock.sendall(b'b\r\n{"inputs": \r\n3\r\n[]}\r\n0\r\n\r\n')
            except (BrokenPipeError, ConnectionResetError):
                pass  # the 411 and the close may already be out
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 411
            assert "Transfer-Encoding" in json.loads(response.read())["error"]
            assert response.will_close
            try:  # the server closed its end: end of stream, or a reset
                closed = sock.recv(1) == b""  # if the body write hit it
            except ConnectionResetError:
                closed = True
            assert closed
        with urllib.request.urlopen(f"{base}/v1/models", timeout=30) as response:
            assert response.status == 200
            assert json.load(response)["default"] == "default"

    def test_accepted_sockets_disable_nagle(self, http_server, monkeypatch):
        """Headers and body leave in two writes; with Nagle on, the body
        waits for the client's delayed ACK on every keep-alive response."""
        nodelay = []
        setup = PredictionHandler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(PredictionHandler, "setup", recording_setup)
        base, _ = http_server
        with urllib.request.urlopen(f"{base}/v1/models", timeout=30) as response:
            assert response.status == 200
        assert len(nodelay) == 1 and nodelay[0] != 0


class TestCLI:
    def test_predict_with_random_inputs(self, capsys, bundle_path, tmp_path):
        output = tmp_path / "predictions.json"
        assert cli.main(["predict", str(bundle_path), "--random", "3",
                         "--top-k", "2", "--output", str(output)]) == 0
        document = json.loads(output.read_text())
        assert document["count"] == 3
        assert document["model"] == "simple_cnn"
        assert len(document["predictions"][0]["top_k"]) == 2
        assert json.loads(capsys.readouterr().out) == document

    def test_predict_from_npy_matches_api(self, capsys, bundle_path, tmp_path):
        inputs = _inputs(2, seed=9)
        npy = tmp_path / "inputs.npy"
        np.save(npy, inputs)
        assert cli.main(["predict", str(bundle_path), "--input", str(npy)]) == 0
        document = json.loads(capsys.readouterr().out)
        expected = repro.load(bundle_path, warm=False).predict(inputs).tolist()
        assert [p["class_index"] for p in document["predictions"]] == expected

    def test_predict_seeded_random_is_reproducible(self, capsys, bundle_path):
        assert cli.main(["predict", str(bundle_path), "--random", "2",
                         "--seed", "4"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["predict", str(bundle_path), "--random", "2",
                         "--seed", "4"]) == 0
        assert capsys.readouterr().out == first

    def test_predict_missing_bundle_fails_cleanly(self, capsys, tmp_path):
        assert cli.main(["predict", str(tmp_path / "missing.npz"),
                         "--random", "1"]) == 1
        assert "error" in capsys.readouterr().err


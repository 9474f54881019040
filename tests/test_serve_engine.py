"""Serving engines: direct vs batched scheduling, the router, the v1 HTTP API."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import cli
from repro.models import SimpleCNN
from repro.nn.module import Module
from repro.serve import (
    BatchedEngine,
    DirectEngine,
    EngineClosed,
    InferenceSession,
    ModelRouter,
    Predictor,
    QueueFull,
    ServingEngine,
    make_engine,
    make_server,
)


def _tiny_model(seed: int = 3, neuron_type: str = "proposed") -> SimpleCNN:
    rank = {"proposed": 2}.get(neuron_type)
    kwargs = {"rank": rank} if rank is not None else {}
    return SimpleCNN(num_classes=4, neuron_type=neuron_type, base_width=4,
                     image_size=8, seed=seed, **kwargs)


def _inputs(count: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((count, 3, 8, 8)) \
        .astype(np.float32)


class Doubler(Module):
    """Shape-agnostic model: counts forwards, returns ``2 * x``."""

    def __init__(self):
        super().__init__()
        self.forwards = 0

    def forward(self, x):
        self.forwards += 1
        return x * 2


class Exploder(Module):
    def forward(self, x):
        raise ArithmeticError("kaboom")


class TestDirectEngine:
    def test_submit_returns_resolved_future_matching_session(self):
        model = _tiny_model()
        session = InferenceSession(model, max_batch=16)
        engine = DirectEngine(session)
        x = _inputs(5)
        future = engine.submit(x)
        assert future.done()
        np.testing.assert_array_equal(
            future.result(), InferenceSession(model, max_batch=16).predict(x))

    def test_stats_accumulate(self):
        engine = DirectEngine(InferenceSession(_tiny_model(), max_batch=8))
        engine.predict(_inputs(3))
        engine.predict(_inputs(2))
        stats = engine.stats()
        assert stats["engine"] == "direct"
        assert stats["requests"] == 2
        assert stats["samples"] == 5

    def test_closed_engine_rejects_submissions(self):
        engine = DirectEngine(InferenceSession(_tiny_model()))
        engine.close()
        with pytest.raises(EngineClosed):
            engine.submit(_inputs(1))

    def test_forward_errors_delivered_via_future(self):
        engine = DirectEngine(InferenceSession(Doubler(), strict_no_graph=False))
        with pytest.raises(ValueError, match="batched"):
            engine.submit(np.zeros(3, dtype=np.float32)).result()


class TestMakeEngine:
    def test_resolves_names_and_instances(self):
        session = InferenceSession(_tiny_model())
        assert isinstance(make_engine("direct", session), DirectEngine)
        assert isinstance(make_engine(None, session), DirectEngine)
        batched = make_engine("batched", session, max_wait_ms=1.0, queue_size=7)
        try:
            assert isinstance(batched, BatchedEngine)
            assert batched.max_wait_ms == 1.0
            assert batched.queue_size == 7
            assert batched.max_batch == session.max_batch
        finally:
            batched.close()
        custom = DirectEngine(session)
        assert make_engine(custom, session) is custom

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown serving engine"):
            make_engine("gpu", InferenceSession(_tiny_model()))

    def test_custom_subclass_plugs_into_predictor(self):
        class Recording(DirectEngine):
            name = "recording"

            def submit(self, inputs):
                self.seen = len(inputs)
                return super().submit(inputs)

        model = _tiny_model()
        predictor = Predictor(model, input_shape=(3, 8, 8))
        predictor_custom = Predictor(model, input_shape=(3, 8, 8),
                                     engine=Recording(predictor.session))
        x = _inputs(3)
        np.testing.assert_array_equal(predictor_custom.predict(x),
                                      predictor.predict(x))
        assert predictor_custom.engine.seen == 3
        assert predictor_custom.describe()["engine"] == "recording"


class TestBatchedEngine:
    def test_single_request_round_trip(self):
        model = _tiny_model()
        session = InferenceSession(model, max_batch=16)
        with BatchedEngine(session, max_wait_ms=1.0) as engine:
            x = _inputs(4)
            np.testing.assert_array_equal(
                engine.predict(x, timeout=30),
                InferenceSession(model, max_batch=16).predict(x))

    def test_concurrent_clients_byte_identical_to_sequential_direct(self):
        """N client threads through the batcher == sequential direct calls.

        Requests carry exactly ``max_batch`` rows so the session chunks every
        fused batch at request boundaries — fused execution is then
        byte-identical to per-request execution by construction.
        """
        model = _tiny_model()
        rows, clients, per_client = 4, 8, 5
        direct = DirectEngine(InferenceSession(model, max_batch=rows))
        batched = BatchedEngine(InferenceSession(model, max_batch=rows),
                                max_wait_ms=5.0, queue_size=256)
        requests = {(c, i): _inputs(rows, seed=97 * c + i)
                    for c in range(clients) for i in range(per_client)}
        expected = {key: direct.predict(x) for key, x in requests.items()}

        results, errors = {}, []
        barrier = threading.Barrier(clients)

        def client(c):
            try:
                barrier.wait()
                futures = [(i, batched.submit(requests[c, i]))
                           for i in range(per_client)]
                for i, future in futures:
                    results[c, i] = future.result(timeout=60)
            except Exception as error:  # noqa: BLE001 — asserted below
                errors.append(error)

        threads = [threading.Thread(target=client, args=(c,))
                   for c in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        batched.close()
        assert not errors
        assert len(results) == clients * per_client
        for key, value in results.items():
            np.testing.assert_array_equal(value, expected[key])

    def test_coalesces_queued_requests_into_one_fused_forward(self):
        session = InferenceSession(_tiny_model(), max_batch=64)
        engine = BatchedEngine(session, max_wait_ms=50.0, autostart=False)
        futures = [engine.submit(_inputs(1, seed=i)) for i in range(6)]
        engine.start()
        for future in futures:
            assert future.result(timeout=30).shape == (1, 4)
        stats = engine.stats()
        engine.close()
        assert stats["batches"] == 1
        assert stats["samples"] == 6
        assert stats["mean_batch_rows"] == 6.0
        assert stats["requests"] == 6

    def test_mixed_request_sizes_agree_with_direct_to_float_tolerance(self):
        model = _tiny_model()
        direct = DirectEngine(InferenceSession(model, max_batch=64))
        engine = BatchedEngine(InferenceSession(model, max_batch=64),
                               max_wait_ms=50.0, autostart=False)
        requests = [_inputs(n, seed=10 + n) for n in (1, 3, 2)]
        futures = [engine.submit(x) for x in requests]
        engine.start()
        for x, future in zip(requests, futures):
            got = future.result(timeout=30)
            want = direct.predict(x)
            np.testing.assert_allclose(got, want, atol=1e-5)
            np.testing.assert_array_equal(got.argmax(-1), want.argmax(-1))
        engine.close()

    def test_heterogeneous_shapes_grouped_per_geometry(self):
        session = InferenceSession(Doubler(), strict_no_graph=False)
        engine = BatchedEngine(session, max_wait_ms=50.0, autostart=False)
        wide = np.arange(10, dtype=np.float32).reshape(2, 5)
        narrow = np.arange(6, dtype=np.float32).reshape(2, 3)
        futures = [engine.submit(wide), engine.submit(narrow)]
        engine.start()
        np.testing.assert_array_equal(futures[0].result(timeout=30), wide * 2)
        np.testing.assert_array_equal(futures[1].result(timeout=30), narrow * 2)
        engine.close()

    def test_queue_full_raises_429_material(self):
        engine = BatchedEngine(InferenceSession(_tiny_model()), queue_size=2,
                               autostart=False)
        engine.submit(_inputs(1))
        engine.submit(_inputs(1))
        with pytest.raises(QueueFull, match="retry"):
            engine.submit(_inputs(1))
        engine.close()

    def test_per_request_timeout(self):
        engine = BatchedEngine(InferenceSession(_tiny_model()), autostart=False)
        with pytest.raises(TimeoutError, match="did not answer"):
            engine.predict(_inputs(1), timeout=0.05)
        engine.close()

    def test_close_fails_queued_futures_with_clear_error(self):
        engine = BatchedEngine(InferenceSession(_tiny_model()), autostart=False)
        futures = [engine.submit(_inputs(1, seed=i)) for i in range(3)]
        engine.close()
        for future in futures:
            with pytest.raises(EngineClosed, match="shutting down"):
                future.result(timeout=5)
        with pytest.raises(EngineClosed):
            engine.submit(_inputs(1))
        engine.close()  # idempotent

    def test_close_finishes_inflight_batch_but_fails_queued(self):
        import time

        class Slow(Module):
            def forward(self, x):
                time.sleep(0.15)
                return x * 2

        session = InferenceSession(Slow(), strict_no_graph=False)
        engine = BatchedEngine(session, max_batch=1, max_wait_ms=0.0,
                               queue_size=64)
        first = engine.submit(np.ones((1, 2), dtype=np.float32))
        time.sleep(0.05)  # let the scheduler take `first` into flight
        queued = [engine.submit(np.ones((1, 2), dtype=np.float32))
                  for _ in range(5)]
        engine.close()
        # The batch in flight completes; everything still queued fails
        # instead of being served during shutdown.
        np.testing.assert_array_equal(
            first.result(timeout=5), np.full((1, 2), 2.0, dtype=np.float32))
        for future in queued:
            with pytest.raises(EngineClosed, match="shutting down"):
                future.result(timeout=5)

    def test_forward_errors_isolated_to_their_batch(self):
        session = InferenceSession(Exploder(), strict_no_graph=False)
        with BatchedEngine(session, max_wait_ms=1.0) as engine:
            with pytest.raises(ArithmeticError, match="kaboom"):
                engine.predict(_inputs(2), timeout=30)
            # The scheduler survives a failing forward and keeps serving.
            with pytest.raises(ArithmeticError, match="kaboom"):
                engine.predict(_inputs(1), timeout=30)

    def test_scheduler_survives_batch_assembly_failures(self, monkeypatch):
        """An error outside the forward (e.g. OOM in np.concatenate) must
        fail that batch's futures, not kill the scheduler silently."""
        engine = BatchedEngine(InferenceSession(Doubler(), strict_no_graph=False),
                               max_wait_ms=50.0, autostart=False)
        monkeypatch.setattr("repro.serve.batching.np.concatenate",
                            lambda *args, **kwargs: (_ for _ in ()).throw(
                                MemoryError("simulated OOM")))
        futures = [engine.submit(np.ones((1, 2), dtype=np.float32))
                   for _ in range(2)]
        engine.start()
        for future in futures:
            with pytest.raises(MemoryError, match="simulated"):
                future.result(timeout=5)
        # A single-request batch needs no concatenate — the scheduler lives on.
        np.testing.assert_array_equal(
            engine.predict(np.ones((1, 2), dtype=np.float32), timeout=5),
            np.full((1, 2), 2.0, dtype=np.float32))
        engine.close()

    def test_crashed_scheduler_fails_futures_and_closes(self, monkeypatch):
        engine = BatchedEngine(InferenceSession(Doubler(), strict_no_graph=False),
                               max_wait_ms=1.0, autostart=False)
        monkeypatch.setattr(engine, "_handle_batch",
                            lambda batch: (_ for _ in ()).throw(
                                RuntimeError("scheduler bug")))
        future = engine.submit(np.ones((1, 2), dtype=np.float32))
        engine.start()
        # The loop-level guard fails the in-flight batch, closes the engine
        # and drains the queue rather than stranding clients silently.
        with pytest.raises(RuntimeError, match="scheduler bug"):
            future.result(timeout=5)
        engine._thread.join(timeout=5)
        assert engine.stats()["closed"] is True
        with pytest.raises(EngineClosed):
            engine.submit(np.ones((1, 2), dtype=np.float32))

    def test_cancelled_requests_are_skipped(self):
        engine = BatchedEngine(InferenceSession(Doubler(), strict_no_graph=False),
                               max_wait_ms=50.0, autostart=False)
        cancelled = engine.submit(np.ones((1, 2), dtype=np.float32))
        live = engine.submit(np.full((1, 2), 3.0, dtype=np.float32))
        assert cancelled.cancel()
        engine.start()
        np.testing.assert_array_equal(live.result(timeout=30),
                                      np.full((1, 2), 6.0, dtype=np.float32))
        engine.close()
        assert cancelled.cancelled()

    def test_validates_constructor_and_inputs(self):
        session = InferenceSession(_tiny_model())
        with pytest.raises(ValueError, match="max_wait_ms"):
            BatchedEngine(session, max_wait_ms=-1)
        with pytest.raises(ValueError, match="queue_size"):
            BatchedEngine(session, queue_size=0)
        with BatchedEngine(session, max_wait_ms=1.0) as engine:
            with pytest.raises(ValueError, match="batched"):
                engine.submit(np.zeros(8, dtype=np.float32))

    def test_base_engine_is_abstract(self):
        engine = ServingEngine()
        with pytest.raises(NotImplementedError):
            engine.submit(_inputs(1))
        with pytest.raises(NotImplementedError):
            engine.stats()


class TestThreadLocalGradMode:
    def test_no_grad_exit_on_one_thread_cannot_reenable_another(self):
        """The race the engines exposed: concurrent forwards on different
        threads must not flip each other's gradient switch mid-flight."""
        from repro.tensor import no_grad
        from repro.tensor.engine import is_grad_enabled

        entered = threading.Event()
        release = threading.Event()
        observed = {}

        def inference_thread():
            with no_grad():
                entered.set()
                release.wait(5)
                observed["still_disabled"] = not is_grad_enabled()

        thread = threading.Thread(target=inference_thread)
        thread.start()
        assert entered.wait(5)
        with no_grad():  # enter+exit while the other thread is mid-block
            pass
        assert is_grad_enabled()  # this thread restored to enabled
        release.set()
        thread.join()
        assert observed["still_disabled"]


class TestWarmIdempotent:
    def test_double_warm_skips_redundant_forwards(self):
        model = Doubler()
        # compile=False: these tests pin dispatch-level forward counts, and
        # compilation would serve re-warms from the plan cache instead.
        session = InferenceSession(model, strict_no_graph=False, compile=False)
        assert session.warm(input_shape=(2,), batch_sizes=(4, 1)) is True
        first = model.forwards
        assert session.warm(input_shape=(2,), batch_sizes=(4, 1)) is True
        assert model.forwards == first  # idempotent: no redundant rebuild
        assert session.warm(input_shape=(2,), batch_sizes=(4, 1),
                            force=True) is True
        assert model.forwards == 2 * first
        session.warm(input_shape=(3,))  # a new shape does warm
        assert model.forwards == 2 * first + 1

    def test_concurrent_warms_run_once(self):
        model = Doubler()
        session = InferenceSession(model, strict_no_graph=False, compile=False)
        barrier = threading.Barrier(8)

        def warm():
            barrier.wait()
            session.warm(input_shape=(2,), batch_sizes=(4,))

        threads = [threading.Thread(target=warm) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert model.forwards == 1


class TestQueuedStatsSchema:
    """Every queued engine reports the schema ARCHITECTURE.md documents."""

    SHARED_KEYS = {"engine", "requests", "samples", "batches",
                   "mean_batch_rows", "queue_depth", "queue_size",
                   "max_batch", "max_wait_ms", "closed"}

    def test_batched_and_pool_share_the_queued_key_names(self, tmp_path):
        from repro.io import save_bundle
        from repro.serve import ProcessPoolEngine

        bundle = save_bundle(tmp_path / "model.npz", _tiny_model(),
                             info={"input_shape": [3, 8, 8]})
        batched = BatchedEngine(InferenceSession(_tiny_model(), max_batch=8),
                                max_wait_ms=0.5)
        pool = ProcessPoolEngine(InferenceSession(bundle, max_batch=8),
                                 workers=1, max_wait_ms=0.5)
        try:
            for engine in (batched, pool):
                engine.predict(_inputs(3), timeout=60)
            batched_stats, pool_stats = batched.stats(), pool.stats()
        finally:
            pool.close()
            batched.close()
        for stats in (batched_stats, pool_stats):
            assert self.SHARED_KEYS <= set(stats)
            assert stats["mean_batch_rows"] == 3.0
            assert stats["queue_depth"] == 0
            assert stats["requests"] == 1 and stats["samples"] == 3
        # The pool adds its multi-process detail on top of the shared schema.
        assert pool_stats["engine"] == "pool"
        assert pool_stats["workers"] == 1
        assert pool_stats["restarts"] == 0
        assert len(pool_stats["per_worker"]) == 1
        assert pool_stats["plan_cache"]["plans"] >= 1


class TestModelRouter:
    def _router(self):
        quad = Predictor(_tiny_model(seed=3), input_shape=(3, 8, 8))
        linear = Predictor(_tiny_model(seed=5, neuron_type="linear"),
                           input_shape=(3, 8, 8))
        return ModelRouter({"quad": quad, "linear": linear})

    def test_first_model_is_default(self):
        router = self._router()
        assert router.default_name == "quad"
        assert router.get() is router.get("quad")
        assert router.names() == ["quad", "linear"]
        assert "linear" in router and len(router) == 2

    def test_set_default_and_promote_on_add(self):
        router = self._router()
        router.set_default("linear")
        assert router.default is router.get("linear")
        router.add("third", router.get("quad"), default=True)
        assert router.default_name == "third"

    def test_unknown_model_lists_available(self):
        with pytest.raises(KeyError, match="quad"):
            self._router().get("nope")
        with pytest.raises(KeyError, match="available models: none"):
            ModelRouter().get()

    def test_invalid_names_rejected(self):
        router = ModelRouter()
        with pytest.raises(ValueError, match="URL segment"):
            router.add("a/b", object())
        with pytest.raises(ValueError):
            router.add("", object())

    def test_describe_and_stats_cover_every_model(self):
        router = self._router()
        description = router.describe()
        assert [model["name"] for model in description["models"]] == \
            ["quad", "linear"]
        assert [model["default"] for model in description["models"]] == \
            [True, False]
        assert description["default"] == "quad"
        assert set(router.stats()) == {"quad", "linear"}

    def test_close_closes_every_engine(self):
        router = self._router()
        router.close()
        for name in router.names():
            with pytest.raises(EngineClosed):
                router.get(name).predict_logits(_inputs(1))


@pytest.fixture
def multi_server():
    quad = Predictor(_tiny_model(seed=3), input_shape=(3, 8, 8),
                     engine="batched", max_wait_ms=1.0)
    linear = Predictor(_tiny_model(seed=5, neuron_type="linear"),
                       input_shape=(3, 8, 8))
    router = ModelRouter({"quad": quad, "linear": linear})
    server = make_server(router, port=0, quiet=True, request_timeout=30)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", router
    server.shutdown()
    router.close()
    server.server_close()


def _post_json(url: str, payload: dict) -> dict:
    request = urllib.request.Request(url, data=json.dumps(payload).encode(),
                                     headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.load(response)


class TestHTTPMultiModel:
    def test_v1_models_lists_every_mounted_model(self, multi_server):
        base, _ = multi_server
        payload = json.load(urllib.request.urlopen(f"{base}/v1/models", timeout=30))
        assert [model["name"] for model in payload["models"]] == ["quad", "linear"]
        assert payload["default"] == "quad"
        engines = {model["name"]: model["engine"] for model in payload["models"]}
        assert engines == {"quad": "batched", "linear": "direct"}

    def test_v1_predict_routes_per_model(self, multi_server):
        base, router = multi_server
        x = _inputs(3)
        for name in ("quad", "linear"):
            response = _post_json(f"{base}/v1/models/{name}/predict",
                                  {"inputs": x.tolist()})
            assert response["model"] == name
            assert [r["class_index"] for r in response["predictions"]] == \
                router.get(name).predict(x).tolist()

    def test_v1_describe_single_model(self, multi_server):
        base, _ = multi_server
        payload = json.load(urllib.request.urlopen(
            f"{base}/v1/models/linear", timeout=30))
        assert payload["name"] == "linear"
        assert payload["engine"] == "direct"

    def test_legacy_shims_route_to_default_model(self, multi_server):
        """/v1/models names the default model, which answers on its own
        v1 route."""
        base, router = multi_server
        default = json.load(urllib.request.urlopen(
            f"{base}/v1/models", timeout=30))["default"]
        assert default == "quad"
        x = _inputs(2)
        response = _post_json(f"{base}/v1/models/{default}/predict",
                              {"inputs": x.tolist()})
        assert response["model"] == "quad"
        assert [r["class_index"] for r in response["predictions"]] == \
            router.default.predict(x).tolist()

    def test_v1_stats_reports_scheduling_counters(self, multi_server):
        base, _ = multi_server
        _post_json(f"{base}/v1/models/quad/predict",
                   {"inputs": _inputs(2).tolist()})
        stats = json.load(urllib.request.urlopen(f"{base}/v1/stats", timeout=30))
        quad = stats["models"]["quad"]["scheduler"]
        assert quad["engine"] == "batched"
        assert quad["requests"] >= 1
        assert quad["samples"] >= 2
        assert stats["models"]["linear"]["scheduler"]["engine"] == "direct"

    def test_url_encoded_model_names_resolve(self, multi_server):
        base, router = multi_server
        router.add("my model", router.get("linear"))
        x = _inputs(2)
        response = _post_json(f"{base}/v1/models/my%20model/predict",
                              {"inputs": x.tolist()})
        assert response["model"] == "my model"
        assert [r["class_index"] for r in response["predictions"]] == \
            router.get("linear").predict(x).tolist()
        described = json.load(urllib.request.urlopen(
            f"{base}/v1/models/my%20model", timeout=30))
        assert described["name"] == "my model"

    def test_unknown_model_404_lists_names(self, multi_server):
        base, _ = multi_server
        request = urllib.request.Request(
            f"{base}/v1/models/nope/predict",
            data=json.dumps({"inputs": _inputs(1).tolist()}).encode())
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 404
        assert "quad" in json.load(excinfo.value)["error"]

    def test_concurrent_storm_across_models_is_correct(self, multi_server):
        base, router = multi_server
        x = _inputs(2)
        expected = {name: router.get(name).predict(x).tolist()
                    for name in ("quad", "linear")}
        results, errors = [], []

        def hit(name):
            try:
                response = _post_json(f"{base}/v1/models/{name}/predict",
                                      {"inputs": x.tolist()})
                results.append(
                    (name, [r["class_index"] for r in response["predictions"]]))
            except Exception as error:  # noqa: BLE001 — collected for assertion
                errors.append(error)

        threads = [threading.Thread(target=hit, args=(name,))
                   for name in ("quad", "linear") * 6]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 12
        for name, classes in results:
            assert classes == expected[name]


class TestHTTPBackpressure:
    @pytest.fixture
    def jammed_server(self):
        """One-slot queue, no scheduler: requests time out (504) or bounce (429)."""
        session = InferenceSession(_tiny_model(), max_batch=8)
        engine = BatchedEngine(session, queue_size=1, autostart=False)
        predictor = Predictor(_tiny_model(), input_shape=(3, 8, 8), engine=engine)
        server = make_server({"default": predictor}, port=0, quiet=True,
                             request_timeout=0.2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}", engine
        server.shutdown()
        engine.close()
        server.server_close()

    def _post_expecting_error(self, base, code):
        request = urllib.request.Request(
            f"{base}/v1/models/default/predict",
            data=json.dumps({"inputs": _inputs(1).tolist()}).encode())
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == code
        return json.load(excinfo.value)["error"]

    def test_timeout_504_then_queue_full_429_then_drain_503(self, jammed_server):
        base, engine = jammed_server
        # The scheduler never runs: the first request occupies the only queue
        # slot until the server's 0.2s request timeout fires.
        assert "did not answer" in self._post_expecting_error(base, 504)
        # The slot is still occupied, so the next request bounces immediately.
        assert "queue is full" in self._post_expecting_error(base, 429)
        # Draining for shutdown turns further requests into 503s.
        engine.close()
        assert "closed" in self._post_expecting_error(base, 503)


class TestServeEntrypoint:
    def test_serve_runs_multi_model_and_drains_on_shutdown(self, tmp_path):
        from repro.io import save_bundle
        from repro.serve.http import serve

        info = {"normalization": {"mean": 0.0, "std": 1.0},
                "classes": ["a", "b", "c", "d"], "input_shape": [3, 8, 8]}
        quad = save_bundle(tmp_path / "quad.npz", _tiny_model(seed=3), info=info)
        linear = save_bundle(tmp_path / "lin.npz",
                             _tiny_model(seed=5, neuron_type="linear"), info=info)

        captured = {}
        done = threading.Event()

        def run():
            serve(models={"quad": quad, "linear": linear}, port=0, quiet=True,
                  engine="batched", max_wait_ms=1.0, default_model="linear",
                  ready=lambda server: (captured.update(server=server)))
            done.set()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        for _ in range(100):
            if "server" in captured:
                break
            done.wait(0.05)
        server = captured["server"]
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        payload = json.load(urllib.request.urlopen(f"{base}/v1/models", timeout=30))
        assert payload["default"] == "linear"
        assert {model["name"] for model in payload["models"]} == {"quad", "linear"}
        response = _post_json(f"{base}/v1/models/quad/predict",
                              {"inputs": _inputs(1).tolist()})
        assert response["count"] == 1

        server.shutdown()
        assert done.wait(10)
        # serve()'s finally-block drained the router: engines reject new work.
        with pytest.raises(EngineClosed):
            server.router.get("quad").predict_logits(_inputs(1))

    def test_serve_requires_a_model(self):
        from repro.serve.http import serve

        with pytest.raises(ValueError, match="name=bundle"):
            serve(models={})

    def test_serve_rejects_model_colliding_with_positional_bundle(self, capsys):
        # The positional bundle is the model named 'default'.
        assert cli.main(["serve", "a.npz", "--model", "default=b.npz"]) == 1
        assert "'default' given twice" in capsys.readouterr().err


class TestCLIServeParsing:
    def test_model_specs_parsed(self):
        assert cli._parse_model_specs(["a=x.npz", "b=y.npz"]) == \
            {"a": "x.npz", "b": "y.npz"}

    def test_bad_model_spec_rejected(self, capsys):
        assert cli.main(["serve", "--model", "nonsense"]) == 1
        assert "NAME=BUNDLE" in capsys.readouterr().err

    def test_duplicate_model_name_rejected(self, capsys):
        assert cli.main(["serve", "--model", "a=x", "--model", "a=y"]) == 1
        assert "twice" in capsys.readouterr().err

    def test_serve_without_models_errors(self, capsys):
        assert cli.main(["serve"]) == 2
        assert "--model" in capsys.readouterr().err


class TestBenchServing:
    def test_serving_benchmark_shape_and_gate(self):
        from repro import bench

        result = bench.serving_benchmarks(rounds=1, warmup=0, clients=4,
                                          requests_per_client=4)
        assert result["clients"] == 4
        assert result["direct_rps"] > 0 and result["batched_rps"] > 0
        assert "speedup" in result
        summary = {"serving": result}
        # The gate reads this summary shape; an impossible floor trips it.
        assert bench.check_gates(summary, {"serving": 10_000.0})
        assert bench.check_gates({"serving": {}}, {"serving": 1.0}) == \
            ["serving benchmark missing from the summary"]

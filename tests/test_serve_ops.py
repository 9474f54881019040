"""Control plane: hot reload, canary/shadow routing, histograms, admin API."""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import cli
from repro.io import save_bundle
from repro.models import SimpleCNN
from repro.serve import (
    EngineClosed,
    LatencyHistogram,
    ManagedModel,
    ModelOverloaded,
    ModelRouter,
    Predictor,
    QueueFull,
    load,
    make_engine,
    make_server,
)
from repro.serve.metrics import DEFAULT_BOUNDS_MS


def _tiny_model(seed: int = 3, neuron_type: str = "proposed") -> SimpleCNN:
    rank = {"proposed": 2}.get(neuron_type)
    kwargs = {"rank": rank} if rank is not None else {}
    return SimpleCNN(num_classes=4, neuron_type=neuron_type, base_width=4,
                     image_size=8, seed=seed, **kwargs)


def _inputs(count: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((count, 3, 8, 8)) \
        .astype(np.float32)


_INFO = {"normalization": {"mean": 0.0, "std": 1.0},
         "classes": ["a", "b", "c", "d"], "input_shape": [3, 8, 8]}


@pytest.fixture
def bundles(tmp_path):
    """Two bundles that disagree on most inputs (different seeds + neurons)."""
    quad = save_bundle(tmp_path / "quad.npz", _tiny_model(seed=3), info=_INFO)
    linear = save_bundle(tmp_path / "lin.npz",
                         _tiny_model(seed=5, neuron_type="linear"), info=_INFO)
    return str(quad), str(linear)


def _managed(bundle: str, **kwargs) -> ManagedModel:
    options = {"engine": "direct", "compile": False, "warm": False}
    return ManagedModel(load(bundle, **options), source=bundle,
                        load_options=options, **kwargs)


class TestLatencyHistogram:
    def test_records_seconds_reports_milliseconds(self):
        histogram = LatencyHistogram()
        histogram.record(0.004)  # 4 ms
        summary = histogram.summary()
        assert summary["count"] == 1
        assert summary["min_ms"] == summary["max_ms"] == pytest.approx(4.0)
        assert summary["p50_ms"] == pytest.approx(4.0)

    def test_percentiles_interpolate_and_clamp_to_observed_range(self):
        histogram = LatencyHistogram()
        for ms in (1.5, 1.5, 1.5, 30.0):  # 3 in (1,2], 1 in (20,50]
            histogram.record(ms / 1000.0)
        assert 1.0 < histogram.percentile(50) <= 2.0
        # The p99 rank lands in the (20, 50] bucket, whose open end is
        # closed at the observed max: never report a latency nobody saw.
        assert histogram.percentile(99) <= 30.0
        assert histogram.percentile(1) >= 1.5

    def test_empty_histogram_reports_zeros(self):
        summary = LatencyHistogram().summary()
        assert summary["count"] == 0
        assert summary["p50_ms"] == summary["p99_ms"] == 0.0
        assert summary["mean_ms"] == 0.0

    def test_bucket_schema_is_bounds_plus_overflow(self):
        histogram = LatencyHistogram()
        histogram.record(999.0)  # way past the last bound → overflow bucket
        buckets = histogram.summary()["buckets"]
        assert [b["le_ms"] for b in buckets] == [*DEFAULT_BOUNDS_MS, None]
        assert buckets[-1]["count"] == 1

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            LatencyHistogram(bounds_ms=(5.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            LatencyHistogram(bounds_ms=())


class TestHotReload:
    def test_reload_swaps_bundle_and_answers_change(self, bundles):
        quad, linear = bundles
        model = _managed(quad)
        try:
            before = model.predict(_inputs(4)).tolist()
            result = model.reload(bundle=linear)
            assert result["status"] == "reloaded"
            assert result["previous_bundle"] == quad
            assert result["drained"] is True
            assert model.bundle_path == linear
            after = model.predict(_inputs(4)).tolist()
            expected = Predictor(_tiny_model(seed=5, neuron_type="linear"),
                                 input_shape=(3, 8, 8)) \
                .predict(_inputs(4), normalize=False).tolist()
            assert after == expected and after != before
        finally:
            model.close()

    def test_reload_closes_the_old_engine(self, bundles):
        model = _managed(bundles[0])
        old_engine = model.engine
        try:
            model.reload()
            assert old_engine.stats()["closed"] is True
            assert model.engine is not old_engine
        finally:
            model.close()

    def test_reload_without_source_requires_explicit_bundle(self):
        model = ManagedModel(Predictor(_tiny_model(), input_shape=(3, 8, 8)))
        try:
            with pytest.raises(ValueError, match="no path to reload"):
                model.reload()
        finally:
            model.close()

    def test_reload_counts_surface_in_stats_as_restarts(self, bundles):
        model = _managed(bundles[0])
        try:
            model.reload()
            model.reload(bundle=bundles[1])
            assert model.stats()["bundle"] == {"path": bundles[1], "reloads": 2}
        finally:
            model.close()

    def test_reload_after_close_raises_engine_closed(self, bundles):
        model = _managed(bundles[0])
        model.close()
        with pytest.raises(EngineClosed):
            model.reload()

    def test_double_close_is_idempotent(self, bundles):
        model = _managed(bundles[0])
        model.close()
        model.close()  # must not raise
        with pytest.raises(EngineClosed):
            model.predict(_inputs(1))


class TestReloadUnderStorm:
    CLIENTS = 8
    REQUESTS_EACH = 12

    def test_zero_failed_requests_across_repeated_reloads(self, bundles):
        """The acceptance criterion: an 8-client storm spanning several hot
        reloads completes with zero errors, every answer is the quad or the
        linear bundle's serial answer for that input, and every retired
        engine is closed without leaking its scheduler thread."""
        quad, linear = bundles
        options = {"engine": "batched", "compile": False, "warm": False,
                   "max_wait_ms": 0.5}
        model = ManagedModel(load(quad, **options), source=quad,
                             load_options=options)
        baseline_threads = sum(
            thread.name.startswith("repro-serve-")
            for thread in threading.enumerate())
        retired_engines = []
        errors: list[Exception] = []
        successes = []
        wrong_answers = []
        serial = {"engine": "direct", "compile": False, "warm": False}
        expected = [[load(bundle, **serial).predict(_inputs(2, seed=i))
                     for bundle in bundles]
                    for i in range(self.REQUESTS_EACH)]
        barrier = threading.Barrier(self.CLIENTS + 1)

        def client():
            try:
                barrier.wait()
                for i in range(self.REQUESTS_EACH):
                    classes = model.predict(_inputs(2, seed=i))
                    successes.append(classes.shape)
                    if not any(np.array_equal(classes, answer)
                               for answer in expected[i]):
                        wrong_answers.append((i, classes))
            except Exception as error:  # noqa: BLE001 — asserted below
                errors.append(error)

        threads = [threading.Thread(target=client) for _ in range(self.CLIENTS)]
        for thread in threads:
            thread.start()
        barrier.wait()
        for bundle in (linear, quad, linear):
            retired_engines.append(model.engine)
            model.reload(bundle=bundle)
        for thread in threads:
            thread.join()

        assert errors == []
        assert len(successes) == self.CLIENTS * self.REQUESTS_EACH
        assert wrong_answers == []
        assert model.stats()["bundle"]["reloads"] == 3
        for engine in retired_engines:
            assert engine.stats()["closed"] is True
        model.close()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            alive = sum(thread.name.startswith("repro-serve-")
                        for thread in threading.enumerate())
            if alive <= baseline_threads:
                break
            time.sleep(0.05)
        assert alive <= baseline_threads, "reloads leaked scheduler threads"


class TestCanaryRouting:
    def test_split_is_deterministic_and_even(self, bundles):
        quad, linear = bundles
        model = _managed(quad)
        try:
            model.set_canary(linear, percent=25.0)
            for _ in range(16):
                model.predict(_inputs(1))
            stats = model.stats()
            assert stats["requests_routed"] == {"primary": 12, "canary": 4}
            assert stats["canary"]["percent"] == 25.0
            assert stats["canary"]["latency"]["count"] == 4
        finally:
            model.close()

    def test_invalid_percent_rejected(self, bundles):
        model = _managed(bundles[0])
        try:
            with pytest.raises(ValueError, match=r"\(0, 100\]"):
                model.set_canary(bundles[1], percent=0.0)
            with pytest.raises(ValueError, match=r"\(0, 100\]"):
                model.set_canary(bundles[1], percent=150.0)
        finally:
            model.close()

    def test_promote_makes_candidate_primary_and_closes_old(self, bundles):
        quad, linear = bundles
        model = _managed(quad)
        old_engine = model.engine
        try:
            model.set_canary(linear, percent=10.0)
            result = model.promote()
            assert result["status"] == "promoted"
            assert model.bundle_path == linear
            assert model.stats()["canary"] is None
            assert old_engine.stats()["closed"] is True
        finally:
            model.close()

    def test_promote_without_canary_is_an_error(self, bundles):
        model = _managed(bundles[0])
        try:
            with pytest.raises(ValueError, match="no canary is staged"):
                model.promote()
        finally:
            model.close()

    def test_clear_canary_keeps_primary(self, bundles):
        quad, linear = bundles
        model = _managed(quad)
        try:
            model.set_canary(linear, percent=50.0)
            result = model.clear_canary()
            assert result["status"] == "canary-cleared"
            assert model.bundle_path == quad
            assert model.stats()["canary"] is None
            assert model.clear_canary()["status"] == "no-canary"
        finally:
            model.close()


class TestShadowRouting:
    def _drain_shadow(self, model, expect: int, timeout: float = 10.0) -> dict:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            counts = model.stats()["canary"]["shadow_stats"]
            if counts["compared"] + counts["errors"] + counts["dropped"] >= expect:
                return counts
            time.sleep(0.02)
        return model.stats()["canary"]["shadow_stats"]

    def test_shadow_compares_but_never_answers(self, bundles):
        quad, linear = bundles
        model = _managed(quad)
        primary = Predictor(_tiny_model(seed=3), input_shape=(3, 8, 8))
        try:
            model.set_canary(linear, shadow=True)
            answers = [model.predict(_inputs(2, seed=i)).tolist()
                       for i in range(5)]
            # Every answer came from the primary — the shadow never routes.
            expected = [primary.predict(_inputs(2, seed=i),
                                        normalize=False).tolist()
                        for i in range(5)]
            assert answers == expected
            assert model.stats()["requests_routed"]["canary"] == 0
            counts = self._drain_shadow(model, expect=5)
            assert counts["mirrored"] == 5
            assert counts["compared"] == 5
            assert counts["agreed"] + counts["mismatched"] == 5
        finally:
            model.close()

    def test_shadow_of_the_same_bundle_always_agrees(self, bundles):
        quad, _ = bundles
        model = _managed(quad)
        try:
            model.set_canary(quad, shadow=True)
            for i in range(4):
                model.predict(_inputs(2, seed=i))
            counts = self._drain_shadow(model, expect=4)
            assert counts["compared"] == 4
            assert counts["agreed"] == 4 and counts["mismatched"] == 0
        finally:
            model.close()


class TestAdmissionControl:
    def test_model_overloaded_is_queue_full(self):
        assert issubclass(ModelOverloaded, QueueFull)

    def test_cap_sheds_while_capacity_held(self, bundles):
        model = _managed(bundles[0], max_inflight=1)
        try:
            with model._lock:
                model._primary.inflight = 1  # a request is stuck in flight
            with pytest.raises(ModelOverloaded, match="admission cap 1"):
                model.predict(_inputs(1))
            assert model.stats()["admission"]["shed"] == 1
            with model._lock:
                model._primary.inflight = 0
            model.predict(_inputs(1))  # capacity released → serving resumes
        finally:
            model.close()

    def test_invalid_cap_rejected(self, bundles):
        with pytest.raises(ValueError, match="max_inflight"):
            _managed(bundles[0], max_inflight=0)

    def test_saturated_model_sheds_while_others_serve(self, bundles):
        """Per-model admission: one 429ing model must not take down its
        neighbors on the same server."""
        quad, linear = bundles
        router = ModelRouter()
        router.add("jammed", load(quad, engine="direct", compile=False,
                                  warm=False), source=quad, max_inflight=1)
        router.add("healthy", load(linear, engine="direct", compile=False,
                                   warm=False), source=linear)
        server = make_server(router, port=0, quiet=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = "http://%s:%s" % server.server_address[:2]
        try:
            with router.get("jammed")._lock:
                router.get("jammed")._primary.inflight = 1
            request = urllib.request.Request(
                f"{base}/v1/models/jammed/predict",
                data=json.dumps({"inputs": _inputs(1).tolist()}).encode())
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 429
            assert excinfo.value.headers["Retry-After"] == "1"
            healthy = _post_json(f"{base}/v1/models/healthy/predict",
                                 {"inputs": _inputs(1).tolist()})
            assert healthy["count"] == 1
        finally:
            with router.get("jammed")._lock:
                router.get("jammed")._primary.inflight = 0
            server.shutdown()
            router.close()
            server.server_close()


class TestRouterControlPlane:
    def test_router_wraps_plain_predictors(self):
        router = ModelRouter({"m": Predictor(_tiny_model(),
                                             input_shape=(3, 8, 8))})
        assert isinstance(router.get("m"), ManagedModel)

    def test_managed_models_pass_through_unwrapped(self, bundles):
        router = ModelRouter()
        mounted = router.add("a", load(bundles[0], engine="direct",
                                       compile=False, warm=False),
                             source=bundles[0])
        router.add("b", router.get("a"))
        assert router.get("b") is mounted
        router.close()

    def test_router_close_is_idempotent_and_blocks_new_mounts(self, bundles):
        router = ModelRouter()
        router.add("m", load(bundles[0], engine="direct", compile=False,
                             warm=False), source=bundles[0])
        router.close()
        router.close()  # shared mounts / double close must not raise
        with pytest.raises(EngineClosed, match="router is closed"):
            router.add("late", Predictor(_tiny_model()))
        with pytest.raises(EngineClosed):
            router.get("m").reload()


def _post_json(url: str, payload: dict | None = None, method: str = "POST"):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.load(response)


@pytest.fixture
def live_server(bundles):
    """A served bundle with the admin API on, plus the second bundle's path."""
    from repro.serve.http import serve

    quad, linear = bundles
    captured = {}
    done = threading.Event()

    def run():
        serve(models={"main": quad}, port=0, quiet=True, engine="batched",
              max_wait_ms=0.5, compile=False,
              ready=lambda server: captured.update(server=server))
        done.set()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10
    while "server" not in captured and time.monotonic() < deadline:
        time.sleep(0.02)
    server = captured["server"]
    base = "http://%s:%s" % server.server_address[:2]
    yield base, quad, linear
    server.shutdown()
    assert done.wait(10)


class TestAdminAPI:
    def test_reload_canary_promote_clear_over_http(self, live_server):
        base, quad, linear = live_server
        result = _post_json(f"{base}/v1/admin/models/main/reload",
                            {"bundle": linear})
        assert result["status"] == "reloaded"
        assert result["bundle"] == linear

        result = _post_json(f"{base}/v1/admin/models/main/canary",
                            {"bundle": quad, "percent": 50})
        assert result["percent"] == 50.0
        for i in range(4):
            _post_json(f"{base}/v1/models/main/predict",
                       {"inputs": _inputs(1, seed=i).tolist()})
        stats = _post_json(f"{base}/v1/models/main/stats", method="GET")
        assert stats["requests_routed"] == {"primary": 2, "canary": 2}

        result = _post_json(f"{base}/v1/admin/models/main/promote")
        assert result["status"] == "promoted"
        assert result["bundle"] == quad

        result = _post_json(f"{base}/v1/admin/models/main/canary",
                            {"bundle": linear, "percent": 10})
        result = _post_json(f"{base}/v1/admin/models/main/canary",
                            method="DELETE")
        assert result["status"] == "canary-cleared"

    def _expect_error(self, url, code, payload=None, method="POST"):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_json(url, payload, method=method)
        assert excinfo.value.code == code
        return json.load(excinfo.value)["error"]

    def test_admin_error_statuses(self, live_server):
        base, quad, linear = live_server
        assert "valid" in self._expect_error(
            f"{base}/v1/admin/models/main/frobnicate", 404)
        assert "available models" in self._expect_error(
            f"{base}/v1/admin/models/ghost/reload", 404)
        assert '"bundle"' in self._expect_error(
            f"{base}/v1/admin/models/main/canary", 400, payload={})
        assert "no canary" in self._expect_error(
            f"{base}/v1/admin/models/main/promote", 400)
        assert "JSON object" in self._expect_error(
            f"{base}/v1/admin/models/main/reload", 400, payload=[1, 2])

    def test_canary_fields_follow_the_cast_rule(self, live_server):
        """``null`` keeps the default; an uncastable value is a 400."""
        base, quad, _ = live_server
        url = f"{base}/v1/admin/models/main/canary"
        assert "float" in self._expect_error(
            url, 400, payload={"bundle": quad, "percent": [50]})
        staged = _post_json(url, {"bundle": quad, "percent": None,
                                  "shadow": None})
        assert (staged["percent"], staged["shadow"]) == (10.0, False)
        _post_json(url, method="DELETE")

    @pytest.mark.parametrize("verb", ["reload", "canary"])
    @pytest.mark.parametrize("options", [{"turbo": 1}, "x"])
    def test_per_call_options_are_a_400_naming_the_field(self, live_server,
                                                         verb, options):
        base, quad, _ = live_server
        error = self._expect_error(f"{base}/v1/admin/models/main/{verb}", 400,
                                   payload={"bundle": quad, "options": options})
        assert "'options'" in error

    def test_admin_disabled_returns_403(self, bundles):
        predictor = Predictor(_tiny_model(), input_shape=(3, 8, 8))
        server = make_server({"default": predictor}, port=0, quiet=True,
                             admin=False)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = "http://%s:%s" % server.server_address[:2]
        try:
            error = self._expect_error(
                f"{base}/v1/admin/models/default/reload", 403)
            assert "disabled" in error
        finally:
            server.shutdown()
            server.router.close()
            server.server_close()

    def test_http_storm_with_midstream_reload_has_zero_failures(self, live_server):
        """The acceptance criterion over HTTP: 8 concurrent clients storm
        /v1/models/main/predict while the bundle is hot-reloaded; every
        single response is a 200."""
        base, quad, linear = live_server
        clients, each = 8, 6
        statuses: list[int] = []
        errors: list[Exception] = []
        barrier = threading.Barrier(clients + 1)
        payload = json.dumps({"inputs": _inputs(2).tolist()}).encode()

        def client():
            try:
                barrier.wait()
                for _ in range(each):
                    request = urllib.request.Request(
                        f"{base}/v1/models/main/predict", data=payload,
                        headers={"Content-Type": "application/json"})
                    with urllib.request.urlopen(request, timeout=60) as response:
                        statuses.append(response.status)
            except Exception as error:  # noqa: BLE001 — asserted below
                errors.append(error)

        threads = [threading.Thread(target=client) for _ in range(clients)]
        for thread in threads:
            thread.start()
        barrier.wait()
        _post_json(f"{base}/v1/admin/models/main/reload", {"bundle": linear})
        _post_json(f"{base}/v1/admin/models/main/reload", {"bundle": quad})
        for thread in threads:
            thread.join()
        assert errors == []
        assert statuses == [200] * (clients * each)
        stats = _post_json(f"{base}/v1/stats", method="GET")
        assert stats["models"]["main"]["bundle"]["reloads"] == 2
        assert stats["models"]["main"]["bundle"]["path"] == quad


class TestStatsSchemaV2:
    def test_v1_stats_shape_is_pinned(self, live_server):
        base, quad, linear = live_server
        _post_json(f"{base}/v1/models/main/predict",
                   {"inputs": _inputs(2).tolist()})
        document = _post_json(f"{base}/v1/stats", method="GET")
        assert document["schema_version"] == 2
        assert set(document["server"]) == {"uptime_seconds", "version", "pid"}
        assert document["server"]["uptime_seconds"] >= 0
        assert isinstance(document["server"]["pid"], int)

        entry = document["models"]["main"]
        # The stable v2 sections.
        for section in ("scheduler", "plan_cache", "latency", "admission",
                        "bundle", "canary", "requests_routed"):
            assert section in entry, section
        assert entry["scheduler"]["engine"] == "batched"
        assert entry["bundle"]["path"] == quad
        assert entry["latency"]["count"] >= 1
        assert {"p50_ms", "p95_ms", "p99_ms", "buckets"} <= set(entry["latency"])
        assert entry["admission"] == {"max_inflight": None, "inflight": 0,
                                      "shed": 0}
        assert entry["canary"] is None
        assert entry["scheduler"]["requests"] >= 1
        assert entry["scheduler"]["samples"] >= 2
        assert entry["scheduler"]["queue_depth"] == 0
        assert entry["bundle"]["reloads"] == 0

    def test_model_entry_has_exactly_the_v2_sections(self, live_server):
        """No flat engine counters beside the sections: a top-level
        ``restarts`` would shadow the pool's worker respawns with reloads."""
        base, _, _ = live_server
        entry = _post_json(f"{base}/v1/stats", method="GET")["models"]["main"]
        assert set(entry) == {"scheduler", "plan_cache", "latency",
                              "admission", "bundle", "requests_routed",
                              "canary"}

    def test_per_model_stats_endpoint_matches_models_entry(self, live_server):
        base, _, _ = live_server
        entry = _post_json(f"{base}/v1/stats", method="GET")["models"]["main"]
        single = _post_json(f"{base}/v1/models/main/stats", method="GET")
        assert single["name"] == "main"
        assert single["bundle"] == entry["bundle"]
        assert set(entry) <= set(single) - {"name"} | set(entry)

    def test_direct_engine_reports_queue_depth(self):
        from repro.serve import DirectEngine, InferenceSession

        engine = DirectEngine(InferenceSession(_tiny_model()))
        assert engine.stats()["queue_depth"] == 0


class TestDeprecationShims:
    """The legacy routes that carried a ``Deprecation`` header are removed;
    the v1 routes never carried one."""

    def test_legacy_routes_are_gone(self, live_server):
        """``/healthz``, ``GET /`` and ``POST /predict`` answer 404 with an
        endpoint list that no longer names them; nothing is deprecated."""
        base, _, _ = live_server
        for method, path in (("GET", "/healthz"), ("GET", "/"),
                             ("POST", "/predict")):
            payload = {"inputs": _inputs(1).tolist()} \
                if method == "POST" else None
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post_json(f"{base}{path}", payload, method=method)
            assert excinfo.value.code == 404, path
            assert excinfo.value.headers["Deprecation"] is None
            endpoints = json.load(excinfo.value)["error"].split("endpoints:")[1]
            assert "/healthz" not in endpoints
            assert "POST /predict" not in endpoints
            assert "POST /v1/models/<name>/predict" in endpoints

    def test_v1_routes_are_not_deprecated(self, live_server):
        base, _, _ = live_server
        with urllib.request.urlopen(f"{base}/v1/models", timeout=30) as response:
            assert response.headers["Deprecation"] is None


class TestErrorMessages:
    def test_make_engine_enumerates_valid_choices(self):
        from repro.serve import InferenceSession

        with pytest.raises(ValueError) as excinfo:
            make_engine("bacthed", InferenceSession(_tiny_model()))
        message = str(excinfo.value)
        for name in ("'direct'", "'batched'", "'pool'"):
            assert name in message

    def test_serve_enumerates_engines_on_typo(self, bundles):
        from repro.serve.http import serve

        with pytest.raises(ValueError) as excinfo:
            serve(models={"m": bundles[0]}, engine="bacthed")
        message = str(excinfo.value)
        assert "valid engines" in message
        for name in ("'direct'", "'batched'", "'pool'"):
            assert name in message

    def test_serve_enumerates_engines_on_per_model_typo(self, bundles):
        from repro.serve.http import serve

        with pytest.raises(ValueError) as excinfo:
            serve(models={"m": {"path": bundles[0], "engine": "poool"}})
        assert "model 'm'" in str(excinfo.value)
        assert "'pool'" in str(excinfo.value)

    def test_serve_unknown_default_model_enumerates_mounted(self, bundles):
        from repro.serve.http import serve

        with pytest.raises(KeyError, match="available models: m"):
            serve(models={"m": bundles[0]}, default_model="typo")


class TestPromoteCLI:
    def test_promote_resolves_artifact_bundles_and_swaps(self, live_server,
                                                         tmp_path, capsys):
        base, quad, linear = live_server
        # A sweep artifact recording its bundles relative to its cache dir —
        # exactly what the experiment runner writes into meta.bundles.
        import os
        artifact = tmp_path / "fig0-abc123.json"
        artifact.write_text(json.dumps(
            {"meta": {"bundles": [os.path.basename(linear)]}}))
        assert cli.main(["promote", str(artifact), "--server", base]) == 0
        output = json.loads(capsys.readouterr().out)
        assert output["status"] == "reloaded"
        stats = _post_json(f"{base}/v1/stats", method="GET")
        assert stats["models"]["main"]["bundle"]["path"] == linear

    def test_promote_canary_then_finalize(self, live_server, capsys):
        base, quad, linear = live_server
        assert cli.main(["promote", linear, "--server", base,
                         "--canary", "25"]) == 0
        assert json.loads(capsys.readouterr().out)["percent"] == 25.0
        assert cli.main(["promote", "--finalize", "--server", base]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "promoted"
        stats = _post_json(f"{base}/v1/stats", method="GET")
        assert stats["models"]["main"]["bundle"]["path"] == linear

    def test_reload_verb_reloads_default_model(self, live_server, capsys):
        base, quad, _ = live_server
        assert cli.main(["reload", "--server", base]) == 0
        output = json.loads(capsys.readouterr().out)
        assert output["status"] == "reloaded"
        assert output["bundle"] == quad

    def test_promote_argument_validation(self, capsys):
        assert cli.main(["promote"]) == 1
        assert "name a bundle" in capsys.readouterr().err
        assert cli.main(["promote", "x.npz", "--finalize"]) == 1
        assert "drop the TARGET" in capsys.readouterr().err

    def test_promote_unreachable_server_is_a_clean_error(self, tmp_path,
                                                         capsys):
        bundle = tmp_path / "m.npz"
        bundle.write_bytes(b"")
        assert cli.main(["promote", str(bundle),
                         "--server", "http://127.0.0.1:9"]) == 1
        assert "cannot reach the server" in capsys.readouterr().err

    def test_artifact_without_bundles_is_a_clean_error(self, tmp_path, capsys):
        artifact = tmp_path / "fig0-empty.json"
        artifact.write_text(json.dumps({"meta": {}}))
        assert cli.main(["promote", str(artifact),
                         "--server", "http://127.0.0.1:9"]) == 1
        assert "meta.bundles" in capsys.readouterr().err

    def test_bundle_index_out_of_range_is_a_clean_error(self, tmp_path,
                                                        capsys):
        artifact = tmp_path / "fig0-one.json"
        artifact.write_text(json.dumps({"meta": {"bundles": ["a.npz"]}}))
        assert cli.main(["promote", str(artifact), "--bundle-index", "3",
                         "--server", "http://127.0.0.1:9"]) == 1
        assert "out of range" in capsys.readouterr().err


class TestBenchLatency:
    def test_serving_benchmark_reports_percentiles(self):
        from repro import bench

        result = bench.serving_benchmarks(rounds=1, warmup=0, clients=2,
                                          requests_per_client=3)
        for side in ("direct_latency", "batched_latency"):
            summary = result[side]
            assert summary["count"] == 6
            assert summary["p50_ms"] > 0
            assert summary["p50_ms"] <= summary["p95_ms"] <= summary["p99_ms"]

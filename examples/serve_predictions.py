"""Train two tiny classifiers, bundle them, and serve both over the v1 API.

Demonstrates the full serving path added on top of the experiment stack:

1. ``Trainer.fit`` writes ``best.npz`` — because the models were built
   through the registered model zoo, the checkpoints embed a model spec and
   serving metadata, making them *bundles*.
2. ``repro.load`` reconstructs architecture + weights + normalization from a
   bundle alone and returns a :class:`repro.Predictor`.  ``engine="batched"``
   routes every forward through a :class:`~repro.serve.BatchedEngine`, whose
   scheduler coalesces concurrent requests into fused no-grad forwards.
   Loading also compiles: the first forward per input shape is traced
   into a fused, arena-allocated execution plan that later same-shape
   forwards replay without per-op dispatch (a plan that fails its
   byte-identity check falls back to dispatch by itself).
3. A :class:`~repro.serve.ModelRouter` mounts both predictors behind the
   stdlib HTTP server's versioned multi-model API — ``GET /v1/models``,
   ``POST /v1/models/<name>/predict``, ``GET /v1/stats``.
4. The router wraps each predictor in a
   :class:`~repro.serve.ManagedModel`, so the mounted models are *operable*
   while serving: the ``/v1/admin`` routes hot-reload a bundle with zero
   dropped requests, stage a canary taking a deterministic slice of
   traffic, and promote it — and ``/v1/stats`` (schema v2) reports real
   latency percentiles per model.  The ``repro promote`` / ``repro
   reload`` CLI verbs drive the same API from a shell.

Run as ``python examples/serve_predictions.py``; everything happens in a
temporary directory and finishes in under a minute on a laptop CPU.
"""

import _bootstrap  # noqa: F401  (puts src/ on sys.path)

import json
import tempfile
import threading
import urllib.request
from pathlib import Path

import numpy as np

import repro
from repro.data import DataLoader, SyntheticImageClassification
from repro.experiments.common import classifier_bundle_info
from repro.models import SimpleCNN
from repro.nn import CrossEntropyLoss
from repro.optim import SGD
from repro.serve import ModelRouter, make_server
from repro.training import Trainer


def train_bundle(checkpoint_dir: Path, neuron_type: str) -> Path:
    """Train a small CNN and return the path of the bundle ``fit`` wrote."""
    dataset = SyntheticImageClassification(num_classes=4, image_size=10,
                                           train_size=96, test_size=32, seed=0)
    kwargs = {"rank": 3} if neuron_type == "proposed" else {}
    model = SimpleCNN(num_classes=4, neuron_type=neuron_type, base_width=4,
                      image_size=10, seed=0, **kwargs)
    trainer = Trainer(model, SGD(model.parameters(), lr=0.05, momentum=0.9),
                      CrossEntropyLoss())
    trainer.bundle_info = classifier_bundle_info(dataset)
    loader = DataLoader(dataset.train_images, dataset.train_labels,
                        batch_size=32, shuffle=True, seed=0)
    trainer.fit(loader, epochs=3, eval_inputs=dataset.test_images,
                eval_targets=dataset.test_labels,
                checkpoint_dir=checkpoint_dir, checkpoint_every=1)
    print(f"trained {neuron_type}: best eval accuracy {trainer.best_metric:.3f} "
          f"(epoch {trainer.best_epoch})")
    return checkpoint_dir / "best.npz"


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        quad_path = train_bundle(Path(workdir) / "quad", "proposed")
        linear_path = train_bundle(Path(workdir) / "linear", "linear")

        # -- the one-liner inference API ------------------------------------
        quad = repro.load(quad_path, engine="batched", max_wait_ms=1.0)
        linear = repro.load(linear_path)  # direct engine: inline forwards
        # For compute-bound multi-core serving, shard fused batches across
        # warm worker processes instead (CLI: --engine pool --workers 4):
        #   quad = repro.load(quad_path, engine="pool", workers=4)
        print(f"loaded {quad.describe()['model']} (engine: "
              f"{quad.engine.name}); input shape {quad.input_shape}")
        batch = np.random.default_rng(1).standard_normal(
            (8, *quad.input_shape)).astype(np.float32)
        print("predicted classes:", quad.predict(batch).tolist())
        top = quad.predict_topk(batch[:2], k=2)
        print("top-2 of first sample:",
              [(entry["label"], round(entry["probability"], 3))
               for entry in top[0]["top_k"]])

        # -- both predictors behind the v1 multi-model HTTP API -------------
        # Passing source/load_options makes the mounts hot-reloadable: the
        # control plane re-loads the bundle path through the same options.
        router = ModelRouter()
        router.add("quad", quad, source=str(quad_path),
                   load_options={"engine": "batched", "max_wait_ms": 1.0})
        router.add("linear", linear, source=str(linear_path))
        server = make_server(router, port=0, quiet=True)
        host, port = server.server_address[:2]
        threading.Thread(target=server.serve_forever, daemon=True).start()
        base = f"http://{host}:{port}"

        models = json.load(urllib.request.urlopen(f"{base}/v1/models"))
        print("mounted models:",
              [(entry["name"], entry["engine"]) for entry in models["models"]],
              "default:", models["default"])

        def post(path: str) -> dict:
            request = urllib.request.Request(
                f"{base}{path}",
                data=json.dumps({"inputs": batch.tolist(), "top_k": 1}).encode(),
                headers={"Content-Type": "application/json"})
            return json.load(urllib.request.urlopen(request))

        for name, predictor in router.items():
            response = post(f"/v1/models/{name}/predict")
            http_classes = [record["class_index"]
                            for record in response["predictions"]]
            assert http_classes == predictor.predict(batch).tolist()
            print(f"/v1/models/{name}/predict matches in-process:", http_classes)

        stats = json.load(urllib.request.urlopen(f"{base}/v1/stats"))
        entry = stats["models"]["quad"]
        print("quad scheduler stats:", entry["scheduler"])
        # Loading traced each model on its first forward;
        # every same-shape request after that was a plan-cache replay.
        print("quad plan cache:", entry["plan_cache"])
        latency = entry["latency"]
        print(f"quad latency over {latency['count']} requests: "
              f"p50={latency['p50_ms']}ms p95={latency['p95_ms']}ms "
              f"p99={latency['p99_ms']}ms")

        # -- zero-downtime operations: the /v1/admin control plane ----------
        def admin(method: str, path: str, payload: dict | None = None) -> dict:
            request = urllib.request.Request(
                f"{base}{path}", method=method,
                data=json.dumps(payload).encode() if payload else None,
                headers={"Content-Type": "application/json"})
            return json.load(urllib.request.urlopen(request))

        # Stage the linear bundle as a 50% canary on "quad", split traffic,
        # then promote it — all while the server keeps answering.
        staged = admin("POST", "/v1/admin/models/quad/canary",
                       {"bundle": str(linear_path), "percent": 50})
        print("staged canary:", staged["bundle"], f"at {staged['percent']}%")
        for _ in range(6):
            post("/v1/models/quad/predict")
        split = json.load(urllib.request.urlopen(f"{base}/v1/models/quad/stats"))
        print("deterministic 50% split:", split["requests_routed"])
        promoted = admin("POST", "/v1/admin/models/quad/promote")
        print("promoted:", promoted["status"], "— quad now serves",
              promoted["bundle"], f"(drained={promoted['drained']})")

        # Hot reload swaps a bundle in place: load + warm off-path, atomic
        # swap, drain + close the old engine; zero dropped requests.
        reloaded = admin("POST", "/v1/admin/models/quad/reload",
                         {"bundle": str(quad_path)})
        print("hot reload:", reloaded["previous_bundle"], "→",
              reloaded["bundle"], f"(reload #{reloaded['reloads']})")
        # From a shell the CLI drives the same API:
        #   python -m repro promote <bundle-or-artifact.json> --server <base>
        #   python -m repro reload --server <base>

        server.shutdown()
        router.close()  # drains engines; queued clients would get EngineClosed
        server.server_close()


if __name__ == "__main__":
    main()

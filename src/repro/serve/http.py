"""Stdlib HTTP transport over a :class:`~repro.serve.router.ModelRouter`.

The transport is deliberately thin: handler threads parse JSON and pre/post-
process (pure functions, unlocked), then *submit* the forward to the target
model's serving engine and wait on a future.  All scheduling policy — direct
lock-and-forward vs cross-request dynamic batching — lives behind the
:class:`~repro.serve.engine.ServingEngine` boundary, so the same transport
serves either engine and any number of named models.

Versioned API
-------------
``GET /v1/models``
    Every mounted model (name, spec, parameter count, engine) and which one
    is the default.
``GET /v1/models/<name>``
    One model's description.
``POST /v1/models/<name>/predict``
    Body ``{"inputs": <nested array>, "top_k": <int, default 1>,
    "normalize": <bool, default true>}``; response ``{"model": <name>,
    "predictions": [...], "count": N}`` with one top-k record per sample.
``POST /v1/models/<name>/generate``
    Generation bundles only.  Body ``{"inputs": <token-id sequences or
    text>, "max_new_tokens": <int>, "strategy": "greedy"|"sample",
    "temperature": <float>, "top_k": <int>, "seed": <int>}`` (all but
    ``inputs`` optional); response ``{"model": <name>, "outputs":
    [{"tokens": [...], "logprobs": [...], "finish_reason": ...,
    "steps": N, "text": ...}], "count": N}``.
``GET /v1/stats``
    Stats schema v2: ``{"schema_version": 2, "server": {uptime_seconds,
    version, pid}, "models": {<name>: <entry>}}`` where each model entry
    carries the ``scheduler``/``plan_cache``/``latency``/``admission``/
    ``bundle``/``requests_routed``/``canary`` sections.
``GET /v1/models/<name>/stats``
    One model's stats entry (same shape as its ``models.<name>`` section).

Admin API (the control plane; disable with ``serve(admin=False)``)
------------------------------------------------------------------
``POST /v1/admin/models/<name>/reload``
    Body ``{"bundle": <path, optional>}`` — hot-swap the model's bundle
    with zero dropped requests (omit ``bundle`` to re-load the currently
    mounted path).  Reloads and canaries load through the options the
    model was mounted with.
``POST /v1/admin/models/<name>/canary``
    Body ``{"bundle": <path>, "percent": <float, default 10>,
    "shadow": <bool, default false>}`` — stage a candidate: route
    ``percent``% of traffic to it, or mirror (shadow).
``POST /v1/admin/models/<name>/promote``
    Swap the staged canary in as the primary (drains the old primary).
``DELETE /v1/admin/models/<name>/canary``
    Retire the staged canary without touching the primary.

Optional fields left out or sent as ``null`` take their defaults.  Status
mapping: malformed payloads (including a field that does not cast to its
type, or an admin body field the operation does not take) → 400, unknown
paths/models → 404, admin API disabled → 403, a chunked
(``Transfer-Encoding``) request body → 411, full request queue *or a
model past its admission cap* → 429 (backpressure),
engine shut down → 503, request timeout → 504, anything unexpected → 500.
SIGINT/SIGTERM drain gracefully: the server stops accepting, engines fail
queued futures with a clear error, and in-flight responses flush before
the process exits.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import unquote

from ..parallel.fleet import start_forkserver
from .batching import DEFAULT_MAX_WAIT_MS
from .engine import EngineClosed, QueueFull, check_engine_name
from .router import ModelRouter

__all__ = ["make_server", "serve", "PredictionHandler", "PredictionServer"]

#: Largest accepted request body (64 MiB) — a backstop against a single
#: request buffering unbounded memory, not a tuning knob.
MAX_REQUEST_BYTES = 64 * 1024 * 1024

_ENDPOINTS = ("GET /v1/models, GET /v1/models/<name>, "
              "GET /v1/models/<name>/stats, GET /v1/stats, "
              "POST /v1/models/<name>/predict, "
              "POST /v1/models/<name>/generate, "
              "POST /v1/admin/models/<name>/{reload,canary,promote}, "
              "DELETE /v1/admin/models/<name>/canary")

#: Reply header for a request whose body is left unread: ``send_header``
#: also sets ``close_connection``, so the bytes cannot poison a next request.
_CLOSE = {"Connection": "close"}

#: ``POST /v1/models/<name>/<verb>``: the optional request fields each verb
#: casts, as ``(field, cast)`` pairs, and the response key of its results.
_VERBS = {
    "predict": ((("top_k", int), ("normalize", bool)), "predictions"),
    "generate": ((("max_new_tokens", int), ("strategy", str),
                  ("temperature", float), ("top_k", int), ("seed", int)),
                 "outputs"),
}

#: Optional fields of ``POST /v1/admin/models/<name>/canary``.
_CANARY_FIELDS = (("percent", float), ("shadow", bool))

#: ``POST /v1/admin/models/<name>/<verb>``: the body fields each verb takes
#: (``DELETE .../canary`` takes none); any other field is a 400.
_ADMIN_FIELDS = {"reload": ("bundle",), "canary": ("bundle", "percent", "shadow"),
                 "promote": ()}


def _cast_fields(request: dict, fields) -> dict:
    """The given fields of ``request``, cast; absent or ``null`` keeps the
    default.  A failed cast raises ``ValueError``/``TypeError`` (HTTP 400)."""
    return {field: cast(request[field]) for field, cast in fields
            if request.get(field) is not None}


class PredictionHandler(BaseHTTPRequestHandler):
    """Routes the v1 multi-model API onto the router."""

    server_version = "repro-serve/2.1"
    protocol_version = "HTTP/1.1"
    #: ``TCP_NODELAY`` on every accepted socket: headers and body leave in
    #: two writes, and with Nagle on the body waited ~40 ms for the client's
    #: delayed ACK on every keep-alive response.
    disable_nagle_algorithm = True

    # -- plumbing --------------------------------------------------------------

    def _send_json(self, status: int, payload: dict,
                   headers: dict | None = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        if not getattr(self.server, "quiet", False):
            super().log_message(format, *args)

    def _not_found(self, message: str | None = None) -> None:
        detail = message or f"unknown path {self.path!r}"
        self._send_json(404, {"error": f"{detail}; endpoints: {_ENDPOINTS}"})

    def _resolve_model(self, name: str | None):
        """Router lookup → (name, model), or None after replying 404."""
        try:
            model = self.server.router.get(name)
        except KeyError as error:
            self._not_found(str(error).strip('"'))
            return None
        return (name or self.server.router.default_name), model

    def _read_body(self) -> bytes | None:
        """Read (and thereby drain) the declared body; None after replying.

        Replying while unread body bytes sit on a keep-alive connection would
        make the next request parse as garbage, so every body is drained up
        front.  A bad or oversized ``Content-Length`` and a chunked body
        (this server does not decode ``Transfer-Encoding``) are the cases we
        refuse to drain — close the connection instead.
        """
        if "Transfer-Encoding" in self.headers:
            self._send_json(411, {"error": "Transfer-Encoding "
                                           f"{self.headers['Transfer-Encoding']!r} "
                                           "is not supported; send the body "
                                           "with a Content-Length header"},
                            _CLOSE)
            return None
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            length = -1
        if length < 0 or length > MAX_REQUEST_BYTES:
            self._send_json(400, {"error": f"Content-Length {self.headers.get('Content-Length')!r} "
                                           f"is invalid or exceeds the "
                                           f"{MAX_REQUEST_BYTES}-byte limit"},
                            _CLOSE)
            return None
        return self.rfile.read(length) if length else b""

    def _stats_payload(self) -> dict:
        """The v2 ``/v1/stats`` document: server identity + per-model entries."""
        from repro import __version__

        return {
            "schema_version": 2,
            "server": {
                "uptime_seconds": round(
                    time.monotonic() - self.server.start_monotonic, 3),
                "version": __version__,
                "pid": os.getpid(),
            },
            "models": self.server.router.stats(),
        }

    # -- endpoints -------------------------------------------------------------

    def do_GET(self):
        path = self.path.partition("?")[0].rstrip("/")
        if path == "/v1/models":
            self._send_json(200, self.server.router.describe())
        elif path == "/v1/stats":
            self._send_json(200, self._stats_payload())
        elif path.startswith("/v1/models/") and path.endswith("/stats"):
            name = unquote(path[len("/v1/models/"):-len("/stats")])
            resolved = self._resolve_model(name)
            if resolved:
                self._send_json(200, {"name": resolved[0],
                                      **resolved[1].stats()})
        elif path.startswith("/v1/models/"):
            resolved = self._resolve_model(unquote(path[len("/v1/models/"):]))
            if resolved:
                self._send_json(200, {"name": resolved[0], **resolved[1].describe()})
        else:
            self._not_found()

    def do_POST(self):
        body = self._read_body()
        if body is None:
            return
        path = self.path.partition("?")[0].rstrip("/")
        if path.startswith("/v1/admin/"):
            self._handle_admin("POST", path, body)
            return
        prefix = "/v1/models/"
        name, _, verb = path[len(prefix):].rpartition("/")
        if path.startswith(prefix) and name and verb in _VERBS:
            self._handle_inference(unquote(name), verb, body)
        else:
            self._not_found()

    def _handle_inference(self, model_name: str, verb: str, body: bytes) -> None:
        """``POST /v1/models/<name>/{predict,generate}``: parse, call the
        model, map its errors onto the status taxonomy."""
        resolved = self._resolve_model(model_name)
        if not resolved:
            return
        name, model = resolved
        fields, results_key = _VERBS[verb]
        try:
            if not body:
                raise ValueError("request body is empty")
            request = json.loads(body.decode("utf-8"))
            if not isinstance(request, dict) or "inputs" not in request:
                raise ValueError('request must be a JSON object with an "inputs" key')
            options = _cast_fields(request, fields)
        except (ValueError, TypeError) as error:  # incl. JSON/Unicode decode errors
            self._send_json(400, {"error": str(error)})
            return

        timeout = self.server.request_timeout
        try:
            if verb == "predict":
                results = model.predict_topk(request["inputs"],
                                             k=options.pop("top_k", 1),
                                             timeout=timeout, **options)
            else:
                results = model.generate(request["inputs"], timeout=timeout,
                                         **options)
        except QueueFull as error:  # backpressure (engine queue or admission cap)
            self._send_json(429, {"error": str(error)},
                            headers={"Retry-After": "1"})
            return
        except EngineClosed as error:  # draining for shutdown
            self._send_json(503, {"error": str(error)})
            return
        except (TimeoutError, FutureTimeout) as error:
            self._send_json(504, {"error": str(error)})
            return
        except ValueError as error:  # shapes, tokens, wrong verb: the client's
            self._send_json(400, {"error": str(error)})
            return
        except Exception as error:  # noqa: BLE001 — a serving loop must not die
            self._send_json(500, {"error": f"{type(error).__name__}: {error}"})
            return
        self._send_json(200, {"model": name, results_key: results,
                              "count": len(results)})

    def do_DELETE(self):
        body = self._read_body()
        if body is None:
            return
        path = self.path.partition("?")[0].rstrip("/")
        if path.startswith("/v1/admin/"):
            self._handle_admin("DELETE", path, body)
        else:
            self._not_found()

    # -- the control plane over HTTP -------------------------------------------

    def _handle_admin(self, method: str, path: str, body: bytes) -> None:
        """Dispatch ``/v1/admin/models/<name>/{reload,canary,promote}``."""
        if not getattr(self.server, "admin_enabled", True):
            self._send_json(403, {"error": "the admin API is disabled on this "
                                           "server (started with admin=False / "
                                           "--no-admin)"})
            return
        prefix = "/v1/admin/models/"
        if not path.startswith(prefix):
            self._not_found()
            return
        name, _, verb = unquote(path[len(prefix):]).rpartition("/")
        verbs = {"POST": tuple(_ADMIN_FIELDS), "DELETE": ("canary",)}
        if not name or verb not in verbs.get(method, ()):
            self._not_found(
                f"unknown admin operation {method} {path!r}; valid: "
                f"POST {prefix}<name>/{{reload,canary,promote}}, "
                f"DELETE {prefix}<name>/canary")
            return
        resolved = self._resolve_model(name)
        if not resolved:
            return
        name, model = resolved

        try:
            request = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(request, dict):
                raise ValueError("admin request body must be a JSON object")
            allowed = _ADMIN_FIELDS[verb] if method == "POST" else ()
            unknown = sorted(set(request) - set(allowed))
            if unknown:
                raise ValueError(f"{method} {path} does not take the field(s) "
                                 f"{unknown}; valid: {list(allowed)}")
            canary = _cast_fields(request, _CANARY_FIELDS) \
                if verb == "canary" else {}
        except (ValueError, TypeError) as error:  # incl. JSON/Unicode decode errors
            self._send_json(400, {"error": str(error)})
            return

        try:
            if method == "DELETE":
                result = model.clear_canary()
            elif verb == "reload":
                result = model.reload(bundle=request.get("bundle"))
            elif verb == "canary":
                if "bundle" not in request:
                    raise ValueError('staging a canary requires a "bundle" '
                                     'key (the candidate bundle path)')
                result = model.set_canary(request["bundle"], **canary)
            else:  # promote
                result = model.promote()
        except (ValueError, KeyError, FileNotFoundError, OSError) as error:
            self._send_json(400, {"error": str(error)})
            return
        except EngineClosed as error:
            self._send_json(503, {"error": str(error)})
            return
        except Exception as error:  # noqa: BLE001 — admin must not kill serving
            self._send_json(500, {"error": f"{type(error).__name__}: {error}"})
            return
        self._send_json(200, {"model": name, **result})


class PredictionServer(ThreadingHTTPServer):
    """Threading HTTP server owning one router and the request-timeout knob."""

    daemon_threads = True

    def __init__(self, address, router: ModelRouter, quiet: bool = False,
                 request_timeout: float | None = 30.0, admin: bool = True):
        super().__init__(address, PredictionHandler)
        self.router = router
        self.quiet = quiet
        self.request_timeout = request_timeout
        self.admin_enabled = bool(admin)
        self.start_monotonic = time.monotonic()


def make_server(models, host: str = "127.0.0.1", port: int = 8000,
                quiet: bool = False, request_timeout: float | None = 30.0,
                admin: bool = True) -> PredictionServer:
    """Build (but do not start) the HTTP server around one or many models.

    ``models`` is a :class:`ModelRouter` or a ``{name: predictor}`` mapping
    (mount a single predictor as ``{"default": predictor}``).  ``port=0``
    binds an ephemeral port (read it back from ``server.server_address``),
    which is what the tests use.
    ``admin=False`` turns the ``/v1/admin`` control-plane routes off (403).
    """
    if isinstance(models, dict):
        models = ModelRouter(models)
    elif not isinstance(models, ModelRouter):
        raise TypeError(f"make_server takes a ModelRouter or a {{name: "
                        f"predictor}} mapping, got {type(models).__name__}; "
                        f"mount a single predictor as {{'default': predictor}}")
    return PredictionServer((host, port), models, quiet=quiet,
                            request_timeout=request_timeout, admin=admin)


def _install_signal_handlers(server: PredictionServer):
    """SIGINT/SIGTERM → graceful ``server.shutdown()``; returns a restore fn.

    ``shutdown()`` must run off the serving thread, hence the helper thread.
    When not on the main thread (embedded/test use) signals cannot be
    installed; that's fine — the caller still drains via ``finally``.
    """
    def _handle(signum, frame):
        threading.Thread(target=server.shutdown, name="repro-serve-shutdown",
                         daemon=True).start()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _handle)
        except ValueError:  # not the main thread
            pass

    def restore():
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    return restore


def serve(models: dict, host: str = "127.0.0.1", port: int = 8000,
          max_batch: int = 64, quiet: bool = False, engine: str = "batched",
          max_wait_ms: float = DEFAULT_MAX_WAIT_MS, queue_size: int = 256,
          request_timeout: float | None = 30.0,
          default_model: str | None = None, ready=None, workers: int = 2,
          max_inflight: int | None = None, admin: bool = True) -> None:
    """Load bundles and serve them until interrupted (the CLI entry point).

    ``models`` maps each model name to a bundle path, or to a spec
    ``{"path": ..., "engine": ..., "workers": ...}`` whose ``engine`` and
    ``workers`` override the shared ones for that model — which is how one
    server mounts, say, a hot model on its own 4-worker pool next to a
    long-tail model on the batched engine.  Every model is one
    :func:`repro.serve.load` call with the shared ``max_batch``,
    ``max_wait_ms`` and ``queue_size``, so each gets its own session and
    serving engine (``engine="batched"`` by default; ``"direct"`` for inline
    lock-and-forward; ``"pool"`` for the multi-process pool with ``workers``
    processes per model).  Loading warms each model, which traces and
    compiles its steady-state plan before the first request.  The first
    model is the default unless ``default_model`` names another.
    ``max_inflight`` caps concurrent requests *per model* (admission
    control: a saturated model sheds with 429 while the others keep
    serving); ``admin=False`` disables the ``/v1/admin`` control-plane
    routes.  Bad specs, engine names and ``default_model`` fail before
    anything loads; a failure while loading closes the models already
    mounted.  When a model uses the pool, the fleet's fork server boots
    before any model loads, overlapping them.  SIGINT/SIGTERM shut down
    gracefully: the queue drains, queued futures fail with a clear error
    instead of hanging their clients, then the process exits.  ``ready``, if
    given, is called with the bound server before the serve loop starts
    (embedding/test hook).
    """
    from . import load

    if not models:
        raise ValueError("serve needs at least one name=bundle model mapping")
    check_engine_name(engine, "--engine")
    specs = {}
    for name, spec in models.items():
        spec = dict(spec) if isinstance(spec, dict) else {"path": spec}
        if "path" not in spec:
            raise ValueError(f"model spec for {name!r} needs a 'path' key")
        unknown = set(spec) - {"path", "engine", "workers"}
        if unknown:
            raise ValueError(f"model spec for {name!r} has unknown option(s) "
                             f"{sorted(unknown)}; valid: ['engine', 'path', "
                             f"'workers']")
        check_engine_name(spec.setdefault("engine", engine), f"model {name!r}")
        specs[name] = spec
    if default_model is not None and default_model not in specs:
        raise KeyError(f"unknown model {default_model!r}; available models: "
                       f"{', '.join(sorted(specs))}")

    if any(spec["engine"] == "pool" for spec in specs.values()):
        start_forkserver()  # the worker server boots while the bundles load
    router = ModelRouter()
    try:
        for name, spec in specs.items():
            options = {"max_batch": max_batch, "max_wait_ms": max_wait_ms,
                       "queue_size": queue_size, "workers": workers, **spec}
            path = options.pop("path")
            router.add(name, load(path, **options), source=str(path),
                       load_options=options, max_inflight=max_inflight)
        if default_model is not None:
            router.set_default(default_model)
        server = make_server(router, host=host, port=port, quiet=quiet,
                             request_timeout=request_timeout, admin=admin)
    except BaseException:
        router.close()
        raise
    restore_signals = _install_signal_handlers(server)
    bound_host, bound_port = server.server_address[:2]
    engine_label = "/".join(sorted({str(spec["engine"])
                                    for spec in specs.values()}))
    print(f"serving {len(router)} model(s) [{', '.join(router.names())}; "
          f"default: {router.default_name}] with the {engine_label} engine on "
          f"http://{bound_host}:{bound_port}")
    if not quiet:
        print(f"endpoints: {_ENDPOINTS}")
    if ready is not None:
        ready(server)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        restore_signals()
        print("draining: closing engines and failing queued requests...")
        router.close()
        server.server_close()
        print("serve shut down cleanly")

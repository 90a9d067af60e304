"""Stdlib JSON-over-HTTP front end for the serving subsystem.

Zero third-party dependencies: :class:`http.server.ThreadingHTTPServer`
accepts connections (one handler thread per in-flight request) and
handlers hand windows to the scoring tier.  Two tiers are available:
the in-process :class:`~repro.serve.scheduler.MicroBatcher` thread pool
(default), or — with ``procs > 0`` — the
:class:`~repro.serve.pool.ProcessPool`, which shards scoring across
worker processes (past the GIL) with shared-memory weights and
consistent-hash routing.

Endpoints
---------
``POST /score``
    ``{"model": str, "version"?: str, "window": [[...], ...]}`` →
    ``{"model", "version", "score", "threshold", "anomaly"}``.  The
    window is ``(time, features)``; a flat list is treated as univariate.
    Scored through the micro-batcher.
``POST /predict``
    Same request; answers only ``{"model", "version", "anomaly"}`` —
    the thresholded label (Eq. 17) for callers that alert without
    inspecting scores.
``GET /healthz``
    Liveness plus per-model serving state: live version, circuit-breaker
    state, quarantined artifacts, degraded flag, queue depth.
``GET /metrics``
    JSON snapshot of the :class:`~repro.serve.metrics.MetricsRegistry`
    (counters, gauges, latency histograms with p50/p95/p99), plus
    ``jit_traces_total``: the scoring-tape traces this process has run,
    plus, on the pool tier, those its workers reported in their
    heartbeats (:meth:`~repro.serve.pool.ProcessPool.worker_traces`).
``GET /models``
    Registry listing: every model name with its versions.

Error mapping: malformed request → 400, unknown model/version → 404,
shed load (:class:`Overloaded`) → 429 with ``Retry-After``, open circuit
breaker / exhausted transient retries → 503 with ``Retry-After``,
anything else → 500.  All error bodies are ``{"error": ..., "detail": ...}``.
"""

from __future__ import annotations

import json
import math
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from ..analysis.lockcheck import named_lock
from ..nn import jit
from .errors import (
    CircuitOpen,
    ModelNotFound,
    Overloaded,
    RegistryError,
    ServeError,
    TransientFault,
)
from .metrics import MetricsRegistry
from .pool import ProcessPool
from .registry import ModelRegistry
from .scheduler import MicroBatcher

__all__ = ["InferenceServer"]

#: Request bodies above this size are rejected before parsing (1 window of
#: a few thousand observations fits comfortably; this is an 8 MiB guard
#: against accidental bulk uploads, not a tuning knob).
_MAX_BODY_BYTES = 8 * 1024 * 1024


def _jsonable(value):
    """Replace non-finite floats (invalid JSON) with None, recursively."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


class _BadRequest(ServeError):
    """Client-side payload problem (HTTP 400)."""


def _parse_window(payload: dict) -> np.ndarray:
    if "window" not in payload:
        raise _BadRequest('request body must contain "window"')
    try:
        window = np.asarray(payload["window"], dtype=np.float64)
    except (TypeError, ValueError) as error:
        raise _BadRequest(f"window is not numeric: {error}") from None
    if window.ndim == 1:
        window = window[:, None]
    if window.ndim != 2 or window.shape[0] < 1:
        raise _BadRequest(
            f"window must be (time, features) or a flat univariate list, "
            f"got shape {tuple(window.shape)}"
        )
    if not np.all(np.isfinite(window)):
        raise _BadRequest("window contains NaN/Inf values; impute upstream")
    return window


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # A response leaves in two writes (headers, then body).  With Nagle on,
    # the body waits for the client's delayed ACK of the headers, ~40 ms
    # on Linux, on a keep-alive connection; TCP_NODELAY sends both at once.
    disable_nagle_algorithm = True

    @property
    def app(self) -> "InferenceServer":
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Per-request lines go to metrics, not stderr."""

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — http.server API
        with self.app._track_request():
            self._get()

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        with self.app._track_request():
            self._post()

    def _get(self) -> None:
        started = time.monotonic()
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            self._finish("/healthz", started, 200, self.app.health())
        elif path == "/metrics":
            self._finish("/metrics", started, 200, self.app.metrics_snapshot())
        elif path == "/models":
            self._finish("/models", started, 200, self.app.list_models())
        else:
            self._finish(path, started, 404,
                         {"error": "not_found", "detail": f"no route {path}"})

    def _post(self) -> None:
        started = time.monotonic()
        path = self.path.split("?", 1)[0]
        if path not in ("/score", "/predict"):
            self._finish(path, started, 404,
                         {"error": "not_found", "detail": f"no route {path}"})
            return
        model = "unknown"
        try:
            payload = self._read_json()
            model = str(payload.get("model", "")) or "unknown"
            body = self.app.score_request(payload, want_score=(path == "/score"))
            self._finish(path, started, 200, body, model=model)
        except _BadRequest as error:
            self._finish(path, started, 400,
                         {"error": "bad_request", "detail": str(error)}, model=model)
        except ModelNotFound as error:
            self._finish(path, started, 404,
                         {"error": "model_not_found", "detail": str(error)}, model=model)
        except Overloaded as error:
            self._finish(path, started, 429,
                         {"error": "overloaded", "detail": str(error)},
                         model=model, headers={"Retry-After": "1"})
        except CircuitOpen as error:
            # Per-model outage, not a service outage: this model's breaker
            # is open and nothing last-good is resident.  503 + Retry-After
            # tells clients when the half-open probe will be admitted.
            self._finish(path, started, 503,
                         {"error": "circuit_open", "detail": str(error)},
                         model=model,
                         headers={"Retry-After": str(max(1, math.ceil(error.retry_after)))})
        except TransientFault as error:
            self._finish(path, started, 503,
                         {"error": "transient", "detail": str(error)},
                         model=model, headers={"Retry-After": "1"})
        except (RegistryError, ServeError, ValueError, RuntimeError) as error:
            self._finish(path, started, 500,
                         {"error": "internal", "detail": str(error)}, model=model)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _read_json(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise _BadRequest("Content-Length is not an integer") from None
        if length <= 0:
            raise _BadRequest("request body required (JSON)")
        if length > _MAX_BODY_BYTES:
            raise _BadRequest(f"request body exceeds {_MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _BadRequest(f"body is not valid JSON: {error}") from None
        if not isinstance(payload, dict):
            raise _BadRequest("body must be a JSON object")
        return payload

    def _finish(self, endpoint: str, started: float, status: int, body: dict,
                model: str | None = None, headers: dict[str, str] | None = None) -> None:
        data = json.dumps(_jsonable(body)).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)
        metrics = self.app.metrics
        labels = {"endpoint": endpoint, "status": str(status)}
        if model is not None:
            labels["model"] = model
        metrics.counter("serve_http_requests_total", **labels).inc()
        metrics.histogram("serve_http_latency_seconds", endpoint=endpoint).observe(
            time.monotonic() - started
        )


class _BurstTolerantHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # The stdlib accept backlog of 5 makes the kernel drop handshakes when
    # tens of clients connect in the same instant — the client sees a
    # connection reset mid-request.  Simultaneous bursts are exactly the
    # traffic micro-batching exists for, so hold a deeper accept queue.
    request_queue_size = 128


class _InflightTracker:
    """Counts one HTTP handler in/out of the server's in-flight set."""

    __slots__ = ("_app",)

    def __init__(self, app: "InferenceServer"):
        self._app = app

    def __enter__(self) -> None:
        with self._app._inflight_cond:
            self._app._inflight_http += 1

    def __exit__(self, *exc_info) -> None:
        with self._app._inflight_cond:
            self._app._inflight_http -= 1
            self._app._inflight_cond.notify_all()


class InferenceServer:
    """Registry + micro-batcher + HTTP front end, wired and lifecycled.

    >>> server = InferenceServer(registry, port=0)     # doctest: +SKIP
    >>> host, port = server.start()                    # doctest: +SKIP
    >>> ...                                            # doctest: +SKIP
    >>> server.stop()                                  # doctest: +SKIP

    ``port=0`` binds an ephemeral port (tests, demos); :attr:`url` gives
    the resolved address after :meth:`start`.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        host: str = "127.0.0.1",
        port: int = 8080,
        max_batch_size: int = 32,
        max_queue: int = 256,
        workers: int = 1,
        procs: int = 0,
        max_inflight_per_model: int = 64,
        metrics: MetricsRegistry | None = None,
    ):
        self.registry = registry
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.batcher = MicroBatcher(
            detector_for=self._detector_for,
            max_batch_size=max_batch_size,
            max_queue=max_queue,
            workers=workers,
            metrics=self.metrics,
        )
        #: ``procs > 0`` swaps the scoring tier: windows route to the
        #: process pool (sharded past the GIL) instead of the in-process
        #: thread scheduler; ``procs=0`` keeps the thread fallback.
        self.pool: ProcessPool | None = None
        if procs > 0:
            self.pool = ProcessPool(
                procs=procs,
                max_inflight_per_model=max_inflight_per_model,
                metrics=self.metrics,
            )
        self._httpd = _BurstTolerantHTTPServer((host, port), _Handler)
        self._httpd.app = self  # type: ignore[attr-defined]
        self._serve_thread: threading.Thread | None = None
        #: In-flight HTTP handler count: stop() drains these to zero
        #: before the scoring tier goes away, so accepted requests
        #: always complete (graceful shutdown).
        self._inflight_http = 0
        self._inflight_cond = named_lock("serve.http.inflight", kind="condition")

    # ------------------------------------------------------------------
    # request handling (called from handler threads)
    # ------------------------------------------------------------------
    def _detector_for(self, model_key: str):
        name, _, version = model_key.partition(":")
        detector, _ = self.registry.load(name, version or None)
        return detector

    def score_request(self, payload: dict, want_score: bool) -> dict:
        name = payload.get("model")
        if not name or not isinstance(name, str):
            raise _BadRequest('request body must name a "model"')
        version = payload.get("version")
        if version is not None and not isinstance(version, str):
            raise _BadRequest('"version" must be a string when given')
        window = _parse_window(payload)
        # Resolve "latest" to a concrete version *before* batching so the
        # batcher groups requests by the version they will actually hit.
        # The registry load also keeps the parent-side degradation ladder
        # (retries, quarantine fallback, circuit breakers) in front of
        # both scoring tiers.
        detector, resolved = self.registry.load(name, version)
        if self.pool is not None:
            score = self.pool.score(name, resolved, detector, window)
        else:
            score = self.batcher.score(f"{name}:{resolved}", window)
        threshold = float(detector.threshold_)
        body = {
            "model": name,
            "version": resolved,
            "anomaly": bool(math.isfinite(score) and score >= threshold),
        }
        if want_score:
            body["score"] = score
            body["threshold"] = threshold
        return body

    def metrics_snapshot(self) -> dict:
        """The ``/metrics`` body: the registry's snapshot plus the
        scoring-tape trace count of this process and its pool workers."""
        snapshot = self.metrics.snapshot()
        traces = jit.trace_count()
        if self.pool is not None:
            traces += self.pool.worker_traces()
        snapshot["counters"]["jit_traces_total"] = float(traces)
        return snapshot

    def health(self) -> dict:
        """Liveness plus per-model serving state.

        ``models`` maps each registered name to its
        :meth:`~repro.serve.registry.ModelRegistry.status` — live
        version, circuit-breaker state, quarantined artifacts, degraded
        flag — so one poll answers "which models are sick", not just "is
        the process up".  The top-level ``status`` turns ``"degraded"``
        when any model is (the process still serves healthy models).
        """
        models = {name: self.registry.status(name) for name in self.registry.models()}
        degraded = any(status["degraded"] for status in models.values())
        body = {
            "status": "degraded" if degraded else "ok",
            "models": models,
            "queue_depth": self.batcher.queue_depth,
            "workers": len(self.batcher._workers),
        }
        if self.pool is not None:
            pool = self.pool.status()
            body["pool"] = pool
            # Dead worker shards are degraded service (requests re-route
            # or fail retryable) even while every model's registry state
            # is healthy.
            if pool["alive"] < pool["procs"]:
                body["status"] = "degraded"
        return body

    def list_models(self) -> dict:
        return {
            "models": {name: self.registry.versions(name) for name in self.registry.models()}
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def _track_request(self):
        """Context manager counting in-flight HTTP handlers (for the drain)."""
        return _InflightTracker(self)

    def _start_scoring_tier(self) -> None:
        if self.pool is not None:
            self.pool.start()
        else:
            self.batcher.start()

    def _stop_scoring_tier(self) -> None:
        if self.pool is not None:
            self.pool.stop()
        self.batcher.stop()

    def _drain_http(self, timeout: float = 10.0) -> None:
        """Wait for accepted HTTP requests to finish before teardown."""
        with self._inflight_cond:
            self._inflight_cond.wait_for(
                lambda: self._inflight_http == 0, timeout=timeout
            )

    def start(self) -> tuple[str, int]:
        """Start the scoring tier and the HTTP accept loop (background)."""
        self._start_scoring_tier()
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self._httpd.serve_forever, name="repro-serve-http", daemon=True,
                kwargs={"poll_interval": 0.05},
            )
            self._serve_thread.start()
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def stop(self) -> None:
        """Graceful shutdown: accept no more, drain in-flight, then teardown.

        Order matters: ``shutdown()`` only stops *new* connections;
        handler threads already inside ``/score`` still need the scoring
        tier, so the batcher/pool stops only after the in-flight count
        drains to zero.
        """
        self._httpd.shutdown()
        self._drain_http()
        self._stop_scoring_tier()
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None

    def __enter__(self) -> "InferenceServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def serve_forever(self) -> None:
        """Foreground serve (the CLI path); Ctrl-C or SIGTERM stops
        gracefully: in-flight requests drain, then the scoring tier
        stops (pool workers exit and their shared memory is released)."""
        self._start_scoring_tier()
        host, port = self._httpd.server_address[:2]
        tier = (f"{self.pool.procs} worker processes" if self.pool is not None
                else f"{len(self.batcher._workers)} worker threads")
        print(f"repro.serve listening on http://{host}:{port} "
              f"({tier}; models: {', '.join(self.registry.models()) or 'none'})",
              flush=True)
        # SIGTERM (a service manager's stop) takes the Ctrl-C path.  Only
        # the main thread may install a handler.
        on_main = threading.current_thread() is threading.main_thread()
        if on_main:
            previous = signal.signal(signal.SIGTERM, _interrupt)
        try:
            self._httpd.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            print("\nshutting down (draining in-flight requests)...", flush=True)
        finally:
            if on_main:
                # A second signal must not cut the drain short.
                signal.signal(signal.SIGTERM, signal.SIG_IGN)
            self._drain_http()
            self._stop_scoring_tier()
            self._httpd.server_close()
            if on_main:
                signal.signal(signal.SIGTERM,
                              signal.SIG_DFL if previous is None else previous)
            print("repro.serve stopped", flush=True)


def _interrupt(signum, frame) -> None:
    """SIGTERM handler: stop :meth:`InferenceServer.serve_forever` as Ctrl-C does."""
    raise KeyboardInterrupt

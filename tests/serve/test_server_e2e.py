"""End-to-end: in-process HTTP server, concurrent clients, metrics.

Covers the acceptance criteria: the server starts in-process, serves a
registered fitted detector, scores concurrent requests through the
micro-batcher with results equal to sequential scoring, and ``/metrics``
reports non-zero request counts and latency histograms.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import numpy as np
import pytest

from repro.serve import InferenceServer, ModelRegistry


def _post(url: str, path: str, payload: dict) -> tuple[int, dict]:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url + path, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(url: str, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url + path, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture(scope="module")
def served(tmp_path_factory, fitted_tfmae):
    """One registry + running server shared by the module's tests."""
    registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
    registry.publish("tfmae", fitted_tfmae)     # v1
    registry.publish("tfmae", fitted_tfmae)     # v2 (same weights, tests "latest")
    server = InferenceServer(registry, port=0, max_batch_size=8,
                             workers=2)
    with server:
        yield server


class TestEndToEnd:
    def test_concurrent_scores_equal_sequential(self, served, fitted_tfmae, sine_series):
        windows = [sine_series[i : i + 50] for i in range(100, 180, 2)]
        expected = np.array([fitted_tfmae.score(w)[-1] for w in windows])
        statuses: list[int | None] = [None] * len(windows)
        bodies: list[dict | None] = [None] * len(windows)

        def client(index: int) -> None:
            statuses[index], bodies[index] = _post(
                served.url, "/score",
                {"model": "tfmae", "window": windows[index].tolist()},
            )

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(windows))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert all(status == 200 for status in statuses)
        got = np.array([body["score"] for body in bodies])
        assert np.array_equal(expected, got)
        # Latest version resolved and echoed back.
        assert all(body["version"] == "v2" for body in bodies)
        # The calibrated threshold is served with every score.
        assert all(body["threshold"] == fitted_tfmae.threshold_ for body in bodies)

    def test_simultaneous_connect_burst_survives(self, served, sine_series):
        """All connections in one instant succeed (regression: the stdlib
        accept backlog of 5 reset bursty clients at the kernel level)."""
        clients = 48
        barrier = threading.Barrier(clients)
        window = sine_series[:50].tolist()
        results: list[object] = [None] * clients

        def client(index: int) -> None:
            barrier.wait()
            try:
                results[index], _ = _post(
                    served.url, "/score", {"model": "tfmae", "window": window}
                )
            except OSError as error:  # ConnectionResetError et al.
                results[index] = repr(error)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == [200] * clients

    def test_metrics_report_requests_and_latency(self, served, sine_series):
        _post(served.url, "/score",
              {"model": "tfmae", "window": sine_series[:50].tolist()})
        status, snapshot = _get(served.url, "/metrics")
        assert status == 200
        counters = snapshot["counters"]
        score_requests = [value for key, value in counters.items()
                          if key.startswith("serve_http_requests_total")
                          and "endpoint=/score" in key and "status=200" in key]
        assert sum(score_requests) > 0
        latency = snapshot["histograms"]["serve_http_latency_seconds{endpoint=/score}"]
        assert latency["count"] > 0
        for quantile in ("p50", "p95", "p99"):
            assert latency[quantile] is not None and latency[quantile] >= 0
        batch = snapshot["histograms"]["serve_batch_size"]
        assert batch["count"] > 0

    def test_metrics_export_the_trace_count(self, served, sine_series):
        """Warm traffic replays: a scored window shape stops tracing."""
        from repro.nn import jit

        payload = {"model": "tfmae", "window": sine_series[:50].tolist()}
        _post(served.url, "/score", payload)
        _, before = _get(served.url, "/metrics")
        traces = before["counters"]["jit_traces_total"]
        assert traces >= 1
        assert traces == jit.trace_count()
        for _ in range(3):
            _post(served.url, "/score", payload)
        _, after = _get(served.url, "/metrics")
        assert after["counters"]["jit_traces_total"] == traces

    def test_predict_returns_label_only(self, served, fitted_tfmae, sine_series):
        window = sine_series[100:150]
        status, body = _post(served.url, "/predict",
                             {"model": "tfmae", "window": window.tolist()})
        assert status == 200
        expected = bool(fitted_tfmae.score(window)[-1] >= fitted_tfmae.threshold_)
        assert body["anomaly"] is expected
        assert "score" not in body and "threshold" not in body

    def test_pinned_version(self, served, sine_series):
        status, body = _post(served.url, "/score",
                             {"model": "tfmae", "version": "v1",
                              "window": sine_series[:50].tolist()})
        assert status == 200
        assert body["version"] == "v1"

    def test_univariate_flat_window_accepted(self, served, sine_series):
        status, body = _post(served.url, "/score",
                             {"model": "tfmae",
                              "window": sine_series[:50, 0].tolist()})
        assert status == 200

    def test_healthz(self, served):
        status, body = _get(served.url, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert "tfmae" in body["models"]
        model = body["models"]["tfmae"]
        assert model["live"] == "v2"
        assert model["breaker"] == "closed"
        assert model["degraded"] is False
        assert body["queue_depth"] == 0
        assert body["workers"] == 2

    def test_forced_open_breaker_flips_healthz(self, served):
        """Regression for the health payload: breaker state must surface
        per model, flipping the top-level status to degraded."""
        breaker = served.registry.breaker_for("tfmae")
        try:
            breaker.force_open()
            status, body = _get(served.url, "/healthz")
            assert status == 200
            assert body["status"] == "degraded"
            model = body["models"]["tfmae"]
            assert model["breaker"] == "open"
            assert model["degraded"] is True
            assert model["retry_after"] > 0
        finally:
            breaker.record_success()
        _, body = _get(served.url, "/healthz")
        assert body["status"] == "ok"
        assert body["models"]["tfmae"]["breaker"] == "closed"

    def test_models_listing(self, served):
        status, body = _get(served.url, "/models")
        assert status == 200
        assert body["models"]["tfmae"] == ["v1", "v2"]


class TestWire:
    def test_keep_alive_round_trips_do_not_stall(self, served, sine_series):
        """Regression for two idle waits: a response sent in two writes
        (headers, then body) sat behind Nagle until the client's delayed
        ACK, ~40 ms per request on a keep-alive connection; and a lone
        /score waited for company that never came."""
        server = InferenceServer(served.registry, port=0)
        body = json.dumps({"model": "tfmae",
                           "window": sine_series[:50].tolist()})
        with server:
            connection = http.client.HTTPConnection(
                server.url.removeprefix("http://"), timeout=30)

            def round_trip(method: str, path: str, expected: int) -> float:
                started = time.perf_counter()
                connection.request(method, path, body=body if method == "POST" else None,
                                   headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                response.read()
                assert response.status == expected
                return time.perf_counter() - started

            try:
                round_trip("POST", "/score", 200)      # first trace, unmeasured
                times = {
                    "healthz": [round_trip("GET", "/healthz", 200) for _ in range(20)],
                    "score": [round_trip("POST", "/score", 200) for _ in range(20)],
                    "404": [], "200 after 404": [],
                }
                for _ in range(20):
                    times["404"].append(round_trip("GET", "/nope", 404))
                    times["200 after 404"].append(round_trip("GET", "/healthz", 200))
            finally:
                connection.close()
        medians = {name: statistics.median(samples) for name, samples in times.items()}
        assert all(median < 0.010 for median in medians.values()), medians


class TestErrorMapping:
    def test_unknown_model_404(self, served, sine_series):
        status, body = _post(served.url, "/score",
                             {"model": "ghost", "window": sine_series[:50].tolist()})
        assert status == 404
        assert body["error"] == "model_not_found"

    def test_unknown_version_404(self, served, sine_series):
        status, body = _post(served.url, "/score",
                             {"model": "tfmae", "version": "v99",
                              "window": sine_series[:50].tolist()})
        assert status == 404

    def test_missing_window_400(self, served):
        status, body = _post(served.url, "/score", {"model": "tfmae"})
        assert status == 400
        assert body["error"] == "bad_request"

    def test_nonfinite_window_400(self, served):
        status, body = _post(served.url, "/score",
                             {"model": "tfmae", "window": [1.0, None, 3.0]})
        assert status == 400

    def test_invalid_json_400(self, served):
        request = urllib.request.Request(
            served.url + "/score", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("length", ["abc", "1.5"])
    def test_malformed_content_length_400(self, served, length):
        address = urllib.parse.urlsplit(served.url)
        host = address.hostname
        with socket.create_connection((host, address.port), timeout=30) as sock:
            sock.sendall(f"POST /score HTTP/1.1\r\nHost: {host}\r\n"
                         f"Content-Length: {length}\r\n"
                         f"Connection: close\r\n\r\n".encode("ascii"))
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert head.split(b" ", 2)[1] == b"400"
        assert json.loads(payload)["error"] == "bad_request"

    def test_unknown_route_404(self, served):
        status, body = _get(served.url, "/nope")
        assert status == 404

    def test_error_requests_counted(self, served, sine_series):
        _post(served.url, "/score", {"model": "ghost",
                                     "window": sine_series[:50].tolist()})
        _, snapshot = _get(served.url, "/metrics")
        missing = [value for key, value in snapshot["counters"].items()
                   if "status=404" in key and "model=ghost" in key]
        assert sum(missing) > 0

"""Graceful HTTP shutdown: accepted ``/score`` requests drain, never drop.

``InferenceServer.stop()`` must stop *accepting* first, then wait for
handlers already inside the request path to finish — with the scoring
tier (threads or process pool) kept alive until the drain completes.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

from repro.serve import InferenceServer, ModelRegistry


def _post_score(url: str, payload: dict, timeout: float = 60.0):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url + "/score", data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def test_inflight_request_drains_before_thread_tier_stops(
    tmp_path, fitted_tfmae, sine_series
):
    """A request parked inside scoring completes even when stop() races it."""
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish("tfmae", fitted_tfmae)
    server = InferenceServer(registry, port=0, workers=1)
    server.start()
    payload = {"model": "tfmae", "window": sine_series[:50].tolist()}
    _, body = _post_score(server.url, payload)
    expected = body["score"]

    gate = threading.Event()
    entered = threading.Event()
    original = server.batcher.detector_for

    def gated(key: str):
        entered.set()
        gate.wait(timeout=30.0)
        return original(key)

    server.batcher.detector_for = gated
    result: dict = {}

    def client() -> None:
        result["response"] = _post_score(server.url, payload)

    client_thread = threading.Thread(target=client)
    client_thread.start()
    assert entered.wait(timeout=10.0)

    stopper = threading.Thread(target=server.stop)
    stopper.start()
    # stop() must now be parked in the drain: the accept loop is down but
    # the in-flight handler (blocked behind the gate) holds it open.
    time.sleep(0.3)
    assert stopper.is_alive()
    assert server._inflight_http == 1
    gate.set()
    client_thread.join(timeout=30.0)
    stopper.join(timeout=30.0)
    assert not stopper.is_alive()
    status, body = result["response"]
    assert status == 200
    assert body["score"] == expected


def test_concurrent_scores_drain_under_process_pool(
    tmp_path, fitted_tfmae, sine_series
):
    """Stopping mid-burst never drops an accepted request (pool tier)."""
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish("tfmae", fitted_tfmae)
    server = InferenceServer(registry, port=0, procs=2)
    server.start()
    window = sine_series[:50]
    payload = {"model": "tfmae", "window": window.tolist()}
    _, body = _post_score(server.url, payload)
    expected = body["score"]

    results: list = []
    lock = threading.Lock()

    def client() -> None:
        try:
            outcome = _post_score(server.url, payload)
        except (urllib.error.URLError, ConnectionError, OSError) as error:
            # Refused at connect after shutdown — acceptable; what must
            # never happen is an accepted request dying mid-flight.
            outcome = ("refused", str(error))
        with lock:
            results.append(outcome)

    threads = [threading.Thread(target=client) for _ in range(12)]
    for thread in threads:
        thread.start()
    time.sleep(0.05)  # let the burst land in-flight
    server.stop()
    for thread in threads:
        thread.join(timeout=60.0)

    assert len(results) == 12
    completed = [r for r in results if r[0] == 200]
    assert completed, f"every request was refused: {results}"
    for status, body in completed:
        assert body["score"] == expected  # drained AND bitwise correct
    # Nothing came back as a server-side drop (5xx / truncated response).
    assert all(status in (200, "refused") for status, _ in results)


def test_stop_is_idempotent_and_releases_port(tmp_path, fitted_tfmae):
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish("tfmae", fitted_tfmae)
    server = InferenceServer(registry, port=0, workers=1)
    host, port = server.start()
    server.stop()
    server.stop()  # second stop is a no-op, not an error
    # The port is free again: a new server can bind it immediately.
    rebound = InferenceServer(registry, host=host, port=port, workers=1)
    rebound.start()
    rebound.stop()


def test_sigterm_drains_the_cli_pool_server(tmp_path):
    """SIGTERM (a service manager's stop) takes the Ctrl-C path: the
    process exits 0 after the pool tier stops, and every shared-memory
    weight segment is unlinked, so the resource tracker reports none
    leaked."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    stdout, stderr = tmp_path / "stdout.txt", tmp_path / "stderr.txt"
    with open(stdout, "w") as out, open(stderr, "w") as err:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--demo", "--procs", "2",
             "--port", "0", "--registry", str(tmp_path / "registry")],
            cwd=tmp_path, env=env, stdout=out, stderr=err,
        )
    try:
        deadline = time.monotonic() + 300.0
        match = None
        while match is None and process.poll() is None and time.monotonic() < deadline:
            time.sleep(0.2)
            match = re.search(r"listening on (http://\S+:\d+)", stdout.read_text())
        assert match is not None, stderr.read_text()
        # One score makes the pool export the model's weight segment.
        window = np.sin(np.arange(100) / 5.0).tolist()
        status, _ = _post_score(match.group(1), {"model": "demo", "window": window})
        assert status == 200
        process.send_signal(signal.SIGTERM)
        process.wait(timeout=60.0)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    errors = stderr.read_text()
    assert process.returncode == 0, errors
    assert "repro.serve stopped" in stdout.read_text()
    assert "leaked shared_memory" not in errors

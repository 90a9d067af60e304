"""Chaos suite (``make chaos``): graceful degradation of the serve stack.

Every test drives a *live* in-process HTTP server through
:class:`repro.robustness.chaos.ChaosHarness` and asserts the contract in
:data:`~repro.robustness.chaos.CHAOS_FAULTS`: healthy models answer
non-5xx under every fault, damage is contained (quarantine, breaker,
shed), and recovery is automatic.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.robustness.chaos import CHAOS_FAULTS, ChaosHarness
from repro.serve import InferenceServer, ModelRegistry

pytestmark = pytest.mark.chaos


def _post(url: str, path: str, payload: dict) -> tuple[int, dict, dict]:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url + path, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _get(url: str, path: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url + path, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@contextlib.contextmanager
def _server(tmp_path, detector, names=("tfmae",), versions=1, **registry_kwargs):
    registry_kwargs.setdefault("retry_backoff", 0.01)
    registry = ModelRegistry(tmp_path / "registry", **registry_kwargs)
    for name in names:
        for _ in range(versions):
            registry.publish(name, detector)
    server = InferenceServer(registry, port=0, max_batch_size=4, max_queue=8)
    with server:
        yield server


def test_fault_matrix_is_complete():
    """The taxonomy the docs/bench/tests share names every scenario here."""
    assert set(CHAOS_FAULTS) == {
        "corrupt_artifact", "truncated_artifact", "slow_load",
        "transient_load_failure", "worker_exception", "queue_saturation",
        "worker_process_kill",
    }
    for fault, spec in CHAOS_FAULTS.items():
        assert spec["target"] in ("registry", "scheduler", "pool"), fault
        assert spec["expect"], fault


class TestArtifactFaults:
    def test_corrupt_live_artifact_quarantined_and_prior_served(
        self, tmp_path, fitted_tfmae, sine_series
    ):
        payload = {"model": "tfmae", "window": sine_series[:50].tolist()}
        with _server(tmp_path, fitted_tfmae, versions=2) as server:
            status, body, _ = _post(server.url, "/score", payload)
            assert status == 200 and body["version"] == "v2"
            baseline = body["score"]
            with ChaosHarness(server) as chaos:
                chaos.corrupt_artifact("tfmae")  # damages live v2, evicts it
                status, body, _ = _post(server.url, "/score", payload)
                # Still answering, one version back — and versions are
                # immutable snapshots of the same fit, so bit-for-bit.
                assert status == 200
                assert body["version"] == "v1"
                assert body["score"] == baseline
                assert server.registry.quarantined("tfmae") == ["tfmae__v2.npz"]
                _, health = _get(server.url, "/healthz")
                assert health["status"] == "degraded"
                assert health["models"]["tfmae"]["degraded"] is True

    def test_truncated_solo_artifact_contained_to_its_model(
        self, tmp_path, fitted_tfmae, sine_series
    ):
        window = sine_series[:50].tolist()
        with _server(tmp_path, fitted_tfmae, names=("brittle", "healthy")) as server:
            with ChaosHarness(server) as chaos:
                chaos.corrupt_artifact("brittle", truncate=True)
                status, body, _ = _post(server.url, "/score",
                                        {"model": "brittle", "window": window})
                # Typed 500 (never a raw zipfile traceback), artifact
                # quarantined, nothing left to fall back to.
                assert status == 500
                assert body["error"] == "internal"
                assert "no loadable version" in body["detail"]
                assert server.registry.quarantined("brittle") == ["brittle__v1.npz"]
                # The healthy model never notices.
                status, body, _ = _post(server.url, "/score",
                                        {"model": "healthy", "window": window})
                assert status == 200
                _, health = _get(server.url, "/healthz")
                assert health["status"] == "degraded"
                assert health["models"]["brittle"]["degraded"] is True
                assert health["models"]["healthy"]["degraded"] is False


class TestLoadFaults:
    def test_backoff_absorbs_burst_then_breaker_opens_and_recovers(
        self, tmp_path, fitted_tfmae, sine_series
    ):
        payload = {"model": "tfmae", "window": sine_series[:50].tolist()}
        with _server(tmp_path, fitted_tfmae, load_retries=2, retry_backoff=0.01,
                     breaker_threshold=2, breaker_reset=0.3) as server:
            with ChaosHarness(server) as chaos:
                # A two-failure burst is absorbed by capped backoff.
                state = chaos.inject_transient_load_failures(times=2)
                status, _, _ = _post(server.url, "/score", payload)
                assert status == 200
                assert state["injected"] == 2
                assert server.registry.breaker_for("tfmae").state == "closed"

                # Persistent failure (nothing resident): 503s, then the
                # breaker opens and refuses without touching the disk.
                chaos.evict("tfmae")
                state = chaos.inject_transient_load_failures(times=None)
                for _ in range(2):
                    status, body, headers = _post(server.url, "/score", payload)
                    assert status == 503
                    assert body["error"] == "transient"
                    assert headers.get("Retry-After") == "1"
                injected_before = state["injected"]
                status, body, headers = _post(server.url, "/score", payload)
                assert status == 503
                assert body["error"] == "circuit_open"
                assert int(headers["Retry-After"]) >= 1
                assert state["injected"] == injected_before  # no disk attempt

                # Past the reset window the half-open probe heals it.
                chaos.clear_load_faults()
                time.sleep(0.35)
                status, body, _ = _post(server.url, "/score", payload)
                assert status == 200
                assert server.registry.breaker_for("tfmae").state == "closed"

    def test_slow_load_does_not_stall_healthy_models(
        self, tmp_path, fitted_tfmae, sine_series
    ):
        window = sine_series[:50].tolist()
        with _server(tmp_path, fitted_tfmae, names=("slow", "fast")) as server:
            with ChaosHarness(server) as chaos:
                chaos.inject_slow_load(0.8, models={"slow"})
                results: dict[str, tuple] = {}

                def stalled() -> None:
                    results["slow"] = _post(server.url, "/score",
                                            {"model": "slow", "window": window})

                thread = threading.Thread(target=stalled)
                thread.start()
                time.sleep(0.15)  # the slow read now holds its per-name lock
                started = time.monotonic()
                status, _, _ = _post(server.url, "/score",
                                     {"model": "fast", "window": window})
                fast_elapsed = time.monotonic() - started
                thread.join()
                assert status == 200
                # Per-name load locks: the stalled read never blocks the
                # healthy model's cold load.
                assert fast_elapsed < 0.6
                # And the stalled model's request completes fine, late.
                assert results["slow"][0] == 200


class TestSchedulerFaults:
    def test_worker_exception_fails_one_request_and_worker_survives(
        self, tmp_path, fitted_tfmae, sine_series
    ):
        payload = {"model": "tfmae", "window": sine_series[:50].tolist()}
        with _server(tmp_path, fitted_tfmae) as server:
            _, body, _ = _post(server.url, "/score", payload)
            baseline = body["score"]
            with ChaosHarness(server) as chaos:
                state = chaos.inject_worker_exception(times=1)
                status, body, _ = _post(server.url, "/score", payload)
                assert status == 500
                assert "chaos" in body["detail"]
                assert state["injected"] == 1
            # The worker thread survived; the very next request scores,
            # bitwise equal to before the fault.
            status, body, _ = _post(server.url, "/score", payload)
            assert status == 200
            assert body["score"] == baseline

    def test_queue_saturation_sheds_new_load_but_loses_nothing(
        self, tmp_path, fitted_tfmae, sine_series
    ):
        window = sine_series[:50]
        payload = {"model": "tfmae", "window": window.tolist()}
        with _server(tmp_path, fitted_tfmae) as server:
            _, body, _ = _post(server.url, "/score", payload)
            expected = body["score"]
            with ChaosHarness(server) as chaos:
                accepted = chaos.saturate_queue("tfmae:v1", window)
                assert accepted >= 8  # at least the queue capacity parked
                # New load is shed immediately, not queued unboundedly.
                status, body, headers = _post(server.url, "/score", payload)
                assert status == 429
                assert body["error"] == "overloaded"
                assert headers.get("Retry-After") == "1"
                # ...but nothing accepted is ever lost.
                scores = chaos.release_queue()
                assert len(scores) == accepted
                assert all(score == expected for score in scores)
            status, _, _ = _post(server.url, "/score", payload)
            assert status == 200


class TestPoolFaults:
    def test_worker_kill_detect_respawn_recover(
        self, tmp_path, fitted_tfmae, sine_series
    ):
        """worker_process_kill: detection → re-route → respawn → recovery.

        Two models on a two-worker pool; the second is named so that the
        pool routes it to the worker "tfmae" does not use.  Killing
        tfmae's worker must leave the other model serving bitwise-stable
        scores throughout, and tfmae must come back on the respawned
        worker with scores bitwise equal to before the crash.
        """
        payload = {"model": "tfmae", "window": sine_series[:50].tolist()}
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("tfmae", fitted_tfmae)
        server = InferenceServer(registry, port=0, procs=2)
        with server:
            pool = server.pool
            other = next(name for name in (f"other-{i}" for i in range(64))
                         if pool.worker_for(name) != pool.worker_for("tfmae"))
            registry.publish(other, fitted_tfmae)
            other_payload = {"model": other, "window": sine_series[:50].tolist()}
            status, body, _ = _post(server.url, "/score", payload)
            assert status == 200
            baseline = body["score"]
            status, body, _ = _post(server.url, "/score", other_payload)
            assert status == 200
            other_baseline = body["score"]
            assert pool.worker_for("tfmae") != pool.worker_for(other)
            with ChaosHarness(server) as chaos:
                victim = chaos.kill_worker(model="tfmae")
                # The healthy model's worker is untouched: it serves
                # throughout the other shard's outage.
                status, body, _ = _post(server.url, "/score", other_payload)
                assert status == 200
                assert body["score"] == other_baseline
                assert chaos.wait_for_respawn(victim)
            # Shard routed back to the respawned worker; scores are
            # bitwise what they were before the crash (same shared
            # weights, re-attached).
            assert pool.worker_for("tfmae") == victim["slot"]
            deadline = time.monotonic() + 10.0
            while True:
                status, body, _ = _post(server.url, "/score", payload)
                if status == 200 or time.monotonic() >= deadline:
                    break
                time.sleep(0.05)  # 503 while the shard re-routes is contract
            assert status == 200
            assert body["score"] == baseline
            health_status, health = _get(server.url, "/healthz")
            assert health_status == 200
            assert health["pool"]["workers"][victim["slot"]]["respawns"] >= 1
            assert health["pool"]["alive"] == 2

"""Process-pool tier: routing, shared weights, equivalence, supervision.

Pool startup pays a worker-process spawn (~seconds of interpreter +
import time each), so the integration tests share one module-scoped
two-worker pool and the crash test spawns its own.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.serve import (
    MicroBatcher,
    Overloaded,
    ProcessPool,
    TransientFault,
    WeightSegment,
    attach_segment,
)
from repro.serve.pool import (
    _BLAS_THREAD_VARS,
    _classify,
    _rebuild_error,
    _route,
    _single_threaded_blas,
)


class TestRouting:
    SLOTS = ["w0", "w1", "w2"]

    def test_routing_is_stable_and_total(self):
        keys = [f"model-{i}" for i in range(64)]
        owners = {key: _route(key, self.SLOTS) for key in keys}
        assert set(owners.values()) <= set(self.SLOTS)
        assert {key: _route(key, list(reversed(self.SLOTS))) for key in keys} == owners

    def test_node_death_moves_only_its_shard(self):
        keys = [f"model-{i}" for i in range(200)]
        before = {key: _route(key, self.SLOTS) for key in keys}
        survivors = ["w0", "w2"]
        after = {key: _route(key, survivors) for key in keys}
        for key in keys:
            if before[key] != "w1":
                assert after[key] == before[key]  # survivors keep their shard
            else:
                assert after[key] in survivors

    def test_respawn_routes_shard_back(self):
        keys = [f"model-{i}" for i in range(200)]
        before = {key: _route(key, self.SLOTS) for key in keys}
        assert {key: _route(key, ["w0", "w1"]) for key in keys} != before
        assert {key: _route(key, ["w0", "w1", "w2"]) for key in keys} == before

    def test_no_live_slot_is_retryable(self):
        with pytest.raises(TransientFault):
            _route("anything", [])

    def test_load_spreads_over_slots(self):
        slots = [f"w{i}" for i in range(4)]
        counts: dict[str, int] = {}
        for i in range(2000):
            owner = _route(f"key-{i}", slots)
            counts[owner] = counts.get(owner, 0) + 1
        assert len(counts) == 4
        assert min(counts.values()) > 2000 / 4 * 0.4  # no starved slot


class TestWeightSegment:
    def test_publish_attach_roundtrip_bitwise(self, fitted_tfmae):
        module = fitted_tfmae.model
        segment = WeightSegment.publish(module)
        try:
            reader = attach_segment(segment.name, segment.manifest)
            source = module.state_dict()
            shared = reader.state()
            assert set(shared) == set(source)
            for key, array in source.items():
                assert np.array_equal(shared[key], array)
                assert not shared[key].flags.writeable
            reader.close()
        finally:
            segment.close()

    def test_owner_close_unlinks(self, fitted_tfmae):
        segment = WeightSegment.publish(fitted_tfmae.model)
        name, manifest = segment.name, segment.manifest
        segment.close()
        with pytest.raises(FileNotFoundError):
            attach_segment(name, manifest)

    def test_segment_size_matches_layout(self, fitted_tfmae):
        from repro.nn.serialization import state_layout

        nbytes, _ = state_layout(fitted_tfmae.model.state_dict())
        with WeightSegment.publish(fitted_tfmae.model) as segment:
            assert segment.nbytes == nbytes


class TestErrorTransport:
    def test_typed_errors_survive_the_pipe(self):
        for error in (Overloaded(depth=4, capacity=4), TransientFault("x"),
                      ValueError("bad"), RuntimeError("boom")):
            kind = _classify(error)
            rebuilt = _rebuild_error(kind, str(error))
            assert isinstance(rebuilt, Exception)
        assert _classify(TransientFault("x")) == "transient"
        assert isinstance(_rebuild_error("transient", "x"), TransientFault)
        assert isinstance(_rebuild_error("value", "x"), ValueError)
        assert isinstance(_rebuild_error("unknown_kind", "x"), RuntimeError)


@pytest.fixture(scope="module")
def pool(fitted_tfmae):
    with ProcessPool(procs=2, heartbeat_interval=0.2) as pool:
        yield pool


class TestProcessPool:
    def test_scores_bitwise_match_direct_and_threaded_paths(
        self, pool, fitted_tfmae, sine_series
    ):
        window = sine_series[-50:]
        direct = float(fitted_tfmae.score_last(window[None])[0])
        batcher = MicroBatcher(detector_for=lambda key: fitted_tfmae)
        with batcher:
            threaded = batcher.score("tfmae:v1", window)
        assert threaded == direct
        with ThreadPoolExecutor(8) as executor:
            pooled = list(executor.map(
                lambda _: pool.score("tfmae", "v1", fitted_tfmae, window),
                range(24),
            ))
        assert all(score == direct for score in pooled)

    def test_model_routes_to_one_worker_for_locality(
        self, pool, fitted_tfmae, sine_series
    ):
        owner = pool.worker_for("tfmae")
        status = pool.status()
        assert status["routing"]["tfmae"] == owner
        assert "tfmae:v1" in status["workers"][owner]["resident_models"]
        others = [w for slot, w in status["workers"].items() if slot != owner]
        assert all("tfmae:v1" not in w["resident_models"] for w in others)

    def test_one_shared_segment_per_model_version(
        self, pool, fitted_tfmae, sine_series
    ):
        from repro.nn.serialization import state_layout

        nbytes, _ = state_layout(fitted_tfmae.model.state_dict())
        status = pool.status()
        assert status["shared_segments"] == {"tfmae:v1": nbytes}
        # Scoring the same model again must not publish another copy.
        pool.score("tfmae", "v1", fitted_tfmae, sine_series[-50:])
        assert pool.status()["shared_segments"] == {"tfmae:v1": nbytes}

    def test_worker_rss_reports_shared_mapping(self, pool, fitted_tfmae, sine_series):
        pool.score("tfmae", "v1", fitted_tfmae, sine_series[-50:])
        owner = pool.worker_for("tfmae")
        report = pool.worker_rss()
        assert set(report) == set(pool.status()["workers"])
        assert {"VmRSS", "RssAnon", "RssShmem"} <= set(report[owner])
        # The owning worker maps the segment; pages it touched while
        # scoring are shared, not private copies.
        assert report[owner]["RssShmem"] > 0

    def test_admission_quota_sheds_with_overloaded(self, pool, fitted_tfmae,
                                                   sine_series):
        window = sine_series[-50:]
        quota = pool.max_inflight_per_model
        with pool._lock:
            pool._inflight_by_model["tfmae"] = quota  # simulate a full model
        try:
            with pytest.raises(Overloaded):
                pool.submit("tfmae", "v1", fitted_tfmae, window)
        finally:
            with pool._lock:
                del pool._inflight_by_model["tfmae"]
        assert pool.score("tfmae", "v1", fitted_tfmae, window) is not None

    def test_status_and_metrics_surface_pool_state(self, pool, fitted_tfmae,
                                                   sine_series):
        pool.score("tfmae", "v1", fitted_tfmae, sine_series[-50:])
        status = pool.status()
        assert status["procs"] == 2
        assert status["alive"] == 2
        assert status["inflight"] == 0
        for worker in status["workers"].values():
            assert worker["breaker"] == "closed"
            assert worker["alive"]
        snapshot = pool.metrics.snapshot()
        assert snapshot["gauges"]["serve_pool_workers_alive"] == 2
        scored = [key for key in snapshot["counters"]
                  if key.startswith("serve_pool_scored_total")]
        assert scored


class TestSupervision:
    def test_kill_reroute_respawn_recover(self, fitted_tfmae, sine_series):
        window = sine_series[-50:]
        direct = float(fitted_tfmae.score_last(window[None])[0])
        with ProcessPool(procs=2, heartbeat_interval=0.1) as pool:
            assert pool.score("tfmae", "v1", fitted_tfmae, window) == direct
            victim = pool.worker_for("tfmae")
            pid = pool.kill_worker(victim)
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                worker = pool.status()["workers"][victim]
                if worker["alive"] and worker["pid"] != pid:
                    break
                time.sleep(0.05)
            else:
                pytest.fail(f"worker {victim} was not respawned: {pool.status()}")
            assert pool.status()["workers"][victim]["respawns"] == 1
            # The shard routed back and scores are bitwise stable: the
            # respawned worker re-attached the same shared segment.
            assert pool.worker_for("tfmae") == victim
            deadline = time.monotonic() + 10.0
            while True:
                try:
                    score = pool.score("tfmae", "v1", fitted_tfmae, window)
                    break
                except TransientFault:
                    if time.monotonic() >= deadline:
                        raise
                    time.sleep(0.05)
            assert score == direct
            deaths = pool.metrics.snapshot()["counters"]
            assert deaths.get("serve_pool_worker_deaths_total", 0) >= 1

    def test_all_workers_down_is_retryable_not_fatal(self, fitted_tfmae,
                                                     sine_series):
        window = sine_series[-50:]
        # A slow breaker keeps the slot dead long enough to observe the
        # empty-ring path deterministically.
        with ProcessPool(procs=1, heartbeat_interval=0.1,
                         breaker_threshold=1, respawn_backoff=60.0) as pool:
            pool.score("tfmae", "v1", fitted_tfmae, window)
            pool.kill_worker("proc-0")
            deadline = time.monotonic() + 10.0
            while pool.status()["alive"] and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.status()["alive"] == 0
            with pytest.raises(TransientFault):
                pool.score("tfmae", "v1", fitted_tfmae, window)


class TestWorkerTraceCount:
    def test_metrics_add_worker_traces_and_survive_a_respawn(
        self, tmp_path, fitted_tfmae, sine_series
    ):
        """Pool workers trace in their own processes: ``/metrics`` adds
        the counts their heartbeats report, and a respawned worker
        counting from zero never lowers the total."""
        from repro.nn import jit
        from repro.serve import InferenceServer, ModelRegistry

        registry = ModelRegistry(tmp_path)
        registry.publish("tfmae", fitted_tfmae)

        def traces() -> float:
            return server.metrics_snapshot()["counters"]["jit_traces_total"]

        def wait_for(condition, what: str) -> None:
            deadline = time.monotonic() + 20.0
            while not condition():
                if time.monotonic() >= deadline:
                    pytest.fail(f"timed out waiting for {what}")
                time.sleep(0.05)

        with InferenceServer(registry, port=0, procs=1) as server:
            for start in (0, 10, 20):
                window = sine_series[start:start + 50].tolist()
                server.score_request({"model": "tfmae", "window": window},
                                     want_score=True)
            wait_for(lambda: traces() > jit.trace_count(), "the worker's traces")
            before = traces()

            def worker() -> dict:
                return server.pool.status()["workers"]["proc-0"]

            pid = server.pool.kill_worker("proc-0")
            wait_for(lambda: worker()["alive"] and worker()["pid"] != pid,
                     "the respawn")
            age = worker()["last_seen_age"]
            wait_for(lambda: worker()["last_seen_age"] < age,
                     "a pong from the new worker")
            assert traces() >= before


class TestWorkerBlasThreads:
    """Each worker is one scoring thread: it starts with one BLAS thread
    unless the environment says otherwise."""

    def test_unset_variables_are_one_for_the_start_only(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        with _single_threaded_blas():
            assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
            assert os.environ["MKL_NUM_THREADS"] == "1"
            assert os.environ["OMP_NUM_THREADS"] == "3"  # set: left alone
        assert "OPENBLAS_NUM_THREADS" not in os.environ
        assert "MKL_NUM_THREADS" not in os.environ
        assert os.environ["OMP_NUM_THREADS"] == "3"

    @pytest.mark.skipif(not Path("/proc/self/environ").exists(), reason="needs procfs")
    def test_workers_start_with_one_blas_thread(self, monkeypatch):
        for name in _BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        with ProcessPool(procs=1, heartbeat_interval=0.2) as pool:
            (worker,) = pool.status()["workers"].values()
            environ = Path(f"/proc/{worker['pid']}/environ").read_bytes().split(b"\0")
        for name in _BLAS_THREAD_VARS:
            assert f"{name}=1".encode() in environ
            assert name not in os.environ

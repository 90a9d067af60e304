"""Micro-batcher: equivalence, coalescing, backpressure, shutdown."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serve import MicroBatcher, Overloaded, ServeError
from repro.serve.metrics import MetricsRegistry


def _batcher_for(detector, **kwargs) -> MicroBatcher:
    return MicroBatcher(detector_for=lambda key: detector, **kwargs)


class TestEquivalence:
    def test_batched_scores_bitwise_equal_sequential(self, toy_detector, rng):
        windows = [rng.normal(size=(8, 1)) for _ in range(20)]
        expected = np.array([toy_detector.score(w)[-1] for w in windows])
        with _batcher_for(toy_detector, max_batch_size=8, max_delay=0.01) as batcher:
            futures = [batcher.submit("m", w) for w in windows]
            got = np.array([f.result(timeout=10) for f in futures])
        assert np.array_equal(expected, got)

    def test_tfmae_batched_scores_bitwise_equal_sequential(self, fitted_tfmae, sine_series):
        windows = [sine_series[i : i + 50] for i in range(100, 160, 3)]
        expected = np.array([fitted_tfmae.score(w)[-1] for w in windows])
        with _batcher_for(fitted_tfmae, max_batch_size=16, max_delay=0.01) as batcher:
            futures = [batcher.submit("m", w) for w in windows]
            got = np.array([f.result(timeout=60) for f in futures])
        assert np.array_equal(expected, got)

    def test_equivalence_under_concurrent_clients(self, fitted_tfmae, sine_series):
        """The acceptance-criteria test shape: many threads racing into
        the batcher must each receive exactly the sequential score."""
        windows = [sine_series[i : i + 50] for i in range(80, 200, 2)]
        expected = np.array([fitted_tfmae.score(w)[-1] for w in windows])
        results: list[float | None] = [None] * len(windows)
        with _batcher_for(fitted_tfmae, max_batch_size=8, max_delay=0.005,
                          workers=3) as batcher:

            def client(index: int) -> None:
                results[index] = batcher.score("m", windows[index], timeout=60)

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(len(windows))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert np.array_equal(expected, np.array(results))

    def test_mixed_window_shapes_are_grouped_not_mixed(self, toy_detector, rng):
        short = rng.normal(size=(4, 1))
        long = rng.normal(size=(9, 1))
        with _batcher_for(toy_detector, max_batch_size=16, max_delay=0.02) as batcher:
            futures = [batcher.submit("m", w) for w in (short, long, short, long)]
            got = [f.result(timeout=10) for f in futures]
        assert got[0] == toy_detector.score(short)[-1]
        assert got[1] == toy_detector.score(long)[-1]


class TestCoalescing:
    def test_concurrent_requests_coalesce_into_batches(self, toy_detector, rng):
        calls: list[int] = []

        class Spy:
            def score_last(self, windows):
                calls.append(len(windows))
                return np.asarray(windows)[:, -1, 0]

        batcher = MicroBatcher(detector_for=lambda key: Spy(),
                               max_batch_size=32, max_delay=0.05)
        with batcher:
            futures = [batcher.submit("m", rng.normal(size=(4, 1))) for _ in range(24)]
            for future in futures:
                future.result(timeout=10)
        assert sum(calls) == 24
        assert max(calls) > 1  # coalescing actually happened
        assert batcher.metrics.histogram("serve_batch_size").summary()["max"] > 1

    def test_greedy_default_coalesces_work_queued_behind_a_batch(
            self, fitted_tfmae, sine_series):
        """The default batcher waits for nobody, yet windows that queue
        while its worker is busy still reach the model as one batch."""
        entered, release = threading.Event(), threading.Event()

        def detector_for(key):
            if not entered.is_set():
                entered.set()
                release.wait(timeout=30)
            return fitted_tfmae

        windows = [sine_series[i : i + 50] for i in range(100, 109)]
        with MicroBatcher(detector_for=detector_for) as batcher:
            futures = [batcher.submit("m", windows[0])]
            assert entered.wait(timeout=10)
            futures += [batcher.submit("m", window) for window in windows[1:]]
            release.set()
            got = np.array([future.result(timeout=60) for future in futures])
        sizes = batcher.metrics.histogram("serve_batch_size").summary()
        assert (sizes["count"], sizes["min"], sizes["max"]) == (2, 1, 8)
        assert np.array_equal(fitted_tfmae.score_last(np.stack(windows)), got)

    def test_max_batch_size_respected(self, toy_detector, rng):
        with _batcher_for(toy_detector, max_batch_size=4, max_delay=0.05) as batcher:
            futures = [batcher.submit("m", rng.normal(size=(4, 1))) for _ in range(16)]
            for future in futures:
                future.result(timeout=10)
        assert batcher.metrics.histogram("serve_batch_size").summary()["max"] <= 4

    def test_lone_request_not_stuck_beyond_max_delay(self, toy_detector, rng):
        with _batcher_for(toy_detector, max_batch_size=64, max_delay=0.01) as batcher:
            start = time.monotonic()
            batcher.score("m", rng.normal(size=(4, 1)), timeout=10)
            elapsed = time.monotonic() - start
        assert elapsed < 5.0  # flushed by the delay policy, not the batch filling


class TestBackpressure:
    def test_overloaded_when_queue_full(self, rng):
        release = threading.Event()

        class Slow:
            def score_last(self, windows):
                release.wait(timeout=30)
                return np.asarray(windows)[:, -1, 0]

        batcher = MicroBatcher(detector_for=lambda key: Slow(),
                               max_batch_size=1, max_delay=0.0, max_queue=2)
        with batcher:
            futures = [batcher.submit("m", rng.normal(size=(4, 1)))]
            # Worker holds one batch; fill the queue, then overflow it.
            deadline = time.monotonic() + 5
            shed = 0
            while time.monotonic() < deadline and shed == 0:
                try:
                    futures.append(batcher.submit("m", rng.normal(size=(4, 1))))
                except Overloaded as error:
                    shed += 1
                    assert error.capacity == 2
            release.set()
            for future in futures:
                future.result(timeout=30)
        assert shed == 1
        assert batcher.metrics.counter("serve_requests_shed_total").value >= 1

    def test_queue_depth_gauge_tracked(self, toy_detector, rng):
        with _batcher_for(toy_detector, max_batch_size=8, max_delay=0.0) as batcher:
            batcher.score("m", rng.normal(size=(4, 1)), timeout=10)
        assert "serve_queue_depth" in batcher.metrics.snapshot()["gauges"]


class TestLifecycle:
    def test_submit_before_start_rejected(self, toy_detector, rng):
        batcher = _batcher_for(toy_detector)
        with pytest.raises(ServeError, match="not started"):
            batcher.submit("m", rng.normal(size=(4, 1)))

    def test_stop_drains_accepted_work(self, toy_detector, rng):
        batcher = _batcher_for(toy_detector, max_batch_size=4, max_delay=0.0).start()
        futures = [batcher.submit("m", rng.normal(size=(4, 1))) for _ in range(12)]
        batcher.stop()
        results = [future.result(timeout=10) for future in futures]
        assert len(results) == 12

    def test_submit_after_stop_rejected(self, toy_detector, rng):
        batcher = _batcher_for(toy_detector).start()
        batcher.stop()
        with pytest.raises(ServeError, match="stopped"):
            batcher.submit("m", rng.normal(size=(4, 1)))

    def test_stop_idempotent(self, toy_detector):
        batcher = _batcher_for(toy_detector).start()
        batcher.stop()
        batcher.stop()

    def test_detector_errors_propagate_to_futures(self, rng):
        class Broken:
            def score_last(self, windows):
                raise RuntimeError("model exploded")

        batcher = MicroBatcher(detector_for=lambda key: Broken(),
                               max_batch_size=4, max_delay=0.0)
        with batcher:
            future = batcher.submit("m", rng.normal(size=(4, 1)))
            with pytest.raises(RuntimeError, match="model exploded"):
                future.result(timeout=10)

    def test_invalid_parameters(self, toy_detector):
        for kwargs in ({"max_batch_size": 0}, {"max_delay": -1.0},
                       {"max_queue": 0}, {"workers": 0}):
            with pytest.raises(ValueError):
                _batcher_for(toy_detector, **kwargs)

    def test_shared_metrics_registry(self, toy_detector, rng):
        metrics = MetricsRegistry()
        with _batcher_for(toy_detector, metrics=metrics, max_delay=0.0) as batcher:
            batcher.score("m", rng.normal(size=(4, 1)), timeout=10)
        assert metrics.counter("serve_batches_total").value >= 1

"""Lifecycle guardrails: drift detection, shadow gate, watchdog rollback,
and swap safety of in-flight scoring across a publish."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.datasets.injection import inject_drift
from repro.serve import (
    DriftMonitor,
    LifecycleManager,
    MicroBatcher,
    ModelRegistry,
    shadow_compare,
)
from repro.streaming import StreamingDetector
from tests.serve.conftest import AbsLastDetector


def _probe_windows(series: np.ndarray, size: int = 50, count: int = 32) -> np.ndarray:
    starts = np.linspace(0, series.shape[0] - size, count).astype(int)
    return np.stack([series[s : s + size] for s in starts])


# ----------------------------------------------------------------------
# drift monitor
# ----------------------------------------------------------------------
class TestDriftMonitor:
    @pytest.mark.parametrize("scenario", ["level_shift", "variance_drift", "trend_drift"])
    def test_injected_drift_is_flagged(self, rng, toy_detector, scenario):
        clean = rng.normal(size=(600, 1))
        drifted, mask = inject_drift(clean, scenario, rng, onset_fraction=0.5,
                                     severity=4.0)
        assert mask.sum() == 300
        monitor = DriftMonitor(toy_detector.score(clean), ks_threshold=0.2,
                               window=256, min_samples=64, patience=2)
        monitor.observe(toy_detector.score(drifted[300:]))
        first = monitor.check()
        assert first.breaches == 1 and not first.drifted  # patience holds
        second = monitor.check()
        assert second.drifted
        assert second.ks > 0.2

    def test_stable_stream_never_drifts(self, rng, toy_detector):
        clean = rng.normal(size=(600, 1))
        monitor = DriftMonitor(toy_detector.score(clean), ks_threshold=0.2,
                               window=256, min_samples=64, patience=2)
        fresh = rng.normal(size=(600, 1))
        monitor.observe(toy_detector.score(fresh))
        for _ in range(5):
            assert not monitor.check().drifted

    def test_single_anomalous_burst_is_not_drift(self, rng, toy_detector):
        """One breach recovers: a burst is signal for the detector, not
        a reason to retrain it."""
        clean = rng.normal(size=(600, 1))
        monitor = DriftMonitor(toy_detector.score(clean), ks_threshold=0.2,
                               window=128, min_samples=64, patience=2)
        monitor.observe(np.abs(rng.normal(8.0, 1.0, size=200)))  # burst
        assert not monitor.check().drifted
        monitor.observe(toy_detector.score(rng.normal(size=(400, 1))))
        report = monitor.check()
        assert report.breaches in (0, 1)
        assert not monitor.check().drifted

    def test_events_feed_skips_nonfinite(self, rng, toy_detector):
        from repro.streaming import StreamEvent

        monitor = DriftMonitor(toy_detector.score(rng.normal(size=(300, 1))),
                               min_samples=2)
        events = [
            StreamEvent(index=0, score=float("nan"), is_anomaly=False,
                        flags=("warmup",)),
            StreamEvent(index=1, score=0.5, is_anomaly=False),
            StreamEvent(index=2, score=1.5, is_anomaly=False),
        ]
        monitor.observe_events(events)
        assert monitor.samples == 2


# ----------------------------------------------------------------------
# shadow scoring
# ----------------------------------------------------------------------
class TestShadowCompare:
    def test_identical_candidate_agrees(self, fitted_tfmae, sine_series):
        windows = _probe_windows(sine_series)
        report = shadow_compare(fitted_tfmae, fitted_tfmae, windows)
        assert report.agreed
        assert report.ks == 0.0
        assert report.agreement == 1.0
        assert report.live_crossings == report.candidate_crossings

    def test_nan_candidate_is_rejected(self, tmp_path, fitted_tfmae, sine_series):
        registry = ModelRegistry(tmp_path)
        registry.publish("tfmae", fitted_tfmae)
        candidate, _ = registry.load_fresh("tfmae")
        next(candidate.model.parameters()).data[:] = np.nan
        report = shadow_compare(fitted_tfmae, candidate,
                                _probe_windows(sine_series))
        assert not report.agreed
        assert "non-finite" in report.reasons[0]

    def test_diverging_candidate_is_rejected(self, tmp_path, fitted_tfmae, sine_series):
        registry = ModelRegistry(tmp_path)
        registry.publish("tfmae", fitted_tfmae)
        candidate, _ = registry.load_fresh("tfmae")
        for param in candidate.model.parameters():
            param.data *= 5.0
        report = shadow_compare(fitted_tfmae, candidate,
                                _probe_windows(sine_series), max_ks=0.2)
        assert not report.agreed
        assert report.reasons


# ----------------------------------------------------------------------
# guarded publish + watchdog rollback (the e2e satellite)
# ----------------------------------------------------------------------
class TestWatchdogRollback:
    def test_bad_publish_rolls_back_to_bitwise_identical_scores(
        self, tmp_path, fitted_tfmae, sine_series
    ):
        registry = ModelRegistry(tmp_path)
        manager = LifecycleManager(registry, "tfmae", detect_anomaly=True)
        windows = _probe_windows(sine_series)

        assert manager.publish_guarded(fitted_tfmae, windows) == "v1"
        live, version = registry.load("tfmae")
        assert version == "v1"
        baseline = live.score_last(windows)
        assert np.all(np.isfinite(baseline))

        # Deliberately-bad candidate: NaN weights make every score
        # non-finite.  publish_guarded bypasses the shadow gate — this is
        # the "bad model reached production anyway" scenario the
        # watchdog exists for.
        candidate, _ = registry.load_fresh("tfmae")
        next(candidate.model.parameters()).data[:] = np.nan
        assert manager.publish_guarded(candidate, windows) == "v2"
        assert registry.live_version("tfmae") == "v2"
        poisoned, _ = registry.load("tfmae")
        assert not np.all(np.isfinite(poisoned.score_last(windows)))

        report = manager.watchdog_check()
        assert not report.healthy
        assert report.rolled_back
        assert report.restored == "v1"
        assert "non-finite" in report.reasons[0]

        # Served scores return bitwise to the prior version's.
        restored, version = registry.load("tfmae")
        assert version == "v1"
        np.testing.assert_array_equal(restored.score_last(windows), baseline)

        # The audit trail recorded the rollback with its reason.
        record = manager.history[-1]
        assert record.demoted == "v2" and record.restored == "v1"
        assert np.isfinite(record.latency)

    def test_healthy_publish_passes_watchdog(self, tmp_path, fitted_tfmae, sine_series):
        registry = ModelRegistry(tmp_path)
        manager = LifecycleManager(registry, "tfmae")
        windows = _probe_windows(sine_series)
        manager.publish_guarded(fitted_tfmae, windows)
        candidate, _ = registry.load_fresh("tfmae")
        manager.publish_guarded(candidate, windows)
        report = manager.watchdog_check()
        assert report.healthy
        assert not report.rolled_back
        assert registry.live_version("tfmae") == "v2"
        assert report.checks["probe_ks"] == 0.0

    def test_watchdog_replays_the_shared_tape(
        self, monkeypatch, tmp_path, fitted_tfmae, sine_series
    ):
        """The newly published version's first score replays the tape its
        predecessor traced: the watchdog compiles nothing."""
        from repro.nn import jit

        registry = ModelRegistry(tmp_path)
        manager = LifecycleManager(registry, "tfmae")
        windows = _probe_windows(sine_series)
        manager.publish_guarded(fitted_tfmae, windows)
        candidate, _ = registry.load_fresh("tfmae")
        manager.publish_guarded(candidate, windows)
        traces = []
        real_trace = jit.trace

        def counting(*args, **kwargs):
            traces.append(args)
            return real_trace(*args, **kwargs)

        monkeypatch.setattr(jit, "trace", counting)
        report = manager.watchdog_check()
        assert report.healthy
        assert traces == []


# ----------------------------------------------------------------------
# drift-triggered refresh pipeline
# ----------------------------------------------------------------------
class TestRefresh:
    def test_no_drift_means_no_refresh(self, rng, tmp_path, fitted_tfmae, sine_series):
        registry = ModelRegistry(tmp_path)
        registry.publish("tfmae", fitted_tfmae)
        monitor = DriftMonitor(np.abs(rng.normal(size=500)), min_samples=1000)
        manager = LifecycleManager(registry, "tfmae", drift=monitor)
        report = manager.refresh(sine_series[:200])
        assert not report.refreshed
        assert report.reason == "no drift detected"
        assert registry.versions("tfmae") == ["v1"]

    def test_forced_refresh_publishes_agreeing_candidate(
        self, tmp_path, fitted_tfmae, sine_series
    ):
        registry = ModelRegistry(tmp_path)
        registry.publish("tfmae", fitted_tfmae)
        # No-op refit: the candidate is a fresh copy of the live weights,
        # so the shadow gate trivially agrees — this exercises the
        # pipeline wiring, not training.
        manager = LifecycleManager(registry, "tfmae",
                                   refit=lambda cand, recent, val: None)
        report = manager.refresh(sine_series[:200], force=True)
        assert report.refreshed
        assert report.version == "v2"
        assert report.shadow is not None and report.shadow.agreed
        assert registry.live_version("tfmae") == "v2"

    def test_refresh_scores_candidate_probes_once(
        self, rng, tmp_path, fitted_tfmae, sine_series
    ):
        """With a drift monitor attached, the rebase reuses the shadow
        run's candidate scores instead of scoring the probes again."""
        registry = ModelRegistry(tmp_path)
        registry.publish("tfmae", fitted_tfmae)
        probes = _probe_windows(sine_series)
        monitor = DriftMonitor(np.abs(rng.normal(size=500)))
        candidates, calls = [], []

        def refit(candidate, recent, validation) -> None:
            candidates.append(candidate)
            score_last = candidate.score_last

            def counted(windows):
                calls.append(windows)
                return score_last(windows)

            candidate.score_last = counted

        manager = LifecycleManager(registry, "tfmae", drift=monitor, refit=refit)
        report = manager.refresh(sine_series[:200], probe_windows=probes, force=True)
        assert report.refreshed
        assert len(calls) == 1
        (candidate,) = candidates
        expected = type(candidate).score_last(candidate, probes)
        np.testing.assert_array_equal(monitor.reference, expected)

    def test_refresh_rejects_diverging_candidate(
        self, tmp_path, fitted_tfmae, sine_series
    ):
        registry = ModelRegistry(tmp_path)
        registry.publish("tfmae", fitted_tfmae)

        def sabotage(candidate, recent, validation) -> None:
            for param in candidate.model.parameters():
                param.data *= 5.0

        manager = LifecycleManager(registry, "tfmae", refit=sabotage,
                                   shadow_max_ks=0.2)
        report = manager.refresh(sine_series[:200], force=True)
        assert not report.refreshed
        assert "shadow disagreement" in report.reason
        # Nothing was published, nothing moved.
        assert registry.versions("tfmae") == ["v1"]
        assert registry.live_version("tfmae") == "v1"

    def test_real_refit_refresh_end_to_end(self, tmp_path, fitted_tfmae, sine_series):
        """Default refit path: a one-epoch incremental TFMAE refit on the
        recent slice still agrees with the live model on clean data."""
        registry = ModelRegistry(tmp_path)
        registry.publish("tfmae", fitted_tfmae)
        manager = LifecycleManager(
            registry, "tfmae",
            refit=lambda cand, recent, val: cand.refit(recent, val, epochs=1),
            shadow_max_ks=0.5, shadow_min_agreement=0.8,
        )
        report = manager.refresh(sine_series[:300], validation=sine_series[300:400],
                                 force=True)
        assert report.refreshed
        assert registry.live_version("tfmae") == "v2"
        refreshed, _ = registry.load("tfmae")
        assert np.all(np.isfinite(refreshed.score_last(_probe_windows(sine_series))))
        assert report.refit_seconds is not None and report.refit_seconds >= 0.0


# ----------------------------------------------------------------------
# swap safety: in-flight scoring never mixes weights
# ----------------------------------------------------------------------
class _OffsetDetector(AbsLastDetector):
    """|x| plus a constant — batches scored by it are unmistakable."""

    def __init__(self, offset: float, **kwargs):
        super().__init__(**kwargs)
        self.offset = offset

    def score(self, series: np.ndarray) -> np.ndarray:
        return super().score(series) + self.offset


class TestSwapSafety:
    def test_swap_identical_detector_is_bitwise_invisible(
        self, tmp_path, fitted_tfmae, sine_series
    ):
        registry = ModelRegistry(tmp_path)
        registry.publish("tfmae", fitted_tfmae)
        plain = StreamingDetector(fitted_tfmae, context=50)
        swapped = StreamingDetector(fitted_tfmae, context=50)
        batches = [sine_series[i : i + 40] for i in range(0, 200, 40)]
        expected = [plain.update_many(batch) for batch in batches]
        observed = []
        for index, batch in enumerate(batches):
            if index == 2:  # mid-stream version swap (same weights)
                replacement, _ = registry.load_fresh("tfmae")
                swapped.swap_detector(replacement)
            observed.append(swapped.update_many(batch))
        for expect, got in zip(expected, observed):
            np.testing.assert_array_equal(
                np.array([e.score for e in expect]),
                np.array([g.score for g in got]),
            )
            assert [e.flags for e in expect] == [g.flags for g in got]

    def test_concurrent_swaps_never_mix_weights_within_a_batch(self, rng):
        low = _OffsetDetector(0.0, anomaly_ratio=5.0)
        high = _OffsetDetector(1000.0, anomaly_ratio=5.0)
        train = rng.normal(size=(100, 1))
        low.fit(train, rng.normal(size=(300, 1)))
        high.fit(train, rng.normal(size=(300, 1)))
        stream = StreamingDetector(low, context=4, warmup=2)

        stop = threading.Event()

        def swapper() -> None:
            current = [high, low]
            while not stop.is_set():
                stream.swap_detector(current[0])
                current.reverse()

        thread = threading.Thread(target=swapper)
        thread.start()
        try:
            for _ in range(100):
                batch = rng.normal(size=(8, 1))
                events = stream.update_many(batch)
                # Recover the offset each event was scored with: the
                # window ends at the observation, so |last value| is the
                # detector-independent part of the score.
                tails = np.abs(batch[:, 0])
                offsets = np.array(
                    [e.score - tails[i] for i, e in enumerate(events)
                     if np.isfinite(e.score)]
                )
                if offsets.size == 0:
                    continue
                # Every scored event of this batch used ONE detector:
                # all offsets ~0.0, or all ~1000.0 — never a mixture.
                assert np.allclose(offsets, offsets[0]), offsets
                assert min(abs(offsets[0]), abs(offsets[0] - 1000.0)) < 1e-9
        finally:
            stop.set()
            thread.join()

    def test_inflight_batched_scores_bitwise_across_publish(
        self, tmp_path, fitted_tfmae, sine_series
    ):
        """Serving pins a resolved version before batching; a publish
        mid-flight must not perturb a single bit of v1's scores."""
        registry = ModelRegistry(tmp_path)
        registry.publish("tfmae", fitted_tfmae)
        windows = _probe_windows(sine_series, count=24)
        detector, _ = registry.load("tfmae", "v1")
        expected = [float(detector.score(window)[-1]) for window in windows]

        def detector_for(model_key: str):
            name, _, version = model_key.partition(":")
            loaded, _ = registry.load(name, version or None)
            return loaded

        with MicroBatcher(detector_for=detector_for, max_batch_size=8,
                          max_delay=0.01, workers=2) as batcher:
            futures = [batcher.submit("tfmae:v1", window) for window in windows[:12]]
            # Publish and promote a refit candidate while those batches
            # are in flight.
            candidate, _ = registry.load_fresh("tfmae")
            for param in candidate.model.parameters():
                param.data *= 2.0
            registry.publish("tfmae", candidate)
            registry.set_live("tfmae", "v2")
            futures += [batcher.submit("tfmae:v1", window) for window in windows[12:]]
            scores = [future.result(timeout=30.0) for future in futures]
        assert scores == expected

"""Batched full-series scoring: equivalence and the compute-dtype policy.

The zero-copy batched scorer (``score_series`` over strided window views,
chunked by :func:`repro.datasets.windows.batched_window_scores`) must be
*exactly* interchangeable with scoring one window at a time — bitwise in
float64, since every model op is row-independent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TFMAE, TFMAEConfig


def _sine_series(rng, length, features=1):
    t = np.arange(length, dtype=np.float64)
    base = np.sin(2 * np.pi * t / 37.0)[:, None]
    return np.repeat(base, features, axis=1) + 0.05 * rng.normal(
        size=(length, features)
    )


@pytest.fixture(scope="module")
def fitted(fast_config):
    rng = np.random.default_rng(0)
    detector = TFMAE(fast_config)
    detector.fit(_sine_series(rng, 400))
    return detector


@pytest.fixture(scope="module")
def fast_config():
    return TFMAEConfig(
        window_size=50,
        d_model=16,
        num_layers=1,
        num_heads=2,
        temporal_mask_ratio=30.0,
        frequency_mask_ratio=30.0,
        anomaly_ratio=5.0,
        batch_size=8,
        epochs=1,
        learning_rate=1e-3,
    )


@pytest.mark.slow
class TestBatchedEqualsLoop:
    def test_full_series_bitwise_vs_per_window_loop(self, fitted):
        """2k-point acceptance: chunked batched score == one-window-at-a-time."""
        rng = np.random.default_rng(1)
        series = _sine_series(rng, 2000)
        size = fitted.config.window_size

        batched = fitted.score(series)

        # Per-window reference loop: the same coverage scheme score_series
        # uses (non-overlapping prefix + end-aligned tail), one window per
        # model call.
        loop = np.empty(len(series), dtype=np.float64)
        covered = (len(series) // size) * size
        for start in range(0, covered, size):
            window = series[start : start + size][None]
            loop[start : start + size] = fitted.model.score_windows(window)[0]
        if covered < len(series):
            tail = fitted.model.score_windows(series[-size:][None])[0]
            loop[covered:] = tail[size - (len(series) - covered) :]

        assert batched.dtype == np.float64
        assert np.array_equal(batched, loop)  # bitwise, not just atol

    def test_batch_size_invariance(self, fitted):
        rng = np.random.default_rng(2)
        series = _sine_series(rng, 500)
        one = TFMAE(fitted.config.with_overrides(batch_size=1))
        one.model, one._fitted = fitted.model, True
        big = TFMAE(fitted.config.with_overrides(batch_size=256))
        big.model, big._fitted = fitted.model, True
        assert np.array_equal(one.score(series), big.score(series))

    def test_score_last_bitwise_vs_sequential(self, fitted):
        rng = np.random.default_rng(3)
        windows = np.stack(
            [_sine_series(rng, fitted.config.window_size) for _ in range(9)]
        )
        batched = fitted.score_last(windows)
        sequential = np.array([fitted.score(w)[-1] for w in windows])
        assert np.array_equal(batched, sequential)

    def test_score_last_long_windows_use_tail(self, fitted):
        rng = np.random.default_rng(4)
        size = fitted.config.window_size
        windows = np.stack([_sine_series(rng, size + 20) for _ in range(4)])
        batched = fitted.score_last(windows)
        sequential = np.array([fitted.score(w)[-1] for w in windows])
        assert np.array_equal(batched, sequential)


class TestScoreLastRows:
    """``score_last`` runs the score-last graph (final layers cut to the
    trailing rows) chunk by chunk; it stays bitwise the last column of
    the full graph on one unchunked call, interpreted or replayed."""

    @pytest.mark.parametrize("batch", [1, 2, 5, 32])
    def test_score_last_is_the_full_graphs_last_column(self, fitted, batch):
        from repro.nn import jit

        rng = np.random.default_rng(10 + batch)
        windows = np.stack(
            [_sine_series(rng, fitted.config.window_size) for _ in range(batch)]
        )
        full = fitted.model.score_windows(windows)[:, -1]
        for enabled in (False, True):
            with jit.use_jit(enabled):
                assert np.array_equal(fitted.score_last(windows), full), enabled


class TestChunkBufferReuse:
    """Regression tests for the preallocated-output chunking scheme."""

    def test_multi_chunk_writes_one_preallocated_output(self):
        from repro.datasets.windows import batched_window_scores

        windows = np.arange(10.0)[:, None, None] + np.zeros((10, 4, 1))
        calls = []

        def score_fn(chunk):
            calls.append(len(chunk))
            return chunk[:, :, 0] * 2.0

        out = batched_window_scores(windows, score_fn, batch_size=3)
        assert calls == [3, 3, 3, 1]
        assert out.shape == (10, 4)
        assert np.array_equal(out, windows[:, :, 0] * 2.0)
        # One output array regardless of chunk count: rows from different
        # chunks share the same base allocation.
        assert out.flags.owndata

    def test_batch_of_one_returns_score_fn_result_unchanged(self):
        """The serving hot path (single window, single chunk) must hand
        back ``score_fn``'s own array — zero copies on top of the model."""
        from repro.datasets.windows import batched_window_scores

        produced = {}

        def score_fn(chunk):
            produced["scores"] = np.asarray(chunk[:, :, 0] * 3.0)
            return produced["scores"]

        windows = np.ones((1, 5, 1))
        out = batched_window_scores(windows, score_fn, batch_size=64)
        assert out is produced["scores"]

    def test_single_full_chunk_is_zero_copy_too(self):
        from repro.datasets.windows import batched_window_scores

        produced = {}

        def score_fn(chunk):
            produced["scores"] = np.asarray(chunk[:, :, 0])
            return produced["scores"]

        windows = np.ones((8, 5, 1))
        assert batched_window_scores(windows, score_fn, batch_size=8) is (
            produced["scores"]
        )

    def test_empty_input(self):
        from repro.datasets.windows import batched_window_scores

        out = batched_window_scores(
            np.empty((0, 5, 1)), lambda chunk: chunk[:, :, 0], batch_size=4
        )
        assert out.shape == (0,)


class TestComputeDtypePolicy:
    def test_float32_fit_and_score(self, fast_config):
        """End-to-end smoke at reduced precision (the production path)."""
        rng = np.random.default_rng(5)
        series = _sine_series(rng, 300)
        detector = TFMAE(fast_config.with_overrides(compute_dtype="float32"))
        detector.fit(series)

        assert all(
            p.data.dtype == np.float32 for p in detector.model.parameters()
        )
        scores = detector.score(_sine_series(rng, 200))
        # Scores come back in float64 regardless of the compute dtype.
        assert scores.dtype == np.float64
        assert np.all(np.isfinite(scores))
        assert scores.shape == (200,)

    def test_float32_tracks_float64_scores(self, fast_config):
        """Same seed, both precisions: scores agree to float32 resolution."""
        rng = np.random.default_rng(6)
        train = _sine_series(rng, 300)
        test = _sine_series(rng, 150)
        ref = TFMAE(fast_config).fit(train).score(test)
        fast = (
            TFMAE(fast_config.with_overrides(compute_dtype="float32"))
            .fit(train)
            .score(test)
        )
        assert np.all(np.isfinite(fast))
        # Loose tolerance: one epoch of float32 training drifts weights
        # slightly, but the score profile must stay aligned.
        correlation = np.corrcoef(ref, fast)[0, 1]
        assert correlation > 0.99

    def test_invalid_compute_dtype_rejected(self, fast_config):
        with pytest.raises(ValueError, match="compute_dtype"):
            fast_config.with_overrides(compute_dtype="float16")

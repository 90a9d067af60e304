"""Tape-replay JIT: bitwise equivalence, weight rebinding, cache keys, shared
tapes, mixed batches, fallback.

The contract of :mod:`repro.nn.jit` is strict: replay output must be
*bitwise* identical to the interpreted graph — every kernel emitter
mirrors the exact numpy call sequence of its op, so these tests use
``np.array_equal``, never ``allclose``.  Coverage spans the same five
model variants ``repro analyze --all`` checks (default, float32,
temporal-only, frequency-only, non-adversarial) at both compute dtypes
and both fused-policy states.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import nn
from repro.core import TFMAE, TFMAEConfig
from repro.core.model import _UNSUPPORTED, TFMAEModel
from repro.nn import Tensor, fused, jit


def _sine_series(rng, length, features=1):
    t = np.arange(length, dtype=np.float64)
    base = np.sin(2 * np.pi * t / 23.0)[:, None]
    return np.repeat(base, features, axis=1) + 0.05 * rng.normal(
        size=(length, features)
    )


#: Structural variants of the scoring graph; together with the dtype
#: axis these cover all five `analyze --all` model variants (the cli's
#: "float32" variant is the default structure at compute_dtype=float32).
VARIANTS = {
    "default": {},
    "temporal-only": {"use_frequency_branch": False},
    "frequency-only": {"use_temporal_branch": False},
    "non-adversarial": {"adversarial": False},
}
DTYPES = ("float64", "float32")

_FITTED: dict = {}


def _fitted(variant: str, dtype: str) -> TFMAE:
    """Fit-once cache across the module (8 tiny models total)."""
    key = (variant, dtype)
    detector = _FITTED.get(key)
    if detector is None:
        config = TFMAEConfig(
            window_size=30,
            d_model=8,
            num_layers=1,
            num_heads=2,
            temporal_mask_ratio=30.0,
            frequency_mask_ratio=30.0,
            anomaly_ratio=5.0,
            batch_size=8,
            epochs=1,
            learning_rate=1e-3,
            seed=0,
            compute_dtype=dtype,
            **VARIANTS[variant],
        )
        detector = TFMAE(config)
        detector.fit(_sine_series(np.random.default_rng(0), 150))
        _FITTED[key] = detector
    return detector


def _windows(detector: TFMAE, batch: int = 3) -> np.ndarray:
    rng = np.random.default_rng(7)
    size = detector.config.window_size
    return np.stack([_sine_series(rng, size) for _ in range(batch)])


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("use_fused", [True, False])
    def test_replay_matches_interpreted(self, variant, dtype, use_fused):
        detector = _fitted(variant, dtype)
        windows = _windows(detector)
        with fused.use_fused(use_fused):
            with jit.use_jit(False):
                interpreted = detector.model.score_windows(windows)
            with jit.use_jit(True):
                traced = detector.model.score_windows(windows)  # trace call
                replay_1 = detector.model.score_windows(windows)
                replay_2 = detector.model.score_windows(windows)
        assert np.array_equal(interpreted, traced)
        assert np.array_equal(interpreted, replay_1)
        assert np.array_equal(interpreted, replay_2)
        assert interpreted.dtype == np.float64  # score contract

    def test_score_and_score_last_ride_the_tape(self):
        detector = _fitted("default", "float64")
        rng = np.random.default_rng(11)
        series = _sine_series(rng, 90)
        windows = _windows(detector, batch=2)
        with jit.use_jit(False):
            series_interp = detector.score(series)
            last_interp = detector.score_last(windows)
        with jit.use_jit(True):
            assert np.array_equal(series_interp, detector.score(series))
            assert np.array_equal(last_interp, detector.score_last(windows))

    def test_replay_output_is_owned(self):
        """Scores must not alias the tape's reusable frame buffers."""
        detector = _fitted("default", "float64")
        windows = _windows(detector)
        with jit.use_jit(True):
            detector.model.score_windows(windows)
            first = detector.model.score_windows(windows)
            snapshot = first.copy()
            detector.model.score_windows(windows * 2.0)
        assert np.array_equal(first, snapshot)


def _count_traces(monkeypatch) -> list:
    """Record every ``jit.trace`` call from here to the end of the test."""
    calls: list = []
    real = jit.trace

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(jit, "trace", counting)
    return calls


class TestGuards:
    """Rebinding or updating weights never leaves a stale tape: the
    parameters are tape inputs, read afresh on every replay."""

    def test_load_state_dict_replays_new_weights(self, monkeypatch):
        detector = _fitted("default", "float64")
        model = detector.model
        windows = _windows(detector)
        with jit.use_jit(True):
            before = model.score_windows(windows)
            tape = next(iter(model._tapes.values()))

            # Rebind every parameter array (what load_model / publish do).
            state = model.state_dict()
            for name in state:
                state[name] = state[name] * 1.5
            model.load_state_dict(state)

            with jit.use_jit(False):
                interpreted = model.score_windows(windows)
            traces = _count_traces(monkeypatch)
            replayed = model.score_windows(windows)
        assert traces == []
        assert next(iter(model._tapes.values())) is tape
        assert np.array_equal(interpreted, replayed)
        assert not np.array_equal(before, replayed)

    def test_checkpoint_roundtrip_stays_bitwise(self, tmp_path):
        from repro.nn.serialization import load_model, save_model

        detector = _fitted("default", "float64")
        model = detector.model
        windows = _windows(detector)
        with jit.use_jit(True):
            before = model.score_windows(windows)
            save_model(model, tmp_path / "ckpt.npz")
            load_model(model, tmp_path / "ckpt.npz")
            after = model.score_windows(windows)
        assert np.array_equal(before, after)

    def test_inplace_update_keeps_tape_valid(self):
        """Optimizer-style in-place writes: no retrace, and replay reads
        the new values."""
        detector = _fitted("default", "float64")
        model = detector.model
        windows = _windows(detector)
        with jit.use_jit(True):
            model.score_windows(windows)
            tape = next(iter(model._tapes.values()))
            param = next(iter(model.parameters()))
            param.data *= 1.01  # repro: noqa[MUT001] - optimizer-style step
            with jit.use_jit(False):
                interpreted = model.score_windows(windows)
            assert np.array_equal(interpreted, model.score_windows(windows))
            assert next(iter(model._tapes.values())) is tape


class TestTapeCache:
    def test_keys_specialize_shape_dtype_fused(self):
        # The batch size is not in the key: the tape is traced on one
        # row and replays at every batch size.
        detector = _fitted("default", "float64")
        model = detector.model
        model._tapes.clear()
        with jit.use_jit(True):
            model.score_windows(_windows(detector, batch=3))
            assert len(model._tapes) == 1
            model.score_windows(_windows(detector, batch=3))
            assert len(model._tapes) == 1  # same key, cache hit
            tape = next(iter(model._tapes.values()))
            model.score_windows(_windows(detector, batch=5))
            assert len(model._tapes) == 1  # batch 5 replays the batch-3 tape
            assert next(iter(model._tapes.values())) is tape
            longer = np.concatenate([_windows(detector, batch=3)] * 2, axis=1)
            model.score_windows(longer)
            assert len(model._tapes) == 2  # new window length, new key
            with fused.use_fused(False):
                model.score_windows(_windows(detector, batch=3))
            assert len(model._tapes) == 3  # fused policy in the key
        keys = set(model._tapes)
        window = detector.config.window_size
        assert {key[0] for key in keys} == {(window, 1), (2 * window, 1)}
        assert {key[2] for key in keys} == {True, False}

    def test_hit_key_outlives_fresh_insertions(self):
        """The cache is an LRU: a key that keeps getting hits is never
        the one evicted, however many fresh keys arrive."""
        config = TFMAEConfig(window_size=30, d_model=8, num_layers=1,
                             num_heads=2, jit_cache_size=2, seed=0)
        model = TFMAEModel(1, config)
        rng = np.random.default_rng(3)
        hot = rng.normal(size=(2, 30, 1))
        with jit.use_jit(True):
            model.score_windows(hot)
            hot_key = next(iter(model._tapes))
            for length in range(31, 31 + 2 * config.jit_cache_size):
                model.score_windows(hot)  # hit: most recent again
                model.score_windows(rng.normal(size=(2, length, 1)))
                assert hot_key in model._tapes
        assert model.jit_evictions == 2 * config.jit_cache_size - 1

    def test_cache_size_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_CACHE", "3")
        assert TFMAEConfig().jit_cache_size == 3

    @pytest.mark.parametrize("raw", ["abc", "2.5", "0", "-3", ""])
    def test_bad_cache_size_env_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_JIT_CACHE", raw)
        with pytest.raises(ValueError, match="REPRO_JIT_CACHE"):
            TFMAEConfig()

    def test_cache_size_validated(self):
        with pytest.raises(ValueError, match="jit_cache_size"):
            TFMAEConfig(jit_cache_size=0)


def _shared_config(dtype: str = "float64", **overrides) -> TFMAEConfig:
    """A config no module-level fitted model uses, so its shared-tape
    key starts empty in every test."""
    base = dict(window_size=30, d_model=8, num_layers=1, num_heads=2,
                temporal_mask_ratio=30.0, frequency_mask_ratio=30.0,
                seed=17, compute_dtype=dtype)
    return TFMAEConfig(**{**base, **overrides})


def _shared_windows() -> np.ndarray:
    rng = np.random.default_rng(0)
    size = _shared_config().window_size
    return np.stack([_sine_series(rng, size) for _ in range(3)])


def _shared_batch(config: TFMAEConfig, batch: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([_sine_series(rng, config.window_size) for _ in range(batch)])


def _shared_entries(config: TFMAEConfig) -> list:
    """The process-wide interned tape keys of ``config``."""
    from repro.core.model import _SHARED_TAPES

    return [key for key in list(_SHARED_TAPES.keys()) if key[0] == config]


class TestSharedTapes:
    """A tape depends on the architecture only: every instance of one
    config replays the same tape over its own weights."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("use_fused", [True, False])
    def test_instances_of_one_config_trace_once(self, monkeypatch, variant,
                                                dtype, use_fused):
        config = _shared_config(dtype, **VARIANTS[variant])
        first, second = TFMAEModel(1, config), TFMAEModel(1, config)
        rng = np.random.default_rng(5)
        second.load_state_dict({
            name: value + rng.normal(scale=0.1, size=value.shape)
            for name, value in first.state_dict().items()
        })
        windows = _shared_windows()
        traces = _count_traces(monkeypatch)
        scores = {}
        with fused.use_fused(use_fused):
            for name, model in (("first", first), ("second", second)):
                with jit.use_jit(False):
                    interpreted = model.score_windows(windows)
                with jit.use_jit(True):
                    compiled = [model.score_windows(windows) for _ in range(2)]
                for result in compiled:
                    assert np.array_equal(interpreted, result), name
                scores[name] = interpreted
        assert len(traces) == 1
        (tape,) = first._tapes.values()
        assert second._tapes[next(iter(first._tapes))] is tape
        assert not np.array_equal(scores["first"], scores["second"])

    def test_univariate_mask_token_is_not_baked(self, monkeypatch):
        """``mask_token_re`` has shape ``(1,)`` on a univariate model: a
        baked copy would score the second instance with the first's."""
        config = _shared_config()
        first, second = TFMAEModel(1, config), TFMAEModel(1, config)
        second.frequency.mask_token_re.data = first.frequency.mask_token_re.data + 1.0
        assert second.frequency.mask_token_re.shape == (1,)
        windows = _shared_windows()
        traces = _count_traces(monkeypatch)
        with jit.use_jit(True):
            first_scores = first.score_windows(windows)
            second_scores = second.score_windows(windows)
        with jit.use_jit(False):
            expected = second.score_windows(windows)
        assert len(traces) == 1
        assert np.array_equal(second_scores, expected)
        assert not np.array_equal(first_scores, second_scores)

    def test_architecture_change_does_not_share(self, monkeypatch):
        """One differing architecture field gets its own tape; a third
        instance of the first config replays the first's."""
        windows = _shared_windows()
        models = [TFMAEModel(1, _shared_config()),
                  TFMAEModel(1, _shared_config(ffn_dim=16)),
                  TFMAEModel(1, _shared_config())]
        traces = _count_traces(monkeypatch)
        for model in models:
            with jit.use_jit(False):
                expected = model.score_windows(windows)
            with jit.use_jit(True):
                assert np.array_equal(model.score_windows(windows), expected)
        assert len(traces) == 2
        tapes = [next(iter(model._tapes.values())) for model in models]
        assert tapes[0] is not tapes[1]
        assert tapes[2] is tapes[0]

    def test_registry_load_fresh_replays_without_tracing(self, monkeypatch, tmp_path):
        from repro.serve import ModelRegistry

        detector = TFMAE(_shared_config(seed=29, anomaly_ratio=5.0, batch_size=8))
        series = _sine_series(np.random.default_rng(1), 200)
        detector.fit(series[:150], series[150:])  # serving needs a threshold
        windows = _windows(detector)
        registry = ModelRegistry(tmp_path)
        registry.publish("tfmae", detector)
        with jit.use_jit(True):
            detector.score_last(windows)  # the published instance's tape
            fresh, _ = registry.load_fresh("tfmae")
            traces = _count_traces(monkeypatch)
            scores = fresh.score_last(windows)
        with jit.use_jit(False):
            expected = fresh.score_last(windows)
        assert traces == []
        assert np.array_equal(scores, expected)

    def test_entry_dies_with_the_last_instance(self):
        import gc

        config = _shared_config(seed=23)
        windows = _shared_windows()
        first, second = TFMAEModel(1, config), TFMAEModel(1, config)
        with jit.use_jit(True):
            first.score_windows(windows)
            second.score_windows(windows)
        assert len(_shared_entries(config)) == 1
        del first
        gc.collect()
        assert len(_shared_entries(config)) == 1  # second still holds it
        del second
        gc.collect()
        assert _shared_entries(config) == []

    def test_unslotted_parameter_falls_back_unbaked(self):
        """A parameter leaf that is not an input slot soft-fails the trace
        whatever its size; passed as a slot, replay reads its array."""
        weight = nn.Parameter(np.array([2.0]))
        rng = np.random.default_rng(0)
        slots = {"x": rng.normal(size=(4, 3))}
        with nn.no_grad():
            out, tape = jit.trace(lambda: Tensor(slots["x"]) * weight, slots,
                                  batch_slots=("x",))
        assert np.array_equal(out.data, slots["x"] * 2.0)
        assert tape is None

        slots["w"] = weight.data
        with nn.no_grad():
            _, tape = jit.trace(lambda: Tensor(slots["x"]) * weight, slots,
                                batch_slots=("x",))
        assert tape is not None
        replayed = tape.replay({"x": slots["x"], "w": np.array([3.0])})
        assert np.array_equal(replayed, slots["x"] * 3.0)


class TestTrainModeDropout:
    """Dropout masks are drawn per call, so no tape can replay them: a
    train-mode model with active dropout scores interpreted even when
    an eval-mode instance of its config has interned a tape."""

    def test_train_mode_dropout_never_replays_a_shared_tape(self, monkeypatch):
        config = _shared_config(dropout=0.2)
        windows = _shared_windows()
        evaluated = TFMAEModel(1, config).eval()
        with jit.use_jit(True):
            eval_scores = evaluated.score_windows(windows)
        assert _shared_entries(config)

        # Same config and seed: both train-mode instances draw the same
        # dropout masks, so the interpreted scores are reproducible.
        reference, compiled = TFMAEModel(1, config), TFMAEModel(1, config)
        assert reference.training and compiled.training
        with jit.use_jit(False):
            interpreted = reference.score_windows(windows)
        traces = _count_traces(monkeypatch)
        with jit.use_jit(True):
            got = compiled.score_windows(windows)
        assert np.array_equal(got, interpreted)
        assert not np.array_equal(got, eval_scores)
        assert traces == [] and len(compiled._tapes) == 0


#: Mixed micro-batch sizes: the largest first, then smaller and repeated.
BATCH_SEQUENCE = (32, 1, 17, 5, 32, 2, 9)


def _batch_windows(detector: TFMAE, batch: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    size = detector.config.window_size
    return np.stack([_sine_series(rng, size) for _ in range(batch)])


def _run_threads(*workers) -> None:
    """Run each worker on its own thread; re-raise the first failure."""
    errors = []

    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException as error:  # pragma: no cover
                errors.append(error)
        return run

    threads = [threading.Thread(target=wrap(worker)) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestBatchPolymorphic:
    """One tape per window shape replays at every micro-batch size."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("use_fused", [True, False])
    def test_mixed_batch_sequence_is_bitwise(self, variant, dtype, use_fused):
        detector = _fitted(variant, dtype)
        model = detector.model
        model._tapes.clear()
        evictions = model.jit_evictions
        with fused.use_fused(use_fused):
            for seed, batch in enumerate(BATCH_SEQUENCE):
                windows = _batch_windows(detector, batch, seed)
                with jit.use_jit(False):
                    interpreted = model.score_windows(windows)
                with jit.use_jit(True):
                    compiled = model.score_windows(windows)
                assert np.array_equal(interpreted, compiled), (batch, seed)
        assert len(model._tapes) == 1
        assert all(tape is not _UNSUPPORTED for tape in model._tapes.values())
        assert model.jit_evictions == evictions

    def test_trace_at_batch_one_replays_larger_batches(self):
        """A size-1 batch axis is the edge where numpy ignores strides;
        a tape traced there must still replay bitwise at larger B."""
        detector = _fitted("default", "float32")
        model = detector.model
        model._tapes.clear()
        for seed, batch in enumerate((1, 32, 6)):
            windows = _batch_windows(detector, batch, seed)
            with jit.use_jit(False):
                interpreted = model.score_windows(windows)
            with jit.use_jit(True):
                assert np.array_equal(interpreted, model.score_windows(windows))
        assert len(model._tapes) == 1

    @pytest.mark.parametrize("graph", [
        pytest.param(lambda x, w: x.sum(axis=0), id="reduces-axis-0"),
        pytest.param(lambda x, w: x.transpose(1, 0, 2), id="moves-axis-0"),
        pytest.param(lambda x, w: x.reshape(-1, 3), id="folds-axis-0"),
        pytest.param(lambda x, w: x[:4], id="slices-axis-0"),
        pytest.param(lambda x, w: w @ x[:, 0], id="contracts-axis-0"),
    ])
    def test_axis_0_ops_fall_back(self, graph):
        """Ops that do not keep the batch axis row by row soft-fail the
        trace, even where a dimension happens to equal the batch (4)."""
        rng = np.random.default_rng(0)
        slots = {"x": rng.normal(size=(4, 4, 3)), "w": rng.normal(size=(4, 4))}
        with nn.no_grad():
            out, tape = jit.trace(
                lambda: graph(Tensor(slots["x"]), Tensor(slots["w"])),
                slots, batch_slots=("x",),
            )
        assert out is not None
        assert tape is None

    def test_window_length_equal_to_batch_replays(self):
        """Batch-ness follows data flow, not dimension values: with
        T == B at trace time the tape still replays at other B."""
        rng = np.random.default_rng(0)
        table = rng.normal(size=(4, 3))  # (T, features), T == traced B

        def graph(slots):
            x = Tensor(slots["x"]) + Tensor(slots["table"])
            return (x.transpose(0, 2, 1) @ x).reshape(x.shape[0], 9)

        def run(batch):
            slots = {"x": rng.normal(size=(batch, 4, 3)), "table": table}
            with nn.no_grad():
                expected = graph(slots).data
            return slots, expected

        slots, _ = run(4)
        with nn.no_grad():
            _, tape = jit.trace(lambda: graph(slots), slots, batch_slots=("x",))
        assert tape is not None
        for batch in (7, 1, 4):
            slots, expected = run(batch)
            assert tape.replays_at(batch)
            assert np.array_equal(tape.replay(slots), expected)

    def test_reshape_by_a_dimension_equal_to_batch_pins_the_tape(self):
        """``x.reshape(T, -1)`` with T == B at trace leads with the batch
        by value only: the tape replays at the traced B alone, and a
        trace at another B falls back."""
        rng = np.random.default_rng(0)

        def graph(slots):
            x = Tensor(slots["x"])
            return (x * 2.0).reshape(x.shape[1], -1)

        slots = {"x": rng.normal(size=(4, 4, 3))}
        with nn.no_grad():
            _, tape = jit.trace(lambda: graph(slots), slots, batch_slots=("x",))
        assert tape is not None
        assert tape.replays_at(4) and not tape.replays_at(7)
        slots = {"x": rng.normal(size=(4, 4, 3))}
        with nn.no_grad():
            assert np.array_equal(tape.replay(slots), graph(slots).data)
        slots = {"x": rng.normal(size=(7, 4, 3))}
        with nn.no_grad():
            _, tape = jit.trace(lambda: graph(slots), slots, batch_slots=("x",))
        assert tape is None

    def test_batch_equal_to_num_heads_no_longer_pins(self):
        """A reshape target of ``(B, T, heads, head_dim)`` traced at a
        batch equal to num_heads could not tell the batch from the heads
        by value.  The tape is traced on one row instead, so it replays
        at that batch and every other: one trace, the same tape
        throughout, no eviction."""
        config = _shared_config(seed=41)
        model = TFMAEModel(1, config)
        heads = config.num_heads
        traces = jit.trace_count()
        tape = None
        for seed, batch in enumerate((heads, heads, 5, heads, 11, 2 * heads)):
            windows = _shared_batch(config, batch, seed)
            with jit.use_jit(False):
                interpreted = model.score_windows(windows)
            with jit.use_jit(True):
                assert np.array_equal(interpreted, model.score_windows(windows)), batch
            (current,) = model._tapes.values()
            assert tape is None or current is tape
            tape = current
        assert jit.trace_count() - traces == 1
        assert all(tape.replays_at(batch) for batch in (1, heads, 5, 32))
        assert model.jit_evictions == 0

    def test_pinned_tape_is_retraced_in_place(self, monkeypatch):
        """With head_dim 1, a one-row trace's ``(1, T, heads, 1)``
        reshape pins it to batch 1, so the whole batch is traced
        instead; a batch equal to num_heads pins that tape too, and the
        next call at another size replaces it in place."""
        config = _shared_config(seed=43, num_heads=8)
        assert config.d_model // config.num_heads == 1
        model = TFMAEModel(1, config)
        heads = config.num_heads
        traces = _count_traces(monkeypatch)
        for seed, batch in enumerate((heads, heads, 5, heads, 11)):
            windows = _shared_batch(config, batch, seed)
            with jit.use_jit(False):
                interpreted = model.score_windows(windows)
            with jit.use_jit(True):
                assert np.array_equal(interpreted, model.score_windows(windows)), batch
            (tape,) = model._tapes.values()
            if seed == 0:
                assert not tape.replays_at(5)
                # The one-row tape pinned, then the whole batch traced.
                assert [len(call[1]["windows"]) for call in traces] == [1, heads]
        assert tape.replays_at(heads) and tape.replays_at(32)
        # Traced at 8 (pinned), retraced at 5 (one row, then whole).
        assert [len(call[1]["windows"]) for call in traces] == [1, heads, 1, 5]
        assert model.jit_evictions == 0

    @pytest.mark.parametrize("copies", [False, True], ids=["view", "copy"])
    def test_reshape_keeps_its_parent_buffer_live(self, copies):
        """Whether a batch-major reshape views or copies its parent is
        numpy's call at each B, so the planner keeps the parent's buffer
        live while the reshape is read either way: a later step of the
        same pool shape must not reuse it mid-replay."""
        rng = np.random.default_rng(0)

        def graph(slots):
            x = Tensor(slots["x"])
            batch = x.shape[0]
            a = x * 2.0
            if copies:  # the reshape below copies
                b = a.transpose(0, 2, 1)[:, :, :2].reshape(batch, 6)
            else:
                b = a[:, :2].reshape(batch, 6)
            c = x * 3.0
            return b + c[:, :2].reshape(batch, 6)

        slots = {"x": rng.normal(size=(4, 4, 3))}
        with nn.no_grad():
            _, tape = jit.trace(lambda: graph(slots), slots, batch_slots=("x",))
        assert tape is not None
        assert tape.num_buffers == 3  # x * 3 does not reuse x * 2's buffer
        for batch in (1, 4):
            slots = {"x": rng.normal(size=(batch, 4, 3))}
            with nn.no_grad():
                assert np.array_equal(tape.replay(slots), graph(slots).data), batch

    def test_trace_needs_a_batch_slot(self):
        slots = {"x": np.ones((4, 3))}
        with nn.no_grad():
            out, tape = jit.trace(lambda: Tensor(slots["x"]) * 2.0, slots,
                                  batch_slots=("windows",))
        assert np.array_equal(out.data, slots["x"] * 2.0)
        assert tape is None

    def test_frame_grows_only_for_larger_batches(self):
        """The first call traces one row and replays its whole batch, so
        the frame is sized for that batch at once; a smaller batch then
        replays through prefix views of the same buffers, and only a
        larger one reallocates."""
        config = _shared_config(seed=71)
        model = TFMAEModel(1, config)  # a tape no other test has replayed
        with jit.use_jit(True):
            model.score_windows(_shared_batch(config, 3, 0))  # trace
            tape = next(iter(model._tapes.values()))
            assert tape._tls.rows == 3
            frame = list(tape._tls.frame)
            model.score_windows(_shared_batch(config, 2, 1))
            assert tape._tls.rows == 3  # a smaller batch reuses the frame
            assert all(now is then for now, then in zip(tape._tls.frame, frame))
            model.score_windows(_shared_batch(config, 5, 2))
            assert tape._tls.rows == 5  # grew for the larger batch
            for seed, batch in enumerate(BATCH_SEQUENCE):
                model.score_windows(_shared_batch(config, batch, seed))
                if batch == max(BATCH_SEQUENCE) and seed == 0:
                    frame = list(tape._tls.frame)
            assert tape._tls.rows == max(BATCH_SEQUENCE)
        assert all(now is then for now, then in zip(tape._tls.frame, frame))

    def test_threads_replay_different_batch_sizes(self):
        detector = _fitted("default", "float64")
        model = detector.model
        batches = {"a": (3, 29), "b": (17, 1)}
        inputs = {name: [_batch_windows(detector, batch, batch) for batch in sizes]
                  for name, sizes in batches.items()}
        with jit.use_jit(False):
            expected = {name: [model.score_windows(w) for w in windows]
                        for name, windows in inputs.items()}
        model._tapes.clear()
        with jit.use_jit(True):
            model.score_windows(inputs["a"][0])  # one shared tape
        results = {name: [] for name in batches}

        def worker(name):
            with jit.use_jit(True):
                for _ in range(10):
                    for windows in inputs[name]:
                        results[name].append(model.score_windows(windows))

        _run_threads(lambda: worker("a"), lambda: worker("b"))
        assert len(model._tapes) == 1
        for name in batches:
            for index, scores in enumerate(results[name]):
                want = expected[name][index % len(batches[name])]
                assert np.array_equal(scores, want), (name, index)

    def test_micro_batcher_bursts_match_score_last(self):
        from repro.serve import MicroBatcher

        detector = _fitted("default", "float64")
        windows = _batch_windows(detector, 64, 5)
        with jit.use_jit(False):
            expected = [detector.score_last(window[None])[0] for window in windows]
        rng = np.random.default_rng(0)
        batcher = MicroBatcher(detector_for=lambda key: detector,
                               max_batch_size=32).start()
        try:
            for size in (1, 32, 7, 19, 2, 32, 13, 3):
                picks = rng.integers(len(windows), size=size)
                futures = [batcher.submit("m", windows[pick]) for pick in picks]
                for pick, future in zip(picks, futures):
                    assert future.result(timeout=30) == expected[pick]
        finally:
            batcher.stop()


class TestFallback:
    def test_op_without_a_kernel_returns_the_interpreted_result(self):
        """An op no scoring graph dispatches has no replay kernel: the
        trace soft-fails, and its result is the interpreted one."""
        slots = {"x": np.random.default_rng(0).normal(size=(4, 3))}
        with nn.no_grad():
            expected = Tensor(slots["x"]).sigmoid().data
            out, tape = jit.trace(lambda: Tensor(slots["x"]).sigmoid() * 2.0,
                                  slots, batch_slots=("x",))
        assert tape is None
        assert np.array_equal(out.data, expected * 2.0)

    def test_unsupported_op_falls_back_and_negative_caches(self, monkeypatch):
        """An untraceable graph scores interpreted and is negative-cached:
        one failed trace, then no more.  Once the op is replayable again,
        a fresh cache traces and compiles."""
        config = _shared_config(seed=47)
        model = TFMAEModel(1, config)  # no other instance holds its tapes
        windows = _shared_windows()
        with jit.use_jit(False):
            interpreted = model.score_windows(windows)

        monkeypatch.delitem(jit._COMPILERS, "matmul")
        traces = _count_traces(monkeypatch)
        with jit.use_jit(True):
            first = model.score_windows(windows)
            assert list(model._tapes.values()) == [_UNSUPPORTED]
            second = model.score_windows(windows)  # negative-cache path
        assert len(traces) == 1
        assert _shared_entries(config) == []
        assert np.array_equal(interpreted, first)
        assert np.array_equal(interpreted, second)

        monkeypatch.undo()
        model._tapes.clear()
        traces = _count_traces(monkeypatch)
        with jit.use_jit(True):
            third = model.score_windows(windows)
            assert all(t is not _UNSUPPORTED for t in model._tapes.values())
        assert len(traces) == 1
        assert len(_shared_entries(config)) == 1
        assert np.array_equal(interpreted, third)


class TestJitThreadLocal:
    """Mirror of tests/nn/test_policy_threading.py for the jit switch."""

    def _run_both(self, worker_a, worker_b):
        _run_threads(worker_a, worker_b)

    def test_concurrent_flips_do_not_leak(self):
        barrier = threading.Barrier(2)
        iterations = 200

        def flip_off():
            barrier.wait()
            for _ in range(iterations):
                with jit.use_jit(False):
                    assert jit.jit_enabled() is False

        def flip_on():
            barrier.wait()
            for _ in range(iterations):
                with jit.use_jit(True):
                    assert jit.jit_enabled() is True

        self._run_both(flip_off, flip_on)
        assert jit.jit_enabled() is True  # process default untouched

    def test_override_invisible_to_other_thread(self):
        entered = threading.Event()
        release = threading.Event()
        seen = {}

        def overrider():
            with jit.use_jit(False):
                entered.set()
                release.wait(timeout=5)

        def observer():
            entered.wait(timeout=5)
            seen["enabled"] = jit.jit_enabled()
            release.set()

        self._run_both(overrider, observer)
        assert seen["enabled"] is True

    def test_set_jit_is_the_shared_default(self):
        seen = {}
        try:
            jit.set_jit(False)
            thread = threading.Thread(
                target=lambda: seen.update(enabled=jit.jit_enabled())
            )
            thread.start()
            thread.join()
        finally:
            jit.set_jit(True)
        assert seen["enabled"] is False

    def test_nested_overrides_restore(self):
        with jit.use_jit(False):
            with jit.use_jit(True):
                assert jit.jit_enabled() is True
            assert jit.jit_enabled() is False
        assert jit.jit_enabled() is True

    def test_concurrent_replay_same_tape(self):
        """Two threads replaying one tape share code but not frames."""
        detector = _fitted("default", "float64")
        model = detector.model
        windows = _windows(detector)
        with jit.use_jit(True):
            expected = model.score_windows(windows)
        results = {}

        def worker(name):
            with jit.use_jit(True):
                for _ in range(20):
                    results[name] = model.score_windows(windows)

        self._run_both(lambda: worker("a"), lambda: worker("b"))
        assert np.array_equal(results["a"], expected)
        assert np.array_equal(results["b"], expected)


#: The perfbench model shape (``perfbench/harness.py``) and the paper's
#: defaults on a 38-feature series, with the score-last row counts a
#: bitwise check picks for them.
PERFBENCH_SHAPE = dict(window_size=100, d_model=32, num_layers=2, num_heads=4)
SHAPES = {
    "perfbench": (PERFBENCH_SHAPE, 1, 2),
    "paper": ({}, 38, 16),
}


def _model(shape: str, dtype: str = "float64", seed: int = 0) -> TFMAEModel:
    overrides, features, _ = SHAPES[shape]
    config = TFMAEConfig(**overrides, compute_dtype=dtype, seed=seed)
    return TFMAEModel(features, config).eval()


def _random_windows(model: TFMAEModel, batch: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch, model.config.window_size, model.n_features))


def _rows_of(model: TFMAEModel) -> int | None:
    """The score-last row count chosen for ``model``'s float scoring key."""
    from repro.core.model import _SCORE_ROWS

    key = (model.config, model.n_features,
           (model.config.window_size, model.n_features),
           model.compute_dtype, fused.fused_enabled())
    return _SCORE_ROWS[key]


class TestScoreLastRows:
    """``score_last_windows`` cuts each branch's final layer to the
    trailing ``rows`` query rows and stays bitwise the last column of
    ``score_windows``."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_rows_at_perfbench_and_paper_shapes(self, shape, dtype):
        for seed in range(3):
            model = _model(shape, dtype, seed=seed)
            model.score_last_windows(_random_windows(model, 1, seed))
            assert _rows_of(model) == SHAPES[shape][2], seed

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_score_last_is_bitwise_the_last_column(self, shape, dtype):
        model = _model(shape, dtype, seed=5)
        for batch in (1, 2, 5, 32):
            windows = _random_windows(model, batch, batch)
            with jit.use_jit(False):
                full = model.score_windows(windows)[:, -1]
                interpreted = model.score_last_windows(windows)
            with jit.use_jit(True):
                compiled = [model.score_last_windows(windows) for _ in range(2)]
            assert interpreted.shape == (batch,)
            assert np.array_equal(interpreted, full), batch
            for result in compiled:
                assert np.array_equal(result, full), batch

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_ablations_score_last_bitwise(self, variant):
        detector = _fitted(variant, "float64")
        windows = _batch_windows(detector, 6, 3)
        full = detector.model.score_windows(windows)[:, -1]
        for enabled in (False, True):
            with jit.use_jit(enabled):
                assert np.array_equal(detector.model.score_last_windows(windows), full)

    def test_score_and_score_last_never_replay_each_others_tape(self, monkeypatch):
        """``rows`` is in the tape key: each graph traces its own tape, on
        one instance and across instances of one config."""
        config = TFMAEConfig(**PERFBENCH_SHAPE, seed=53)
        first, second = TFMAEModel(1, config).eval(), TFMAEModel(1, config).eval()
        windows = _random_windows(first, 3, 0)
        traces = _count_traces(monkeypatch)
        with jit.use_jit(True):
            first.score_last_windows(windows)
            second.score_windows(windows)  # must not replay first's tape
            first.score_windows(windows)
            second.score_last_windows(windows)
        assert len(traces) == 2
        rows = _rows_of(first)
        assert rows == 2
        assert {key[-1] for key in first._tapes} == {None, rows}
        assert first._tapes.keys() == second._tapes.keys()
        full_key = next(key for key in first._tapes if key[-1] is None)
        last_key = next(key for key in first._tapes if key[-1] == rows)
        assert first._tapes[full_key] is not first._tapes[last_key]
        assert second._tapes[full_key] is first._tapes[full_key]
        assert second._tapes[last_key] is first._tapes[last_key]
        assert {key[-1] for key in _shared_entries(config)} == {None, rows}

    def test_train_mode_dropout_scores_last_from_the_full_graph(self):
        """A dropout mask is drawn per forward, so a train-mode model
        neither row-checks nor replays: its score-last call consumes the
        same randomness as ``score_windows``."""
        config = _shared_config(seed=59, dropout=0.2)
        windows = _shared_windows()
        reference, model = TFMAEModel(1, config), TFMAEModel(1, config)
        expected = reference.score_windows(windows)[:, -1]
        with jit.use_jit(True):
            assert np.array_equal(model.score_last_windows(windows), expected)
        assert len(model._tapes) == 0


class TestZeroRetrace:
    """Once a key has traced, no batch size traces again: every tape is
    traced on one row and replays at any batch."""

    @pytest.mark.parametrize("use_fused", [True, False])
    def test_mixed_batch_sizes_never_trace(self, use_fused):
        model = _model("perfbench", seed=61)
        sizes = np.random.default_rng(0).permutation(np.arange(1, 34))
        with fused.use_fused(use_fused), jit.use_jit(True):
            model.score_last_windows(_random_windows(model, 4, 0))
            model.score_windows(_random_windows(model, 8, 0))
            traces = jit.trace_count()
            for seed, batch in enumerate(sizes):
                windows = _random_windows(model, int(batch), seed)
                last = model.score_last_windows(windows)
                full = model.score_windows(windows)
                assert np.array_equal(last, full[:, -1]), batch
            assert jit.trace_count() == traces
        assert len(model._tapes) == 2
        assert model.jit_evictions == 0

    def test_trace_count_counts_every_trace(self, monkeypatch):
        config = _shared_config(seed=67)
        model = TFMAEModel(1, config)
        before = jit.trace_count()
        with jit.use_jit(True):
            model.score_windows(_shared_windows())
            model.score_windows(_shared_windows())
            model.score_last_windows(_shared_windows())
        assert jit.trace_count() - before == 2

"""Train-step tape JIT: bitwise fit equivalence, guards, fallbacks, cache.

The contract of :mod:`repro.nn.jit_train` is stricter than the scoring
tape's: the *whole trajectory* — per-batch losses, final weights,
optimizer moments and the RNG stream — must be bitwise-identical between
the compiled and interpreted train loops.  Every equivalence assertion
here uses ``np.array_equal``, never ``allclose``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TFMAEConfig
from repro.core.model import TFMAEModel
from repro.core.trainer import TFMAETrainer
from repro.nn import fused
from repro.nn.jit_train import (
    CompiledStepError,
    TrainStep,
    _TrainTapeBuilder,
    TrainTape,
    set_train_jit,
    train_jit_enabled,
    use_train_jit,
)
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, op_hook


def _series(length: int = 360, features: int = 2) -> np.ndarray:
    rng = np.random.default_rng(0)
    t = np.arange(length)
    base = np.sin(2 * np.pi * t / 23.0)[:, None]
    return np.repeat(base, features, axis=1) + 0.05 * rng.normal(
        size=(length, features)
    )


def _config(**overrides) -> TFMAEConfig:
    base = dict(
        window_size=30,
        d_model=8,
        num_layers=1,
        num_heads=2,
        temporal_mask_ratio=30.0,
        frequency_mask_ratio=30.0,
        batch_size=4,
        epochs=2,
        learning_rate=1e-3,
        seed=0,
        preflight=False,
    )
    base.update(overrides)
    return TFMAEConfig(**base)


def _fit(config: TFMAEConfig, series=None):
    model = TFMAEModel(2, config)
    trainer = TFMAETrainer(model, config)
    log = trainer.fit(_series() if series is None else series)
    return model, trainer, log


def _assert_same_trajectory(config_overrides: dict) -> TFMAETrainer:
    """Fit twice (train JIT off/on) and require bitwise-equal results."""
    interp_model, _, interp_log = _fit(_config(train_jit=False, **config_overrides))
    jit_model, jit_trainer, jit_log = _fit(_config(train_jit=True, **config_overrides))
    assert np.array_equal(interp_log.losses, jit_log.losses)
    interp_state = interp_model.state_dict()
    jit_state = jit_model.state_dict()
    assert set(interp_state) == set(jit_state)
    for key in interp_state:
        assert np.array_equal(interp_state[key], jit_state[key]), key
    return jit_trainer


class TestBitwiseFitEquivalence:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"compute_dtype": "float32"},
            {"adversarial": False},
            {"use_frequency_branch": False},
            {"use_temporal_branch": False},
        ],
        ids=["default", "float32", "non-adversarial", "temporal-only",
             "frequency-only"],
    )
    def test_fit_matches_interpreted(self, overrides):
        trainer = _assert_same_trajectory(overrides)
        step = trainer.train_step
        assert step.traces >= 1
        assert step.replays >= 1
        assert step.fallbacks == 0

    def test_fit_matches_with_fused_kernels_off(self):
        with fused.use_fused(False):
            trainer = _assert_same_trajectory({})
        assert trainer.train_step.replays >= 1

    def test_optimizer_moments_match(self):
        _, interp_trainer, _ = _fit(_config(train_jit=False))
        _, jit_trainer, _ = _fit(_config(train_jit=True))
        interp_opt = interp_trainer.optimizer.state_dict()
        jit_opt = jit_trainer.optimizer.state_dict()
        assert set(interp_opt) == set(jit_opt)
        for key in interp_opt:
            entry_a, entry_b = interp_opt[key], jit_opt[key]
            if isinstance(entry_a, np.ndarray):
                assert np.array_equal(entry_a, entry_b), key
            else:
                assert entry_a == entry_b, key


class TestFallbacks:
    def test_dropout_falls_back_to_interpreted(self):
        """Fresh dropout masks per batch are untraceable; the fit must
        run interpreted — and still match the interpreted trajectory."""
        trainer = _assert_same_trajectory({"dropout": 0.1})
        step = trainer.train_step
        assert step.traces == 0
        assert step.replays == 0
        assert step.fallbacks > 0

    def test_detect_anomaly_runs_interpreted(self):
        """An active sanitizer hook needs per-op attribution, so the
        compiled step stands aside."""
        trainer = _assert_same_trajectory({"detect_anomaly": True})
        step = trainer.train_step
        assert step.replays == 0
        assert step.fallbacks > 0

    def test_overridden_loss_is_respected(self):
        config = _config(train_jit=True)
        model = TFMAEModel(2, config)
        calls = {"n": 0}
        original = model.loss

        def counting_loss(batch):
            calls["n"] += 1
            return original(batch)

        model.loss = counting_loss
        trainer = TFMAETrainer(model, config)
        log = trainer.fit(_series())
        assert calls["n"] == len(log.losses)
        assert trainer.train_step.replays == 0


class TestToggles:
    def test_toggle_trio(self):
        assert train_jit_enabled()
        set_train_jit(False)
        try:
            assert not train_jit_enabled()
            with use_train_jit(True):
                assert train_jit_enabled()
                with use_train_jit(False):
                    assert not train_jit_enabled()
                assert train_jit_enabled()
            assert not train_jit_enabled()
        finally:
            set_train_jit(True)
        assert train_jit_enabled()

    def test_use_train_jit_false_forces_interpreted(self):
        config = _config(train_jit=True)
        model = TFMAEModel(2, config)
        trainer = TFMAETrainer(model, config)
        with use_train_jit(False):
            trainer.fit(_series())
        assert trainer.train_step.traces == 0
        assert trainer.train_step.fallbacks > 0


class TestGuardsAndCache:
    def test_rebound_parameter_invalidates_and_retraces(self):
        config = _config(train_jit=True, epochs=1)
        model = TFMAEModel(2, config)
        trainer = TFMAETrainer(model, config)
        trainer.fit(_series())
        step = trainer.train_step
        traces_before = step.traces
        assert step._tapes
        # Rebind one parameter's array (what a checkpoint restore or a
        # dtype migration does): every cached tape must be discarded and
        # the next fit must retrace, not replay stale buffers.
        param = next(iter(model.parameters()))
        param.data = param.data.copy()
        trainer.fit(_series())
        assert step.traces > traces_before

    def test_lru_eviction_counts(self):
        config = _config(train_jit=True, jit_cache_size=1, epochs=1)
        model = TFMAEModel(2, config)
        trainer = TFMAETrainer(model, config)
        # 9 windows at batch_size=4 -> batches of 4, 4 and 1: two distinct
        # shape keys, capacity one, so the second key evicts the first.
        series = _series(length=9 * config.window_size)
        trainer.fit(series)
        assert trainer.train_step.evictions >= 1

    def test_hit_key_outlives_fresh_insertions(self):
        """The train-step cache is an LRU, not FIFO: a key that keeps
        getting hits is never the one evicted."""
        config = _config(train_jit=True)
        model = TFMAEModel(2, config)
        optimizer = Adam(list(model.parameters()), lr=1e-3)
        step = TrainStep(model, optimizer, cache_size=2)
        rng = np.random.default_rng(0)

        def train(batch):
            handle = step.begin(rng.normal(size=(batch, config.window_size, 2)))
            handle.backward()
            handle.apply_update()

        train(4)
        hot_key = next(iter(step._tapes))
        for batch in range(5, 5 + 2 * step.cache_size):
            train(4)  # hit: most recent again
            train(batch)
            assert hot_key in step._tapes
        assert step.evictions == 2 * step.cache_size - 1

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


class TestCompiledStepError:
    def _tape(self):
        rng = np.random.default_rng(0)
        weight = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        slots = {"x": rng.normal(size=(3, 4))}
        builder = _TrainTapeBuilder(slots, [weight])
        optimizer = Adam([weight], lr=1e-3)
        with op_hook(builder):
            out = Tensor(slots["x"], requires_grad=False).matmul(weight)
            loss = (out * out).sum()
            optimizer.zero_grad()
            loss.backward()
        return TrainTape(builder, loss, {}, optimizer), slots

    def test_failure_names_op_and_site(self):
        tape, slots = self._tape()
        frame = [np.empty(shape, dtype) for shape, dtype in tape._frame_specs]
        # Corrupt the first planned buffer so the matmul's out= raises.
        frame[0] = np.empty((1, 1), dtype=frame[0].dtype)
        gen = tape._fn(slots, frame, 1e-3, 1.0, 1.0)
        with pytest.raises(CompiledStepError) as excinfo:
            tape._advance(gen, "forward")
        error = excinfo.value
        assert error.phase == "forward"
        assert error.op == "matmul"
        assert error.site is not None and "test_train_jit" in error.site
        assert "matmul" in str(error)


class TestCheckpointResumeUnderTrainJit:
    """Satellite: resume may flip the train-JIT toggle mid-run freely —
    the trajectory is execution-strategy independent."""

    @pytest.mark.parametrize("first,second", [(True, False), (False, True)])
    def test_resume_across_toggle_is_bitwise_identical(
        self, tmp_path, first, second
    ):
        series = _series()
        reference_model, _, reference_log = _fit(
            _config(train_jit=True, epochs=4)
        )

        part1 = _config(train_jit=first, epochs=2,
                        checkpoint_dir=str(tmp_path))
        _fit(part1, series=series)

        part2 = _config(train_jit=second, epochs=4,
                        checkpoint_dir=str(tmp_path), resume=True)
        resumed_model, _, resumed_log = _fit(part2, series=series)

        assert resumed_log.resumed
        reference_state = reference_model.state_dict()
        resumed_state = resumed_model.state_dict()
        for key in reference_state:
            assert np.array_equal(reference_state[key], resumed_state[key]), key
        # The resumed log holds epochs 3-4; they must equal the reference
        # run's tail exactly.
        tail = len(resumed_log.losses)
        assert np.array_equal(
            reference_log.losses[-tail:], resumed_log.losses
        )

"""Trainer tests: schedules, logging, input validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TFMAEConfig, TFMAEModel, TFMAETrainer


def _config(**overrides) -> TFMAEConfig:
    base = dict(window_size=20, d_model=8, num_layers=1, num_heads=2,
                batch_size=4, epochs=2, learning_rate=1e-3)
    base.update(overrides)
    return TFMAEConfig(**base)


class TestTrainer:
    def test_logs_every_batch(self, rng):
        config = _config()
        model = TFMAEModel(1, config)
        trainer = TFMAETrainer(model)
        log = trainer.fit(rng.normal(size=(200, 1)))
        # 200/20 = 10 windows, batch 4 -> 3 batches per epoch, 2 epochs.
        assert len(log.losses) == 6
        assert log.summary()["batches"] == 6

    def test_training_moves_parameters(self, rng):
        config = _config(adversarial=False)
        model = TFMAEModel(1, config)
        before = {name: p.data.copy() for name, p in model.named_parameters()}
        TFMAETrainer(model).fit(rng.normal(size=(200, 1)))
        moved = any(
            not np.allclose(before[name], p.data)
            for name, p in model.named_parameters()
        )
        assert moved

    def test_plain_contrastive_loss_decreases(self, rng):
        config = _config(adversarial=False, epochs=10)
        model = TFMAEModel(1, config)
        log = TFMAETrainer(model).fit(np.sin(np.arange(400) / 5.0)[:, None])
        first = np.mean(log.losses[:3])
        last = np.mean(log.losses[-3:])
        assert last < first

    def test_model_left_in_eval_mode(self, rng):
        model = TFMAEModel(1, _config())
        TFMAETrainer(model).fit(rng.normal(size=(100, 1)))
        assert not model.training

    def test_short_series_rejected(self, rng):
        model = TFMAEModel(1, _config())
        with pytest.raises(ValueError):
            TFMAETrainer(model).fit(rng.normal(size=(5, 1)))

    def test_empty_log_summary(self):
        from repro.core.trainer import TrainingLog
        assert TrainingLog().summary() == {"batches": 0}

    def test_early_stopping_halts_on_plateau(self, rng):
        """With patience 1, a run whose tracked loss cannot improve
        (constant data -> loss plateau) stops well before the epoch cap."""
        series = np.zeros((200, 1)) + rng.normal(0, 1e-9, (200, 1))
        model = TFMAEModel(1, _config(epochs=30, early_stop_patience=1))
        log = TFMAETrainer(model).fit(series)
        batches_per_epoch = 3  # 10 windows / batch 4
        assert len(log.losses) < 30 * batches_per_epoch

    def test_early_stopping_disabled_by_default(self, rng):
        model = TFMAEModel(1, _config(epochs=4))
        log = TFMAETrainer(model).fit(rng.normal(size=(200, 1)))
        assert len(log.losses) == 4 * 3

    def test_shuffle_off_is_deterministic(self, rng):
        series = rng.normal(size=(100, 1))
        logs = []
        for _ in range(2):
            model = TFMAEModel(1, _config(seed=3))
            logs.append(TFMAETrainer(model).fit(series, shuffle=False).losses)
        np.testing.assert_allclose(logs[0], logs[1])

    def test_overridden_loss_is_respected(self, rng):
        """An instance-level ``model.loss`` replaces the objective: the
        trainer calls it once per logged batch."""
        model = TFMAEModel(1, _config(preflight=False))
        calls = {"n": 0}
        original = model.loss

        def counting_loss(batch):
            calls["n"] += 1
            return original(batch)

        model.loss = counting_loss
        log = TFMAETrainer(model).fit(rng.normal(size=(200, 1)))
        assert calls["n"] == len(log.losses) == 6


class TestSyntheticProbe:
    def test_probe_labels_mark_corruptions(self, rng):
        from repro.core.trainer import build_synthetic_probe

        validation = rng.normal(size=(120, 3))
        windows, labels = build_synthetic_probe(validation, 30, rng)
        assert windows.shape == (4, 30, 3)
        assert labels.shape == (4, 30)
        clean = np.stack(np.split(validation, 4))
        changed = np.any(windows != clean, axis=2)
        # Every modified position is labelled anomalous.
        assert np.all(labels[changed] == 1)
        # Both anomaly families present: isolated points and a segment.
        assert labels.sum() > 4

    def test_probe_requires_full_window(self, rng):
        from repro.core.trainer import build_synthetic_probe

        with pytest.raises(ValueError):
            build_synthetic_probe(rng.normal(size=(10, 1)), 30, rng)

    def test_snapshot_selection_restores_best_weights(self, rng):
        """With selection on, final weights come from the best-probe
        epoch, so re-scoring the probe with the final model must match
        the best AUC seen during training."""
        from repro.core.trainer import build_synthetic_probe
        from repro.metrics import roc_auc

        series = np.sin(np.arange(400) / 5.0)[:, None] + rng.normal(0, 0.05, (400, 1))
        validation = series[300:]
        config = _config(epochs=4, select_best_epoch=True, adversarial=False)
        model = TFMAEModel(1, config)
        trainer = TFMAETrainer(model)
        trainer.fit(series[:300], validation=validation)

        probe = build_synthetic_probe(validation, config.window_size,
                                      np.random.default_rng(config.seed + 1))
        final_auc = roc_auc(model.score_windows(probe[0]).reshape(-1),
                            probe[1].reshape(-1))
        # Retrain without selection, tracking every epoch's AUC.
        model2 = TFMAEModel(1, config.with_overrides(select_best_epoch=False))
        trainer2 = TFMAETrainer(model2)
        aucs = []
        windows = np.stack(np.split(series[:300], 300 // config.window_size))
        rng2 = np.random.default_rng(config.seed)
        for _ in range(config.epochs):
            order = rng2.permutation(windows.shape[0])
            for start in range(0, len(order), config.batch_size):
                batch = windows[order[start : start + config.batch_size]]
                loss, _ = model2.loss(batch)
                trainer2.optimizer.zero_grad()
                loss.backward()
                trainer2.optimizer.step()
            model2.eval()
            aucs.append(roc_auc(model2.score_windows(probe[0]).reshape(-1),
                                probe[1].reshape(-1)))
            model2.train()
        assert final_auc == pytest.approx(max(aucs), abs=1e-9)

    def test_selection_without_validation_is_noop(self, rng):
        config = _config(epochs=2, select_best_epoch=True)
        model = TFMAEModel(1, config)
        log = TFMAETrainer(model).fit(rng.normal(size=(100, 1)))  # no validation
        assert log.summary()["batches"] > 0

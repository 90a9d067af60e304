"""Model registry: publish/load round-trips, versioning, integrity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.serialization import load_metadata, save_training_state
from repro.serve import ModelNotFound, ModelRegistry, RegistryError
from repro.serve import registry as registry_module


class TestPublish:
    def test_versions_autoincrement(self, tmp_path, fitted_tfmae):
        registry = ModelRegistry(tmp_path)
        assert registry.publish("tfmae", fitted_tfmae) == "v1"
        assert registry.publish("tfmae", fitted_tfmae) == "v2"
        assert registry.versions("tfmae") == ["v1", "v2"]
        assert registry.latest("tfmae") == "v2"

    def test_named_versions_and_immutability(self, tmp_path, fitted_tfmae):
        registry = ModelRegistry(tmp_path)
        registry.publish("tfmae", fitted_tfmae, version="prod")
        with pytest.raises(RegistryError, match="immutable"):
            registry.publish("tfmae", fitted_tfmae, version="prod")

    def test_rejects_uncalibrated_detector(self, tmp_path, sine_series, fitted_tfmae):
        from repro.core import TFMAE

        registry = ModelRegistry(tmp_path)
        uncalibrated = TFMAE(fitted_tfmae.config)
        uncalibrated.fit(sine_series[:200])  # no validation => no threshold
        with pytest.raises(RegistryError, match="threshold"):
            registry.publish("tfmae", uncalibrated)

    def test_rejects_unknown_detector_type(self, tmp_path, toy_detector):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(RegistryError, match="codec"):
            registry.publish("toy", toy_detector)

    def test_rejects_path_traversal_names(self, tmp_path, fitted_tfmae):
        registry = ModelRegistry(tmp_path)
        for bad in ("../evil", "a/b", "", ".hidden"):
            with pytest.raises(RegistryError):
                registry.publish(bad, fitted_tfmae)

    def test_version_sorting_is_numeric(self, tmp_path, fitted_tfmae):
        registry = ModelRegistry(tmp_path)
        for _ in range(11):
            registry.publish("tfmae", fitted_tfmae)
        assert registry.latest("tfmae") == "v11"  # not lexicographic "v9"


class TestLoadRoundTrip:
    def test_loaded_model_serves_identically_without_refitting(
        self, tmp_path, fitted_tfmae, sine_series
    ):
        """The satellite contract: hyperparameters (window size, anomaly
        ratio, threshold) round-trip with the weights, so scoring through
        a loaded artifact is bitwise identical to the original."""
        registry = ModelRegistry(tmp_path)
        registry.publish("tfmae", fitted_tfmae)
        loaded, version = registry.load("tfmae")
        assert version == "v1"
        assert loaded is not fitted_tfmae
        assert loaded.config == fitted_tfmae.config
        assert loaded.config.window_size == fitted_tfmae.config.window_size
        assert loaded.anomaly_ratio == fitted_tfmae.anomaly_ratio
        assert loaded.threshold_ == fitted_tfmae.threshold_
        test = sine_series[450:]
        assert np.array_equal(loaded.score(test), fitted_tfmae.score(test))
        assert np.array_equal(loaded.predict(test), fitted_tfmae.predict(test))

    @pytest.mark.parametrize("use_jit", [False, True])
    def test_dropout_model_loads_in_eval_mode(self, tmp_path, sine_series, use_jit):
        """A model trained with dropout serves the fitted model's
        deterministic scores: the loaded module is in eval mode."""
        from repro.core import TFMAE, TFMAEConfig
        from repro.nn import jit

        config = TFMAEConfig(window_size=50, d_model=16, num_layers=1, num_heads=2,
                             dropout=0.2, anomaly_ratio=5.0, epochs=1, batch_size=8)
        fitted = TFMAE(config)
        fitted.fit(sine_series[:400], sine_series[400:500])
        registry = ModelRegistry(tmp_path)
        registry.publish("tfmae", fitted)
        windows = np.stack([sine_series[i : i + 50] for i in range(0, 100, 10)])
        with jit.use_jit(use_jit):
            expected = fitted.score_last(windows)
            for loaded in (registry.load("tfmae")[0], registry.load_fresh("tfmae")[0]):
                assert not loaded.model.training
                assert np.array_equal(loaded.score_last(windows), expected)

    def test_score_last_round_trips_too(self, tmp_path, fitted_tfmae, sine_series):
        registry = ModelRegistry(tmp_path)
        registry.publish("tfmae", fitted_tfmae)
        loaded, _ = registry.load("tfmae")
        windows = np.stack([sine_series[i : i + 50] for i in range(0, 100, 10)])
        assert np.array_equal(loaded.score_last(windows), fitted_tfmae.score_last(windows))

    def _publish_with_extra_config(self, monkeypatch, tmp_path, detector, extra):
        """Publish ``detector`` with ``extra`` keys in its stored config,
        as an artifact written by another release would carry them."""
        codec = registry_module._CODECS["TFMAE"]

        def export(det):
            module, hyperparams = codec.export(det)
            hyperparams["config"].update(extra)
            return module, hyperparams

        monkeypatch.setitem(registry_module._CODECS, "TFMAE",
                            codec._replace(export=export))
        ModelRegistry(tmp_path).publish("tfmae", detector)
        monkeypatch.setitem(registry_module._CODECS, "TFMAE", codec)
        return ModelRegistry(tmp_path)

    def test_artifact_with_retired_config_field_still_loads(
        self, monkeypatch, tmp_path, fitted_tfmae, sine_series
    ):
        """Artifacts published while the config had a ``train_jit`` field
        keep loading and score bitwise like their source detector."""
        registry = self._publish_with_extra_config(
            monkeypatch, tmp_path, fitted_tfmae, {"train_jit": True})
        stored = load_metadata(tmp_path / "tfmae" / "v1.npz")
        assert stored["hyperparams"]["config"]["train_jit"] is True
        loaded, _ = registry.load("tfmae")
        assert loaded.config == fitted_tfmae.config
        test = sine_series[450:]
        assert np.array_equal(loaded.score(test), fitted_tfmae.score(test))

    def test_artifact_with_unknown_config_field_is_rejected(
        self, monkeypatch, tmp_path, fitted_tfmae
    ):
        registry = self._publish_with_extra_config(
            monkeypatch, tmp_path, fitted_tfmae, {"no_such_field": 1})
        with pytest.raises(RegistryError, match="no_such_field"):
            registry.load("tfmae")

    def test_load_is_cached(self, tmp_path, fitted_tfmae):
        registry = ModelRegistry(tmp_path)
        registry.publish("tfmae", fitted_tfmae)
        first, _ = registry.load("tfmae", "v1")
        second, _ = registry.load("tfmae", "v1")
        assert first is second

    def test_cache_evicts_least_recently_used(self, tmp_path, fitted_tfmae):
        registry = ModelRegistry(tmp_path, cache_size=1)
        registry.publish("tfmae", fitted_tfmae)
        registry.publish("tfmae", fitted_tfmae)
        first, _ = registry.load("tfmae", "v1")
        registry.load("tfmae", "v2")  # evicts v1
        again, _ = registry.load("tfmae", "v1")
        assert again is not first

    def test_missing_model_and_version(self, tmp_path, fitted_tfmae):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(ModelNotFound):
            registry.load("ghost")
        registry.publish("tfmae", fitted_tfmae)
        with pytest.raises(ModelNotFound):
            registry.load("tfmae", "v99")

    def test_describe_exposes_metadata(self, tmp_path, fitted_tfmae):
        registry = ModelRegistry(tmp_path)
        registry.publish("tfmae", fitted_tfmae)
        meta = registry.describe("tfmae")
        assert meta["detector"] == "TFMAE"
        assert meta["hyperparams"]["config"]["window_size"] == 50
        assert meta["hyperparams"]["threshold"] == fitted_tfmae.threshold_
        assert len(meta["fingerprint"]) == 64

    def test_models_listing(self, tmp_path, fitted_tfmae):
        registry = ModelRegistry(tmp_path)
        assert registry.models() == []
        registry.publish("b-model", fitted_tfmae)
        registry.publish("a-model", fitted_tfmae)
        assert registry.models() == ["a-model", "b-model"]


class TestIntegrity:
    def test_fingerprint_mismatch_detected(self, tmp_path, fitted_tfmae):
        """Metadata altered after publishing must not load silently."""
        registry = ModelRegistry(tmp_path)
        registry.publish("tfmae", fitted_tfmae)
        path = tmp_path / "tfmae" / "v1.npz"
        meta = load_metadata(path)
        meta["hyperparams"]["threshold"] = 0.0  # tamper without re-fingerprinting
        # Rewrite the archive with the tampered metadata but original weights.
        loaded, _ = registry.load("tfmae")
        save_training_state(path, loaded.model, metadata=meta)
        fresh = ModelRegistry(tmp_path)  # bypass the cache
        with pytest.raises(RegistryError, match="fingerprint"):
            fresh.load("tfmae")

    def test_unreadable_artifact_raises_registry_error(self, tmp_path):
        model_dir = tmp_path / "tfmae"
        model_dir.mkdir()
        (model_dir / "v1.npz").write_bytes(b"not an npz archive")
        registry = ModelRegistry(tmp_path)
        with pytest.raises(RegistryError):
            registry.load("tfmae")

"""POT/EVT threshold tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics import pot_threshold


class TestPotThreshold:
    def test_exceedance_rate_close_to_q(self, rng):
        """On heavy-ish tailed data, ~q of fresh samples exceed z_q."""
        calibration = rng.standard_gamma(2.0, size=50_000)
        fresh = np.random.default_rng(1).standard_gamma(2.0, size=200_000)
        q = 1e-3
        z = pot_threshold(calibration, q=q)
        rate = (fresh > z).mean()
        assert rate == pytest.approx(q, rel=0.6)

    def test_extrapolates_beyond_observed_max(self, rng):
        calibration = rng.standard_gamma(2.0, size=5_000)
        z = pot_threshold(calibration, q=1e-6)
        assert z > calibration.max()

    def test_smaller_q_higher_threshold(self, rng):
        calibration = rng.standard_gamma(2.0, size=10_000)
        assert pot_threshold(calibration, q=1e-5) > pot_threshold(calibration, q=1e-2)

    def test_fallback_on_tiny_sample(self, rng):
        scores = rng.normal(size=30)
        z = pot_threshold(scores, q=0.05)
        assert np.isfinite(z)
        # Falls back to the empirical quantile.
        assert z == pytest.approx(np.quantile(scores, 0.95))

    def test_fallback_on_constant_tail(self):
        scores = np.concatenate([np.zeros(990), np.full(10, 5.0)])
        z = pot_threshold(scores, q=0.01)
        assert np.isfinite(z)

    def test_validation(self, rng):
        scores = rng.normal(size=100)
        with pytest.raises(ValueError):
            pot_threshold(np.array([]), q=0.01)
        with pytest.raises(ValueError):
            pot_threshold(scores, q=0.0)
        with pytest.raises(ValueError):
            pot_threshold(scores, initial_quantile=30.0)


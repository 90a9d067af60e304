"""Shared fixtures: deterministic RNGs, tiny datasets, fast model configs."""

from __future__ import annotations

# ``import repro`` arms lockcheck under REPRO_LOCKCHECK=1 before any
# repro module creates a lock; here it is only read.
from repro.analysis import lockcheck as _lockcheck

_LOCKCHECK_ON = _lockcheck.installed()

import numpy as np
import pytest

from repro.core import TFMAEConfig
from repro.datasets import get_dataset, make_nips_ts_global


@pytest.fixture(scope="session", autouse=True)
def _lockcheck_session_guard():
    """With lockcheck armed, fail the session on any observed hazard.

    Every lock acquisition in every test feeds one observed lock-order
    graph; at session end a cycle or a lock-held-across-spawn event —
    even one that never actually deadlocked in this run — fails loudly.
    """
    yield
    if _LOCKCHECK_ON:
        _lockcheck.assert_clean()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def tiny_global_dataset():
    """A small NIPS-TS-Global realisation shared across the session."""
    return get_dataset("NIPS-TS-Global", seed=0, scale=0.02)


@pytest.fixture(scope="session")
def tiny_multivariate_dataset():
    """A small MSL-profile realisation (multivariate, 55 channels)."""
    return get_dataset("MSL", seed=0, scale=0.005)


@pytest.fixture
def fast_config() -> TFMAEConfig:
    """A TFMAE config small enough for sub-second training in tests."""
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


def numerical_gradient(fn, x0: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued numpy function."""
    grad = np.zeros_like(x0, dtype=np.float64)
    for index in np.ndindex(*x0.shape):
        plus = x0.copy()
        plus[index] += eps
        minus = x0.copy()
        minus[index] -= eps
        grad[index] = (fn(plus) - fn(minus)) / (2.0 * eps)
    return grad

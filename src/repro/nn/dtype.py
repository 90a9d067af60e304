"""Compute-dtype policy for the numpy substrate.

The reference numerics of the reproduction are float64 — every
equivalence test, gradcheck and paper-table number is produced at full
precision.  Production training and serving do not need that: float32
halves the memory traffic of every kernel and roughly doubles BLAS
throughput on the attention matmuls, while anomaly *ranking* (the only
thing thresholds consume) is insensitive at these scales.

This module provides the switch (a :class:`repro.nn.policy.Switch`):

* :func:`set_default_dtype` / :func:`get_default_dtype` — the process
  default used whenever a :class:`~repro.nn.tensor.Tensor` is built from
  non-array data (or from an array of a different float dtype).
* :func:`default_dtype` — a context manager that overrides the default
  on the *current thread only*.  Models with a per-model
  ``compute_dtype`` (:class:`repro.core.TFMAEConfig`) wrap their forward
  passes in it, so a float32 model serving traffic never disturbs a
  float64 equivalence test running on another thread.

The default stays float64, so nothing changes unless a caller opts in.
"""

from __future__ import annotations

import numpy as np

from .policy import Switch

__all__ = ["get_default_dtype", "set_default_dtype", "default_dtype", "resolve_dtype"]

_SUPPORTED = (np.dtype(np.float32), np.dtype(np.float64))


def _validate(dtype) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved not in _SUPPORTED:
        raise ValueError(
            f"compute dtype must be float32 or float64, got {resolved}"
        )
    return resolved


_DTYPE = Switch(np.float64, _validate)

#: Current default floating dtype (thread-local override wins).
get_default_dtype = _DTYPE.get
#: Set the process-wide default floating dtype (float32 or float64).
set_default_dtype = _DTYPE.set
#: Thread-local dtype override, usable as a context manager:
#: ``with default_dtype(np.float32): Tensor([1.0, 2.0])`` is float32.
default_dtype = _DTYPE.override


def resolve_dtype(dtype=None) -> np.dtype:
    """Resolve an explicit dtype, falling back to the active default."""
    if dtype is None:
        return get_default_dtype()
    return _validate(dtype)

"""``repro.robustness`` — fault tolerance for training and streaming.

The deployments that motivate the paper (Section I: water treatment,
spacecraft, server fleets) are exactly the settings where long training
runs die mid-epoch and live telemetry arrives corrupted.  This subpackage
makes both hot paths survivable:

* :mod:`~repro.robustness.checkpoint` — atomic training-state
  checkpoints (model + optimizer + RNG + metadata) with config
  fingerprinting, powering ``--resume``;
* :mod:`~repro.robustness.guards` — divergence detection (non-finite
  loss/gradients, loss explosion) driving rollback + learning-rate
  backoff in the trainer;
* :mod:`~repro.robustness.faults` — :class:`FaultPolicy`, the streaming
  degradation contract (impute, clamp, reject, fall back) consumed by
  :class:`~repro.streaming.StreamingDetector`;
* :mod:`~repro.robustness.chaos` — :class:`~repro.robustness.chaos.ChaosHarness`,
  fault injection against a live ``repro.serve`` stack (corrupt/truncated
  artifacts, slow loads, transient failures, worker exceptions, queue
  saturation) asserting the graceful-degradation contract.  It drives
  the HTTP server, so the package does not import it: training never
  loads ``repro.serve``.  Import it as ``repro.robustness.chaos``.
"""

from ..nn.serialization import CheckpointError
from .checkpoint import CheckpointManager, config_fingerprint, fingerprint_mismatches
from .faults import FaultPolicy, sanitize_observation
from .guards import DivergenceGuard, GuardReport, TrainingDivergedError

__all__ = [
    "CheckpointError",
    "CheckpointManager",
    "config_fingerprint",
    "fingerprint_mismatches",
    "DivergenceGuard",
    "GuardReport",
    "TrainingDivergedError",
    "FaultPolicy",
    "sanitize_observation",
]

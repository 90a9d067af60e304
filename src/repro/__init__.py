"""TFMAE reproduction: Temporal-Frequency Masked Autoencoders for Time
Series Anomaly Detection (Fang et al., ICDE 2024).

Quickstart
----------
>>> from repro import TFMAE, TFMAEConfig, get_dataset, evaluate_detector
>>> dataset = get_dataset("NIPS-TS-Global", scale=0.05)
>>> detector = TFMAE(TFMAEConfig(epochs=3, anomaly_ratio=5.0))
>>> result = evaluate_detector(detector, dataset)      # doctest: +SKIP

Subpackages
-----------
``repro.nn``
    From-scratch numpy autograd/Transformer substrate (replaces PyTorch).
``repro.masking``
    Window-based temporal and amplitude-based frequency masking.
``repro.core``
    The TFMAE model, trainer and detector.
``repro.datasets``
    The seven benchmark datasets (synthetic surrogates) and utilities.
``repro.baselines``
    The 14 comparison methods of Table III.
``repro.metrics`` / ``repro.eval``
    Detection metrics, thresholds and the shared evaluation protocol.
``repro.robustness``
    Fault tolerance: checkpoint/resume, divergence guards, and graceful
    streaming degradation under corrupted telemetry.
``repro.serve``
    Micro-batched inference serving: model registry, batching scheduler
    with backpressure, JSON-over-HTTP front end, and metrics.
"""

# First: under REPRO_LOCKCHECK=1 this arms the runtime lock checker
# before any other submodule creates a module-level lock.
from . import analysis
from .core import TFMAE, TFMAEConfig, preset_for
from .datasets import get_dataset, available_datasets
from .detector import BaseDetector
from .eval import evaluate_detector, format_results_table, profile_detector
from .metrics import evaluate_detection
from .robustness import CheckpointError, FaultPolicy, TrainingDivergedError
from .streaming import StreamingDetector

__version__ = "1.0.0"

__all__ = [
    "TFMAE",
    "TFMAEConfig",
    "preset_for",
    "get_dataset",
    "available_datasets",
    "BaseDetector",
    "evaluate_detector",
    "format_results_table",
    "profile_detector",
    "evaluate_detection",
    "StreamingDetector",
    "FaultPolicy",
    "CheckpointError",
    "TrainingDivergedError",
    "__version__",
]

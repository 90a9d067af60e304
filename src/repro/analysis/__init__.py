"""Static analysis and runtime sanitizers for the reproduction.

Three coordinated layers (see ``docs/analysis.md``):

* :mod:`repro.analysis.shapecheck` — pre-flight graph tracing that
  catches broadcast mismatches, dtype-policy violations, and grad-flow
  breaks before a long run starts (wired into ``Trainer.fit`` and
  registry publish via ``TFMAEConfig.preflight``);
* :mod:`repro.analysis.anomaly` — ``detect_anomaly()``, a NaN/Inf
  sanitizer that names the op, creation site, and tensor stats of the
  first non-finite value in a forward or backward pass;
* :mod:`repro.analysis.lint` — a stdlib-ast linter enforcing repo
  invariants (seeded RNG discipline, no in-place autograd mutation,
  locked module state in threaded code, ...) with per-line
  ``# repro: noqa[RULE]`` suppression;
* :mod:`repro.analysis.concurrency` — the interprocedural concurrency
  pass: global lock-order graph with cycle detection (LOCK002),
  blocking-call-under-lock detection (BLK001), and thread-local policy
  discipline (TLS001);
* :mod:`repro.analysis.lockcheck` — the dynamic complement: instrumented
  ``threading`` locks recording the *observed* lock-order graph, spawn
  hazards, and hold-time histograms (``REPRO_LOCKCHECK=1``).

The package itself loads only the runtime pieces (``lockcheck``,
``anomaly`` and ``shapecheck``), so a serving or training process never
imports the static passes.  Those are imported by module path:
``repro.analysis.lint``, ``repro.analysis.concurrency`` and
``repro.analysis.rules``.

CLI: ``python -m repro analyze [lint|shapecheck|concurrency] [--all] [--json]``.
"""

# Before ``anomaly`` and ``shapecheck`` import ``repro.nn``: under
# REPRO_LOCKCHECK=1, a module-level lock created before arming goes
# untracked.  ``import repro`` loads this package first.
from . import lockcheck

lockcheck.maybe_install_from_env()

from .anomaly import AnomalyError, detect_anomaly, tensor_stats
from .shapecheck import (
    OpRecord,
    ShapeCheckError,
    ShapeIssue,
    TraceReport,
    check_grad_flow,
    preflight_model,
    trace,
)

__all__ = [
    "AnomalyError",
    "detect_anomaly",
    "tensor_stats",
    "OpRecord",
    "ShapeIssue",
    "ShapeCheckError",
    "TraceReport",
    "trace",
    "check_grad_flow",
    "preflight_model",
]

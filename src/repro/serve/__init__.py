"""``repro.serve`` — micro-batched inference serving for fitted detectors.

The online path beyond :class:`~repro.streaming.StreamingDetector`: host
a fitted, threshold-calibrated detector behind a versioned registry and
a JSON-over-HTTP interface, with concurrent requests coalesced into
vectorized forward passes.

Pieces (each usable standalone):

* :class:`ModelRegistry` — persist/load fitted detectors as named,
  versioned, fingerprinted ``.npz`` artifacts (built on
  ``repro.nn.serialization``), with load-on-demand LRU caching.
* :class:`MicroBatcher` — bounded-queue micro-batching scheduler with
  one scoring thread, greedy max-batch flush policy, and explicit
  load-shedding (:class:`Overloaded`).
* :class:`ProcessPool` — the multi-process scoring tier: supervised
  worker processes sharded past the GIL, one shared-memory weight copy
  per model (:class:`~repro.serve.shm.WeightSegment`), rendezvous-hash
  model→worker routing, per-model admission quotas, and crash
  detection → re-route → respawn.
* :class:`InferenceServer` — stdlib ``http.server`` front end exposing
  ``/score``, ``/predict``, ``/healthz``, ``/metrics``, ``/models``.
* :class:`MetricsRegistry` — counters, gauges, and latency histograms
  (p50/p95/p99) recorded per endpoint and per model; also used by the
  serving throughput bench.
* :mod:`~repro.serve.lifecycle` — the model lifecycle loop:
  :class:`DriftMonitor` (live score-distribution drift),
  :func:`shadow_compare` (candidate vs. live on identical windows), and
  :class:`LifecycleManager` (guarded publish, post-publish watchdog,
  atomic rollback via the registry's live pointer).
* :class:`~repro.serve.breaker.CircuitBreaker` /
  :class:`~repro.serve.breaker.RetryPolicy` — per-model load-failure
  isolation: capped-backoff retries, then open-circuit degradation
  (last-good version or 503 + ``Retry-After``).

Quickstart (in-process)::

    from repro.serve import InferenceServer, ModelRegistry

    registry = ModelRegistry("./model-registry")
    registry.publish("tfmae-smd", fitted_detector)     # -> "v1"
    with InferenceServer(registry, port=0) as server:
        ...                                            # POST {url}/score

See ``docs/serving.md`` for the architecture and API reference.
"""

from .breaker import CircuitBreaker, RetryPolicy
from .errors import (
    CircuitOpen,
    ModelNotFound,
    Overloaded,
    RegistryError,
    ServeError,
    TransientFault,
)
from .lifecycle import (
    DriftMonitor,
    DriftReport,
    LifecycleManager,
    RefreshReport,
    RollbackRecord,
    ShadowReport,
    WatchdogReport,
    shadow_compare,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .pool import ProcessPool
from .registry import ModelRegistry, config_fingerprint
from .scheduler import MicroBatcher, ScoreRequest
from .server import InferenceServer
from .shm import WeightSegment, attach_segment

__all__ = [
    "ServeError",
    "Overloaded",
    "ModelNotFound",
    "RegistryError",
    "TransientFault",
    "CircuitOpen",
    "CircuitBreaker",
    "RetryPolicy",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ModelRegistry",
    "config_fingerprint",
    "MicroBatcher",
    "ScoreRequest",
    "ProcessPool",
    "WeightSegment",
    "attach_segment",
    "InferenceServer",
    "DriftMonitor",
    "DriftReport",
    "ShadowReport",
    "shadow_compare",
    "LifecycleManager",
    "RefreshReport",
    "WatchdogReport",
    "RollbackRecord",
]

"""Model lifecycle guardrails: drift → refit → shadow → publish → watchdog.

The paper's serving story (Section I: score live telemetry, alert on
threshold crossings) implicitly assumes the model stays valid forever.
Real telemetry drifts — the score distribution the threshold was
calibrated against (Fig. 9) walks away from the validation split — and
refreshed models can be *worse* than what they replace.  This module
closes the loop with four stages, each independently testable:

1. :class:`DriftMonitor` — consumes live scores (or
   :class:`~repro.streaming.StreamEvent` streams) and compares their
   rolling distribution against the calibration reference with the same
   KS/CDF-gap measures :mod:`repro.metrics.distribution` uses for the
   Fig. 9 analysis.  ``patience`` consecutive breaches raise the drift
   flag — a single anomalous burst (which is *signal*, not drift) does
   not.
2. :func:`shadow_compare` — scores the candidate and the live model on
   the **same** windows and only agrees when the score distributions are
   close (KS within budget) and the threshold-crossing decisions match
   on at least ``min_agreement`` of windows.  A candidate that would
   re-alert the fleet never reaches the live pointer.
3. :meth:`LifecycleManager.publish_guarded` — publishes the candidate,
   records the prior live version in the registry's atomic LIVE pointer,
   and snapshots the prior model's probe scores so the watchdog has a
   baseline to diff against.
4. :meth:`LifecycleManager.watchdog_check` — post-publish regression
   gate: non-finite probe scores (attributed to the culpable op via
   :class:`repro.analysis.detect_anomaly` when configured), score
   divergence vs. the prior snapshot, server error rate, and latency
   p99 from :class:`~repro.serve.metrics.MetricsRegistry`.  Any breach
   triggers :meth:`LifecycleManager.rollback` — one atomic
   ``demote_live`` that restores the prior version for every subsequent
   request.

Candidates are always built from :meth:`ModelRegistry.load_fresh`
instances, never the cached live object — an incremental refit must not
mutate weights under in-flight batches (the swap-safety contract
asserted in ``tests/serve/test_lifecycle.py``).
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from ..detector import BaseDetector
from ..metrics.distribution import cdf_gap, ks_distance
from .errors import ModelNotFound, RegistryError
from .metrics import MetricsRegistry
from .registry import ModelRegistry

__all__ = [
    "DriftMonitor",
    "DriftReport",
    "ShadowReport",
    "shadow_compare",
    "LifecycleManager",
    "RefreshReport",
    "WatchdogReport",
    "RollbackRecord",
]


# ----------------------------------------------------------------------
# stage 1: drift detection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DriftReport:
    """Outcome of one drift check against the calibration reference."""

    drifted: bool
    ks: float
    gap: float
    samples: int
    breaches: int

    def __str__(self) -> str:
        verdict = "DRIFTED" if self.drifted else "stable"
        return (
            f"{verdict}: ks={self.ks:.3f} gap={self.gap:.3f} "
            f"over {self.samples} live scores ({self.breaches} consecutive breaches)"
        )


class DriftMonitor:
    """Rolling score-distribution drift detector for one served model.

    Parameters
    ----------
    reference_scores:
        Scores of the *calibration* split (what the threshold was fit
        against) — the distribution live scores are expected to match.
    ks_threshold:
        KS distance above which a check counts as a breach.
    window:
        Number of most-recent live scores compared against the reference.
    min_samples:
        Checks before this many live scores are collected report
        ``drifted=False`` — a distribution of five points is noise.
    patience:
        Consecutive breaching checks required before ``drifted=True``.
        Anomalous bursts breach once and recover; real drift persists.
    """

    def __init__(
        self,
        reference_scores: np.ndarray,
        ks_threshold: float = 0.25,
        window: int = 512,
        min_samples: int = 64,
        patience: int = 2,
    ):
        reference = np.asarray(reference_scores, dtype=np.float64).reshape(-1)
        reference = reference[np.isfinite(reference)]
        if reference.size < 2:
            raise ValueError(
                f"need at least 2 finite reference scores, got {reference.size}"
            )
        if not 0.0 < ks_threshold <= 1.0:
            raise ValueError(f"ks_threshold must be in (0, 1], got {ks_threshold}")
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.reference = reference
        self.ks_threshold = ks_threshold
        self.min_samples = max(2, min_samples)
        self.patience = patience
        self._live: deque[float] = deque(maxlen=window)
        self._breaches = 0

    @property
    def samples(self) -> int:
        return len(self._live)

    def observe(self, scores: float | np.ndarray | Iterable[float]) -> None:
        """Feed live anomaly scores (non-finite values are dropped)."""
        values = np.asarray(scores, dtype=np.float64).reshape(-1)
        for value in values[np.isfinite(values)]:
            self._live.append(float(value))

    def observe_events(self, events: Iterable) -> None:
        """Feed :class:`~repro.streaming.StreamEvent` objects directly.

        Warmup/degraded events carry NaN scores and are skipped — only
        genuine scores inform the drift decision.
        """
        self.observe([event.score for event in events])

    def check(self) -> DriftReport:
        """Compare the live window against the reference; update patience."""
        if len(self._live) < self.min_samples:
            return DriftReport(drifted=False, ks=0.0, gap=0.0,
                               samples=len(self._live), breaches=self._breaches)
        live = np.fromiter(self._live, dtype=np.float64)
        ks = ks_distance(self.reference, live)
        gap = cdf_gap(self.reference, live)
        if ks > self.ks_threshold:
            self._breaches += 1
        else:
            self._breaches = 0
        return DriftReport(
            drifted=self._breaches >= self.patience,
            ks=ks,
            gap=gap,
            samples=live.size,
            breaches=self._breaches,
        )

    def rebase(self, reference_scores: np.ndarray) -> None:
        """Swap the reference (after a refresh) and clear live state."""
        reference = np.asarray(reference_scores, dtype=np.float64).reshape(-1)
        reference = reference[np.isfinite(reference)]
        if reference.size < 2:
            raise ValueError(
                f"need at least 2 finite reference scores, got {reference.size}"
            )
        self.reference = reference
        self._live.clear()
        self._breaches = 0


# ----------------------------------------------------------------------
# stage 2: shadow scoring
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShadowReport:
    """Live-vs-candidate comparison on identical windows."""

    agreed: bool
    ks: float
    gap: float
    agreement: float
    live_crossings: int
    candidate_crossings: int
    windows: int
    reasons: tuple[str, ...] = field(default=())
    #: The candidate's scores on the shadow windows: a refresh rebases
    #: its drift monitor on them instead of scoring the windows again.
    candidate_scores: np.ndarray | None = field(default=None, compare=False, repr=False)


def shadow_compare(
    live: BaseDetector,
    candidate: BaseDetector,
    windows: np.ndarray,
    max_ks: float = 0.25,
    min_agreement: float = 0.9,
) -> ShadowReport:
    """Run candidate and live on the same windows; agree only within budget.

    Both detectors score through their batched
    :meth:`~repro.detector.BaseDetector.score_last` (the serving hot
    path, so the shadow run measures exactly what production would see).
    Agreement requires **both**: score distributions within ``max_ks``
    KS distance, and matching threshold-crossing decisions on at least
    ``min_agreement`` of the windows.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3 or windows.shape[0] < 1:
        raise ValueError(
            f"windows must be (batch, time, features), got shape {windows.shape}"
        )
    if live.threshold_ is None or candidate.threshold_ is None:
        raise ValueError("both detectors must be threshold-calibrated for shadowing")
    live_scores = np.asarray(live.score_last(windows), dtype=np.float64)
    candidate_scores = np.asarray(candidate.score_last(windows), dtype=np.float64)
    reasons: list[str] = []
    if not np.all(np.isfinite(candidate_scores)):
        bad = int(np.sum(~np.isfinite(candidate_scores)))
        return ShadowReport(
            agreed=False, ks=float("inf"), gap=float("inf"), agreement=0.0,
            live_crossings=int(np.sum(live_scores >= live.threshold_)),
            candidate_crossings=0, windows=len(windows),
            reasons=(f"candidate produced {bad} non-finite scores",),
            candidate_scores=candidate_scores,
        )
    ks = ks_distance(live_scores, candidate_scores)
    gap = cdf_gap(live_scores, candidate_scores)
    live_hits = live_scores >= float(live.threshold_)
    candidate_hits = candidate_scores >= float(candidate.threshold_)
    agreement = float(np.mean(live_hits == candidate_hits))
    if ks > max_ks:
        reasons.append(f"score distributions diverge: ks={ks:.3f} > {max_ks:.3f}")
    if agreement < min_agreement:
        reasons.append(
            f"threshold decisions agree on {agreement:.1%} of windows "
            f"(< {min_agreement:.1%})"
        )
    return ShadowReport(
        agreed=not reasons,
        ks=ks,
        gap=gap,
        agreement=agreement,
        live_crossings=int(np.sum(live_hits)),
        candidate_crossings=int(np.sum(candidate_hits)),
        windows=len(windows),
        reasons=tuple(reasons),
        candidate_scores=candidate_scores,
    )


# ----------------------------------------------------------------------
# stages 3-4: guarded publish, watchdog, rollback
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RefreshReport:
    """Outcome of one drift-triggered refresh attempt."""

    refreshed: bool
    reason: str
    drift: DriftReport | None = None
    shadow: ShadowReport | None = None
    version: str | None = None
    #: Wall-clock seconds the candidate refit took (None when the drift
    #: gate stopped the attempt before training).  The lifecycle bench
    #: tracks it across refreshes.
    refit_seconds: float | None = None


@dataclass(frozen=True)
class WatchdogReport:
    """Outcome of one post-publish regression check."""

    healthy: bool
    reasons: tuple[str, ...]
    checks: dict
    rolled_back: bool = False
    restored: str | None = None


@dataclass(frozen=True)
class RollbackRecord:
    """One rollback event: what was demoted, what serves now, and why."""

    name: str
    demoted: str
    restored: str
    reason: str
    latency: float  # seconds from publish to rollback


class LifecycleManager:
    """Orchestrates the refresh loop for one registered model.

    Parameters
    ----------
    registry / name:
        The model's home registry and its registered name.
    drift:
        A :class:`DriftMonitor` fed by the caller (``observe`` /
        ``observe_events``).  Optional — ``refresh(force=True)`` works
        without one.
    refit:
        ``refit(candidate, recent, validation)`` trains the fresh
        candidate instance in place.  Defaults to calling the
        detector's own ``refit`` method (TFMAE has one).
    shadow_max_ks / shadow_min_agreement:
        Budgets for :func:`shadow_compare` at refresh time.
    watchdog_max_ks:
        Post-publish divergence budget between the live model's probe
        scores and the prior version's snapshot.
    max_error_rate:
        Fraction of 5xx responses (per this model, from ``metrics``)
        above which the watchdog rolls back.
    max_latency_p99:
        Seconds; ``/score`` latency p99 budget (``None`` disables).
    metrics:
        The serving :class:`MetricsRegistry` (error rate and latency
        checks are skipped when absent).
    detect_anomaly:
        When True, a non-finite probe score is re-run through
        :class:`repro.analysis.detect_anomaly` (JIT off, so op dispatch
        is observable) and the rollback reason names the culpable op.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        name: str,
        drift: DriftMonitor | None = None,
        refit: Callable[[BaseDetector, np.ndarray, np.ndarray | None], None] | None = None,
        shadow_max_ks: float = 0.25,
        shadow_min_agreement: float = 0.9,
        watchdog_max_ks: float = 0.35,
        max_error_rate: float = 0.1,
        max_latency_p99: float | None = None,
        metrics: MetricsRegistry | None = None,
        detect_anomaly: bool = False,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.registry = registry
        self.name = name
        self.drift = drift
        self._refit = refit
        self.shadow_max_ks = shadow_max_ks
        self.shadow_min_agreement = shadow_min_agreement
        self.watchdog_max_ks = watchdog_max_ks
        self.max_error_rate = max_error_rate
        self.max_latency_p99 = max_latency_p99
        self.metrics = metrics
        self.detect_anomaly = detect_anomaly
        self._clock = clock
        self._probe_windows: np.ndarray | None = None
        self._prior_scores: np.ndarray | None = None
        self._prior_version: str | None = None
        self._published_at: float | None = None
        #: Publish/rollback history, oldest first (RollbackRecord and
        #: ``("publish", version)`` tuples) — the audit trail tests read.
        self.history: list = []

    # ------------------------------------------------------------------
    # publish / rollback
    # ------------------------------------------------------------------
    def publish_guarded(
        self,
        candidate: BaseDetector,
        probe_windows: np.ndarray,
        version: str | None = None,
    ) -> str:
        """Publish ``candidate``, promote it, and arm the watchdog.

        Before the pointer moves, the **prior** live model's scores on
        ``probe_windows`` are snapshotted — the baseline
        :meth:`watchdog_check` diffs against, and what a rollback must
        restore bitwise (versions are immutable, so it does).
        """
        probe_windows = np.asarray(probe_windows, dtype=np.float64)
        if probe_windows.ndim != 3 or probe_windows.shape[0] < 1:
            raise ValueError(
                f"probe_windows must be (batch, time, features), "
                f"got shape {probe_windows.shape}"
            )
        prior_scores = None
        try:
            prior_detector, _ = self.registry.load(self.name)
            prior_scores = np.asarray(
                prior_detector.score_last(probe_windows), dtype=np.float64
            )
        except (ModelNotFound, RegistryError):
            pass  # first publish of this name: no baseline yet
        published = self.registry.publish(self.name, candidate, version=version)
        prior = self.registry.set_live(self.name, published)
        self._probe_windows = probe_windows
        self._prior_scores = prior_scores
        self._prior_version = prior
        self._published_at = self._clock()
        self.history.append(("publish", published))
        return published

    def rollback(self, reason: str) -> RollbackRecord:
        """Demote the live version to its recorded prior, atomically."""
        demoted = self.registry.live_version(self.name)
        restored = self.registry.demote_live(self.name)
        latency = (
            self._clock() - self._published_at
            if self._published_at is not None
            else float("nan")
        )
        record = RollbackRecord(
            name=self.name, demoted=demoted, restored=restored,
            reason=reason, latency=latency,
        )
        self.history.append(record)
        self._published_at = None
        if self.metrics is not None:
            self.metrics.counter("serve_rollbacks_total", model=self.name).inc()
        return record

    # ------------------------------------------------------------------
    # drift-triggered refresh
    # ------------------------------------------------------------------
    def refresh(
        self,
        recent: np.ndarray,
        validation: np.ndarray | None = None,
        probe_windows: np.ndarray | None = None,
        force: bool = False,
    ) -> RefreshReport:
        """The full loop: drift gate → fresh refit → shadow gate → publish.

        ``recent`` is the (time, features) slice of live telemetry to
        refit on; ``probe_windows`` default to sliding windows over it.
        ``force=True`` skips the drift gate (operator-initiated refresh).
        """
        drift_report = None
        if not force:
            if self.drift is None:
                raise ValueError(
                    "refresh() without force=True needs a DriftMonitor"
                )
            drift_report = self.drift.check()
            if not drift_report.drifted:
                return RefreshReport(
                    refreshed=False, reason="no drift detected", drift=drift_report
                )
        live, live_version = self.registry.load(self.name)
        # Fresh instance: the live (cached, shared) object must never be
        # refit in place — in-flight batches are scoring through it.
        candidate, _ = self.registry.load_fresh(self.name, live_version)
        refit_start = self._clock()
        if self._refit is not None:
            self._refit(candidate, recent, validation)
        else:
            refit = getattr(candidate, "refit", None)
            if refit is None:
                raise ValueError(
                    f"{type(candidate).__name__} has no refit(); pass refit= to "
                    "LifecycleManager"
                )
            refit(recent, validation)
        refit_seconds = self._clock() - refit_start
        if probe_windows is None:
            probe_windows = _probe_windows_from(recent, live)
        shadow = shadow_compare(
            live, candidate, probe_windows,
            max_ks=self.shadow_max_ks, min_agreement=self.shadow_min_agreement,
        )
        if not shadow.agreed:
            return RefreshReport(
                refreshed=False,
                reason="shadow disagreement: " + "; ".join(shadow.reasons),
                drift=drift_report, shadow=shadow,
                refit_seconds=refit_seconds,
            )
        version = self.publish_guarded(candidate, probe_windows)
        if self.drift is not None:
            self.drift.rebase(shadow.candidate_scores)
        return RefreshReport(
            refreshed=True, reason="published", drift=drift_report,
            shadow=shadow, version=version, refit_seconds=refit_seconds,
        )

    # ------------------------------------------------------------------
    # post-publish watchdog
    # ------------------------------------------------------------------
    def watchdog_check(self, auto_rollback: bool = True) -> WatchdogReport:
        """Regression-check the live version; demote it on any breach.

        Checks, in order of severity: non-finite probe scores, probe
        scoring errors, score divergence vs. the prior snapshot, 5xx
        error rate, and ``/score`` latency p99 (the last two only with a
        metrics registry attached).
        """
        reasons: list[str] = []
        checks: dict = {}
        probe_scores = None
        if self._probe_windows is not None:
            try:
                live, _ = self.registry.load(self.name)
                probe_scores = np.asarray(
                    live.score_last(self._probe_windows), dtype=np.float64
                )
            except Exception as error:  # noqa: BLE001 — any probe failure is a regression
                reasons.append(f"probe scoring failed: {error}")
                checks["probe_error"] = str(error)
            if probe_scores is not None:
                finite = np.isfinite(probe_scores)
                checks["nonfinite_probe_scores"] = int(np.sum(~finite))
                if not np.all(finite):
                    detail = f"{int(np.sum(~finite))}/{probe_scores.size} probe scores non-finite"
                    culprit = self._attribute_nonfinite(live)
                    if culprit:
                        detail += f" ({culprit})"
                    reasons.append(detail)
                elif self._prior_scores is not None:
                    divergence = ks_distance(self._prior_scores, probe_scores)
                    checks["probe_ks"] = divergence
                    if divergence > self.watchdog_max_ks:
                        reasons.append(
                            f"probe scores diverge from prior version: "
                            f"ks={divergence:.3f} > {self.watchdog_max_ks:.3f}"
                        )
        if self.metrics is not None:
            error_rate = _model_error_rate(self.metrics, self.name)
            checks["error_rate"] = error_rate
            if error_rate > self.max_error_rate:
                reasons.append(
                    f"error rate {error_rate:.1%} > {self.max_error_rate:.1%}"
                )
            if self.max_latency_p99 is not None:
                p99 = _score_latency_p99(self.metrics)
                checks["latency_p99"] = p99
                if math.isfinite(p99) and p99 > self.max_latency_p99:
                    reasons.append(
                        f"latency p99 {p99 * 1e3:.1f}ms > "
                        f"{self.max_latency_p99 * 1e3:.1f}ms"
                    )
        healthy = not reasons
        rolled_back = False
        restored = None
        if not healthy and auto_rollback and self._prior_version is not None:
            record = self.rollback("; ".join(reasons))
            rolled_back = True
            restored = record.restored
        return WatchdogReport(
            healthy=healthy, reasons=tuple(reasons), checks=checks,
            rolled_back=rolled_back, restored=restored,
        )

    def _attribute_nonfinite(self, live: BaseDetector) -> str | None:
        """Name the op that births the NaN, when configured to.

        The tape-replay JIT skips per-op dispatch, so the probe re-runs
        with JIT off under :class:`repro.analysis.detect_anomaly` — the
        rollback reason then points at the culpable op instead of just
        "scores went NaN".
        """
        if not self.detect_anomaly or self._probe_windows is None:
            return None
        from ..analysis import AnomalyError, detect_anomaly
        from ..nn import jit as nn_jit

        try:
            with nn_jit.use_jit(False), detect_anomaly():
                live.score_last(self._probe_windows[:1])
        except AnomalyError as error:
            return str(error).splitlines()[0]
        except Exception:  # noqa: BLE001 — attribution is best-effort
            return None
        return None


def _probe_windows_from(recent: np.ndarray, detector: BaseDetector) -> np.ndarray:
    """Default probe set: sliding windows over the refit slice."""
    from ..datasets.windows import sliding_windows

    recent = np.asarray(recent, dtype=np.float64)
    size = getattr(getattr(detector, "config", None), "window_size", None)
    if size is None or recent.shape[0] < size:
        size = max(2, min(recent.shape[0], 100))
    stride = max(1, (recent.shape[0] - size) // 64 or 1)
    return sliding_windows(recent, size, stride=stride)


def _model_error_rate(metrics: MetricsRegistry, name: str) -> float:
    """Fraction of this model's HTTP responses that were 5xx."""
    snapshot = metrics.snapshot()["counters"]
    total = 0.0
    errors = 0.0
    needle = f"model={name}"
    for key, value in snapshot.items():
        if not key.startswith("serve_http_requests_total{"):
            continue
        labels = key[key.index("{") + 1 : -1].split(",")
        if needle not in labels:
            continue
        total += value
        if any(label.startswith("status=5") for label in labels):
            errors += value
    return errors / total if total else 0.0


def _score_latency_p99(metrics: MetricsRegistry) -> float:
    """p99 of ``/score`` request latency (NaN before any request)."""
    return metrics.histogram("serve_http_latency_seconds", endpoint="/score").quantile(0.99)

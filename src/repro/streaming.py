"""Online (streaming) anomaly detection on top of any fitted detector.

The observability deployments that motivate the paper (Section I) score
telemetry as it arrives, not in offline batches.  :class:`StreamingDetector`
wraps a fitted :class:`~repro.detector.BaseDetector` with a rolling
context buffer: each incoming observation is scored against the most
recent ``context`` observations, so window-based models (TFMAE and the
deep baselines) see a full window ending at the new point.

Real telemetry arrives corrupted — NaN bursts, stuck sensors, wrong
dimensionality after a fleet config change.  Without a policy the
detector fails loudly (a clear :class:`ValueError`, never a ragged
buffer or a silent NaN score); with a
:class:`~repro.robustness.FaultPolicy` it degrades gracefully instead:
malformed components are imputed/clamped from the buffer, rejected
observations produce flagged events, and an optional fallback detector
takes over when the primary's scoring raises, with periodic recovery
probes.  Every intervention is recorded in ``StreamEvent.flags``.

Notes
-----
* The wrapped detector must already be fit and threshold-calibrated.
* Scores for the same observation can differ slightly from offline
  scoring because the window *ends* at the observation instead of being
  aligned to a fixed grid; ordering of anomalies vs. normals is
  preserved, which is what alerting consumes.
* ``update`` is O(one window score); for high-rate streams, batch with
  ``update_many``.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .analysis.lockcheck import named_lock
from .datasets.windows import sliding_windows
from .detector import BaseDetector
from .robustness.faults import FaultPolicy, sanitize_observation

__all__ = ["StreamEvent", "StreamingDetector", "FaultPolicy"]


@dataclass(frozen=True)
class StreamEvent:
    """Outcome of scoring one streamed observation.

    ``score`` is NaN whenever no meaningful score exists (warmup, a
    rejected observation, or a degraded update without a fallback); the
    ``flags`` tuple says why.  Flag vocabulary: ``warmup``, ``imputed``,
    ``clamped``, ``rejected_nonfinite``, ``dim_mismatch``, ``fallback``,
    ``primary_error``, ``nonfinite_score``, ``recovered``.
    """

    index: int
    score: float
    is_anomaly: bool
    flags: tuple[str, ...] = field(default=())

    @property
    def degraded(self) -> bool:
        """True when this event was produced under any fault handling."""
        return bool(self.flags)


class StreamingDetector:
    """Rolling-window online scoring for a fitted detector.

    Parameters
    ----------
    detector:
        A fitted, threshold-calibrated detector.
    context:
        Number of recent observations kept as scoring context.  For
        window-based detectors this should be at least the model's window
        size (e.g. ``config.window_size`` for TFMAE).
    warmup:
        Until this many observations have arrived, events are reported
        with ``is_anomaly=False`` and ``score=nan`` (flag ``warmup``) —
        there is not enough context to score meaningfully.
    policy:
        Optional :class:`~repro.robustness.FaultPolicy` enabling graceful
        degradation on corrupted input.  Without one, malformed
        observations raise :class:`ValueError` with a clear message.
    """

    def __init__(
        self,
        detector: BaseDetector,
        context: int = 100,
        warmup: int | None = None,
        policy: FaultPolicy | None = None,
    ):
        if detector.threshold_ is None:
            raise ValueError("detector must be threshold-calibrated before streaming")
        if context < 2:
            raise ValueError(f"context must be >= 2, got {context}")
        self.detector = detector
        self.context = context
        self.warmup = warmup if warmup is not None else context
        self.policy = policy
        self._buffer: deque[np.ndarray] = deque(maxlen=context)
        self._count = 0
        self._dimension: int | None = None
        self._degraded = False
        self._updates_since_degraded = 0
        # Reentrant: update_many's fault-handling path recurses into
        # update() while already holding the lock.
        self._swap_lock = named_lock("streaming.swap", kind="rlock")

    @property
    def observations_seen(self) -> int:
        return self._count

    @property
    def degraded(self) -> bool:
        """True while the primary detector is out of service (fallback mode)."""
        return self._degraded

    # ------------------------------------------------------------------
    # scoring internals
    # ------------------------------------------------------------------
    def _score_window(self, window: np.ndarray) -> tuple[float, float, list[str]]:
        """Score with primary-or-fallback; returns (score, threshold, flags)."""
        policy = self.policy
        flags: list[str] = []
        use_primary = not self._degraded
        if self._degraded and policy is not None:
            # Periodically probe whether the primary has recovered.
            self._updates_since_degraded += 1
            if self._updates_since_degraded % policy.recovery_every == 0:
                use_primary = True
        if use_primary:
            try:
                score = float(self.detector.score_last(window[None])[0])
                if math.isfinite(score):
                    if self._degraded:
                        flags.append("recovered")
                    self._degraded = False
                    self._updates_since_degraded = 0
                    return score, float(self.detector.threshold_), flags
                flags.append("nonfinite_score")
            except Exception:
                if policy is None:
                    raise
                flags.append("primary_error")
            if policy is None:
                # Non-finite score with no policy: fail loudly rather than
                # silently mis-ranking alerts.
                raise ValueError(
                    f"{self.detector.name}.score_last returned a non-finite value for "
                    "the current window; enable a FaultPolicy to degrade "
                    "gracefully"
                )
            if not self._degraded:
                self._degraded = True
                self._updates_since_degraded = 0
        if policy is not None and policy.fallback is not None:
            flags.append("fallback")
            score = float(policy.fallback.score_last(window[None])[0])
            return score, float(policy.fallback.threshold_), flags
        return float("nan"), float("inf"), flags

    def swap_detector(self, detector: BaseDetector) -> BaseDetector:
        """Atomically replace the wrapped detector (model refresh).

        Holds the same lock :meth:`update`/:meth:`update_many` hold for
        the duration of a batch, so every in-flight batch is scored
        entirely by one detector — a version swap can never mix weights
        mid-batch (asserted bitwise in ``tests/serve/test_lifecycle.py``).
        The rolling context buffer and counters carry over: the stream
        continues seamlessly under the new model.  Returns the detector
        that was serving.
        """
        if detector.threshold_ is None:
            raise ValueError(
                "replacement detector must be threshold-calibrated before streaming"
            )
        with self._swap_lock:
            previous, self.detector = self.detector, detector
            self._degraded = False
            self._updates_since_degraded = 0
        return previous

    def update(self, observation: np.ndarray) -> StreamEvent:
        """Ingest one observation and return its scored event."""
        with self._swap_lock:
            return self._update(observation)

    def _update(self, observation: np.ndarray) -> StreamEvent:
        observation = np.asarray(observation, dtype=np.float64).reshape(-1)
        index = self._count
        self._count += 1
        flags: list[str] = []

        # Dimensionality contract: fixed by the first accepted observation.
        if self._dimension is not None and observation.size != self._dimension:
            if self.policy is None:
                raise ValueError(
                    f"observation {index} has {observation.size} features but the "
                    f"stream was established with {self._dimension}; a ragged "
                    "buffer cannot be scored"
                )
            return StreamEvent(index=index, score=float("nan"), is_anomaly=False,
                               flags=("dim_mismatch",))

        if self.policy is not None:
            stacked = np.stack(self._buffer) if self._buffer else None
            repaired, repair_flags = sanitize_observation(observation, stacked, self.policy)
            flags.extend(repair_flags)
            if repaired is None:
                return StreamEvent(index=index, score=float("nan"), is_anomaly=False,
                                   flags=tuple(flags))
            observation = repaired
        elif not np.all(np.isfinite(observation)):
            raise ValueError(
                f"observation {index} contains NaN/Inf values; impute upstream "
                "or pass a FaultPolicy to degrade gracefully"
            )

        if self._dimension is None:
            self._dimension = observation.size
        self._buffer.append(observation)

        if self._count < self.warmup:
            return StreamEvent(index=index, score=float("nan"), is_anomaly=False,
                               flags=tuple(flags) + ("warmup",))
        window = np.stack(self._buffer)
        score, threshold, score_flags = self._score_window(window)
        flags.extend(score_flags)
        return StreamEvent(
            index=index,
            score=score,
            is_anomaly=bool(math.isfinite(score) and score >= threshold),
            flags=tuple(flags),
        )

    def update_many(self, observations: np.ndarray) -> list[StreamEvent]:
        """Ingest a batch of observations in arrival order.

        Events are identical to calling :meth:`update` per row — same
        indices, same flags, bitwise-equal scores — but all post-warmup
        windows are scored through one batched
        :meth:`~repro.detector.BaseDetector.score_last` call per window
        length instead of one single-window call per observation, which
        is what makes high-rate streams affordable.
        The same helper backs the ``repro.serve`` micro-batcher, so
        streaming and serving share one batched hot path.

        The serial path is kept for the fault-handling modes whose
        per-observation state machine batching cannot preserve: an active
        :class:`~repro.robustness.FaultPolicy`, an already-degraded
        stream, or a primary detector that errors/returns non-finite
        scores mid-batch (detected and replayed serially, yielding the
        exact sequential events).  Without a policy, malformed input
        raises the same :class:`ValueError` as :meth:`update`, before any
        observation of the batch is ingested.
        """
        with self._swap_lock:
            return self._update_many(observations)

    def _update_many(self, observations: np.ndarray) -> list[StreamEvent]:
        observations = np.atleast_2d(np.asarray(observations, dtype=np.float64))
        if observations.ndim != 2:
            raise ValueError(
                f"observations must be (batch, features), got shape {observations.shape}"
            )
        if len(observations) == 0:
            return []
        # Fault-handling paths keep the exact serial state machine:
        # sanitization depends on the evolving buffer and degradation
        # flips per event.
        if self.policy is not None or self._degraded:
            return [self._update(row) for row in observations]

        # Validate the whole batch up front so the fast path fails before
        # ingesting anything, exactly where the serial loop would.
        dimension = self._dimension if self._dimension is not None else observations.shape[1]
        if observations.shape[1] != dimension:
            raise ValueError(
                f"observation {self._count} has {observations.shape[1]} features but "
                f"the stream was established with {dimension}; a ragged buffer "
                "cannot be scored"
            )
        finite_rows = np.all(np.isfinite(observations), axis=1)
        if not np.all(finite_rows):
            bad = self._count + int(np.argmin(finite_rows))
            raise ValueError(
                f"observation {bad} contains NaN/Inf values; impute upstream "
                "or pass a FaultPolicy to degrade gracefully"
            )

        # Ingest: extend the rolling buffer, then cut every due scoring
        # window as a zero-copy view into one contiguous history array
        # (buffer prefix + this batch) instead of snapshotting the deque
        # once per observation — the snapshots were O(batch * context)
        # copies, the views are O(1).
        first_index = self._count
        if self._dimension is None:
            self._dimension = dimension
        prefix_len = len(self._buffer)
        if prefix_len:
            history = np.concatenate([np.stack(tuple(self._buffer)), observations])
        else:
            history = observations
        for row in observations:
            self._buffer.append(row)
        self._count += len(observations)

        offsets = np.arange(len(observations))
        ends = prefix_len + offsets + 1                    # window end in history
        due = (first_index + offsets + 1) >= self.warmup   # post-warmup positions
        scored_at = [int(offset) for offset in offsets[due]]
        lengths = np.minimum(ends, self.context)           # rolling window length

        # Score everything due, batched per window length (lengths vary
        # only while the buffer is still filling).
        scores = np.full(len(scored_at), np.nan)
        position_of = {offset: position for position, offset in enumerate(scored_at)}
        try:
            # Full-context windows are consecutive, so they form one
            # contiguous slice of the sliding-window view: zero copies.
            full = [offset for offset in scored_at if lengths[offset] == self.context]
            if full:
                view = sliding_windows(history, self.context, stride=1)
                start = int(ends[full[0]]) - self.context
                batch_scores = self.detector.score_last(view[start : start + len(full)])
                for offset, value in zip(full, batch_scores):
                    scores[position_of[offset]] = value
            by_length: dict[int, list[int]] = {}
            for offset in scored_at:
                if lengths[offset] < self.context:
                    by_length.setdefault(int(lengths[offset]), []).append(offset)
            for length, group in by_length.items():
                batch = np.stack(
                    [history[ends[offset] - length : ends[offset]] for offset in group]
                )
                batch_scores = self.detector.score_last(batch)
                for offset, value in zip(group, batch_scores):
                    scores[position_of[offset]] = value
            if scored_at and not np.all(np.isfinite(scores)):
                raise ValueError("non-finite score in batched streaming update")
        except Exception:
            # Primary failed mid-batch.  Replay the scoring serially via
            # the per-window state machine so errors surface (policy is
            # None here) at the exact observation the serial loop would
            # blame.  Ingestion already happened; scores are recomputed
            # from the window views, which is deterministic.
            windows = [
                history[int(ends[offset] - lengths[offset]) : int(ends[offset])]
                for offset in scored_at
            ]
            return self._assemble_serial(first_index, observations, scored_at, windows)

        threshold = float(self.detector.threshold_)
        events: list[StreamEvent] = []
        scored = position_of
        for offset in range(len(observations)):
            index = first_index + offset
            position = scored.get(offset)
            if position is None:
                events.append(StreamEvent(index=index, score=float("nan"),
                                          is_anomaly=False, flags=("warmup",)))
            else:
                score = float(scores[position])
                events.append(StreamEvent(
                    index=index,
                    score=score,
                    is_anomaly=bool(math.isfinite(score) and score >= threshold),
                ))
        return events

    def _assemble_serial(
        self,
        first_index: int,
        observations: np.ndarray,
        scored_at: list[int],
        windows: list[np.ndarray],
    ) -> list[StreamEvent]:
        """Serial-scoring replay for a batch whose fast path failed."""
        events: list[StreamEvent] = []
        scored = {offset: position for position, offset in enumerate(scored_at)}
        for offset in range(len(observations)):
            index = first_index + offset
            position = scored.get(offset)
            if position is None:
                events.append(StreamEvent(index=index, score=float("nan"),
                                          is_anomaly=False, flags=("warmup",)))
                continue
            score, threshold, flags = self._score_window(windows[position])
            events.append(StreamEvent(
                index=index,
                score=score,
                is_anomaly=bool(math.isfinite(score) and score >= threshold),
                flags=tuple(flags),
            ))
        return events

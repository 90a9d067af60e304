"""Micro-batching scheduler: coalesce concurrent score requests.

Concurrent clients each want the anomaly score of one window, but the
numpy substrate is fastest when it sees many windows at once — a single
``(B, T, N)`` forward pass through :meth:`BaseDetector.score_last`
amortises Python/BLAS overhead across the batch (the same helper the
vectorized :meth:`StreamingDetector.update_many` uses, so serving and
streaming share one batched hot path).

Flow::

    submit() ──> bounded FIFO queue ──> one scoring thread
                     │                      each batch:
                     │ full? shed load        1. block on first request
                     ▼ (Overloaded)           2. sweep what else is
                                                 queued, up to
                                                 max_batch_size
                                              3. score_groups: one
                                                 score_last per
                                                 (model, shape) group
                                              4. resolve futures

Guarantees:

* **Equivalence** — scores are bitwise identical to sequential
  ``detector.score(window)[-1]`` calls (``score_last`` is batch-size
  invariant; tests assert this under concurrency).
* **Bounded memory** — the queue holds at most ``max_queue`` requests;
  beyond that ``submit`` raises :class:`Overloaded` immediately
  (load-shedding, never unbounded latency).
* **Bounded latency** — a lone request on an idle scorer is scored at
  once, in a batch of one.  Requests that arrive while a batch is
  scoring coalesce into the next batch, so batching needs no wait.
* **Graceful shutdown** — ``stop()`` rejects new work, drains everything
  already accepted, and joins the scoring thread.

One thread is the whole in-process tier: on the measured hardware a
second scoring thread in one interpreter never beat a second worker
process (``docs/serving.md``), so scaling past one scorer is the
process pool's job (:class:`~repro.serve.pool.ProcessPool`).
"""

from __future__ import annotations

import queue
import threading
import time
from collections import defaultdict
from concurrent.futures import Future
from typing import Callable, Iterable, Iterator

import numpy as np

from ..analysis.lockcheck import named_lock
from ..detector import BaseDetector
from .errors import Overloaded, ServeError
from .metrics import MetricsRegistry

__all__ = ["MicroBatcher", "ScoreRequest", "score_groups"]

#: Queue sentinel telling the scoring thread to exit after the drain.
_STOP = object()


class ScoreRequest:
    """One queued window plus the future its score resolves."""

    __slots__ = ("model_key", "window", "future", "enqueued_at")

    def __init__(self, model_key: str, window: np.ndarray):
        self.model_key = model_key
        self.window = window
        self.future: Future = Future()
        self.enqueued_at = time.monotonic()


def score_groups(
    items: Iterable, detector_for: Callable[[str], BaseDetector]
) -> Iterator[tuple[str, list, np.ndarray | BaseException]]:
    """Score a batch with one ``score_last`` call per (model, shape) group.

    ``items`` are requests exposing ``model_key`` and ``window``; both
    serving tiers (this scheduler and the process pool's workers) batch
    through here, so they score identically by construction.  A group
    of one rides a zero-copy view, a larger one is stacked.  Yields
    ``(model_key, members, outcome)`` per group, in first-seen order,
    before scoring the next group, so callers answer each group as soon
    as it is done.  ``outcome`` holds the group's scores, aligned with
    ``members``, or the exception that looking up or scoring it raised.
    """
    groups: dict[tuple[str, tuple[int, ...]], list] = defaultdict(list)
    for item in items:
        groups[(item.model_key, item.window.shape)].append(item)
    for (model_key, _shape), members in groups.items():
        try:
            detector = detector_for(model_key)
            if len(members) == 1:
                windows = members[0].window[None]
            else:
                windows = np.stack([member.window for member in members])
            outcome = detector.score_last(windows)
        except BaseException as error:  # noqa: BLE001 — handed to the caller
            outcome = error
        yield model_key, members, outcome


class MicroBatcher:
    """Batch concurrent single-window score requests into vector calls.

    Parameters
    ----------
    detector_for:
        Maps a model key (any string the caller chooses, e.g.
        ``"name:version"``) to a fitted detector.  Called once per batch
        group on the scoring thread; pair it with
        :class:`~repro.serve.registry.ModelRegistry` for cached loading.
        Read on every batch, so reassigning it takes effect at once.
    max_batch_size:
        Most windows the scoring thread takes from the queue for one
        batch.  It never waits for company: it scores whatever is queued.
    max_queue:
        Bounded queue capacity; beyond it ``submit`` sheds load.
    metrics:
        Optional :class:`MetricsRegistry`; the batcher records queue
        depth, batch sizes, shed counts, and per-model scored counts.
    """

    def __init__(
        self,
        detector_for: Callable[[str], BaseDetector],
        max_batch_size: int = 32,
        max_queue: int = 256,
        metrics: MetricsRegistry | None = None,
    ):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.detector_for = detector_for
        self.max_batch_size = max_batch_size
        self.max_queue = max_queue
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._queue: queue.Queue = queue.Queue(maxsize=max_queue)
        self._scorer = threading.Thread(target=self._scorer_loop,
                                        name="repro-serve-scorer", daemon=True)
        self._state_lock = named_lock("serve.scheduler.state")
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MicroBatcher":
        with self._state_lock:
            if self._closed:
                raise ServeError("batcher was stopped; create a new one")
            if not self._started:
                self._scorer.start()
                self._started = True
        return self

    def stop(self, timeout: float | None = 10.0) -> None:
        """Reject new work, drain accepted requests, join the scoring thread.

        FIFO ordering makes the drain exact: the stop sentinel is
        enqueued after every accepted request, so the scoring thread
        processes all real work before it.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
            # The sentinel MUST be enqueued while holding the same lock
            # submit() uses, or a racing submit slips a request behind it
            # that nothing will ever drain.  The put cannot stall: the
            # scoring thread consumes without the lock, so a full queue
            # always makes room.
            self._queue.put(_STOP)  # repro: noqa[BLK001]
        if started:
            self._scorer.join(timeout=timeout)

    def __enter__(self) -> "MicroBatcher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests currently waiting in the bounded queue."""
        return self._queue.qsize()

    def submit(self, model_key: str, window: np.ndarray) -> Future:
        """Enqueue one window; the returned future resolves to its score.

        Raises
        ------
        Overloaded
            Immediately, when the queue is full (the request was shed and
            consumed no capacity).
        ServeError
            When the batcher is stopped or not started.
        """
        request = ScoreRequest(model_key, np.asarray(window, dtype=np.float64))
        with self._state_lock:
            if self._closed:
                raise ServeError("batcher is stopped and no longer accepts requests")
            if not self._started:
                raise ServeError("batcher not started; call start() first")
            try:
                self._queue.put_nowait(request)
            except queue.Full:
                self.metrics.counter("serve_requests_shed_total").inc()
                raise Overloaded(depth=self.max_queue, capacity=self.max_queue) from None
        self.metrics.gauge("serve_queue_depth").set(self._queue.qsize())
        return request.future

    def score(self, model_key: str, window: np.ndarray, timeout: float | None = 30.0) -> float:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(model_key, window).result(timeout=timeout)

    # ------------------------------------------------------------------
    # scoring side
    # ------------------------------------------------------------------
    def _collect_batch(self) -> tuple[list[ScoreRequest], bool]:
        """Block for the first request, then take what else is queued.

        Returns ``(batch, saw_stop)``.
        """
        first = self._queue.get()
        if first is _STOP:
            return [], True
        batch = [first]
        while len(batch) < self.max_batch_size:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                return batch, True
            batch.append(item)
        return batch, False

    def _score_batch(self, batch: list[ScoreRequest]) -> None:
        metrics = self.metrics
        metrics.gauge("serve_queue_depth").set(self._queue.qsize())
        metrics.histogram("serve_batch_size").observe(len(batch))
        metrics.counter("serve_batches_total").inc()
        wait = metrics.histogram("serve_queue_wait_seconds")
        now = time.monotonic()
        for request in batch:
            wait.observe(now - request.enqueued_at)
        for model_key, requests, outcome in score_groups(batch, self.detector_for):
            if isinstance(outcome, BaseException):
                for request in requests:
                    if request.future.set_running_or_notify_cancel():
                        request.future.set_exception(outcome)
                continue
            metrics.counter("serve_windows_scored_total", model=model_key).inc(
                len(requests)
            )
            for request, score in zip(requests, outcome):
                if request.future.set_running_or_notify_cancel():
                    request.future.set_result(float(score))

    def _scorer_loop(self) -> None:
        while True:
            batch, saw_stop = self._collect_batch()
            if batch:
                self._score_batch(batch)
            if saw_stop:
                return

"""Micro-batching scheduler: coalesce concurrent score requests.

Concurrent clients each want the anomaly score of one window, but the
numpy substrate is fastest when it sees many windows at once — a single
``(B, T, N)`` forward pass through :meth:`BaseDetector.score_last`
amortises Python/BLAS overhead across the batch (the same helper the
vectorized :meth:`StreamingDetector.update_many` uses, so serving and
streaming share one batched hot path).

Flow::

    submit() ──> bounded FIFO queue ──> worker pool (threads)
                     │                      each worker:
                     │ full? shed load        1. block on first request
                     ▼ (Overloaded)           2. sweep what else is
                                                 queued, up to
                                                 max_batch_size (waiting
                                                 up to max_delay for more
                                                 when it is > 0)
                                              3. group by (model, shape)
                                              4. one score_last per group
                                              5. resolve futures

Guarantees:

* **Equivalence** — scores are bitwise identical to sequential
  ``detector.score(window)[-1]`` calls (``score_last`` is batch-size
  invariant; tests assert this under concurrency).
* **Bounded memory** — the queue holds at most ``max_queue`` requests;
  beyond that ``submit`` raises :class:`Overloaded` immediately
  (load-shedding, never unbounded latency).
* **Bounded latency** — a lone request on an idle worker is scored at
  once, in a batch of one (with a positive ``max_delay`` it waits at
  most that long for company).  Requests that arrive while a batch is
  scoring coalesce into the next batch, so batching needs no wait.
* **Graceful shutdown** — ``stop()`` rejects new work, drains everything
  already accepted, and joins the workers.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import defaultdict
from concurrent.futures import Future
from typing import Callable

import numpy as np

from ..analysis.lockcheck import named_lock
from ..detector import BaseDetector
from ..nn import jit as nn_jit
from .errors import Overloaded, ServeError
from .metrics import MetricsRegistry

__all__ = ["MicroBatcher", "ScoreRequest"]

#: Queue sentinel telling one worker to exit after the drain.
_STOP = object()


class ScoreRequest:
    """One queued window plus the future its score resolves."""

    __slots__ = ("model_key", "window", "future", "enqueued_at")

    def __init__(self, model_key: str, window: np.ndarray):
        self.model_key = model_key
        self.window = window
        self.future: Future = Future()
        self.enqueued_at = time.monotonic()


class MicroBatcher:
    """Batch concurrent single-window score requests into vector calls.

    Parameters
    ----------
    detector_for:
        Maps a model key (any string the caller chooses, e.g.
        ``"name:version"``) to a fitted detector.  Called once per batch
        group on the worker thread; pair it with
        :class:`~repro.serve.registry.ModelRegistry` for cached loading.
    max_batch_size:
        Most windows scored in one ``score_last`` call.
    max_delay:
        Seconds a worker waits for company once it holds the first
        request.  The default 0 scores whatever is queued at once;
        a positive value trades that much latency for batch size.
    max_queue:
        Bounded queue capacity; beyond it ``submit`` sheds load.
    workers:
        Scoring threads.  Each owns its batch end to end, so batches are
        scored in parallel while numpy releases the GIL.
    metrics:
        Optional :class:`MetricsRegistry`; the batcher records queue
        depth, batch sizes, shed counts, and per-model scored counts.
    jit:
        Tape-replay scoring policy for the worker threads: ``True`` /
        ``False`` pin it on or off per batch via a thread-local
        :class:`repro.nn.jit.use_jit` override; ``None`` (default)
        inherits the ambient :func:`repro.nn.jit.set_jit` process
        default (on).
    """

    def __init__(
        self,
        detector_for: Callable[[str], BaseDetector],
        max_batch_size: int = 32,
        max_delay: float = 0.0,
        max_queue: int = 256,
        workers: int = 1,
        metrics: MetricsRegistry | None = None,
        jit: bool | None = None,
    ):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.detector_for = detector_for
        self.jit = None if jit is None else bool(jit)
        self.max_batch_size = max_batch_size
        self.max_delay = max_delay
        self.max_queue = max_queue
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._queue: queue.Queue = queue.Queue(maxsize=max_queue)
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"repro-serve-worker-{i}",
                             daemon=True)
            for i in range(workers)
        ]
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
                for worker in self._workers:
                    worker.start()
                self._started = True
                self.metrics.gauge("serve_workers").set(len(self._workers))
        return self

    def stop(self, timeout: float | None = 10.0) -> None:
        """Reject new work, drain accepted requests, join the workers.

        FIFO ordering makes the drain exact: the stop sentinels are
        enqueued after every accepted request, so each worker processes
        all real work it encounters before its sentinel.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
            # Sentinels go in under the same lock submit() holds for its
            # put, so no request can slip in behind them and starve.  A
            # full queue is fine: workers keep draining it without the
            # lock, so these puts always make progress.
            for _ in self._workers:
                # The sentinel MUST be enqueued while holding the same
                # lock submit() uses, or a racing submit slips a request
                # behind it that no worker will ever drain.  The put
                # cannot stall: workers consume without the lock, so the
                # queue always makes room.
                self._queue.put(_STOP)  # repro: noqa[BLK001]
        if started:
            for worker in self._workers:
                worker.join(timeout=timeout)
        self.metrics.gauge("serve_workers").set(0)

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
    # worker side
    # ------------------------------------------------------------------
    def _collect_batch(self) -> tuple[list[ScoreRequest], bool]:
        """Block for the first request, then drain until size/deadline.

        Returns ``(batch, saw_stop)``.
        """
        first = self._queue.get()
        if first is _STOP:
            return [], True
        batch = [first]
        deadline = time.monotonic() + self.max_delay
        while len(batch) < self.max_batch_size:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                # One last non-blocking sweep: under sustained load the
                # queue already holds work and waiting again only adds
                # latency.
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
            else:
                try:
                    item = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
            if item is _STOP:
                return batch, True
            batch.append(item)
        return batch, False

    def _score_batch(self, batch: list[ScoreRequest]) -> None:
        self.metrics.gauge("serve_queue_depth").set(self._queue.qsize())
        self.metrics.histogram("serve_batch_size").observe(len(batch))
        self.metrics.counter("serve_batches_total").inc()
        # Group by model and window shape: one vectorized call per group.
        groups: dict[tuple[str, tuple[int, ...]], list[ScoreRequest]] = defaultdict(list)
        for request in batch:
            groups[(request.model_key, request.window.shape)].append(request)
        for (model_key, _shape), requests in groups.items():
            now = time.monotonic()
            for request in requests:
                self.metrics.histogram("serve_queue_wait_seconds").observe(
                    now - request.enqueued_at
                )
            try:
                detector = self.detector_for(model_key)
                # score_last is the shared chunked scorer (see
                # repro.datasets.windows.batched_window_scores); a batch
                # of one rides a zero-copy view instead of a stack.
                if len(requests) == 1:
                    windows = requests[0].window[None]
                else:
                    windows = np.stack([r.window for r in requests])
                if self.jit is None:
                    scores = detector.score_last(windows)
                else:
                    with nn_jit.use_jit(self.jit):
                        scores = detector.score_last(windows)
            except BaseException as error:  # noqa: BLE001 — forwarded to clients
                for request in requests:
                    if not request.future.set_running_or_notify_cancel():
                        continue
                    request.future.set_exception(error)
                continue
            self.metrics.counter("serve_windows_scored_total", model=model_key).inc(
                len(requests)
            )
            for request, score in zip(requests, scores):
                if not request.future.set_running_or_notify_cancel():
                    continue
                request.future.set_result(float(score))

    def _worker_loop(self) -> None:
        while True:
            batch, saw_stop = self._collect_batch()
            if batch:
                self._score_batch(batch)
            if saw_stop:
                return

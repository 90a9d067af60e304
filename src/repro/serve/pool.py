"""Process-pool worker tier: shard scoring across cores, past the GIL.

The thread scheduler (:mod:`repro.serve.scheduler`) batches well but
every forward pass still shares one interpreter — CPU-bound scoring
serializes on the GIL and worker count barely moves throughput.  This
module shards the scoring work across **worker processes**:

* **One weight copy.**  The front-end exports each served model's
  weights once into a ``multiprocessing.shared_memory`` segment
  (:mod:`repro.serve.shm`); every worker attaches the segment and binds
  read-only views as its parameters, so N workers map the same physical
  pages instead of holding N private copies.
* **Rendezvous routing.**  Model name → worker by highest-random-weight
  hashing over the live slots (:func:`_route`), so one worker's rebuilt
  detector and JIT tapes stay hot for each model (cache locality).  A
  worker death re-routes only its shard; respawn routes it back.
* **Admission control.**  A bounded per-model in-flight quota sheds
  excess load with :class:`~repro.serve.errors.Overloaded` (HTTP 429)
  *before* it crosses the process boundary, layered on the thread
  scheduler's queue shedding.
* **Supervision.**  A supervisor thread heartbeats every worker,
  detects crashes (EOF on the result pipe or ``is_alive`` going false),
  fails that worker's in-flight requests with
  :class:`~repro.serve.errors.TransientFault` (clients retry), stops
  routing to it, and respawns through a per-slot
  :class:`~repro.serve.breaker.CircuitBreaker` so a crash-looping
  worker backs off instead of thrashing — one shard degrades, never the
  server.
* **One BLAS thread per worker.**  Workers start with the BLAS
  thread-count variables at 1 unless the environment sets them, so
  ``procs`` workers do not each spin one BLAS thread per core.

Equivalence: workers batch through the thread scheduler's own
:func:`~repro.serve.scheduler.score_groups`, on bit-identical weights
(the shared segment holds the exact ``state_dict`` bytes), so pool
scores are **bitwise identical** to the in-process path — asserted by
``benchmarks/bench_multiproc_serving.py`` and the pool tests.

Protocol (pickle tuples over one duplex pipe per worker, FIFO)::

    parent -> worker                      worker -> parent
    ("load",  key, spec)                  ("loaded", key, pid) | ("load_err", key, kind, msg)
    ("score", req_id, key, window)        ("score_ok", req_id, score) | ("score_err", req_id, kind, msg)
    ("ping",  token)                      ("pong", token, pid, traces)
    ("rss",   req_id)                     ("rss_ok", req_id, {"RssAnon": kB, ...})
    ("stop",)                             ("bye", pid)

FIFO ordering is load-bearing: a ``load`` is enqueued before the first
``score`` for its key, so the parent marks the key resident
optimistically and never waits for the ack.  Workers drain their pipe
opportunistically and hand each run of consecutive score requests to
:func:`~repro.serve.scheduler.score_groups` — the same micro-batching
the thread scheduler does, now per shard.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing as mp
import os
import signal
import threading
import time
from collections import defaultdict, namedtuple
from concurrent.futures import Future
from typing import Callable

import numpy as np

from ..analysis.lockcheck import named_lock
from ..detector import BaseDetector
from ..nn import jit
from .breaker import CircuitBreaker
from .errors import (
    ModelNotFound,
    Overloaded,
    RegistryError,
    ServeError,
    TransientFault,
)
from .metrics import MetricsRegistry
from .registry import _tfmae_build, _tfmae_export
from .scheduler import score_groups
from .shm import WeightSegment, attach_segment

__all__ = ["ProcessPool"]

#: Most queued score messages a worker folds into one vectorized call.
_WORKER_MAX_BATCH = 64

#: A ("score", req_id, key, window) pipe message, named for score_groups.
_ScoreMessage = namedtuple("_ScoreMessage", "op req_id model_key window")

#: Typed-error transport: workers classify exceptions to one of these
#: kinds; the parent rebuilds the matching type so the HTTP error
#: mapping (404/429/503/500) keeps working across the process boundary.
_ERROR_TYPES = (
    ("model_not_found", ModelNotFound),
    ("overloaded", Overloaded),
    ("transient", TransientFault),
    ("registry", RegistryError),
    ("serve", ServeError),
    ("value", ValueError),
)


def _classify(error: BaseException) -> str:
    for kind, exc_type in _ERROR_TYPES:
        if isinstance(error, exc_type):
            return kind
    return "runtime"


def _rebuild_error(kind: str, message: str) -> Exception:
    if kind == "overloaded":
        # Overloaded has a structured constructor; transport keeps the text.
        return TransientFault(message)
    for known, exc_type in _ERROR_TYPES:
        if kind == known:
            return exc_type(message)
    return RuntimeError(message)


def _route(name: str, slots) -> str:
    """The slot serving ``name``: rendezvous (highest-random-weight) hashing.

    A slot's weight is the SHA-1 of ``name#slot`` (not the per-process
    salted ``hash()``), so every process and run agrees; losing a slot
    moves only the names it won, and regaining it wins them back.
    Raises :class:`TransientFault` (retryable) when no slot is live.
    """
    if not slots:
        raise TransientFault(
            "no scoring workers alive; supervisor is respawning — retry"
        )
    return max(slots,
               key=lambda slot: hashlib.sha1(f"{name}#{slot}".encode()).digest())


def _spawn_guard(context: str) -> None:
    """Record a lockcheck violation if this thread holds locks right now.

    A lock held across process creation is inherited in an arbitrary
    state by the child under fork-like start methods — a classic child
    deadlock.  No-op unless the runtime lockcheck is installed.
    """
    from ..analysis import lockcheck

    if lockcheck.installed():
        lockcheck.check_spawn(context)


#: BLAS thread-count variables a worker starts with set to 1, unless the
#: environment already sets them.  Every worker is one scoring thread,
#: and BLAS's default of one thread per core makes ``procs`` workers
#: contend for the cores.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Serializes the environment edit around each worker start; a plain
#: lock (no spawn happens under a tracked lock), held by no other code.
_BLAS_ENV_LOCK = threading.Lock()


@contextlib.contextmanager
def _single_threaded_blas():
    """Set the unset :data:`_BLAS_THREAD_VARS` to 1 for a worker start.

    A spawned child inherits this process's environment and reads the
    variables when it loads BLAS; this process's BLAS loaded long ago,
    so only the child sees them.  They are removed again on exit.
    """
    with _BLAS_ENV_LOCK:
        added = [name for name in _BLAS_THREAD_VARS if name not in os.environ]
        for name in added:
            os.environ[name] = "1"
        try:
            yield
        finally:
            for name in added:
                del os.environ[name]


def _read_proc_rss() -> dict[str, int]:
    """RSS breakdown of this process in kB, from ``/proc/self/status``.

    ``RssAnon`` is private memory, ``RssShmem`` the shared mappings —
    the split the single-copy-weights bench asserts on.  Missing fields
    (non-Linux) report as 0.
    """
    fields = {"VmRSS": 0, "RssAnon": 0, "RssFile": 0, "RssShmem": 0}
    try:
        with open("/proc/self/status", encoding="ascii", errors="replace") as handle:
            for line in handle:
                name, _, rest = line.partition(":")
                if name in fields:
                    fields[name] = int(rest.split()[0])
    except OSError:
        pass
    return fields


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
def _worker_score(conn, detector_for: Callable[[str], BaseDetector], batch: list) -> None:
    """Score a run of ("score", req_id, key, window) messages, grouped."""
    messages = [_ScoreMessage._make(message) for message in batch]
    for _key, members, outcome in score_groups(messages, detector_for):
        if isinstance(outcome, BaseException):
            kind, text = _classify(outcome), str(outcome)
            for member in members:
                conn.send(("score_err", member.req_id, kind, text))
            continue
        for member, score in zip(members, outcome):
            conn.send(("score_ok", member.req_id, float(score)))


def _worker_load(conn, models: dict, segments: dict, key: str, spec: dict) -> None:
    """Rebuild a detector from its hyperparams and bind shared-memory weights."""
    try:
        detector, module = _tfmae_build(spec["hyperparams"])
        segment = attach_segment(spec["segment"], spec["manifest"])
        module.load_state_dict(segment.state(), copy=False)
        models[key] = detector
        segments[key] = segment
        conn.send(("loaded", key, os.getpid()))
    except BaseException as error:  # noqa: BLE001 — forwarded to the parent
        conn.send(("load_err", key, _classify(error), str(error)))


def _worker_main(slot: str, conn) -> None:
    """Entry point of one worker process (module-level for spawn pickling)."""
    # Ctrl-C goes to the whole foreground process group; shutdown is the
    # parent's job (it sends "stop"), so workers ignore the signal.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    models: dict[str, BaseDetector] = {}
    segments: dict[str, WeightSegment] = {}

    def resident(key: str) -> BaseDetector:
        detector = models.get(key)
        if detector is None:
            raise TransientFault(f"model {key} is not resident in this worker")
        return detector

    stopping = False
    while not stopping:
        try:
            inbox = [conn.recv()]
            while len(inbox) < _WORKER_MAX_BATCH and conn.poll(0):
                inbox.append(conn.recv())
        except (EOFError, OSError):
            break
        index = 0
        while index < len(inbox):
            message = inbox[index]
            op = message[0]
            if op == "score":
                run_end = index
                while run_end < len(inbox) and inbox[run_end][0] == "score":
                    run_end += 1
                _worker_score(conn, resident, inbox[index:run_end])
                index = run_end
                continue
            if op == "load":
                _worker_load(conn, models, segments, message[1], message[2])
            elif op == "ping":
                conn.send(("pong", message[1], os.getpid(), jit.trace_count()))
            elif op == "rss":
                conn.send(("rss_ok", message[1], _read_proc_rss()))
            elif op == "stop":
                stopping = True
                break
            index += 1
    models.clear()
    for segment in segments.values():
        segment.close()
    try:
        conn.send(("bye", os.getpid()))
        conn.close()
    except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
        pass


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class _Inflight:
    """One routed request awaiting its worker's reply."""

    __slots__ = ("future", "model", "slot", "started")

    def __init__(self, model: str, slot: str):
        self.future: Future = Future()
        self.model = model
        self.slot = slot
        self.started = time.monotonic()


class _WorkerHandle:
    """Parent-side state of one worker slot (survives respawns via pool)."""

    __slots__ = ("slot", "process", "conn", "send_lock", "loaded", "last_seen",
                 "receiver", "state", "scored", "traces")

    def __init__(self, slot: str, process, conn):
        self.slot = slot
        self.process = process
        self.conn = conn
        #: Serialises sends so a load+score pair is never interleaved.
        #: blocking_ok: this leaf lock EXISTS to serialise the (blocking)
        #: pipe write; nothing else is ever acquired under it.
        self.send_lock = named_lock("serve.pool.send", blocking_ok=True)
        #: Keys optimistically resident (FIFO: load precedes first score).
        self.loaded: set[str] = set()
        self.last_seen = time.monotonic()
        self.receiver: threading.Thread | None = None
        self.state = "live"  # live | dead
        self.scored = 0
        #: The worker's ``jit.trace_count()`` as of its last pong.
        self.traces = 0


class ProcessPool:
    """Supervised worker processes scoring behind rendezvous routing.

    Parameters
    ----------
    procs:
        Worker process count (>= 1; ``--procs 0`` at the CLI keeps the
        thread scheduler and never constructs a pool).
    max_inflight_per_model:
        Admission quota: in-flight requests allowed per model before
        :class:`Overloaded` sheds new ones (HTTP 429).
    heartbeat_interval:
        Supervisor tick: liveness check + ping per worker, and the
        cadence at which dead slots are considered for respawn.
    breaker_threshold / respawn_backoff:
        Consecutive deaths before a slot's circuit breaker opens, and
        how long it pauses before the next respawn probe — crash-loop
        protection composing with the registry's per-model breakers.
    metrics:
        Shared :class:`MetricsRegistry`; the pool records request
        counts, latency, sheds, deaths and respawns parent-side (no
        cross-process scrape on the ``/metrics`` path).
    clock:
        Injectable time source for the slot breakers (chaos tests run
        at simulated time).
    """

    def __init__(
        self,
        procs: int = 2,
        max_inflight_per_model: int = 64,
        heartbeat_interval: float = 0.5,
        breaker_threshold: int = 3,
        respawn_backoff: float = 5.0,
        metrics: MetricsRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if procs < 1:
            raise ValueError(f"procs must be >= 1, got {procs}")
        if max_inflight_per_model < 1:
            raise ValueError(
                f"max_inflight_per_model must be >= 1, got {max_inflight_per_model}"
            )
        self.procs = procs
        self.max_inflight_per_model = max_inflight_per_model
        self.heartbeat_interval = heartbeat_interval
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._ctx = mp.get_context("spawn")
        # Guards parent-side bookkeeping only (workers/inflight/specs
        # maps, and so the live slots routing reads); all blocking work
        # — spawn, pipe sends, shared-memory publish — happens outside
        # it.  Order: never taken while holding send_lock.
        self._lock = named_lock("serve.pool", kind="rlock")
        self._workers: dict[str, _WorkerHandle] = {}
        self._breakers: dict[str, CircuitBreaker] = {
            self._slot_name(i): CircuitBreaker(
                failure_threshold=breaker_threshold,
                reset_timeout=respawn_backoff,
                clock=clock,
            )
            for i in range(procs)
        }
        self._respawns: dict[str, int] = {self._slot_name(i): 0 for i in range(procs)}
        self._worker_traces = 0
        self._inflight: dict[int, _Inflight] = {}
        self._inflight_by_model: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._control: dict[int, Future] = {}
        self._segments: dict[str, WeightSegment] = {}
        self._specs: dict[str, dict] = {}
        self._started = False
        self._closed = False
        self._stop_event = threading.Event()
        self._supervisor: threading.Thread | None = None

    @staticmethod
    def _slot_name(index: int) -> str:
        return f"proc-{index}"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ProcessPool":
        with self._lock:
            if self._closed:
                raise ServeError("pool was stopped; create a new one")
            if self._started:
                return self
            self._started = True
        # Spawning happens outside the pool lock: Process.start() is
        # blocking, and a lock held across spawn is inherited mid-state
        # by fork-like start methods (lockcheck.check_spawn guards this).
        for index in range(self.procs):
            self._spawn(self._slot_name(index))
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-pool-supervisor", daemon=True
        )
        self._supervisor.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Reject new work, drain in-flight scores, stop every worker.

        FIFO pipes make the drain exact: the ``stop`` sentinel lands
        behind every accepted score, so workers answer all routed work
        before exiting — mirroring the thread scheduler's guarantee.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._workers.values())
        self._stop_event.set()
        for handle in handles:
            if handle.state == "live":
                with handle.send_lock:
                    try:
                        handle.conn.send(("stop",))
                    except (BrokenPipeError, OSError):
                        pass
        deadline = time.monotonic() + timeout
        while self._inflight and time.monotonic() < deadline:
            time.sleep(0.005)
        for handle in handles:
            remaining = max(0.1, deadline - time.monotonic())
            handle.process.join(timeout=remaining)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
                if handle.process.is_alive():  # pragma: no cover - last resort
                    handle.process.kill()
                    handle.process.join(timeout=1.0)
        with self._lock:
            leftovers = list(self._inflight)
        for req_id in leftovers:  # pragma: no cover - drain normally empties this
            self._resolve(req_id, error=ServeError("pool stopped before reply"))
        if self._supervisor is not None:
            self._supervisor.join(timeout=2.0)
            self._supervisor = None
        with self._lock:
            for segment in self._segments.values():
                segment.close()
            self._segments.clear()
            self._specs.clear()
        self.metrics.gauge("serve_pool_workers_alive").set(0)

    def __enter__(self) -> "ProcessPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # spawning / supervision
    # ------------------------------------------------------------------
    def _spawn(self, slot: str) -> None:
        """Start one worker for ``slot``; registering it routes its shard to it.

        Called with NO pool lock held — the spawn itself blocks, and the
        runtime lockcheck records any lock held across it as a hazard.
        """
        _spawn_guard(f"ProcessPool._spawn({slot})")
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main, args=(slot, child_conn),
            name=f"repro-serve-{slot}", daemon=True,
        )
        with _single_threaded_blas():
            process.start()
        child_conn.close()
        handle = _WorkerHandle(slot, process, parent_conn)
        handle.receiver = threading.Thread(
            target=self._receive, args=(handle,),
            name=f"repro-pool-recv-{slot}", daemon=True,
        )
        with self._lock:
            aborted = self._closed
            if not aborted:
                self._workers[slot] = handle
        if aborted:
            # stop() won the race while we were spawning: tear down the
            # orphan worker instead of registering it.
            try:
                parent_conn.close()
            except OSError:  # pragma: no cover - already gone
                pass
            process.terminate()
            process.join(timeout=1.0)
            return
        handle.receiver.start()
        self.metrics.gauge("serve_pool_workers_alive").set(self._alive_count())

    def _alive_count(self) -> int:
        with self._lock:
            return sum(1 for h in self._workers.values() if h.state == "live")

    def _receive(self, handle: _WorkerHandle) -> None:
        """Drain one worker's replies; EOF means the worker is gone."""
        conn = handle.conn
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            tag = message[0]
            handle.last_seen = time.monotonic()
            if tag == "score_ok":
                handle.scored += 1
                self._resolve(message[1], result=message[2])
            elif tag == "score_err":
                self._resolve(message[1], error=_rebuild_error(message[2], message[3]))
            elif tag == "load_err":
                with handle.send_lock:
                    handle.loaded.discard(message[1])
            elif tag == "pong":
                self._breakers[handle.slot].record_success()
                self._note_traces(handle, message[3])
            elif tag == "rss_ok":
                self._resolve_control(message[1], message[2])
            elif tag == "bye":
                break
        self._on_worker_exit(handle)

    def _note_traces(self, handle: _WorkerHandle, count: int) -> None:
        """Add a worker's newly reported traces to the pool's total.

        Only the increase since its last pong is added, so the total
        never drops when a respawned worker counts from zero again.
        """
        with self._lock:
            self._worker_traces += count - handle.traces
            handle.traces = count

    def worker_traces(self) -> int:
        """Scoring-tape traces run by every worker process this pool has
        started, as of each one's last heartbeat pong."""
        with self._lock:
            return self._worker_traces

    def _on_worker_exit(self, handle: _WorkerHandle) -> None:
        """A worker's pipe closed: crash or clean exit, decided by state."""
        with self._lock:
            if handle.state == "dead" or self._workers.get(handle.slot) is not handle:
                return
            handle.state = "dead"
            orphans = [req_id for req_id, entry in self._inflight.items()
                       if entry.slot == handle.slot]
            closed = self._closed
        self.metrics.gauge("serve_pool_workers_alive").set(self._alive_count())
        if not closed:
            self._breakers[handle.slot].record_failure()
            self.metrics.counter("serve_pool_worker_deaths_total").inc()
        for req_id in orphans:
            self._resolve(req_id, error=TransientFault(
                f"worker {handle.slot} died mid-request; its shard is "
                "re-routing — retry"
            ))

    def _supervise(self) -> None:
        """Heartbeat live workers; respawn dead slots through their breaker."""
        token = 0
        while not self._stop_event.wait(self.heartbeat_interval):
            with self._lock:
                if self._closed:
                    return
                handles = list(self._workers.values())
            for handle in handles:
                if handle.state == "live" and not handle.process.is_alive():
                    # Crash noticed before the pipe EOF propagated.
                    self._on_worker_exit(handle)
            with self._lock:
                if self._closed:
                    return
                dead = [h.slot for h in self._workers.values() if h.state == "dead"]
                respawn = [slot for slot in dead if self._breakers[slot].allow()]
                for slot in respawn:
                    self._respawns[slot] += 1
            # Spawn outside the pool lock (see _spawn); routing keeps
            # shedding to the remaining workers meanwhile.
            for slot in respawn:
                self.metrics.counter("serve_pool_respawns_total").inc()
                self._spawn(slot)
            with self._lock:
                if self._closed:
                    return
                live = [h for h in self._workers.values() if h.state == "live"]
            token += 1
            for handle in live:
                with handle.send_lock:
                    try:
                        handle.conn.send(("ping", token))
                    except (BrokenPipeError, OSError):
                        pass

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def submit(self, name: str, version: str, detector: BaseDetector,
               window: np.ndarray) -> Future:
        """Route one window to ``name``'s worker; future resolves to a score.

        ``detector`` is the parent-side registry instance — used only to
        export weights into the shared segment the first time a
        ``name:version`` is routed, never to score.

        Raises
        ------
        Overloaded
            When the model's in-flight quota is exhausted (shed, 429).
        TransientFault
            When every worker is down (clients retry; the supervisor is
            respawning).
        """
        key = f"{name}:{version}"
        window = np.asarray(window, dtype=np.float64)
        with self._lock:
            if self._closed:
                raise ServeError("pool is stopped and no longer accepts requests")
            if not self._started:
                raise ServeError("pool not started; call start() first")
            if self._inflight_by_model[name] >= self.max_inflight_per_model:
                self.metrics.counter("serve_pool_shed_total", model=name).inc()
                raise Overloaded(depth=self.max_inflight_per_model,
                                 capacity=self.max_inflight_per_model)
            slot = self.worker_for(name)
            handle = self._workers[slot]
            # Reserve the quota slot before dropping the lock so a burst
            # of concurrent submits cannot overshoot while publishing.
            self._inflight_by_model[name] += 1
        # First routing of a key publishes its weights into shared
        # memory — megabytes of memcpy plus a SharedMemory create, so it
        # must not run under the pool lock (it would convoy every
        # concurrent submit and worker_rss/status call behind disk-speed
        # work).
        try:
            spec = self._spec_for(key, detector)
        except BaseException:
            with self._lock:
                self._inflight_by_model[name] -= 1
                if self._inflight_by_model[name] <= 0:
                    del self._inflight_by_model[name]
            raise
        with self._lock:
            self._next_id += 1
            req_id = self._next_id
            entry = _Inflight(name, slot)
            self._inflight[req_id] = entry
            self.metrics.gauge("serve_pool_inflight").set(len(self._inflight))
        try:
            with handle.send_lock:
                if key not in handle.loaded:
                    handle.conn.send(("load", key, spec))
                    handle.loaded.add(key)
                handle.conn.send(("score", req_id, key, window))
        except (BrokenPipeError, OSError):
            # Died between routing and send; receiver/supervisor handle
            # the slot, this request fails fast as retryable.
            self._resolve(req_id, error=TransientFault(
                f"worker {slot} died before accepting the request; retry"
            ))
        return entry.future

    def score(self, name: str, version: str, detector: BaseDetector,
              window: np.ndarray, timeout: float | None = 30.0) -> float:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(name, version, detector, window).result(timeout=timeout)

    def _spec_for(self, key: str, detector: BaseDetector) -> dict:
        """The (cached) load spec for ``key``: publish weights once.

        The weight export + shared-memory publish runs outside the pool
        lock; two concurrent first-routings of one key may both publish,
        and the loser's segment is discarded (rare, bounded, harmless —
        as opposed to serialising every submit behind the copy).
        """
        with self._lock:
            spec = self._specs.get(key)
        if spec is not None:
            return spec
        module, hyperparams = _tfmae_export(detector)
        segment = WeightSegment.publish(module)
        spec = {
            "hyperparams": hyperparams,
            "segment": segment.name,
            "manifest": segment.manifest,
        }
        stale = None
        with self._lock:
            existing = self._specs.get(key)
            if existing is not None:
                stale, spec = segment, existing
            else:
                self._segments[key] = segment
                self._specs[key] = spec
                self.metrics.gauge("serve_pool_shared_segments").set(
                    len(self._segments))
                self.metrics.gauge("serve_pool_shared_bytes").set(
                    sum(seg.nbytes for seg in self._segments.values())
                )
        if stale is not None:
            stale.close()
        return spec

    def _resolve(self, req_id: int, result: float | None = None,
                 error: BaseException | None = None) -> None:
        with self._lock:
            entry = self._inflight.pop(req_id, None)
            if entry is None:
                return
            self._inflight_by_model[entry.model] -= 1
            if self._inflight_by_model[entry.model] <= 0:
                del self._inflight_by_model[entry.model]
            self.metrics.gauge("serve_pool_inflight").set(len(self._inflight))
        self.metrics.histogram("serve_pool_latency_seconds").observe(
            time.monotonic() - entry.started
        )
        if not entry.future.set_running_or_notify_cancel():
            return
        if error is not None:
            self.metrics.counter("serve_pool_errors_total", model=entry.model).inc()
            entry.future.set_exception(error)
        else:
            self.metrics.counter("serve_pool_scored_total", model=entry.model).inc()
            entry.future.set_result(result)

    def _resolve_control(self, req_id: int, payload) -> None:
        with self._lock:
            future = self._control.pop(req_id, None)
        if future is not None and future.set_running_or_notify_cancel():
            future.set_result(payload)

    # ------------------------------------------------------------------
    # introspection / chaos seams
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._inflight)

    def worker_for(self, name: str) -> str:
        """The live slot currently serving ``name`` (see :func:`_route`).

        Raises :class:`TransientFault` when no worker is alive.
        """
        with self._lock:
            live = [slot for slot, handle in self._workers.items()
                    if handle.state == "live"]
            return _route(name, live)

    def worker_pid(self, slot: str) -> int | None:
        with self._lock:
            handle = self._workers.get(slot)
        return handle.process.pid if handle is not None else None

    def kill_worker(self, slot: str) -> int:
        """SIGKILL one worker (chaos seam); returns the killed pid.

        The supervisor is expected to notice (EOF / ``is_alive``),
        re-route the shard, and respawn through the slot breaker —
        exactly the sequence the chaos harness asserts.
        """
        with self._lock:
            handle = self._workers.get(slot)
            if handle is None or handle.state != "live":
                raise ServeError(f"no live worker in slot {slot!r}")
            pid = handle.process.pid
        os.kill(pid, signal.SIGKILL)
        return pid

    def worker_rss(self, timeout: float = 5.0) -> dict[str, dict[str, int]]:
        """Per-worker RSS breakdown (kB), fetched live from ``/proc``.

        The single-copy bench asserts each worker's private ``RssAnon``
        stays small while the shared segment shows up under
        ``RssShmem``.
        """
        pending: list[tuple[str, Future]] = []
        with self._lock:
            handles = [h for h in self._workers.values() if h.state == "live"]
        # Sends run with only the per-worker send_lock held — never the
        # pool lock, which submit() takes before its own sends; nesting
        # them here in the opposite order was a lock-order inversion.
        for handle in handles:
            with self._lock:
                self._next_id += 1
                req_id = self._next_id
                future: Future = Future()
                self._control[req_id] = future
            delivered = True
            with handle.send_lock:
                try:
                    handle.conn.send(("rss", req_id))
                except (BrokenPipeError, OSError):
                    delivered = False
            if delivered:
                pending.append((handle.slot, future))
            else:
                with self._lock:
                    self._control.pop(req_id, None)
        report: dict[str, dict[str, int]] = {}
        deadline = time.monotonic() + timeout
        for slot, future in pending:
            remaining = max(0.05, deadline - time.monotonic())
            try:
                report[slot] = future.result(timeout=remaining)
            except TimeoutError:  # pragma: no cover - worker wedged
                continue
        return report

    def status(self) -> dict:
        """Pool-health view consumed by ``/healthz``."""
        with self._lock:
            workers = {
                handle.slot: {
                    "pid": handle.process.pid,
                    "alive": handle.state == "live" and handle.process.is_alive(),
                    "breaker": self._breakers[handle.slot].state,
                    "respawns": self._respawns[handle.slot],
                    "resident_models": sorted(handle.loaded),
                    "scored": handle.scored,
                    "last_seen_age": round(time.monotonic() - handle.last_seen, 3),
                }
                for handle in self._workers.values()
            }
            segments = {
                key: segment.nbytes for key, segment in self._segments.items()
            }
            inflight = len(self._inflight)
        return {
            "procs": self.procs,
            "alive": sum(1 for w in workers.values() if w["alive"]),
            "inflight": inflight,
            "workers": workers,
            "shared_segments": segments,
            "routing": {
                name: slot
                for name, slot in self._routing_snapshot(workers)
            },
        }

    def _routing_snapshot(self, workers: dict) -> list[tuple[str, str]]:
        """Current model→slot assignment for every resident model."""
        names = sorted({
            key.partition(":")[0]
            for worker in workers.values()
            for key in worker["resident_models"]
        })
        snapshot = []
        for name in names:
            try:
                snapshot.append((name, self.worker_for(name)))
            except TransientFault:
                snapshot.append((name, "unrouted"))
        return snapshot

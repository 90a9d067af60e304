"""Shared machinery of the perfbench workloads.

Inputs, the model every workload serves, the lifecycle pass, statistics,
the span tracer and the result record live here; each workload module
only wires them to the layer it stresses.  Everything under test is
reached through the public API of ``src/repro``; tracing wraps methods on
the benchmark's own objects and never touches ``src/``.
"""

from __future__ import annotations

import gc
import itertools
import json
import resource
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro import TFMAE, TFMAEConfig
from repro.serve import LifecycleManager, ModelRegistry

#: Window length, model size and heads named by the benchmark's doc.
WINDOW = 100
MODEL_SHAPE = dict(window_size=WINDOW, d_model=32, num_layers=2, num_heads=4)
#: One scoring chunk holds a full micro-batch (the serving tier's
#: ``max_batch_size``), so a served batch reaches the model as one call.
SCORE_CHUNK = 32
#: Refits in the lifecycle loop: one epoch at a twentieth of the fit rate,
#: the drift-refresh shape ``TFMAE.refit`` documents, recalibrated on the
#: validation split.  At the fit rate, or calibrated on the refit slice,
#: the shadow gate rejects some seeds' candidates.
REFIT_EPOCHS = 1
REFIT_LEARNING_RATE = 5e-5
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Measured refresh -> rollback cycles the serving workloads run after
#: their last set-up and a warm-up cycle.
LIFECYCLE_CYCLES = 8
#: A generator whose own sends trail the schedule at p99 by more than this
#: share of the mean gap between arrivals has changed the offered load:
#: the run is invalid.
LATE_SHARE = 0.2
#: A reported tail percentile must leave this many samples beyond it.
TAIL_MARGIN = 10


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def stratified_gaps(rng: np.random.Generator, count: int, total: float) -> np.ndarray:
    """Exponential inter-arrival gaps summing to ``total`` seconds.

    The gaps are the ``count`` mid-quantiles of the exponential
    distribution in a seeded order: arrivals stay Poisson-like (memoryless
    gaps, clumps and lulls) while every seed offers exactly the same
    number of arrivals over exactly the same span, which keeps the tail
    from swinging with how many arrivals one seed happened to draw.
    """
    gaps = -np.log1p(-(np.arange(count) + 0.5) / count)
    rng.shuffle(gaps)
    return gaps * (total / gaps.sum())


def burst_schedule(rng: np.random.Generator, count: int, largest: int,
                   total: float) -> tuple[np.ndarray, np.ndarray]:
    """Due offsets and sizes of ``count`` bursts of 1 to ``largest`` windows.

    Sizes are stratified in blocks: every block of ``largest`` bursts
    holds each size once, in a seeded order, and a final partial block
    holds its mid-quantile sizes, so every seed offers the same windows.
    The gaps are the ``largest`` mid-quantiles of the exponential
    distribution, scaled to span ``total`` seconds, and the gap after a
    burst of size ``k`` is the ``k``-th smallest: a burst is followed by
    a gap in proportion to its work, so bursts do not pile up behind each
    other and each reaches the batcher as one batch.  The seed changes
    the order of sizes, and so of gaps, but not how much queueing it
    causes; with independent gaps, the p90 over ten seeds spread by
    about 0.2 of its median from the schedule alone.
    """
    blocks = [rng.permutation(largest) + 1 for _ in range(count // largest)]
    rest = count % largest
    if rest:
        blocks.append(rng.permutation(np.ceil((np.arange(rest) + 0.5) * largest / rest)))
    sizes = np.concatenate(blocks).astype(int) if blocks else np.zeros(0, dtype=int)
    quantile_gaps = -np.log1p(-(np.arange(largest) + 0.5) / largest)
    gaps = quantile_gaps[sizes - 1]
    return due_offsets(gaps * (total / gaps.sum())), sizes


def due_offsets(gaps: np.ndarray) -> np.ndarray:
    """Due times (seconds from the schedule start) for a gap sequence."""
    return np.concatenate([[0.0], np.cumsum(gaps)[:-1]])


def detector_config(seed: int) -> TFMAEConfig:
    return TFMAEConfig(**MODEL_SHAPE, anomaly_ratio=2.5, epochs=1, batch_size=SCORE_CHUNK,
                       learning_rate=1e-3, seed=seed)


def probe_windows(series: np.ndarray, count: int) -> np.ndarray:
    """``count`` evenly spaced windows over ``series`` (watchdog probes)."""
    starts = np.linspace(0, series.shape[0] - WINDOW, count).astype(int)
    return np.stack([series[start : start + WINDOW] for start in starts])


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
class Refitter:
    """``LifecycleManager`` refit callable that times every refit.

    The call goes through :meth:`refit`, an instance attribute a traced
    run can wrap in a span.
    """

    def __init__(self) -> None:
        self.seconds: list[float] = []

    def __call__(self, candidate: TFMAE, recent: np.ndarray, validation) -> None:
        started = time.perf_counter()
        self.refit(candidate, recent, validation)
        self.seconds.append(time.perf_counter() - started)

    def refit(self, candidate: TFMAE, recent: np.ndarray, validation) -> None:
        candidate.refit(recent, validation, epochs=REFIT_EPOCHS,
                        learning_rate=REFIT_LEARNING_RATE)


class Lifecycle:
    """Checked refresh -> watchdog -> rollback cycles on one live model.

    Each :meth:`cycle` refreshes (forced), runs the watchdog and rolls
    back, so every cycle starts from the same live version.  It counts two
    operations: the refresh, which must report ``refreshed=True``, and the
    rollback, which must restore ``live_version`` with probe scores
    bitwise equal to the ones it had before the first cycle.  A measured
    cycle that passes both adds its refresh, rollback and per-epoch refit
    seconds to the samples :meth:`report` summarises.
    """

    def __init__(self, manager: LifecycleManager, refitter: Refitter, recent: np.ndarray,
                 validation: np.ndarray, probes: np.ndarray, live_version: str = "v1") -> None:
        self.manager, self.refitter = manager, refitter
        self.recent, self.validation, self.probes = recent, validation, probes
        self.live_version = live_version
        self.baseline = self._live_scores()[1]
        self.refresh_s: list[float] = []
        self.rollback_s: list[float] = []
        self.fit_epoch_s: list[float] = []

    def _live_scores(self) -> tuple[str, np.ndarray]:
        live, version = self.manager.registry.load(self.manager.name)
        # Through the class, so a traced run's shim on the instance does
        # not count this check as served work.
        return version, type(live).score_last(live, self.probes)

    def cycle(self, outcome: Outcome, measured: bool = True) -> None:
        manager = self.manager
        refits = len(self.refitter.seconds)
        outcome.attempted += 1
        started = time.perf_counter()
        report = manager.refresh(self.recent, self.validation, probe_windows=self.probes,
                                 force=True)
        refreshed = time.perf_counter()
        if not report.refreshed:
            outcome.fail(f"refresh refused: {report.reason}", wrong=True)
            return
        outcome.attempted += 1
        manager.watchdog_check(auto_rollback=False)
        record = manager.rollback("perfbench cycle")
        finished = time.perf_counter()
        version, scores = self._live_scores()
        if record.restored != self.live_version or version != self.live_version:
            outcome.fail(f"rollback restored {record.restored}, not {self.live_version}",
                         wrong=True)
            return
        if not np.array_equal(scores, self.baseline):
            outcome.fail(f"rollback to {version} changed its probe scores", wrong=True)
            return
        if measured:
            self.refresh_s.append(refreshed - started)
            self.rollback_s.append(finished - refreshed)
            self.fit_epoch_s += [refit / REFIT_EPOCHS
                                 for refit in self.refitter.seconds[refits:]]

    def report(self, outcome: Outcome) -> None:
        outcome.add("refresh_p50_s", median(self.refresh_s), "s", len(self.refresh_s))
        outcome.add("fit_epoch_s", median(self.fit_epoch_s), "s", len(self.fit_epoch_s))
        outcome.add("rollback_p50_ms", median(self.rollback_s) * 1e3, "ms",
                    len(self.rollback_s))


def fit_and_publish(train: np.ndarray, validation: np.ndarray, seed: int,
                    registry: ModelRegistry, name: str, probes: np.ndarray,
                    refitter: Refitter) -> tuple[TFMAE, LifecycleManager]:
    """Fit a detector and make it the live version of ``name``."""
    detector = TFMAE(detector_config(seed))
    detector.fit(train, validation)
    manager = LifecycleManager(registry, name, refit=refitter)
    manager.publish_guarded(detector, probes)
    return detector, manager


@dataclass
class Serving:
    """The measured set-up of a serving workload."""

    registry: ModelRegistry
    detector: TFMAE
    lifecycle: Lifecycle
    #: What ``serve`` returned: the started server or batcher.
    front: object
    setup_s: list[float]


def set_up_serving(outcome: Outcome, run_dir: Path, data, seed: int, name: str,
                   probes: np.ndarray, serve: Callable[[ModelRegistry, TFMAE], object],
                   stop: Callable[[object], None]) -> Serving:
    """Set up a serving workload SETUPS times, then sample its lifecycle.

    A set-up fits a detector, publishes it as ``name`` and calls
    ``serve(registry, detector)``, which starts the front end and warms
    it up; ``setup_s`` is the median.  The last set-up is kept.  Its
    lifecycle then runs one unmeasured warm-up cycle and
    ``LIFECYCLE_CYCLES`` measured ones, which :meth:`Lifecycle.report`
    summarises.
    """
    setup_s: list[float] = []
    refitter = Refitter()
    front = None
    for attempt in range(SETUPS):
        if front is not None:
            stop(front)
        # Release the previous set-up before timing the next, so every
        # set-up, and the peak RSS, starts from the same heap.
        front = registry = detector = manager = None
        gc.collect()
        started = time.perf_counter()
        registry = ModelRegistry(run_dir / f"registry-{attempt}")
        detector, manager = fit_and_publish(data.train, data.validation, seed, registry, name,
                                            probes, refitter)
        front = serve(registry, detector)
        setup_s.append(time.perf_counter() - started)
    lifecycle = Lifecycle(manager, refitter, data.test, data.validation, probes)
    try:
        lifecycle.cycle(outcome, measured=False)
        for _ in range(LIFECYCLE_CYCLES):
            lifecycle.cycle(outcome)
    except BaseException:
        stop(front)
        raise
    return Serving(registry, detector, lifecycle, front, setup_s)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quantile(values, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.quantile(values, q)) if values.size else 0.0


def median(values) -> float:
    return quantile(values, 0.5)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans recorded by shims on the benchmark's own objects.

    :meth:`wrap` replaces one bound method on one instance with a shim
    that, while :attr:`recording` is set, records a span: name, start,
    end, parent span (same thread) and the thread's request id.  The
    shims also count calls and work items whether recording or not, so
    counts cover the whole measured phase while spans cover only the
    recorded blocks; the unrecorded blocks give the tracing overhead.
    """

    def __init__(self) -> None:
        self.recording = False
        #: ``(span_id, parent_id, name, start_ns, end_ns, request_id, size)``
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def traced(self, function: Callable, name: str,
               size: Callable | None = None,
               request_id: Callable | None = None) -> Callable:
        """Return ``function`` wrapped in a span named ``name``.

        ``size(*args)`` gives the work items of one call (windows);
        ``request_id(*args)`` names the request the call serves, which
        every span opened beneath it on the same thread inherits.
        """

        def shim(*args, **kwargs):
            items = size(*args, **kwargs) if size is not None else None
            with self._count_lock:
                self.calls[name] += 1
                if items is not None:
                    self.items[name] += items
            if not self.recording:
                return function(*args, **kwargs)
            local = self._local
            outer_request = getattr(local, "request_id", None)
            if request_id is not None:
                local.request_id = request_id(*args, **kwargs)
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            started = time.perf_counter_ns()
            try:
                return function(*args, **kwargs)
            finally:
                ended = time.perf_counter_ns()
                stack.pop()
                self.spans.append((span_id, parent, name, started, ended,
                                   getattr(local, "request_id", None), items))
                local.request_id = outer_request

        return shim

    def wrap(self, target, method: str, name: str, **options) -> None:
        setattr(target, method, self.traced(getattr(target, method), name, **options))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "name", "start_ns", "end_ns", "request_id", "size")
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


class SpanTable:
    """Per-name durations and self times (ms) derived from spans."""

    def __init__(self, spans: list[tuple]) -> None:
        child_ns: dict[int, int] = defaultdict(int)
        for span_id, parent, _name, start, end, _rid, _size in spans:
            if parent is not None:
                child_ns[parent] += end - start
        self.total: dict[str, list[float]] = defaultdict(list)
        self.own: dict[str, list[float]] = defaultdict(list)
        self.sizes: dict[str, list[int]] = defaultdict(list)
        self.by_request: dict[tuple[str, object], float] = {}
        self.child_ms: dict[tuple[int, str], float] = defaultdict(float)
        for span_id, parent, name, start, end, rid, size in spans:
            duration = (end - start) / 1e6
            self.total[name].append(duration)
            # Children run on the parent's thread, one after another, so
            # their durations never overlap and simply add up.
            self.own[name].append(max(0.0, duration - child_ns[span_id] / 1e6))
            if size is not None:
                self.sizes[name].append(size)
            if rid is not None:
                self.by_request[(name, rid)] = duration
            if parent is not None:
                self.child_ms[(parent, name)] += duration
        self._spans = spans

    def p50(self, name: str) -> float:
        return median(self.total.get(name, []))

    def self_p50(self, name: str) -> float:
        return median(self.own.get(name, []))

    def share_in_children(self, parent_name: str, child_name: str) -> float:
        """Fraction of ``parent_name`` time spent in ``child_name`` children."""
        parent_ms = 0.0
        inside_ms = 0.0
        for span_id, _parent, name, start, end, _rid, _size in self._spans:
            if name == parent_name:
                parent_ms += (end - start) / 1e6
                inside_ms += self.child_ms.get((span_id, child_name), 0.0)
        return inside_ms / parent_ms if parent_ms else 0.0


class ModelTaps:
    """Traces ``score_last`` on every detector a registry hands out.

    Registry loads return cached detector instances; each one gets its
    ``score_last`` wrapped the first time it passes through, and its JIT
    eviction counter is read then and at the end of the run.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._evictions_at_tap: dict[int, tuple[TFMAE, int]] = {}
        self.batch_sizes: set[int] = set()
        # Handler threads load concurrently; a detector is wrapped once.
        self._lock = threading.Lock()

    def tap(self, detector: TFMAE) -> TFMAE:
        with self._lock:
            if id(detector) in self._evictions_at_tap:
                return detector
            self._evictions_at_tap[id(detector)] = (detector, detector.model.jit_evictions)
            original = detector.score_last
            sizes = self.batch_sizes

            def score_last(windows):
                sizes.add(len(windows))
                return original(windows)

            detector.score_last = self.tracer.traced(
                score_last, "model.score_last", size=lambda windows: len(windows)
            )
        return detector

    def tap_registry(self, registry: ModelRegistry) -> None:
        for method in ("load", "load_fresh"):
            loader = self.tracer.traced(getattr(registry, method), f"registry.{method}")

            def load(*args, _loader=loader, **kwargs):
                detector, version = _loader(*args, **kwargs)
                return self.tap(detector), version

            setattr(registry, method, load)
        for method in ("publish", "set_live", "demote_live"):
            self.tracer.wrap(registry, method, f"registry.{method}")

    def evictions(self) -> int:
        return sum(detector.model.jit_evictions - start
                   for detector, start in self._evictions_at_tap.values())


def trace_overhead_pct(traced: list[float], untraced: list[float]) -> float:
    """Median latency in recorded blocks over unrecorded blocks, as %."""
    base = median(untraced)
    return (median(traced) / base - 1.0) * 100.0 if base else 0.0


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """One workload run: operation counts, checks and named metrics."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    #: name -> (value, unit, samples behind the value)
    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: Why the run could not measure what it claims (not a slow system).
    #: Only a run without failed operations is reported invalid: a failure
    #: also thins the samples, and must still be reported as one.
    invalid: list[str] = field(default_factory=list)
    #: Traced runs only: workload-specific per-layer ``(value, samples)``,
    #: the tracer, the model taps and, for the serving workloads, the
    #: windows completed (which ``model.windows_scored`` must equal).
    layers: dict[str, tuple[float, int]] = field(default_factory=dict)
    tracer: Tracer | None = None
    taps: ModelTaps | None = None
    completed: int | None = None

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def traced(self, tracer: Tracer, taps: ModelTaps, completed: int | None = None) -> None:
        self.tracer, self.taps, self.completed = tracer, taps, completed

    def tail(self, values, q: float, what: str) -> float:
        """Quantile ``q`` of ``values``; invalid when the sample cannot support it."""
        count = len(values)
        beyond = round(count * (1.0 - q), 6)
        if beyond < TAIL_MARGIN:
            self.invalid.append(f"p{q * 100:g} of {count} {what} leaves {beyond:.1f} "
                                f"beyond it; {TAIL_MARGIN} needed")
        return quantile(values, q)

    def check_generator(self, late_ms, mean_gap_ms: float, what: str) -> float:
        """p99 of the generator's own lateness; invalid beyond its limit."""
        late = quantile(late_ms, 0.99)
        limit = LATE_SHARE * mean_gap_ms
        if late > limit:
            self.invalid.append(f"{what} sent {late:.1f} ms behind its schedule at p99 "
                                f"(limit {limit:.1f} ms): the generator fell behind")
        return late

    def fail(self, what: str, wrong: bool = False) -> None:
        """Count one failed operation; ``wrong`` marks an incorrect output."""
        self.failed += 1
        if wrong:
            self.wrong += 1
        if len(self.notes) < 20:
            self.notes.append(f"failed: {what}")


#: Every per-layer metric with its unit, in report order.  A layer the
#: workload does not exercise reports 0 (no calls, no time).
PER_LAYER_UNITS = {
    "server.handler_ms_p50": "ms",
    "server.wire_ms_p50": "ms",
    "server.stage_sum_ratio": "ratio",
    "server.scrape_ms_p50": "ms",
    "server.errors": "ratio",
    "scheduler.queue_wait_ms_p50": "ms",
    "scheduler.batch_size_mean": "windows",
    "scheduler.shed": "ratio",
    "registry.load_ms_p50": "ms",
    "registry.load_fresh_ms_p50": "ms",
    "registry.publish_ms_p50": "ms",
    "registry.demote_live_ms_p50": "ms",
    "model.score_last_ms_p50": "ms",
    "model.score_us_per_window": "us",
    "model.score_last_calls": "count",
    "model.windows_scored": "count",
    "jit.evictions": "count",
    "jit.batch_shapes": "count",
    "streaming.update_many_ms_p50": "ms",
    "streaming.score_share": "ratio",
    "trainer.refit_s_p50": "s",
    "lifecycle.publish_guarded_ms_p50": "ms",
    "lifecycle.refresh_self_ms_p50": "ms",
    "lifecycle.watchdog_ms_p50": "ms",
    "process.import_s": "s",
    "process.cpu_share": "ratio",
    "loadgen.late_ms_p99": "ms",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def per_layer_metrics(outcome: Outcome, import_s: float) -> dict[str, tuple[float, str, int]]:
    """The traced run's per-layer report: spans, counts and workload values.

    Returns ``name -> (value, unit, samples)`` for every name in
    :data:`PER_LAYER_UNITS`.
    """
    tracer, taps = outcome.tracer, outcome.taps
    table = SpanTable(tracer.spans)

    def spans(name: str, value: float) -> tuple[float, int]:
        return value, len(table.total.get(name, []))

    scored_ms = sum(table.total.get("model.score_last", []))
    scored_windows = sum(table.sizes.get("model.score_last", []))
    calls = tracer.calls["model.score_last"]
    values = {
        "registry.load_ms_p50": spans("registry.load", table.p50("registry.load")),
        "registry.load_fresh_ms_p50":
            spans("registry.load_fresh", table.p50("registry.load_fresh")),
        "registry.publish_ms_p50": spans("registry.publish", table.p50("registry.publish")),
        "registry.demote_live_ms_p50":
            spans("registry.demote_live", table.p50("registry.demote_live")),
        "model.score_last_ms_p50": spans("model.score_last", table.p50("model.score_last")),
        "model.score_us_per_window":
            (scored_ms * 1e3 / scored_windows if scored_windows else 0.0, scored_windows),
        "model.score_last_calls": (calls, calls),
        "model.windows_scored": (tracer.items["model.score_last"], calls),
        "jit.evictions": (taps.evictions(), calls),
        "jit.batch_shapes": (len(taps.batch_sizes), calls),
        "streaming.update_many_ms_p50":
            spans("streaming.update_many", table.p50("streaming.update_many")),
        "streaming.score_share": spans(
            "streaming.update_many",
            table.share_in_children("streaming.update_many", "model.score_last"),
        ),
        "trainer.refit_s_p50": spans("trainer.refit", table.p50("trainer.refit") / 1e3),
        "lifecycle.publish_guarded_ms_p50":
            spans("lifecycle.publish_guarded", table.p50("lifecycle.publish_guarded")),
        "lifecycle.refresh_self_ms_p50":
            spans("lifecycle.refresh", table.self_p50("lifecycle.refresh")),
        "lifecycle.watchdog_ms_p50":
            spans("lifecycle.watchdog", table.p50("lifecycle.watchdog")),
        "process.import_s": (import_s, 1),
        "trace.spans": (len(tracer.spans), len(tracer.spans)),
    }
    values.update(outcome.layers)
    return {
        name: (float(values.get(name, (0.0, 0))[0]), unit, int(values.get(name, (0.0, 0))[1]))
        for name, unit in PER_LAYER_UNITS.items()
    }

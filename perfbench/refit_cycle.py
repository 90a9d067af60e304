"""refit-cycle: stream telemetry, refresh, check the watchdog, roll back.

The write path (training, registry disk I/O, shadow scoring) beside a
compute-bound read path at fixed shapes.  Every cycle streams the same
telemetry slice through ``StreamingDetector.update_many`` into a
``DriftMonitor``, refreshes the model on the same recent slice with a
one-epoch refit, runs the post-publish watchdog and rolls back, so each
cycle starts from the same live version and does the same work.  HTTP,
the batching scheduler and variable-batch JIT do no work.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path

import numpy as np

from repro import StreamingDetector
from repro.datasets import get_dataset
from repro.datasets.windows import sliding_windows
from repro.serve import DriftMonitor, ModelRegistry

from harness import (
    SETUPS, WINDOW, Lifecycle, ModelTaps, Outcome, Refitter, Tracer, fit_and_publish,
    median, peak_rss_mb, probe_windows, trace_overhead_pct,
)

NAME = "smd"
#: update_many calls per cycle and observations per call: 16-window
#: scoring calls, and enough slices for a p90 within a few cycles.
SLICES = 16
SLICE = 16
RECENT = 1600
PROBES = 64
DATA_SCALE = 0.005


def _stream(streamer: StreamingDetector, monitor: DriftMonitor, registry: ModelRegistry,
            telemetry: np.ndarray) -> tuple[list[float], np.ndarray]:
    """Stream ``telemetry`` through the live version; (ms per slice, scores)."""
    live, _ = registry.load(NAME)
    streamer.swap_detector(live)
    slice_ms: list[float] = []
    scores: list[float] = []
    for chunk in np.split(telemetry, SLICES):
        started = time.perf_counter()
        events = streamer.update_many(chunk)
        monitor.observe_events(events)
        slice_ms.append((time.perf_counter() - started) * 1e3)
        scores.extend(event.score for event in events)
    return slice_ms, np.asarray(scores)


def run(seed: int, seconds: int, trace: bool, run_dir: Path) -> Outcome:
    outcome = Outcome()
    data = get_dataset("SMD", seed=seed, scale=DATA_SCALE).normalised()
    recent = data.test[:RECENT]
    telemetry = data.test[RECENT : RECENT + SLICES * SLICE]
    probes = probe_windows(recent, PROBES)

    setup_s = []
    refitter = Refitter()
    for attempt in range(SETUPS):
        # Release the previous set-up before timing the next, so every
        # set-up, and the peak RSS, starts from the same heap.
        registry = detector = manager = monitor = streamer = lifecycle = None
        gc.collect()
        started = time.perf_counter()
        registry = ModelRegistry(run_dir / f"registry-{attempt}")
        detector, manager = fit_and_publish(
            data.train, data.validation, seed, registry, NAME, probes, refitter
        )
        monitor = manager.drift = DriftMonitor(detector.score(data.validation))
        streamer = StreamingDetector(detector, context=WINDOW)
        lifecycle = Lifecycle(manager, refitter, recent, data.validation, probes)
        # Warm-up: one full cycle, which also fills the streaming context.
        _stream(streamer, monitor, registry, telemetry)
        lifecycle.cycle(outcome, measured=False)
        setup_s.append(time.perf_counter() - started)

    # From the second pass on, the context before the slice is the
    # slice's own tail, so every cycle scores the same windows.
    history = np.concatenate([telemetry[-WINDOW:], telemetry])
    expected = detector.score_last(sliding_windows(history, WINDOW, stride=1)[1:])

    tracer = None
    if trace:
        tracer = Tracer()
        taps = ModelTaps(tracer)
        taps.tap_registry(registry)
        for method in ("refresh", "publish_guarded", "watchdog_check"):
            tracer.wrap(manager, method, "lifecycle." + method.replace("_check", ""))
        tracer.wrap(streamer, "update_many", "streaming.update_many")
        tracer.wrap(refitter, "refit", "trainer.refit")

    slice_ms: list[float] = []
    arm_latency: dict[bool, list[float]] = {False: [], True: []}
    streamed = 0
    cycles = 0
    started = time.perf_counter()
    cpu_started = time.process_time()
    while time.perf_counter() - started < seconds:
        recorded = tracer is not None and cycles % 2 == 1
        if tracer is not None:
            tracer.recording = recorded
        cycle_ms, scores = _stream(streamer, monitor, registry, telemetry)
        lifecycle.cycle(outcome)
        if tracer is not None:
            tracer.recording = False
        cycles += 1
        outcome.attempted += SLICES
        for chunk_ms, got, want in zip(cycle_ms, np.split(scores, SLICES),
                                       np.split(expected, SLICES)):
            if np.array_equal(got, want):
                slice_ms.append(chunk_ms)
                arm_latency[recorded].append(chunk_ms)
                streamed += len(got)
            else:
                outcome.fail(f"cycle {cycles}: streamed scores differ from score_last",
                             wrong=True)
    wall = time.perf_counter() - started
    cpu_share = (time.process_time() - cpu_started) / wall
    if not lifecycle.refresh_s:
        outcome.invalid.append("no refresh -> rollback cycle completed in the measured phase")

    outcome.add("latency_p50_ms", median(slice_ms), "ms", len(slice_ms))
    outcome.add("latency_p90_ms", outcome.tail(slice_ms, 0.90, "slices"), "ms", len(slice_ms))
    outcome.add("throughput_wps", streamed / max(sum(slice_ms) / 1e3, 1e-9), "windows/s",
                streamed)
    lifecycle.report(outcome)
    outcome.add("setup_s", median(setup_s), "s", len(setup_s))
    outcome.add("peak_rss_mb", peak_rss_mb(), "MB", 1)
    outcome.notes.append(f"{cycles} cycles in {wall:.1f} s, {SLICES} slices of {SLICE} "
                         f"observations each")

    if tracer is not None:
        outcome.layers.update({
            "process.cpu_share": (cpu_share, 1),
            "trace.overhead_pct": (
                trace_overhead_pct(arm_latency[True], arm_latency[False]), len(slice_ms)
            ),
        })
        outcome.traced(tracer, taps)
    return outcome

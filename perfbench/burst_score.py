"""burst-score: seeded bursts of 1-32 windows into the in-process batcher.

One generator (this process's main thread) calls ``MicroBatcher.submit``
with the serving tier's defaults.  Bursts arrive on a seeded schedule
with exponential gaps, at a rate far below capacity, and each burst is
followed by a gap in proportion to its size, so batch sizes follow the
bursts rather than timing, and every batch size from 1 to 32 recurs: the
variable-batch path where the scoring JIT retraces and evicts.  HTTP and
training do no work in the measured phase.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from pathlib import Path

import numpy as np

from repro.datasets import get_dataset
from repro.serve import MetricsRegistry, MicroBatcher, ModelRegistry, Overloaded

from harness import (
    WINDOW, ModelTaps, Outcome, Tracer, burst_schedule, median, peak_rss_mb, probe_windows,
    set_up_serving, trace_overhead_pct,
)

NAME = "burst"
#: Offered load: 4 bursts/s of 16 windows on average, about 64 windows/s
#: against a batch-scoring capacity of a few hundred windows/s.
BURSTS_PER_S = 4.0
MAX_BURST = 32
POOL = 256
WARMUP_BURSTS = 4
PROBES = 32
DATA_SCALE = 0.02
TIMEOUT_S = 30.0


def _loader(registry: ModelRegistry):
    return lambda model_key: registry.load(model_key)[0]


def _stamp(done: np.ndarray, index: int):
    def stamp(_future: Future) -> None:
        done[index] = time.monotonic_ns()
    return stamp


def run(seed: int, seconds: int, trace: bool, run_dir: Path) -> Outcome:
    outcome = Outcome()
    rng = np.random.default_rng(seed)
    data = get_dataset("NIPS-TS-Global", seed=seed, scale=DATA_SCALE).normalised()
    starts = rng.choice(data.test.shape[0] - WINDOW, POOL, replace=False)
    pool = np.stack([data.test[start : start + WINDOW] for start in starts])
    probes = probe_windows(data.test, PROBES)

    count = int(round(BURSTS_PER_S * seconds))
    offsets, sizes = burst_schedule(rng, count, MAX_BURST, seconds)
    bursts = [rng.integers(POOL, size=size) for size in sizes]
    # A traced run records alternate bursts of each size, so the recorded
    # and unrecorded arms offer the same mix of batch sizes.
    seen = np.zeros(MAX_BURST + 1, dtype=int)
    recorded = []
    for size in sizes:
        recorded.append(bool(seen[size] % 2))
        seen[size] += 1
    warm_bursts = [rng.integers(POOL, size=size)
                   for size in rng.integers(1, MAX_BURST + 1, size=WARMUP_BURSTS)]

    def serve(registry: ModelRegistry, _detector) -> MicroBatcher:
        batcher = MicroBatcher(detector_for=_loader(registry)).start()
        for burst in warm_bursts:
            for future in [batcher.submit(NAME, pool[pick]) for pick in burst]:
                future.result(timeout=TIMEOUT_S)
        return batcher

    serving = set_up_serving(outcome, run_dir, data, seed, NAME, probes, serve,
                             stop=MicroBatcher.stop)
    registry, detector, batcher = serving.registry, serving.detector, serving.front
    windows = int(sizes.sum())
    done = np.zeros(windows, dtype=np.int64)
    futures: list[Future | None] = []
    late: list[float] = []
    try:
        # Fill the scoring JIT's tape cache with its largest batch shapes, so
        # the run starts at the cache's memory plateau instead of reaching it
        # whenever the seeded sizes happen to line up.
        cache_size = detector.config.jit_cache_size
        for size in range(MAX_BURST - cache_size + 1, MAX_BURST + 1):
            for future in [batcher.submit(NAME, window) for window in pool[:size]]:
                future.result(timeout=TIMEOUT_S)
        expected = detector.score_last(pool)

        batcher.metrics = MetricsRegistry()
        tracer = None
        if trace:
            tracer = Tracer()
            taps = ModelTaps(tracer)
            taps.tap_registry(registry)
        t0 = time.monotonic_ns() + 50_000_000
        time.sleep(max(0.0, (t0 - time.monotonic_ns()) / 1e9))
        cpu_started = time.process_time()
        for offset, burst, arm in zip(offsets, bursts, recorded):
            due = t0 + int(offset * 1e9)
            wait = (due - time.monotonic_ns()) / 1e9
            if wait > 0:
                time.sleep(wait)
            if tracer is not None:
                tracer.recording = arm
            late.append((time.monotonic_ns() - due) / 1e6)
            for pick in burst:
                try:
                    future = batcher.submit(NAME, pool[pick])
                except Overloaded:
                    futures.append(None)
                    continue
                future.add_done_callback(_stamp(done, len(futures)))
                futures.append(future)
        deadline = time.monotonic() + TIMEOUT_S
        # A score, or why the window has none.
        scores: list[float | str] = []
        for future in futures:
            if future is None:
                scores.append("shed (Overloaded)")
                continue
            try:
                scores.append(future.result(timeout=max(0.0, deadline - time.monotonic())))
            except FutureTimeout:
                scores.append("timed out")
            except Exception as error:  # noqa: BLE001 -- a scoring error is a failed window
                scores.append(f"scoring raised {error!r}")
        if tracer is not None:
            tracer.recording = False
        cpu_share = (time.process_time() - cpu_started) / ((time.monotonic_ns() - t0) / 1e9)
        snapshot = batcher.metrics.snapshot()
    finally:
        batcher.stop()

    window_latency: list[float] = []
    burst_latency: list[float] = []
    arm_latency: dict[bool, list[float]] = {False: [], True: []}
    index = 0
    served = 0
    finished = t0
    for offset, burst, arm in zip(offsets, bursts, recorded):
        due = t0 + int(offset * 1e9)
        slowest = None
        for pick in burst:
            score = scores[index]
            outcome.attempted += 1
            if isinstance(score, str):
                outcome.fail(f"window {index}: {score}")
            elif score != expected[pick]:
                outcome.fail(f"window {index} scored {score!r}, score_last gives "
                             f"{expected[pick]!r}", wrong=True)
            else:
                served += 1
                finished = max(finished, int(done[index]))
                latency_ms = (done[index] - due) / 1e6
                window_latency.append(latency_ms)
                arm_latency[arm].append(latency_ms)
                slowest = latency_ms if slowest is None else max(slowest, latency_ms)
            index += 1
        if slowest is not None:
            burst_latency.append(slowest)
    late_p99 = outcome.check_generator(late, 1e3 / BURSTS_PER_S, "the burst generator")

    span = max(finished - t0, 1) / 1e9
    outcome.add("latency_p50_ms", median(window_latency), "ms", len(window_latency))
    outcome.add("latency_p90_ms", outcome.tail(burst_latency, 0.90, "bursts"), "ms",
                len(burst_latency))
    outcome.add("throughput_wps", served / span, "windows/s", served)
    serving.lifecycle.report(outcome)
    outcome.add("setup_s", median(serving.setup_s), "s", len(serving.setup_s))
    outcome.add("peak_rss_mb", peak_rss_mb(), "MB", 1)
    outcome.notes += [
        f"offered {windows / seconds:.2f} windows/s in {count} bursts, "
        f"achieved {served / span:.2f} windows/s",
        f"generator lateness p99 {late_p99:.3f} ms over {len(late)} bursts",
    ]

    if tracer is not None:
        histograms = snapshot["histograms"]
        counters = snapshot["counters"]
        scored = sum(value for key, value in counters.items()
                     if key.startswith("serve_windows_scored_total"))
        shed = counters.get("serve_requests_shed_total", 0.0)
        outcome.layers.update({
            "scheduler.queue_wait_ms_p50": (
                histograms["serve_queue_wait_seconds"]["p50"] * 1e3,
                histograms["serve_queue_wait_seconds"]["count"],
            ),
            "scheduler.batch_size_mean": (histograms["serve_batch_size"]["mean"],
                                          histograms["serve_batch_size"]["count"]),
            "scheduler.shed": (shed / max(1.0, scored + shed), scored + shed),
            "process.cpu_share": (cpu_share, 1),
            "loadgen.late_ms_p99": (late_p99, len(late)),
            "trace.overhead_pct": (
                trace_overhead_pct(arm_latency[True], arm_latency[False]),
                len(window_latency),
            ),
        })
        outcome.traced(tracer, taps, completed=served)
    return outcome

"""http-score: open-loop single-window ``POST /score`` over HTTP.

The per-request overhead path: socket and HTTP handling, JSON, registry
lookup, the micro-batcher's lone-request ``max_delay`` wait and a
batch-of-one replay.  ``InferenceServer`` runs the thread tier at its
defaults inside this process; a separate stdlib-only process
(``loadgen.py``) sends pre-encoded requests over two keep-alive
connections on a seeded Poisson schedule, plus one ``GET /metrics``
scrape per second on the same connections.
"""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np

from repro.datasets import get_dataset
from repro.serve import InferenceServer, MetricsRegistry, ModelRegistry

from harness import (
    WINDOW, ModelTaps, Outcome, SpanTable, Tracer, due_offsets, median, peak_rss_mb,
    probe_windows, quantile, set_up_serving, stratified_gaps, trace_overhead_pct,
)

#: Model names the one fitted detector is published under.
NAMES = ("m0", "m1", "m2", "m3")
#: Offered load.  Two connections each hold a request for the ~44 ms
#: delayed-ACK stall of the server's split response write, so they top out
#: near 38 requests/s; 16/s keeps them under half busy.
RATE = 16.0
CONNECTIONS = 2
SCRAPE_EVERY_S = 1.0
#: Distinct windows the requests draw from, and warm-up requests per set-up.
POOL = 64
WARMUP_REQUESTS = 16
PROBES = 32
DATA_SCALE = 0.02
TIMEOUT_S = 30.0
#: A traced run records spans in alternate blocks of this many seconds, so
#: both arms see the same mix of requests and the unrecorded arm gives the
#: tracing overhead.
TRACE_BLOCK_S = 1.0
HERE = Path(__file__).resolve().parent


def _recorded_block(offset_s: float) -> bool:
    """Whether a due time falls in a recorded block of a traced run."""
    return int(offset_s / TRACE_BLOCK_S) % 2 == 1


def _warm_up(host: str, port: int, bodies: list[bytes]) -> None:
    """Send ``bodies`` over ``CONNECTIONS`` keep-alive connections."""
    errors: list[str] = []

    def client(chunk: list[bytes]) -> None:
        connection = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
        try:
            for body in chunk:
                connection.request("POST", "/score", body,
                                   {"Content-Type": "application/json"})
                response = connection.getresponse()
                response.read()
                if response.status != 200:
                    errors.append(f"warm-up /score answered {response.status}")
        except (OSError, http.client.HTTPException) as error:
            errors.append(f"warm-up /score failed: {error}")
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(bodies[i::CONNECTIONS],))
               for i in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=TIMEOUT_S)
    if errors:
        raise RuntimeError("; ".join(errors))


def _get_metrics(host: str, port: int) -> dict:
    connection = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
    try:
        connection.request("GET", "/metrics")
        response = connection.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"/metrics answered {response.status}")
        return json.loads(body)
    finally:
        connection.close()


def run(seed: int, seconds: int, trace: bool, run_dir: Path) -> Outcome:
    outcome = Outcome()
    rng = np.random.default_rng(seed)
    data = get_dataset("NIPS-TS-Global", seed=seed, scale=DATA_SCALE).normalised()
    starts = rng.choice(data.test.shape[0] - WINDOW, POOL, replace=False)
    pool = np.stack([data.test[start : start + WINDOW] for start in starts])
    probes = probe_windows(data.test, PROBES)

    count = int(round(RATE * seconds))
    offsets = due_offsets(stratified_gaps(rng, count, seconds))
    names = rng.integers(len(NAMES), size=count)
    picks = rng.integers(POOL, size=count)
    bodies = [
        json.dumps({"model": NAMES[name], "window": pool[pick, :, 0].tolist(),
                    "request_id": index})
        for index, (name, pick) in enumerate(zip(names, picks))
    ]
    # (due offset, path, request id); scrapes carry no request id.
    items = [(float(offset), "/score", rid) for rid, offset in enumerate(offsets)]
    items += [(k * SCRAPE_EVERY_S + SCRAPE_EVERY_S / 2, "/metrics", None)
              for k in range(int(seconds / SCRAPE_EVERY_S))]
    items.sort(key=lambda item: item[0])
    warm_bodies = [body.encode() for body in bodies[:WARMUP_REQUESTS]]

    def serve(registry: ModelRegistry, detector) -> InferenceServer:
        for name in NAMES[1:]:
            registry.publish(name, detector)
        server = InferenceServer(registry, port=0)
        _warm_up(*server.start(), warm_bodies)
        return server

    serving = set_up_serving(outcome, run_dir, data, seed, NAMES[0], probes, serve,
                             stop=InferenceServer.stop)
    registry, server = serving.registry, serving.front
    address = urlsplit(server.url)
    host, port = address.hostname, address.port
    try:
        expected = serving.detector.score_last(pool)
        # Measure on fresh counters so warm-up requests stay out of them.
        server.metrics = server.batcher.metrics = MetricsRegistry()
        tracer = None
        if trace:
            tracer = Tracer()
            taps = ModelTaps(tracer)
            taps.tap_registry(registry)
            tracer.wrap(server, "score_request", "server.score_request",
                        request_id=lambda payload, **_: payload.get("request_id"))
        spec_path = run_dir / "loadgen.json"
        t0 = time.monotonic_ns() + 300_000_000
        spec_path.write_text(json.dumps({
            "host": host, "port": port, "connections": CONNECTIONS,
            "timeout_s": TIMEOUT_S, "t0_ns": t0,
            "items": [[offset, path, None if rid is None else bodies[rid]]
                      for offset, path, rid in items],
        }))
        generator = subprocess.Popen(
            [sys.executable, str(HERE / "loadgen.py"), str(spec_path)],
            stdout=subprocess.PIPE,
        )
        try:
            time.sleep(max(0.0, (t0 - time.monotonic_ns()) / 1e9))
            cpu_started = time.process_time()
            if tracer is not None:
                for block in range(int(np.ceil(seconds / TRACE_BLOCK_S))):
                    block_start = t0 + int(block * TRACE_BLOCK_S * 1e9)
                    time.sleep(max(0.0, (block_start - time.monotonic_ns()) / 1e9))
                    tracer.recording = _recorded_block(block * TRACE_BLOCK_S)
            stdout, _ = generator.communicate(timeout=seconds + 2 * TIMEOUT_S + 30)
        finally:
            if generator.poll() is None:
                generator.kill()
                generator.wait()
        if tracer is not None:
            tracer.recording = False
        wall = (time.monotonic_ns() - t0) / 1e9
        cpu_share = (time.process_time() - cpu_started) / wall
        if generator.returncode != 0:
            raise RuntimeError(f"load generator exited with {generator.returncode}")
        final_metrics = _get_metrics(host, port)
    finally:
        server.stop()

    rows = json.loads(stdout)["results"]
    latency, late, finished = [], [], t0
    arm_latency: dict[bool, list[float]] = {False: [], True: []}
    client_ms: dict[int, float] = {}
    served = 0
    for (offset, path, rid), row in zip(items, rows):
        outcome.attempted += 1
        if row is None:
            outcome.fail(f"{path} request {rid} never completed")
            continue
        due, released, sent, received, status, score = row
        late.append((released - due) / 1e6)
        if path == "/metrics":
            if status != 200:
                outcome.fail(f"/metrics answered {status}")
            continue
        if status != 200:
            outcome.fail(f"/score request {rid} answered {status}")
            continue
        if score != expected[picks[rid]]:
            outcome.fail(f"/score request {rid} scored {score!r}, "
                         f"score_last gives {expected[picks[rid]]!r}", wrong=True)
            continue
        served += 1
        finished = max(finished, received)
        latency_ms = (received - due) / 1e6
        latency.append(latency_ms)
        client_ms[rid] = (received - sent) / 1e6
        arm_latency[_recorded_block(offset)].append(latency_ms)
    late_p99 = outcome.check_generator(late, 1e3 / RATE, "the load generator")

    span = max(finished - t0, 1) / 1e9
    outcome.add("latency_p50_ms", median(latency), "ms", len(latency))
    outcome.add("latency_p90_ms", outcome.tail(latency, 0.90, "requests"), "ms", len(latency))
    outcome.add("throughput_wps", served / span, "windows/s", served)
    serving.lifecycle.report(outcome)
    outcome.add("setup_s", median(serving.setup_s), "s", len(serving.setup_s))
    outcome.add("peak_rss_mb", peak_rss_mb(), "MB", 1)
    beyond_p98 = len(latency) * 0.02
    outcome.notes += [
        f"offered {count / seconds:.2f} requests/s, achieved {served / span:.2f} windows/s",
        f"p98 {quantile(latency, 0.98):.2f} ms ({beyond_p98:.0f} requests beyond it; "
        f"p99 needs 1000 requests, the run sends {count})",
        f"generator lateness p99 {late_p99:.3f} ms over {len(late)} items",
    ]

    if tracer is not None:
        histograms = final_metrics["histograms"]
        counters = final_metrics["counters"]
        handler_ms = histograms["serve_http_latency_seconds{endpoint=/score}"]["p50"] * 1e3
        table = SpanTable(tracer.spans)
        handled_ms = {rid: table.by_request[("server.score_request", rid)]
                      for rid in client_ms if ("server.score_request", rid) in table.by_request}
        round_trip = [client_ms[rid] for rid in handled_ms]
        wire = [client_ms[rid] - inside for rid, inside in handled_ms.items()]
        wire_ms = median(wire)
        sent_requests = sum(1 for item in items if item[1] == "/score")
        non_200 = sent_requests - sum(
            value for key, value in counters.items()
            if key.startswith("serve_http_requests_total{") and "endpoint=/score" in key
            and "status=200" in key
        )
        submitted = sum(value for key, value in counters.items()
                        if key.startswith("serve_windows_scored_total"))
        shed = counters.get("serve_requests_shed_total", 0.0)
        handled = histograms["serve_http_latency_seconds{endpoint=/score}"]["count"]
        batches = histograms["serve_batch_size"]["count"]
        outcome.layers.update({
            "server.handler_ms_p50": (handler_ms, handled),
            "server.wire_ms_p50": (wire_ms, len(wire)),
            "server.stage_sum_ratio":
                ((handler_ms + wire_ms) / median(round_trip), len(round_trip)),
            "server.scrape_ms_p50": (
                histograms["serve_http_latency_seconds{endpoint=/metrics}"]["p50"] * 1e3,
                histograms["serve_http_latency_seconds{endpoint=/metrics}"]["count"],
            ),
            "server.errors": (non_200 / sent_requests, sent_requests),
            "scheduler.queue_wait_ms_p50": (
                histograms["serve_queue_wait_seconds"]["p50"] * 1e3,
                histograms["serve_queue_wait_seconds"]["count"],
            ),
            "scheduler.batch_size_mean": (histograms["serve_batch_size"]["mean"], batches),
            "scheduler.shed": (shed / max(1.0, submitted + shed), submitted + shed),
            "process.cpu_share": (cpu_share, 1),
            "loadgen.late_ms_p99": (late_p99, len(late)),
            "trace.overhead_pct": (
                trace_overhead_pct(arm_latency[True], arm_latency[False]),
                len(arm_latency[True]) + len(arm_latency[False]),
            ),
        })
        outcome.traced(tracer, taps, completed=served)
    return outcome

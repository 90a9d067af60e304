"""Multi-process serving: throughput and p99 vs worker-process count.

Not a paper table: this bench measures the ``--procs`` tier of
``repro.serve`` (``ProcessPool``).  Four TFMAE models — all snapshots of
the same fit, so every correct answer is bitwise-identical — are
published to a registry and served over live HTTP while concurrent
clients drive a mixed ``/score`` stream across them.  Rows vary the
worker-process count (1, 2, 4) plus the in-process reference row
(``--procs 0``, one scoring thread), measuring client-side throughput
and latency through the same :class:`repro.serve.metrics.Histogram` the
serving bench uses.

The load generator is closed-loop with **fixed per-worker concurrency**
(``CLIENTS_PER_PROC`` clients per worker process): measuring a 4-worker
deployment under the offered load that saturates one worker would
conflate capacity with queueing, and — because workers micro-batch
their pipe inbox — would also hand the single-worker row an artificial
coalescing advantage (all clients drain into one big batch).  Each row
reports the median of ``DRIVES`` runs; the JSON records every sample
and the client count per row.

The model names are chosen so rendezvous routing spreads them one per
worker at ``--procs 4`` and two per worker at ``--procs 2`` — the
locality routing buys: a dedicated worker sees long single-model runs
and folds them into larger vectorized batches, where a lone worker
interleaves all four streams.

Three acceptance properties are asserted in-bench:

* **bitwise equivalence** — every HTTP score, from every tier and worker
  count, equals the in-process ``score_last`` reference exactly;
* **monotonic throughput** — adding worker processes must raise
  throughput wherever there is CPU headroom (``min(procs, cores)``
  grows); on a core-starved runner the requirement degrades honestly to
  "no collapse" (the JSON records ``cpu_count`` and the regime so the
  committed numbers are interpretable);
* **single-copy weights** — each model-version owns exactly one shared
  segment (``status()["shared_segments"]``), and a dedicated RSS probe
  loads the four models one by one into a single worker: its
  ``RssShmem`` grows by the full segment size per model (the weights are
  mapped from the shared segment) while the *marginal* private
  ``RssAnon`` per additional model stays a small fraction of one weight
  copy.  Marginal growth is the honest signal — the first model also
  pays one-time lazy imports and scoring caches (~20 MB), which a naive
  before/after total would misread as copied weights.  The HTTP phase
  re-checks the owners: every worker's ``RssShmem`` growth covers the
  segments resident on it.

Environment: ``REPRO_BENCH_POOL_REQUESTS`` (default 160) requests per
row.  Pool workers start with one BLAS thread unless the environment
sets ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS``/``MKL_NUM_THREADS``
(one BLAS thread per core in each of two workers on two cores cut
procs=2 to a third of procs=1's throughput on a 2-vCPU host).  The
in-process row runs in this process at its own BLAS setting.  The JSON
records this process's ``OPENBLAS_NUM_THREADS`` as ``blas_threads`` and
the workers' as ``worker_blas_threads``.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
import urllib.error
import urllib.request

import numpy as np

from repro import TFMAE, TFMAEConfig
from repro.serve import InferenceServer, ModelRegistry, ProcessPool
from repro.serve.metrics import Histogram

from _common import SEED, save_json, save_result

WINDOW = 100
PROC_COUNTS = (1, 2, 4)
#: Closed-loop load: offered concurrency scales with deployment size so
#: every row is measured at saturation with the same per-worker load.
CLIENTS_PER_PROC = 2
DRIVES = 5  # median-of-N per row; single-core schedulers are noisy
REQUESTS = int(os.environ.get("REPRO_BENCH_POOL_REQUESTS", "160"))
#: Chosen for their rendezvous placement: one per slot at --procs 4
#: (temperature→0, flow→1, current→2, rpm→3), two per slot at 2
#: (current and temperature→0, flow and rpm→1).
MODELS = ("current", "flow", "temperature", "rpm")
N_WINDOWS = 4


def _fit_detector() -> tuple[TFMAE, list[np.ndarray]]:
    rng = np.random.default_rng(SEED)
    t = np.arange(700)
    series = np.sin(2 * np.pi * t / 25.0)[:, None] + rng.normal(0, 0.05, (700, 1))
    # d_model=128 keeps the shared state ~9 MB per model: large enough
    # that a hidden private copy per worker would dominate the RSS delta.
    config = TFMAEConfig(window_size=WINDOW, d_model=128, num_layers=2,
                         num_heads=4, anomaly_ratio=5.0, epochs=1,
                         batch_size=16, learning_rate=1e-3, seed=SEED)
    detector = TFMAE(config)
    detector.fit(series[:550], series[550:])
    windows = [series[i * 37 : i * 37 + WINDOW] for i in range(N_WINDOWS)]
    return detector, windows


def _post_score(url: str, body: bytes) -> tuple[int, dict]:
    request = urllib.request.Request(
        url + "/score", data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, json.loads(response.read())


def _bodies(windows: list[np.ndarray]) -> dict[tuple[str, int], bytes]:
    return {
        (model, widx): json.dumps(
            {"model": model, "window": window.tolist()}
        ).encode("utf-8")
        for model in MODELS
        for widx, window in enumerate(windows)
    }


def _warmup(url: str, bodies: dict[tuple[str, int], bytes]) -> None:
    """Load every model on its owner and prime caches, outside the clock."""
    for key in sorted(bodies):
        deadline = time.monotonic() + 60.0
        while True:
            try:
                status, _ = _post_score(url, bodies[key])
            except urllib.error.HTTPError as error:
                status = error.code
                error.read()
            if status == 200:
                break
            if time.monotonic() >= deadline:  # pragma: no cover - bench guard
                raise RuntimeError(f"warmup of {key} stuck at HTTP {status}")
            time.sleep(0.05)


def _drive_once(url: str, bodies: dict[tuple[str, int], bytes],
                expected: dict[int, float], clients: int) -> dict:
    """Push the mixed model×window stream; verify every score bitwise."""
    plan = [
        (MODELS[i % len(MODELS)], (i // len(MODELS)) % N_WINDOWS)
        for i in range(REQUESTS)
    ]
    latency = Histogram(capacity=REQUESTS)
    errors: list[BaseException] = []

    def client(offsets: range) -> None:
        for offset in offsets:
            model, widx = plan[offset]
            started = time.perf_counter()
            try:
                status, payload = _post_score(url, bodies[(model, widx)])
                if status != 200 or payload["score"] != expected[widx]:
                    raise AssertionError(
                        f"{model} w{widx}: status {status}, "
                        f"score {payload.get('score')!r} != {expected[widx]!r}"
                    )
            except BaseException as error:  # pragma: no cover - bench guard
                errors.append(error)
                return
            latency.observe(time.perf_counter() - started)

    threads = [
        threading.Thread(target=client, args=(range(i, REQUESTS, clients),))
        for i in range(clients)
    ]
    begin = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - begin
    if errors:
        raise errors[0]
    summary = latency.summary()
    return {
        "rps": REQUESTS / elapsed,
        "p50": summary["p50"] * 1e3,
        "p99": summary["p99"] * 1e3,
    }


def _drive(url: str, bodies: dict[tuple[str, int], bytes],
           expected: dict[int, float], clients: int) -> dict:
    """Median-of-``DRIVES`` row (by throughput); keeps every sample.

    One unmeasured drive first: the row's client count produces batch
    shapes the sequential warmup never formed, so the first concurrent
    pass pays JIT tape construction and shared-segment page faults.
    """
    _drive_once(url, bodies, expected, clients)
    samples = [
        _drive_once(url, bodies, expected, clients) for _ in range(DRIVES)
    ]
    row = dict(sorted(samples, key=lambda s: s["rps"])[len(samples) // 2])
    row["clients"] = clients
    row["rps_samples"] = [s["rps"] for s in samples]
    return row


def _single_copy_probe(detector: TFMAE, window: np.ndarray) -> dict:
    """Load the models one by one into a single worker, watching RSS.

    The counterfactual (weights copied into worker-private memory) would
    grow ``RssAnon`` by ~one segment per model; the shared mapping grows
    ``RssShmem`` by exactly that instead.  Marginal growth per
    *additional* model is the clean signal, since the first model also
    pays one-time imports and scoring caches.
    """
    with ProcessPool(procs=1, heartbeat_interval=0.5) as pool:
        base = pool.worker_rss(timeout=30.0)["proc-0"]
        trajectory = []
        for name in MODELS:
            pool.score(name, "v1", detector, window)
            trajectory.append(pool.worker_rss(timeout=30.0)["proc-0"])
        segments_kb = {key: size // 1024 for key, size in
                       pool.status()["shared_segments"].items()}
    total_kb = sum(segments_kb.values())
    per_model_kb = total_kb // len(MODELS)
    anon_kb = [t["RssAnon"] - base["RssAnon"] for t in trajectory]
    shmem_kb = [t["RssShmem"] - base["RssShmem"] for t in trajectory]
    marginal_anon_kb = [b - a for a, b in zip(anon_kb, anon_kb[1:])]

    # Exactly one published segment per model-version, and the worker
    # maps (essentially) every page of them shared.
    assert len(segments_kb) == len(MODELS), segments_kb
    assert per_model_kb > 4 * 1024  # big enough to measure against
    assert shmem_kb[-1] >= 0.9 * total_kb, (shmem_kb, total_kb)
    # ...while each additional resident model costs a small fraction of
    # one weight copy in private memory (codec scaffolding, JIT tapes).
    for delta in marginal_anon_kb:
        assert delta < 0.35 * per_model_kb, (marginal_anon_kb, per_model_kb)
    return {
        "segments_kb": segments_kb,
        "total_kb": total_kb,
        "per_model_kb": per_model_kb,
        "anon_growth_kb": anon_kb,
        "shmem_growth_kb": shmem_kb,
        "marginal_anon_per_model_kb": marginal_anon_kb,
        "first_model_overhead_kb": anon_kb[0],
        "counterfactual": "a private weight copy per resident model would "
                          f"grow RssAnon by ~{per_model_kb} kB each",
    }


def _check_owner_mappings(pool, rss_start: dict, rss_end: dict) -> dict:
    """HTTP-phase re-check: every owner maps its resident segments shared."""
    status = pool.status()
    segments_kb = {key: size // 1024 for key, size in
                   status["shared_segments"].items()}
    shmem_kb = {}
    resident_kb = {}
    for slot, worker in status["workers"].items():
        resident_kb[slot] = sum(
            segments_kb[key] for key in worker["resident_models"]
            if key in segments_kb
        )
        shmem_kb[slot] = max(
            0, rss_end[slot]["RssShmem"] - rss_start[slot]["RssShmem"]
        )
        if resident_kb[slot]:
            assert shmem_kb[slot] >= 0.9 * resident_kb[slot], (
                slot, shmem_kb, resident_kb,
            )
    return {"resident_kb": resident_kb, "shmem_growth_kb": shmem_kb}


def run_multiproc_bench() -> tuple[str, dict]:
    cores = os.cpu_count() or 1
    blas_threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    worker_blas_threads = os.environ.get("OPENBLAS_NUM_THREADS", "1")
    detector, windows = _fit_detector()
    expected = {
        i: float(detector.score_last(window[None])[0])
        for i, window in enumerate(windows)
    }
    bodies = _bodies(windows)

    shared = _single_copy_probe(detector, windows[0])

    rows: dict[str, dict] = {}
    owners_check: dict = {}
    routing: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="bench-multiproc-") as root:
        registry = ModelRegistry(root)
        for name in MODELS:
            registry.publish(name, detector)

        # In-process reference row (--procs 0: one scoring thread).
        with InferenceServer(registry, port=0) as server:
            _warmup(server.url, bodies)
            rows["threads"] = _drive(server.url, bodies, expected,
                                     2 * CLIENTS_PER_PROC)

        for procs in PROC_COUNTS:
            with InferenceServer(registry, port=0, procs=procs) as server:
                pool = server.pool
                rss_start = pool.worker_rss(timeout=30.0)
                _warmup(server.url, bodies)
                rows[str(procs)] = _drive(server.url, bodies, expected,
                                          procs * CLIENTS_PER_PROC)
                rss_end = pool.worker_rss(timeout=30.0)
                routing[str(procs)] = dict(pool.status()["routing"])
                if procs == max(PROC_COUNTS):
                    owners_check = _check_owner_mappings(
                        pool, rss_start, rss_end
                    )

    header = (f"{'tier':>10} {'clients':>8} {'throughput':>12} {'p50 ms':>8} "
              f"{'p99 ms':>8} {'models/worker':>14}")
    lines = [
        f"Multi-process serving ({REQUESTS} requests/run, median of "
        f"{DRIVES} runs, {CLIENTS_PER_PROC} clients/worker, "
        f"{len(MODELS)} models, cpu_count={cores}, blas_threads={blas_threads}, "
        f"worker_blas_threads={worker_blas_threads})",
        header,
        "-" * len(header),
    ]
    spread = {"threads": "-"}
    for procs in PROC_COUNTS:
        owners: dict[str, int] = {}
        for owner in routing[str(procs)].values():
            owners[owner] = owners.get(owner, 0) + 1
        spread[str(procs)] = "/".join(
            str(owners.get(f"proc-{i}", 0)) for i in range(procs)
        )
    for label, row in rows.items():
        tier = "threads(1)" if label == "threads" else f"procs={label}"
        lines.append(
            f"{tier:>10} {row['clients']:>8d} {row['rps']:>8.0f} r/s "
            f"{row['p50']:>8.2f} {row['p99']:>8.2f} {spread[label]:>14}"
        )
    lines.append(
        f"shared weights: {shared['total_kb']} kB published once; marginal "
        f"private RssAnon per extra model "
        f"{shared['marginal_anon_per_model_kb']} kB "
        f"(one copy would be ~{shared['per_model_kb']} kB each)"
    )

    monotonic = all(
        rows[str(hi)]["rps"] >= rows[str(lo)]["rps"]
        for lo, hi in zip(PROC_COUNTS, PROC_COUNTS[1:])
    )
    payload = {
        "cpu_count": cores,
        "blas_threads": blas_threads,
        "worker_blas_threads": worker_blas_threads,
        "regime": "parallel" if cores >= max(PROC_COUNTS) else "cpu_limited",
        "regime_note": (
            "cores >= 4: worker processes score concurrently; throughput "
            "must rise strictly with procs"
            if cores >= max(PROC_COUNTS) else
            f"{cores} core(s): procs beyond the core count time-share the "
            "CPU, so the bar is strict increase up to min(procs, cores) "
            "and no-collapse past it"
        ),
        "requests": REQUESTS,
        "drives_per_row": DRIVES,
        "clients_per_proc": CLIENTS_PER_PROC,
        "models": list(MODELS),
        "results": rows,
        "throughput_rps": {label: row["rps"] for label, row in rows.items()},
        "p99_ms": {label: row["p99"] for label, row in rows.items()},
        "routing": routing,
        "monotonic_increasing": monotonic,
        "bitwise_identical_to_inprocess": True,  # _drive raises otherwise
        "shared_memory": shared,
        "owner_mappings": owners_check,
        "single_copy_verified": True,  # the probe raises otherwise
    }
    return "\n".join(lines), payload


def _assert_acceptance(payload: dict) -> None:
    """The ISSUE's bar, honestly conditioned on available cores.

    Wherever ``min(procs, cores)`` grows there is real CPU headroom and
    throughput must strictly rise; once procs exceed cores the extra
    processes time-share one CPU and the bar is "routing locality keeps
    it from collapsing" (within 25%) — the JSON carries ``cpu_count`` and
    ``regime`` so committed numbers say which bar applied.
    """
    cores = payload["cpu_count"]
    rps = payload["throughput_rps"]
    for lo, hi in zip(PROC_COUNTS, PROC_COUNTS[1:]):
        if min(hi, cores) > min(lo, cores):
            assert rps[str(hi)] > rps[str(lo)], rps
        else:
            assert rps[str(hi)] >= 0.75 * rps[str(lo)], rps
    assert payload["bitwise_identical_to_inprocess"]
    assert payload["single_copy_verified"]
    per_model = payload["shared_memory"]["per_model_kb"]
    for delta in payload["shared_memory"]["marginal_anon_per_model_kb"]:
        assert delta < 0.35 * per_model, payload["shared_memory"]


def test_multiproc_serving(benchmark):
    table, payload = benchmark.pedantic(run_multiproc_bench, rounds=1,
                                        iterations=1)
    save_result("multiproc_serving", table)
    save_json("multiproc", payload)
    _assert_acceptance(payload)


def main() -> None:
    table, payload = run_multiproc_bench()
    save_result("multiproc_serving", table)
    save_json("multiproc", payload)
    _assert_acceptance(payload)


if __name__ == "__main__":
    main()

"""Lifecycle recovery: rollback latency and availability under injected faults.

Not a paper table: this bench measures the serving guardrails
(``repro.serve.lifecycle`` + ``repro.robustness.chaos``).  Two parts:

**Rollback latency.**  A good model is published and promoted, then a
deliberately-bad candidate (NaN weights — every score non-finite) is
pushed live.  The watchdog detects the regression on its probe windows
and demotes to the prior version atomically.  Reported per trial:
detection-to-rollback wall time (publish → demote) and the watchdog
check itself, with served scores verified bitwise against the
pre-publish baseline.

**Availability per fault.**  Each scenario in
:data:`repro.robustness.chaos.CHAOS_FAULTS` is injected into a fresh
live server via :class:`~repro.robustness.chaos.ChaosHarness`, and a
burst of requests is sent to the affected model and to an untouched
healthy model.  The graceful-degradation contract: the healthy model
answers non-5xx under *every* fault, and the affected model either keeps
serving (fallback, retries), sheds explicitly (429), or fails typed and
contained (worker exception holds only its own requests).

Environment: ``REPRO_BENCH_EPOCHS`` (default 8) for training;
``REPRO_BENCH_LIFECYCLE_TRIALS`` (default 3) rollback trials;
``REPRO_BENCH_LIFECYCLE_REQUESTS`` (default 12) requests per burst.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

from repro import TFMAE, TFMAEConfig
from repro.datasets import get_dataset
from repro.robustness.chaos import CHAOS_FAULTS, ChaosHarness
from repro.serve import InferenceServer, LifecycleManager, ModelRegistry

from _common import EPOCHS, SEED, save_json, save_result

DATASET = "NIPS-TS-Global"
WINDOW = 100
TRIALS = int(os.environ.get("REPRO_BENCH_LIFECYCLE_TRIALS", "3"))
REQUESTS = int(os.environ.get("REPRO_BENCH_LIFECYCLE_REQUESTS", "12"))


def _fit_detector() -> tuple[TFMAE, np.ndarray]:
    dataset = get_dataset(DATASET, seed=SEED, scale=0.02).normalised()
    config = TFMAEConfig(window_size=WINDOW, d_model=32, num_layers=2, num_heads=4,
                         anomaly_ratio=2.5, epochs=EPOCHS, batch_size=16,
                         learning_rate=1e-3, seed=SEED)
    detector = TFMAE(config)
    detector.fit(dataset.train, dataset.validation)
    return detector, dataset.test


def _probe_windows(series: np.ndarray, count: int = 24) -> np.ndarray:
    starts = np.linspace(0, series.shape[0] - WINDOW, count).astype(int)
    return np.stack([series[s : s + WINDOW] for s in starts])


def _post(url: str, payload: dict) -> int:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url + "/score", data=body, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status
    except urllib.error.HTTPError as error:
        error.read()
        return error.code


# ----------------------------------------------------------------------
# part 1: detection-to-rollback latency
# ----------------------------------------------------------------------
def run_rollback_trials(detector: TFMAE, test: np.ndarray) -> dict:
    windows = _probe_windows(test)
    rollback_s: list[float] = []
    watchdog_s: list[float] = []
    for _ in range(TRIALS):
        with tempfile.TemporaryDirectory() as tmp:
            registry = ModelRegistry(Path(tmp))
            manager = LifecycleManager(registry, "tfmae", detect_anomaly=True)
            manager.publish_guarded(detector, windows)
            live, _ = registry.load("tfmae")
            baseline = live.score_last(windows)

            candidate, _ = registry.load_fresh("tfmae")
            next(candidate.model.parameters()).data[:] = np.nan
            manager.publish_guarded(candidate, windows)

            started = time.perf_counter()
            report = manager.watchdog_check()
            watchdog_s.append(time.perf_counter() - started)
            assert report.rolled_back and report.restored == "v1", report
            rollback_s.append(manager.history[-1].latency)

            restored, version = registry.load("tfmae")
            assert version == "v1"
            np.testing.assert_array_equal(restored.score_last(windows), baseline)
    return {
        "trials": TRIALS,
        "publish_to_rollback_ms_mean": float(np.mean(rollback_s)) * 1e3,
        "publish_to_rollback_ms_max": float(np.max(rollback_s)) * 1e3,
        "watchdog_check_ms_mean": float(np.mean(watchdog_s)) * 1e3,
        "restored_bitwise": True,
    }


# ----------------------------------------------------------------------
# part 2: availability per fault
# ----------------------------------------------------------------------
def _burst(url: str, model: str, window: list) -> dict:
    statuses = [_post(url, {"model": model, "window": window}) for _ in range(REQUESTS)]
    return {
        "requests": len(statuses),
        "ok": sum(1 for s in statuses if s == 200),
        "shed": sum(1 for s in statuses if s == 429),
        "unavailable": sum(1 for s in statuses if s == 503),
        "failed": sum(1 for s in statuses if s >= 500 and s != 503),
        "availability": sum(1 for s in statuses if s < 500) / len(statuses),
    }


def run_fault_scenarios(detector: TFMAE, test: np.ndarray) -> dict:
    window = test[:WINDOW].tolist()
    results: dict[str, dict] = {}
    for fault in CHAOS_FAULTS:
        with tempfile.TemporaryDirectory() as tmp:
            registry = ModelRegistry(Path(tmp), load_retries=3, retry_backoff=0.01)
            registry.publish("primary", detector)
            registry.publish("primary", detector)  # v2: fallback headroom
            registry.publish("healthy", detector)
            server = InferenceServer(registry, port=0, max_batch_size=4, max_queue=8)
            with server, ChaosHarness(server) as chaos:
                injected_at = time.perf_counter()
                if fault in ("corrupt_artifact", "truncated_artifact"):
                    chaos.corrupt_artifact(
                        "primary", truncate=(fault == "truncated_artifact")
                    )
                elif fault == "slow_load":
                    chaos.evict("primary")
                    chaos.inject_slow_load(0.2, models={"primary"})
                elif fault == "transient_load_failure":
                    chaos.evict("primary")
                    chaos.inject_transient_load_failures(times=2, models={"primary"})
                elif fault == "worker_exception":
                    chaos.inject_worker_exception(times=2, models={"primary"})
                elif fault == "queue_saturation":
                    chaos.saturate_queue("primary:v2", np.asarray(test[:WINDOW]))

                affected = _burst(server.url, "primary", window)
                healthy = _burst(server.url, "healthy", window)

                if fault == "queue_saturation":
                    chaos.release_queue()
                else:
                    chaos.clear()
                recovered_at = None
                for _ in range(20):
                    if _post(server.url, {"model": "primary", "window": window}) == 200:
                        recovered_at = time.perf_counter()
                        break
                    time.sleep(0.05)
                results[fault] = {
                    "expect": CHAOS_FAULTS[fault]["expect"],
                    "affected": affected,
                    "healthy": healthy,
                    "recovery_s": (
                        recovered_at - injected_at if recovered_at is not None else None
                    ),
                }
    return results


def run_lifecycle_bench() -> tuple[str, dict]:
    detector, test = _fit_detector()
    detector.score_last(_probe_windows(test))  # warm caches outside the clock

    rollback = run_rollback_trials(detector, test)
    faults = run_fault_scenarios(detector, test)

    header = (f"{'fault':<24} {'affected avail':>14} {'healthy avail':>14} "
              f"{'shed':>5} {'recovery s':>11}")
    lines = [
        f"Lifecycle recovery ({DATASET} profile, {REQUESTS} requests/burst, "
        f"{TRIALS} rollback trials)",
        f"bad publish -> rollback: "
        f"{rollback['publish_to_rollback_ms_mean']:.1f}ms mean / "
        f"{rollback['publish_to_rollback_ms_max']:.1f}ms max "
        f"(watchdog check {rollback['watchdog_check_ms_mean']:.1f}ms, "
        f"restored scores bitwise)",
        header,
        "-" * len(header),
    ]
    for fault, row in faults.items():
        recovery = row["recovery_s"]
        lines.append(
            f"{fault:<24} {row['affected']['availability']:>13.0%} "
            f"{row['healthy']['availability']:>14.0%} "
            f"{row['affected']['shed']:>5d} "
            f"{recovery:>11.3f}" if recovery is not None else
            f"{fault:<24} {row['affected']['availability']:>13.0%} "
            f"{row['healthy']['availability']:>14.0%} "
            f"{row['affected']['shed']:>5d} {'-':>11}"
        )
    payload = {"rollback": rollback, "faults": faults}
    return "\n".join(lines), payload


def test_lifecycle_recovery(benchmark):
    table, payload = benchmark.pedantic(run_lifecycle_bench, rounds=1, iterations=1)
    save_result("lifecycle_recovery", table)
    save_json("lifecycle", payload)
    # The acceptance criteria: healthy models stay fully available under
    # every fault, and a bad publish is detected and rolled back with the
    # prior version's scores restored bitwise.
    for fault, row in payload["faults"].items():
        assert row["healthy"]["availability"] == 1.0, fault
    assert payload["rollback"]["restored_bitwise"] is True
    assert payload["rollback"]["publish_to_rollback_ms_max"] > 0


def main() -> None:
    table, payload = run_lifecycle_bench()
    save_result("lifecycle_recovery", table)
    save_json("lifecycle", payload)


if __name__ == "__main__":
    main()

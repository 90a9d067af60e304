"""Trace-compiled scoring: tape-replay JIT vs the interpreted graph.

Not a paper table: this bench tracks the ``repro.nn.jit`` scoring
backend.  A small TFMAE is fitted per configuration, then ``score_last``
wall-clock is measured with the JIT on and off across model sizes,
compute dtypes, and batch sizes.  Replay must stay bitwise-identical to
the interpreted graph (asserted here), so every speedup row is pure
dispatch/allocation overhead removed — the numpy math is the same.

A variable-batch row replays the serving micro-batcher's output: 200
``score_last`` calls with batch sizes uniform in 1-32 at the
serve-w100-d32 shape, the JIT on and off interleaved call by call.  It
reports p50/p99 per arm and the scoring tape evictions, and the pytest
entry point asserts zero evictions and JIT on no slower than JIT off at
both percentiles.

Two baselines are reported:

* **in-tree interpreted** — ``use_jit(False)`` on the current tree.
  Conservative: the current interpreted path is itself faster than the
  PR-3-era one (op-hook dispatch fast path), so ratios against it
  understate the JIT's gain over history.
* **PR-3 interpreted** — when ``REPRO_BENCH_JIT_BASELINE`` points at a
  PR-3-era checkout's ``src`` directory (``git worktree add /tmp/pr3
  <pr3-commit>`` → ``REPRO_BENCH_JIT_BASELINE=/tmp/pr3/src``), the same
  fit + ``score_last`` timing runs there in a subprocess, giving the
  true pre-JIT fused interpreted baseline the acceptance criterion names
  (single-window ``score_last`` >= 2.0x; the stream configs measured
  2.04x when the JIT landed and 1.80x in the committed
  ``BENCH_jit_scoring.json``, re-measured on a noisier host).

Run directly for the committed artifacts::

    PYTHONPATH=src REPRO_BENCH_JIT_BASELINE=/tmp/pr3/src \
        python benchmarks/bench_jit_scoring.py
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro import TFMAE, TFMAEConfig
from repro.nn import jit

from _common import SEED, save_json, save_result

#: (name -> TFMAEConfig overrides).  The stream configs model the online
#: scoring loop (short windows, small model, one window per call); the
#: serve configs match bench_serving_throughput's model.
CONFIGS = {
    "stream-w50-d16": dict(window_size=50, d_model=16, num_layers=1, num_heads=2),
    "stream-w50-d16-f32": dict(
        window_size=50, d_model=16, num_layers=1, num_heads=2,
        compute_dtype="float32",
    ),
    "serve-w100-d32": dict(window_size=100, d_model=32, num_layers=2, num_heads=4),
    "serve-w100-d32-f32": dict(
        window_size=100, d_model=32, num_layers=2, num_heads=4,
        compute_dtype="float32",
    ),
}
BATCH_SIZES = (1, 32)
REPEATS = int(os.environ.get("REPRO_BENCH_JIT_REPEATS", "60"))

#: Variable-batch row: ``score_last`` calls with batch sizes uniform in
#: 1-32, the micro-batcher's output.  The score chunk is the serving
#: tier's max batch, so each call reaches the model as one batch.
VARIABLE_CONFIG = "serve-w100-d32"
VARIABLE_CALLS = 200
VARIABLE_MAX_BATCH = 32
VARIABLE_WARMUP = 8


def _series(length: int, rng: np.random.Generator) -> np.ndarray:
    t = np.arange(length)
    base = np.sin(2 * np.pi * t / 25.0)
    return (base + 0.1 * rng.normal(size=length))[:, None]


def _fit_detector(overrides: dict) -> TFMAE:
    rng = np.random.default_rng(SEED)
    config = TFMAEConfig(
        **{"batch_size": 16, "epochs": 1, "learning_rate": 1e-3, "seed": SEED,
           **overrides}
    )
    detector = TFMAE(config)
    detector.fit(_series(1200, rng), _series(400, rng))
    return detector


def _windows(overrides: dict, batch: int) -> np.ndarray:
    rng = np.random.default_rng(SEED + 1)
    return np.stack(
        [_series(overrides["window_size"], rng)[:, 0] for _ in range(batch)]
    )[:, :, None]


def _host() -> dict:
    return {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def _best(fn, repeats: int = REPEATS, warmup: int = 8) -> float:
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


#: Runs inside the baseline checkout (no repro.nn.jit there): fit the
#: same detector, time interpreted score_last, print one JSON line.
_BASELINE_SCRIPT = """
import json, sys, time
import numpy as np
from repro import TFMAE, TFMAEConfig

spec = json.loads(sys.argv[1])
rng = np.random.default_rng(spec["seed"])

def series(length, rng):
    t = np.arange(length)
    return (np.sin(2 * np.pi * t / 25.0) + 0.1 * rng.normal(size=length))[:, None]

config = TFMAEConfig(batch_size=16, epochs=1, learning_rate=1e-3,
                     seed=spec["seed"], **spec["overrides"])
detector = TFMAE(config)
detector.fit(series(1200, rng), series(400, rng))
out = {}
for batch in spec["batches"]:
    wrng = np.random.default_rng(spec["seed"] + 1)
    windows = np.stack([series(spec["overrides"]["window_size"], wrng)[:, 0]
                        for _ in range(batch)])[:, :, None]
    for _ in range(spec["warmup"]):
        detector.score_last(windows)
    best = float("inf")
    for _ in range(spec["repeats"]):
        start = time.perf_counter()
        detector.score_last(windows)
        best = min(best, time.perf_counter() - start)
    out[str(batch)] = best * 1e3
print(json.dumps(out))
"""


def _baseline_times(name: str, overrides: dict) -> dict[str, float] | None:
    """PR-3 interpreted score_last ms per batch size, or None when unset."""
    baseline = os.environ.get("REPRO_BENCH_JIT_BASELINE")
    if not baseline:
        return None
    spec = {
        "seed": SEED,
        "overrides": overrides,
        "batches": list(BATCH_SIZES),
        "warmup": 8,
        "repeats": REPEATS,
    }
    env = dict(os.environ, PYTHONPATH=baseline)
    result = subprocess.run(
        [sys.executable, "-c", _BASELINE_SCRIPT, json.dumps(spec)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def _variable_batch_row() -> tuple[list[str], dict]:
    """JIT on vs off over a seeded stream of mixed batch sizes.

    Each call scores one batch in both arms, alternating which arm goes
    first, so host drift lands on both; the first ``VARIABLE_WARMUP``
    calls are unmeasured.  Evictions count over the measured calls.
    """
    overrides = dict(CONFIGS[VARIABLE_CONFIG], batch_size=VARIABLE_MAX_BATCH)
    detector = _fit_detector(overrides)
    model = detector.model
    rng = np.random.default_rng(SEED + 2)
    pool = _windows(overrides, 64)
    times = {True: [], False: []}
    evictions = None
    for call in range(VARIABLE_WARMUP + VARIABLE_CALLS):
        if call == VARIABLE_WARMUP:
            evictions = model.jit_evictions
        batch = int(rng.integers(1, VARIABLE_MAX_BATCH + 1))
        windows = pool[rng.integers(len(pool), size=batch)]
        scores = {}
        for enabled in ((True, False) if call % 2 else (False, True)):
            with jit.use_jit(enabled):
                start = time.perf_counter()
                scores[enabled] = detector.score_last(windows)
                elapsed = time.perf_counter() - start
            if call >= VARIABLE_WARMUP:
                times[enabled].append(elapsed * 1e3)
        if not np.array_equal(scores[True], scores[False]):
            raise AssertionError(
                f"jit replay diverged from interpreted at B={batch} (call {call})"
            )
    evictions = model.jit_evictions - evictions
    entry = {"calls": VARIABLE_CALLS, "jit_evictions": evictions}
    for enabled, arm in ((False, "interpreted"), (True, "jit")):
        entry[f"{arm}_p50_ms"] = round(float(np.percentile(times[enabled], 50)), 4)
        entry[f"{arm}_p99_ms"] = round(float(np.percentile(times[enabled], 99)), 4)
    rows = [
        "",
        f"variable batch: {VARIABLE_CALLS} score_last calls, batch uniform in "
        f"1-{VARIABLE_MAX_BATCH}, {VARIABLE_CONFIG} (score chunk "
        f"{VARIABLE_MAX_BATCH}), arms interleaved",
        f"{'arm':<12} {'p50_ms':>8} {'p99_ms':>8}",
        f"{'interpreted':<12} {entry['interpreted_p50_ms']:>8.3f} "
        f"{entry['interpreted_p99_ms']:>8.3f}",
        f"{'jit':<12} {entry['jit_p50_ms']:>8.3f} {entry['jit_p99_ms']:>8.3f}"
        f"   evictions {evictions}",
    ]
    return rows, entry


def run_jit_bench() -> tuple[str, dict]:
    rows = [
        "trace-compiled scoring: score_last wall-clock, jit vs interpreted",
        f"(best of {REPEATS}; pr3_ms from REPRO_BENCH_JIT_BASELINE when set)",
        f"{'config':<22} {'batch':>5} {'interp_ms':>10} {'jit_ms':>8} "
        f"{'speedup':>8} {'pr3_ms':>8} {'vs_pr3':>7}",
    ]
    results: dict[str, dict] = {}
    for name, overrides in CONFIGS.items():
        detector = _fit_detector(overrides)
        baseline = _baseline_times(name, overrides)
        for batch in BATCH_SIZES:
            windows = _windows(overrides, batch)
            with jit.use_jit(False):
                interp_scores = detector.score_last(windows)
                interp = _best(lambda: detector.score_last(windows))
            with jit.use_jit(True):
                jit_scores = detector.score_last(windows)
                replay = _best(lambda: detector.score_last(windows))
            if not np.array_equal(interp_scores, jit_scores):
                raise AssertionError(
                    f"jit replay diverged from interpreted at {name} B={batch}"
                )
            pr3_ms = baseline[str(batch)] if baseline else None
            entry = {
                "interpreted_ms": round(interp * 1e3, 4),
                "jit_ms": round(replay * 1e3, 4),
                "speedup_vs_interpreted": round(interp / replay, 3),
            }
            if pr3_ms is not None:
                entry["pr3_interpreted_ms"] = round(pr3_ms, 4)
                entry["speedup_vs_pr3"] = round(pr3_ms / (replay * 1e3), 3)
            results[f"{name}/B{batch}"] = entry
            pr3_text = f"{pr3_ms:>8.3f}" if pr3_ms is not None else f"{'-':>8}"
            vs_text = (
                f"{pr3_ms / (replay * 1e3):>6.2f}x" if pr3_ms is not None
                else f"{'-':>7}"
            )
            rows.append(
                f"{name:<22} {batch:>5} {interp * 1e3:>10.3f} "
                f"{replay * 1e3:>8.3f} {interp / replay:>7.2f}x "
                f"{pr3_text} {vs_text}"
            )
    single = {
        key: entry for key, entry in results.items() if key.endswith("/B1")
    }
    best_key = max(
        single,
        key=lambda k: single[k].get(
            "speedup_vs_pr3", single[k]["speedup_vs_interpreted"]
        ),
    )
    best = single[best_key]
    headline = best.get("speedup_vs_pr3", best["speedup_vs_interpreted"])
    rows.append("")
    rows.append(
        f"acceptance: single-window score_last best speedup = {headline:.2f}x "
        f"({best_key}, target >= 2.0x vs PR 3 interpreted)"
    )
    variable_rows, variable = _variable_batch_row()
    rows.extend(variable_rows)
    results[f"{VARIABLE_CONFIG}/variable-batch"] = variable
    payload = {"results": results, "host": _host(), "headline_single_window": {
        "config": best_key, "speedup": headline,
        "baseline": "pr3" if "speedup_vs_pr3" in best else "in-tree",
    }}
    return "\n".join(rows), payload


def test_jit_scoring(benchmark):
    detector = _fit_detector(CONFIGS["stream-w50-d16"])
    windows = _windows(CONFIGS["stream-w50-d16"], 1)
    with jit.use_jit(True):
        detector.score_last(windows)  # trace once outside the timer
        benchmark(lambda: detector.score_last(windows))
    table, payload = run_jit_bench()
    save_result("jit_scoring", table)
    save_json("jit_scoring", payload)
    # Replay must beat the interpreted path on every single-window row,
    # and be no worse under mixed batch sizes, with no tape evictions.
    for key, entry in payload["results"].items():
        if key.endswith("/B1"):
            assert entry["speedup_vs_interpreted"] > 1.0, (key, entry)
    variable = payload["results"][f"{VARIABLE_CONFIG}/variable-batch"]
    assert variable["jit_evictions"] == 0, variable
    assert variable["jit_p50_ms"] <= variable["interpreted_p50_ms"], variable
    assert variable["jit_p99_ms"] <= variable["interpreted_p99_ms"], variable


def main() -> None:
    table, payload = run_jit_bench()
    save_result("jit_scoring", table)
    save_json("jit_scoring", payload)


if __name__ == "__main__":
    main()

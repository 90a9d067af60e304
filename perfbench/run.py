"""Run one perfbench workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload http-score --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with spans recorded around the
calls into each layer and prints every per-layer metric instead, and
writes the spans to ``.perfbench/trace-<workload>-<seed>.jsonl``.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
A run without failed operations that still cannot measure what it
claims (the load generator fell behind, or too few samples for a tail)
exits with status 3 and prints no result; a run with failed operations
always prints its result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, here and in every process
# this benchmark starts (they inherit the environment).
BLAS_THREADS = "1"
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("http-score", "burst-score", "refit-cycle")
INVALID_EXIT = 3


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_system() -> float:
    """Import the system under test from ``src/``; returns the seconds taken."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        raise SystemExit(f"no src/repro under {ROOT}: run from the root of a checkout")
    started = time.perf_counter()
    sys.path.insert(0, str(source))
    import repro  # noqa: F401
    import repro.serve  # noqa: F401
    return time.perf_counter() - started


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    import_s = _import_system()

    import harness
    import burst_score
    import http_score
    import refit_cycle

    runners = {"http-score": http_score.run, "burst-score": burst_score.run,
               "refit-cycle": refit_cycle.run}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_dir = ROOT / ".perfbench" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = runners[args.workload](args.seed, args.seconds, bool(args.trace), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        tracer = outcome.tracer
        if outcome.completed is not None and tracer.items["model.score_last"] != outcome.completed:
            outcome.fail(f"model.windows_scored {tracer.items['model.score_last']} != "
                         f"{outcome.completed} windows completed", wrong=True)
    if outcome.invalid and not outcome.failed:
        for reason in outcome.invalid:
            print(f"invalid run: {reason}", file=sys.stderr)
        return INVALID_EXIT
    outcome.notes += [f"invalid: {reason}" for reason in outcome.invalid]
    if args.trace:
        tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.jsonl")
        metrics = harness.per_layer_metrics(outcome, import_s)
        declared = spec["per_layer"]
    else:
        metrics = outcome.metrics
        declared = spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    reported = {name: unit for name, (_, unit, _) in metrics.items()}
    if reported != units:
        raise RuntimeError(f"metrics {reported} do not match BENCHMARK.json {units}")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} blas_threads {BLAS_THREADS} import_s {import_s:.3f}")
    for note in outcome.notes:
        print(note)
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit:10s} n={samples}")
    print(f"attempted {outcome.attempted} failed {outcome.failed} wrong {outcome.wrong}")
    print(json.dumps({
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

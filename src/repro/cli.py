"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-datasets``
    Print the registered benchmark datasets with their Table II statistics.
``list-methods``
    Print TFMAE and the 14 baselines with their paper categories.
``run``
    Train one detector on one dataset and print P/R/F1 under the paper's
    protocol, e.g.::

        python -m repro run --method TFMAE --dataset SMD --scale 0.01 --epochs 6
``serve``
    Host a model registry behind the micro-batched JSON-over-HTTP
    inference server (see docs/serving.md), e.g.::

        python -m repro serve --registry ./model-registry --port 8080
        python -m repro serve --demo          # fit + publish + serve a demo model
``analyze``
    Static analysis (see docs/analysis.md): the repo-invariant linter,
    the interprocedural concurrency pass (lock-order cycles, blocking
    calls under locks, thread-local policy discipline), and/or the model
    shape/dtype/grad-flow checker, e.g.::

        python -m repro analyze --all         # every layer, exit 1 on findings
        python -m repro analyze lint --json
        python -m repro analyze concurrency
        python -m repro analyze shapecheck
"""

from __future__ import annotations

import argparse
import sys

from .baselines import BASELINE_REGISTRY
from .core import TFMAE, TFMAEConfig, preset_for
from .datasets import available_datasets, get_dataset
from .eval import evaluate_detector, format_results_table

__all__ = ["main", "build_parser"]

_CATEGORIES = {
    "LOF": "density", "DAGMM": "density", "IForest": "tree",
    "DSVDD": "clustering", "THOC": "clustering",
    "OmniAno": "reconstruction", "TimesNet": "reconstruction", "GPT4TS": "reconstruction",
    "USAD": "adversarial", "BeatGAN": "adversarial", "DAEMON": "adversarial",
    "TranAD": "adversarial",
    "AnoTran": "contrastive", "DCdetector": "contrastive",
    "TFMAE": "this paper",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TFMAE reproduction (ICDE 2024) command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-datasets", help="show registered benchmark datasets")
    sub.add_parser("list-methods", help="show TFMAE and the 14 baselines")

    run = sub.add_parser("run", help="evaluate one method on one dataset")
    run.add_argument("--method", default="TFMAE", choices=sorted(_CATEGORIES))
    run.add_argument("--dataset", default="NIPS-TS-Global", choices=available_datasets())
    run.add_argument("--scale", type=float, default=0.01,
                     help="dataset length multiplier vs Table II (default 0.01)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--epochs", type=int, default=6)
    run.add_argument("--anomaly-ratio", type=float, default=None,
                     help="threshold ratio r%% (default: dataset preset)")
    run.add_argument("--no-adjust", action="store_true",
                     help="skip point adjustment when computing metrics")
    run.add_argument("--checkpoint-dir", default=None,
                     help="TFMAE only: write atomic training checkpoints to "
                          "this directory (see docs/robustness.md)")
    run.add_argument("--resume", action="store_true",
                     help="TFMAE only: resume training from --checkpoint-dir "
                          "when a compatible checkpoint exists")

    serve = sub.add_parser("serve", help="serve registered models over HTTP")
    serve.add_argument("--registry", default="./model-registry",
                       help="model registry directory (default ./model-registry)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port; 0 binds an ephemeral port")
    serve.add_argument("--max-batch-size", type=int, default=32,
                       help="most windows coalesced into one forward pass")
    serve.add_argument("--queue-size", type=int, default=256,
                       help="bounded request queue; beyond it requests are "
                            "shed with HTTP 429")
    serve.add_argument("--threads", type=int, default=2,
                       help="scoring worker threads for the in-process tier "
                            "(ignored when --procs > 0)")
    serve.add_argument("--procs", type=int, default=0,
                       help="scoring worker processes (shards past the GIL "
                            "with shared-memory weights); 0 keeps the "
                            "in-process thread tier")
    serve.add_argument("--max-inflight", type=int, default=64,
                       help="per-model in-flight quota in the process tier; "
                            "beyond it requests are shed with HTTP 429")
    serve.add_argument("--load-retries", type=int, default=2,
                       help="transient artifact-load failures retried per "
                            "request (capped exponential backoff)")
    serve.add_argument("--retry-backoff", type=float, default=0.05,
                       help="base backoff delay in seconds between load retries")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive load failures before a model's "
                            "circuit breaker opens")
    serve.add_argument("--breaker-reset", type=float, default=30.0,
                       help="seconds an open circuit breaker waits before "
                            "admitting a half-open probe load")
    serve.add_argument("--demo", action="store_true",
                       help="fit a small TFMAE on synthetic data, publish it "
                            "as 'demo', then serve (no registry required)")

    analyze = sub.add_parser(
        "analyze", help="repo linter, concurrency analyzer, model shape checker")
    analyze.add_argument("what", nargs="?",
                         choices=["lint", "concurrency", "shapecheck"],
                         help="run one layer only (default: all of them)")
    analyze.add_argument("--all", action="store_true", dest="run_all",
                         help="run every analysis layer (the default when no "
                              "positional is given)")
    analyze.add_argument("--json", action="store_true",
                         help="machine-readable lint report")
    analyze.add_argument("--path", action="append", default=None,
                         help="file or tree to lint (repeatable; default: the "
                              "installed repro package)")
    return parser


def _build_detector(args: argparse.Namespace):
    if args.method == "TFMAE":
        base = TFMAEConfig(window_size=100, d_model=32, num_layers=2, num_heads=4,
                           batch_size=16, epochs=args.epochs, learning_rate=1e-3,
                           seed=args.seed)
        overrides = {}
        if args.anomaly_ratio is not None:
            overrides["anomaly_ratio"] = args.anomaly_ratio
        if args.checkpoint_dir is not None:
            overrides["checkpoint_dir"] = args.checkpoint_dir
            overrides["resume"] = args.resume
        elif args.resume:
            raise SystemExit("--resume requires --checkpoint-dir")
        return TFMAE(preset_for(args.dataset, base=base, **overrides))
    if args.checkpoint_dir is not None or args.resume:
        raise SystemExit("--checkpoint-dir/--resume are only supported for --method TFMAE")
    ctor = BASELINE_REGISTRY[args.method]
    ratio = args.anomaly_ratio if args.anomaly_ratio is not None else 1.0
    if args.method in ("LOF", "IForest"):
        return ctor(anomaly_ratio=ratio, seed=args.seed)
    return ctor(window_size=100, epochs=args.epochs, batch_size=16,
                anomaly_ratio=ratio, seed=args.seed)


def _validate_serve_args(args: argparse.Namespace) -> None:
    """Reject nonsensical worker/quota counts before any socket binds."""
    if args.procs < 0:
        raise SystemExit(f"--procs must be >= 0, got {args.procs}")
    if args.threads < 1:
        raise SystemExit(f"--threads must be >= 1, got {args.threads}")
    if args.max_inflight < 1:
        raise SystemExit(f"--max-inflight must be >= 1, got {args.max_inflight}")


def _build_server(args: argparse.Namespace):
    """Construct (but do not start) the inference server for ``serve``."""
    from .serve import InferenceServer, ModelRegistry

    _validate_serve_args(args)
    registry = ModelRegistry(
        args.registry,
        load_retries=args.load_retries,
        retry_backoff=args.retry_backoff,
        breaker_threshold=args.breaker_threshold,
        breaker_reset=args.breaker_reset,
    )
    if args.demo:
        print("fitting demo TFMAE on a small NIPS-TS-Global realisation...")
        dataset = get_dataset("NIPS-TS-Global", seed=0, scale=0.02).normalised()
        config = TFMAEConfig(window_size=100, d_model=32, num_layers=2, num_heads=4,
                             anomaly_ratio=2.5, epochs=3, batch_size=16,
                             learning_rate=1e-3)
        detector = TFMAE(config)
        detector.fit(dataset.train, dataset.validation)
        version = registry.publish("demo", detector)
        print(f"published demo:{version} to {args.registry}")
    elif not registry.models():
        raise SystemExit(
            f"registry {args.registry} has no models; publish one with "
            "repro.serve.ModelRegistry.publish() or pass --demo"
        )
    return InferenceServer(
        registry,
        host=args.host,
        port=args.port,
        max_batch_size=args.max_batch_size,
        max_queue=args.queue_size,
        workers=args.threads,
        procs=args.procs,
        max_inflight_per_model=args.max_inflight,
    )


def _run_analyze(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis import ShapeCheckError, preflight_model
    from .analysis.concurrency import analyze_concurrency
    from .analysis.lint import format_json, format_text, lint_paths, stale_suppressions

    run_lint = args.run_all or args.what in (None, "lint")
    run_concurrency = args.run_all or args.what in (None, "concurrency")
    run_shapecheck = args.run_all or args.what in (None, "shapecheck")
    exit_code = 0

    if run_lint or run_concurrency:
        paths = args.path if args.path else [str(Path(__file__).parent)]
        violations = []
        if run_lint:
            violations.extend(lint_paths(paths))
        if run_concurrency:
            violations.extend(analyze_concurrency(paths))
        violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
        print(format_json(violations) if args.json else format_text(violations))
        if violations:
            exit_code = 1
        if run_lint:
            # Stale ``# repro: noqa[...]`` markers: warnings only — a
            # suppression that no longer suppresses anything would
            # silently swallow a future regression.  Concurrency raw
            # findings feed in so cross-file suppressions stay honest.
            raw = analyze_concurrency(paths, respect_noqa=False)
            stream = sys.stderr if args.json else sys.stdout
            for path, line, code in stale_suppressions(paths, extra_raw=raw):
                print(f"warning: {path}:{line}: stale suppression "
                      f"noqa[{code}] — the rule no longer fires here",
                      file=stream)

    if run_shapecheck:
        from .core.model import TFMAEModel

        # The shipped graphs: full model, both precision policies, and the
        # ablation branches that rewire the architecture.
        variants: dict[str, dict] = {
            "default": {},
            "float32": {"compute_dtype": "float32"},
            "temporal-only": {"use_frequency_branch": False},
            "frequency-only": {"use_temporal_branch": False},
            "non-adversarial": {"adversarial": False},
        }
        for name, overrides in variants.items():
            model = TFMAEModel(n_features=3, config=TFMAEConfig(**overrides))
            try:
                report = preflight_model(model)
                print(f"shapecheck {name}: {report.summary()}")
            except ShapeCheckError as error:
                print(f"shapecheck {name}: FAILED\n{error}")
                exit_code = 1

    return exit_code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list-datasets":
        print(f"{'dataset':<18} {'dim':>4} {'train':>9} {'val':>9} {'test':>9} {'AR%':>6}")
        for name in available_datasets():
            summary = get_dataset(name, scale=0.01).summary()
            print(f"{name:<18} {summary['dimension']:>4} {summary['train']:>9} "
                  f"{summary['validation']:>9} {summary['test']:>9} "
                  f"{summary['anomaly_ratio_pct']:>6.1f}")
        print("(lengths shown at scale=0.01; multiply by 100 for Table II sizes)")
        return 0

    if args.command == "list-methods":
        for name in sorted(_CATEGORIES):
            print(f"{name:<12} {_CATEGORIES[name]}")
        return 0

    if args.command == "serve":
        _build_server(args).serve_forever()
        return 0

    if args.command == "analyze":
        return _run_analyze(args)

    # run
    dataset = get_dataset(args.dataset, seed=args.seed, scale=args.scale)
    detector = _build_detector(args)
    result = evaluate_detector(detector, dataset, adjust=not args.no_adjust)
    log = getattr(detector, "training_log", None)
    if log is not None and log.resumed:
        print(f"resumed from checkpoint in {args.checkpoint_dir}")
    print(format_results_table([result], title=f"{args.method} on {args.dataset}"))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())

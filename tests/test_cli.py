"""CLI tests (``python -m repro``)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.method == "TFMAE"
        assert args.dataset == "NIPS-TS-Global"
        assert args.scale == 0.01

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--method", "Nope"])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "Nope"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.registry == "./model-registry"
        assert args.port == 8080
        assert args.max_batch_size == 32
        assert args.queue_size == 256
        assert args.procs == 0  # thread tier unless --procs asks for the pool
        assert args.max_inflight == 64
        assert not args.demo

    def test_serve_threads_flag(self):
        # The in-process tier scores on one thread; processes scale it.
        for argv in (["--threads", "4"], ["--workers", "3"], ["--max-delay-ms", "2"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", *argv])

    @pytest.mark.parametrize("flag, value", [
        ("--load-retries", "1"), ("--retry-backoff", "0.1"),
        ("--breaker-threshold", "5"), ("--breaker-reset", "10"),
    ])
    def test_serve_has_no_registry_default_flags(self, flag, value):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", flag, value])

    @pytest.mark.parametrize("argv, message", [
        (["serve", "--procs", "-1"], "--procs must be >= 0"),
        (["serve", "--procs", "-1", "--max-inflight", "0"], "--procs must be >= 0"),
        (["serve", "--procs", "2", "--max-inflight", "0"], "--max-inflight must be >= 1"),
        (["serve", "--procs", "0", "--max-inflight", "-1"], "--max-inflight must be >= 1"),
        (["serve", "--max-inflight", "0"], "--max-inflight must be >= 1"),
        (["serve", "--max-inflight", "-5"], "--max-inflight must be >= 1"),
    ])
    def test_serve_rejects_nonsensical_counts(self, argv, message):
        from repro.cli import _validate_serve_args

        args = build_parser().parse_args(argv)
        with pytest.raises(SystemExit, match=message):
            _validate_serve_args(args)

    def test_serve_accepts_valid_counts(self):
        from repro.cli import _validate_serve_args

        args = build_parser().parse_args(
            ["serve", "--procs", "0", "--max-inflight", "1"])
        _validate_serve_args(args)  # does not raise


class TestCommands:
    def test_list_datasets(self, capsys):
        assert main(["list-datasets"]) == 0
        out = capsys.readouterr().out
        assert "NIPS-TS-Global" in out
        assert "SWaT" in out

    def test_list_methods(self, capsys):
        assert main(["list-methods"]) == 0
        out = capsys.readouterr().out
        assert "TFMAE" in out
        assert "contrastive" in out

    def test_run_classical_method(self, capsys):
        code = main(["run", "--method", "IForest", "--dataset", "NIPS-TS-Global",
                     "--scale", "0.02", "--anomaly-ratio", "5.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "IForest" in out
        assert "NIPS-TS-Global" in out

    def test_run_tfmae_small(self, capsys):
        code = main(["run", "--method", "TFMAE", "--dataset", "NIPS-TS-Global",
                     "--scale", "0.02", "--epochs", "1", "--anomaly-ratio", "5.0"])
        assert code == 0
        assert "TFMAE" in capsys.readouterr().out

    def test_run_no_adjust(self, capsys):
        code = main(["run", "--method", "LOF", "--dataset", "NIPS-TS-Global",
                     "--scale", "0.02", "--anomaly-ratio", "5.0", "--no-adjust"])
        assert code == 0

    def test_serve_empty_registry_exits_with_guidance(self, tmp_path):
        from repro.cli import _build_server

        args = build_parser().parse_args(["serve", "--registry", str(tmp_path)])
        with pytest.raises(SystemExit, match="no models"):
            _build_server(args)

    def test_serve_builds_server_from_registry(self, tmp_path, rng, fast_config):
        """_build_server wires registry + batcher + HTTP front end from
        CLI flags; serve_forever() is the only piece not exercised."""
        import numpy as np

        from repro.cli import _build_server
        from repro.core import TFMAE
        from repro.serve import ModelRegistry

        t = np.arange(400)
        series = np.sin(2 * np.pi * t / 25.0)[:, None] + rng.normal(0, 0.05, (400, 1))
        detector = TFMAE(fast_config)
        detector.fit(series[:300], series[300:])
        ModelRegistry(tmp_path).publish("demo", detector)

        args = build_parser().parse_args(
            ["serve", "--registry", str(tmp_path), "--port", "0",
             "--max-batch-size", "4"]
        )
        server = _build_server(args)
        assert server.batcher.max_batch_size == 4
        assert server.pool is None  # --procs 0 default: thread tier
        with server:
            score = server.batcher.score("demo:v1", series[:50])
        assert score == detector.score(series[:50])[-1]

        # --procs switches the scoring tier to the process pool (built
        # but not started here: workers spawn on server start).
        args = build_parser().parse_args(
            ["serve", "--registry", str(tmp_path), "--port", "0",
             "--procs", "2", "--max-inflight", "8"]
        )
        pooled = _build_server(args)
        assert pooled.pool is not None
        assert pooled.pool.procs == 2
        assert pooled.pool.max_inflight_per_model == 8

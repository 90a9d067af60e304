"""Meta-test: the shipped tree stays lint- and shapecheck-clean forever.

Runs the real CLI entry point (`python -m repro analyze --all`) in-process
so any new violation in ``src/repro`` — or a shape/dtype/grad-flow break
in any shipped model variant — fails the default test suite, not just a
manual lint run.  Deliberately NOT marked slow.
"""

from __future__ import annotations

import json
from pathlib import Path

import repro
from repro.analysis.lint import lint_paths
from repro.cli import main


def test_analyze_all_runs_clean(capsys):
    assert main(["analyze", "--all"]) == 0
    out = capsys.readouterr().out
    assert "clean" in out
    assert "FAILED" not in out
    # every shipped graph variant was actually traced
    for variant in ("default", "float32", "temporal-only",
                    "frequency-only", "non-adversarial"):
        assert f"shapecheck {variant}" in out


def test_tree_has_no_lint_violations():
    package_root = Path(repro.__file__).parent
    violations = lint_paths([str(package_root)])
    assert violations == [], "\n".join(v.format() for v in violations)


def test_cli_json_output_is_parseable(capsys):
    assert main(["analyze", "lint", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_cli_exits_nonzero_on_violation(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import numpy as np\nx = np.random.normal()\n")
    assert main(["analyze", "lint", "--path", str(dirty)]) == 1
    assert "RNG001" in capsys.readouterr().out

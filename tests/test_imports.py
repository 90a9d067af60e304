"""The import graph: what a serving or training process loads.

Each case imports one package in a fresh interpreter and checks that a
module it has no use for stays unloaded: ``scipy.stats`` loads only
when :func:`repro.metrics.pot_threshold` runs, the static analysers
only under ``python -m repro analyze``, and the HTTP server only for
serving.  Pool workers import ``repro.serve`` too, so every one of them
starts without these.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

UNLOADED = [
    ("repro.serve", "scipy.stats"),
    ("repro.serve", "repro.analysis.lint"),
    ("repro.serve", "repro.analysis.concurrency"),
    ("repro.serve", "repro.robustness.chaos"),
    ("repro.serve", "repro.ensemble"),
    ("repro.core", "repro.serve.server"),
    ("repro.core", "repro.analysis.lint"),
]


@pytest.mark.parametrize("package, module", UNLOADED)
def test_import_leaves_module_unloaded(package, module):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = f"import sys, {package}; print({module!r} in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    assert result.stdout.strip() == "False"

"""The import graph: what a serving or training process loads.

Each case imports one package in a fresh interpreter and checks that a
module it has no use for stays unloaded: ``scipy.stats`` loads only
when :func:`repro.metrics.pot_threshold` runs, the static analysers
only under ``python -m repro analyze``, and the HTTP server only for
serving.  Pool workers import ``repro.serve`` too, so every one of them
starts without these.  The lockcheck cases check that ``import repro``
arms the runtime lock checker before any module-level lock exists.
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


def _probe(code: str, **env: str) -> str:
    """Run ``code`` in a fresh interpreter on this tree; its stdout."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    return result.stdout.strip()


@pytest.mark.parametrize("package, module", UNLOADED)
def test_import_leaves_module_unloaded(package, module):
    assert _probe(f"import sys, {package}; print({module!r} in sys.modules)") == "False"


@pytest.mark.parametrize("module, lock", [
    ("repro.core.model", "_SHARED_TAPES_LOCK"),
    ("repro.nn.jit", "_TRACES_LOCK"),
])
def test_lockcheck_env_tracks_module_level_locks(module, lock):
    probe = f"import {module} as m; print(type(m.{lock}).__name__)"
    assert _probe(probe, REPRO_LOCKCHECK="1") == "_TrackedLock"

"""Fault-injection (chaos) harness for the serve stack.

The serving guarantees worth having are the ones that hold while things
break: a corrupt artifact must quarantine and fall back, a slow disk
must not stall healthy models, a crashing worker must fail only the
requests it held, a full queue must shed load instead of queueing
unboundedly.  This harness injects exactly those faults into a *live*
:class:`~repro.serve.server.InferenceServer` — through seams the serve
stack exposes for the purpose, never by monkey-patching internals it
doesn't own — so the chaos suite (``make chaos``) and
``benchmarks/bench_lifecycle_recovery.py`` can assert graceful
degradation end to end.

Fault taxonomy (:data:`CHAOS_FAULTS`):

``corrupt_artifact`` / ``truncated_artifact``
    The live version's ``.npz`` is overwritten with garbage / truncated
    mid-archive.  Expected: typed error (never a raw zip traceback),
    artifact quarantined to ``<root>/quarantine/``, previous version
    served when one exists.
``slow_load``
    Every artifact read of the targeted models stalls.  Expected: other
    models keep serving (per-name load locks), the stalled model's
    requests complete once the read finishes.
``transient_load_failure``
    Reads raise :class:`~repro.serve.errors.TransientFault` N times (or
    forever).  Expected: capped-exponential-backoff retries absorb short
    bursts; persistent failure opens the per-model circuit breaker,
    which serves the last-good resident version or answers 503 with
    ``Retry-After``.
``worker_exception``
    The batcher's detector resolution raises mid-batch.  Expected: only
    the affected requests error (500), the scoring thread survives,
    subsequent requests score normally.
``queue_saturation``
    The scoring thread is gated shut and the bounded queue filled.
    Expected: further submits shed immediately (429 ``Overloaded``),
    nothing is lost — every parked request completes once the gate
    opens.
``worker_process_kill``
    A process-pool worker is SIGKILLed mid-service (``--procs`` tier
    only).  Expected: the supervisor detects the death, fails only that
    worker's in-flight requests as retryable, re-routes its shard to
    the live workers, respawns through the slot's circuit breaker, and
    routes the shard back — models on other workers keep serving
    throughout.

All injectors are reversible; use the harness as a context manager so
``clear()`` restores the pristine server even when an assertion fails.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np

from ..serve.errors import Overloaded, TransientFault
from ..serve.server import InferenceServer

__all__ = ["CHAOS_FAULTS", "ChaosHarness"]

#: The fault taxonomy: name → (target, expected degradation).  Shared by
#: the chaos tests, the recovery bench, and the docs fault matrix.
CHAOS_FAULTS: dict[str, dict[str, str]] = {
    "corrupt_artifact": {
        "target": "registry",
        "expect": "typed error; artifact quarantined; previous version served",
    },
    "truncated_artifact": {
        "target": "registry",
        "expect": "typed error (no raw zipfile traceback); quarantine + fallback",
    },
    "slow_load": {
        "target": "registry",
        "expect": "healthy models unaffected; stalled model completes after the read",
    },
    "transient_load_failure": {
        "target": "registry",
        "expect": "backoff retries absorb bursts; persistent failure opens the breaker",
    },
    "worker_exception": {
        "target": "scheduler",
        "expect": "only held requests fail; worker survives; next batch scores",
    },
    "queue_saturation": {
        "target": "scheduler",
        "expect": "immediate shed (429); parked requests all complete on release",
    },
    "worker_process_kill": {
        "target": "pool",
        "expect": "death detected; shard re-routed; worker respawned through "
                  "the slot breaker; healthy models keep serving throughout",
    },
}


class ChaosHarness:
    """Inject faults into a live server; restore everything on exit.

    >>> with ChaosHarness(server) as chaos:          # doctest: +SKIP
    ...     chaos.corrupt_artifact("tfmae")
    ...     # assert the next /score falls back to the prior version
    """

    def __init__(self, server: InferenceServer):
        self.server = server
        self.registry = server.registry
        self.batcher = server.batcher
        #: The process-pool tier, when the server runs one (``--procs``).
        self.pool = getattr(server, "pool", None)
        self._original_detector_for = self.batcher.detector_for
        self._gate: threading.Event | None = None
        self._parked: list[Future] = []

    def __enter__(self) -> "ChaosHarness":
        return self

    def __exit__(self, *exc_info) -> None:
        self.clear()

    # ------------------------------------------------------------------
    # artifact faults
    # ------------------------------------------------------------------
    def corrupt_artifact(self, name: str, version: str | None = None,
                         truncate: bool = False) -> Path:
        """Damage the (live) artifact on disk and evict it from memory.

        ``truncate=True`` cuts the archive mid-member — the fault that
        historically surfaced as a raw ``zipfile.BadZipFile`` — instead
        of overwriting with garbage bytes.  Cache and last-good entries
        are evicted so the next load actually reads the damaged file.
        """
        if version is None:
            version = self.registry.live_version(name)
        path = self.registry._artifact_path(name, version)
        if truncate:
            data = path.read_bytes()
            path.write_bytes(data[: max(16, len(data) // 3)])
        else:
            path.write_bytes(b"\x00chaos is not an npz archive\x00" * 8)
        self.evict(name, version)
        return path

    def evict(self, name: str, version: str | None = None) -> None:
        """Drop cached instances so the next load hits the disk."""
        with self.registry._lock:
            if version is None:
                for key in [k for k in self.registry._cache if k[0] == name]:
                    del self.registry._cache[key]
            else:
                self.registry._cache.pop((name, version), None)
            self.registry._last_good.pop(name, None)

    # ------------------------------------------------------------------
    # load-path faults (registry seam)
    # ------------------------------------------------------------------
    def inject_slow_load(self, delay: float, models: set[str] | None = None) -> None:
        """Stall every artifact read of the targeted models by ``delay``s."""

        def hook(name: str, version: str) -> None:
            if models is None or name in models:
                time.sleep(delay)

        self.registry.load_fault_hook = hook

    def inject_transient_load_failures(
        self, times: int | None = 1, models: set[str] | None = None
    ) -> dict:
        """Make artifact reads raise :class:`TransientFault`.

        ``times`` bounds the total number of injected failures
        (``None`` = fail forever, the breaker-opening scenario).  Returns
        the mutable state dict; ``state["injected"]`` counts firings.
        """
        state = {"left": times, "injected": 0}
        lock = threading.Lock()

        def hook(name: str, version: str) -> None:
            if models is not None and name not in models:
                return
            with lock:
                if state["left"] is not None and state["left"] <= 0:
                    return
                if state["left"] is not None:
                    state["left"] -= 1
                state["injected"] += 1
            raise TransientFault(
                f"chaos: injected transient load failure for {name}:{version}"
            )

        self.registry.load_fault_hook = hook
        return state

    def clear_load_faults(self) -> None:
        self.registry.load_fault_hook = None

    # ------------------------------------------------------------------
    # scheduler faults
    # ------------------------------------------------------------------
    def inject_worker_exception(
        self, times: int = 1, models: set[str] | None = None
    ) -> dict:
        """Make detector resolution raise on the scoring thread, ``times`` times.

        Exercises the batcher's failure isolation: the exception must be
        forwarded to exactly the requests in the failing group, and the
        scoring thread must survive to score the next batch.
        """
        state = {"left": times, "injected": 0}
        lock = threading.Lock()
        original = self._original_detector_for

        def chaotic(model_key: str):
            name = model_key.partition(":")[0]
            if models is None or name in models:
                with lock:
                    if state["left"] > 0:
                        state["left"] -= 1
                        state["injected"] += 1
                        raise RuntimeError(
                            f"chaos: injected worker exception for {model_key!r}"
                        )
            return original(model_key)

        self.batcher.detector_for = chaotic
        return state

    def saturate_queue(self, model_key: str, window: np.ndarray) -> int:
        """Gate the scoring thread shut and fill the bounded queue to capacity.

        Submits requests until the batcher sheds (:class:`Overloaded`);
        they park behind the gate.  Returns how many were accepted.
        :meth:`release_queue` opens the gate and waits for every parked
        score — asserting that saturation sheds *new* load but never
        loses *accepted* load.
        """
        self._gate = threading.Event()
        original = self._original_detector_for
        gate = self._gate
        scorer_parked = threading.Event()

        def gated(key: str):
            scorer_parked.set()
            gate.wait()
            return original(key)

        self.batcher.detector_for = gated
        self._parked = []
        while True:
            try:
                self._parked.append(self.batcher.submit(model_key, window))
            except Overloaded:
                # The first Overloaded is not saturation yet: the scoring
                # thread may still be draining the queue into its
                # (gate-blocked) batch, freeing capacity.  Only when it is
                # parked behind the gate AND the queue is full again does
                # the next submit shed deterministically.
                if (scorer_parked.is_set()
                        and self.batcher.queue_depth >= self.batcher.max_queue):
                    break
                time.sleep(0.005)
        return len(self._parked)

    def release_queue(self, timeout: float = 30.0) -> list[float]:
        """Open the gate; block until every parked request scores."""
        if self._gate is not None:
            self._gate.set()
        self.batcher.detector_for = self._original_detector_for
        scores = [future.result(timeout=timeout) for future in self._parked]
        self._parked = []
        self._gate = None
        return scores

    # ------------------------------------------------------------------
    # process-pool faults
    # ------------------------------------------------------------------
    def kill_worker(self, model: str | None = None, slot: str | None = None) -> dict:
        """SIGKILL one pool worker — the one serving ``model``, or ``slot``.

        Requires the server to run the process tier.  Returns
        ``{"slot", "pid"}`` identifying the victim, for
        :meth:`wait_for_respawn`.
        """
        if self.pool is None:
            raise RuntimeError(
                "worker_process_kill needs the process-pool tier; start the "
                "server with procs > 0"
            )
        if slot is None:
            slot = self.pool.worker_for(model if model is not None else "")
        pid = self.pool.kill_worker(slot)
        return {"slot": slot, "pid": pid}

    def wait_for_respawn(self, victim: dict, timeout: float = 15.0) -> bool:
        """Block until the killed slot is live again under a new pid."""
        if self.pool is None:
            return False
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            worker = self.pool.status()["workers"].get(victim["slot"])
            if (worker is not None and worker["alive"]
                    and worker["pid"] != victim["pid"]):
                return True
            time.sleep(0.05)
        return False

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Remove every injected fault and unblock anything parked."""
        self.registry.load_fault_hook = None
        if self._gate is not None:
            self._gate.set()
            self._gate = None
        self.batcher.detector_for = self._original_detector_for

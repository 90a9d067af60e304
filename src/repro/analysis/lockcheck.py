"""Runtime lock-order checker: instrument every lock the process creates.

The static pass (:mod:`repro.analysis.concurrency`) reasons about the
lock graph it can see in the source; this module observes the graph that
actually happens.  When installed (:func:`install`, or automatically on
``import repro`` under ``REPRO_LOCKCHECK=1``), ``threading.Lock``,
``threading.RLock`` and ``threading.Condition`` are replaced with
factories returning instrumented wrappers that record, per thread:

* the **stack of held locks** — acquiring B while holding A adds the
  edge ``A -> B`` to the observed lock-order graph, with the acquiring
  thread and call site kept as the example;
* **hold times** — every release feeds a per-lock histogram in a
  :class:`repro.serve.metrics.MetricsRegistry`
  (``lockcheck_hold_seconds{lock=...}``), so the p99 hold time of any
  named lock is one :func:`metrics` call away;
* **spawn hazards** — :func:`check_spawn` (called by
  :class:`repro.serve.pool.ProcessPool` before starting a worker)
  records a violation when the spawning thread holds any tracked lock:
  a lock held across ``fork``/``spawn`` machinery is a classic child
  deadlock.

:func:`report` summarises the graph; :func:`find_cycles` returns every
cycle (a lock-order inversion observed at runtime, i.e. a potential
deadlock even if this run got lucky); :func:`assert_clean` raises
:class:`LockOrderError` on cycles or spawn violations — the tier-1 and
chaos suites call it at session teardown under ``make lockcheck``.

Naming
------
Locks are identified by **name**, not instance: all locks created at one
site (or registered under one :func:`named_lock` name) form one node of
the graph, which is the granularity deadlock reasoning needs — ordering
is a property of the lock *class*, not the instance.  The serve stack
registers its locks with stable names (``serve.pool``,
``serve.registry.state``, ...); anonymous locks get
``<file>:<line>`` of their creation site.

``named_lock(name, kind=..., blocking_ok=...)`` is the registration
point: it creates the lock through the (possibly patched) ``threading``
factory and tags the wrapper.  ``blocking_ok=True`` declares a lock that
*exists to serialise a blocking operation* (the registry's per-model
artifact locks, the pool's pipe-send locks); the static BLK001 rule
reads the declaration from the source and exempts those regions, while
the runtime graph still tracks their ordering.

Install early: only locks **created after** :func:`install` are
instrumented, so ``import repro`` calls :func:`maybe_install_from_env`
before any other repro module builds its module-level locks.
"""

from __future__ import annotations

import os
import sys
import threading
import time

__all__ = [
    "LockOrderError",
    "named_lock",
    "install",
    "uninstall",
    "installed",
    "maybe_install_from_env",
    "check_spawn",
    "held_locks",
    "observed_edges",
    "find_cycles",
    "spawn_violations",
    "metrics",
    "report",
    "assert_clean",
    "reset",
]

_ENV_FLAG = "REPRO_LOCKCHECK"

# Real factories, captured at import time so the wrappers always build on
# uninstrumented primitives even while threading.* is patched.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock
_REAL_CONDITION = threading.Condition


class LockOrderError(RuntimeError):
    """Observed lock-order cycle or a lock held across a process spawn."""


class _State:
    """Process-wide observed graph, guarded by one real (untracked) lock."""

    def __init__(self) -> None:
        self.lock = _REAL_LOCK()
        self.installed = False
        # (held_name, acquired_name) -> {"count", "thread", "site"}
        self.edges: dict[tuple[str, str], dict] = {}
        self.spawn_violations: list[dict] = []
        self.metrics = None  # lazy MetricsRegistry (avoids serve import cycle)


_STATE = _State()


class _Local(threading.local):
    def __init__(self) -> None:
        self.stack: list = []  # [_TrackedLock, ...] in acquisition order
        self.in_hook = False   # reentrancy guard for the hook internals


_LOCAL = _Local()


def _creation_site() -> str:
    """``file:line`` of the frame that created a lock (skipping this module)."""
    frame = sys._getframe(2)
    here = __file__
    while frame is not None and frame.f_code.co_filename == here:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - interpreter internals
        return "<unknown>"
    return f"{os.path.basename(frame.f_code.co_filename)}:{frame.f_lineno}"


def _acquire_site() -> str:
    frame = sys._getframe(2)
    here = __file__
    while frame is not None and frame.f_code.co_filename == here:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - interpreter internals
        return "<unknown>"
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


def _metrics_registry():
    with _STATE.lock:
        registry = _STATE.metrics
    if registry is None:
        # Imported lazily: serve.metrics must stay importable *after*
        # install() so its own locks are tracked, and analysis.lockcheck
        # must not drag repro.serve in at import time (cycle).
        from ..serve.metrics import MetricsRegistry

        registry = MetricsRegistry()
        with _STATE.lock:
            if _STATE.metrics is None:
                _STATE.metrics = registry
            registry = _STATE.metrics
    return registry


class _TrackedLock:
    """Instrumented wrapper over a real Lock/RLock.

    Context-manager compatible, Condition-compatible (it exposes the
    ``_release_save``/``_acquire_restore``/``_is_owned`` trio CPython's
    Condition probes for), and reentrancy-aware for RLocks: only the
    outermost acquire/release records graph edges and hold time.
    """

    __slots__ = ("_inner", "_reentrant", "name", "blocking_ok")

    def __init__(self, inner, reentrant: bool, name: str,
                 blocking_ok: bool = False):
        self._inner = inner
        self._reentrant = reentrant
        self.name = name
        self.blocking_ok = blocking_ok

    # -- core protocol --------------------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            _note_acquire(self, _acquire_site())
        return acquired

    def release(self) -> None:
        self._inner.release()
        _note_release(self, full=False)

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def locked(self) -> bool:
        return self._inner.locked()

    # -- Condition compatibility ----------------------------------------
    # Condition.wait() must fully release the lock; these keep the held
    # stack truthful across the wait (the thread really does not hold it).
    def _release_save(self):
        if hasattr(self._inner, "_release_save"):
            saved = self._inner._release_save()
        else:
            self._inner.release()
            saved = None
        _note_release(self, full=True)
        return saved

    def _acquire_restore(self, saved) -> None:
        if hasattr(self._inner, "_acquire_restore"):
            self._inner._acquire_restore(saved)
        else:
            self._inner.acquire()
        _note_acquire(self, _acquire_site())

    def _is_owned(self) -> bool:
        if hasattr(self._inner, "_is_owned"):
            return self._inner._is_owned()
        if self._inner.acquire(False):
            self._inner.release()
            return False
        return True

    def _at_fork_reinit(self) -> None:
        # Registered with os.register_at_fork by stdlib modules
        # (concurrent.futures, logging); the child starts unheld.
        self._inner._at_fork_reinit()

    def __getattr__(self, attr: str):
        # Anything else the stdlib probes for delegates to the real lock.
        return getattr(self._inner, attr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "RLock" if self._reentrant else "Lock"
        return f"<tracked {kind} {self.name!r}>"


class _HeldEntry:
    __slots__ = ("lock", "acquired_at", "site", "depth")

    def __init__(self, lock: _TrackedLock, site: str):
        self.lock = lock
        self.acquired_at = time.monotonic()
        self.site = site
        self.depth = 1


def _note_acquire(lock: _TrackedLock, site: str) -> None:
    local = _LOCAL
    if local.in_hook:
        return
    local.in_hook = True
    try:
        stack = local.stack
        if lock._reentrant:
            for entry in stack:
                if entry.lock is lock:
                    entry.depth += 1
                    return
        new_edges = []
        for entry in stack:
            if entry.lock.name != lock.name:
                new_edges.append((entry.lock.name, lock.name, entry.site, site))
        stack.append(_HeldEntry(lock, site))
        if new_edges:
            with _STATE.lock:
                for held_name, name, held_site, acq_site in new_edges:
                    edge = _STATE.edges.get((held_name, name))
                    if edge is None:
                        _STATE.edges[(held_name, name)] = {
                            "count": 1,
                            "thread": threading.current_thread().name,
                            "held_at": held_site,
                            "acquired_at": acq_site,
                        }
                    else:
                        edge["count"] += 1
    finally:
        local.in_hook = False


def _note_release(lock: _TrackedLock, full: bool) -> None:
    local = _LOCAL
    if local.in_hook:
        return
    local.in_hook = True
    try:
        stack = local.stack
        for index in range(len(stack) - 1, -1, -1):
            entry = stack[index]
            if entry.lock is lock:
                if lock._reentrant and not full and entry.depth > 1:
                    entry.depth -= 1
                    return
                del stack[index]
                held = time.monotonic() - entry.acquired_at
                try:
                    _metrics_registry().histogram(
                        "lockcheck_hold_seconds", lock=lock.name
                    ).observe(held)
                except Exception:  # pragma: no cover - metrics must not mask bugs
                    pass
                return
    finally:
        local.in_hook = False


# ----------------------------------------------------------------------
# factories
# ----------------------------------------------------------------------
def _make_lock(name: str | None = None, blocking_ok: bool = False) -> _TrackedLock:
    return _TrackedLock(_REAL_LOCK(), reentrant=False,
                        name=name or _creation_site(), blocking_ok=blocking_ok)


def _make_rlock(name: str | None = None, blocking_ok: bool = False) -> _TrackedLock:
    return _TrackedLock(_REAL_RLOCK(), reentrant=True,
                        name=name or _creation_site(), blocking_ok=blocking_ok)


def _make_condition(lock=None):
    if lock is None:
        lock = _make_rlock()
    return _REAL_CONDITION(lock)


def named_lock(name: str, kind: str = "lock", blocking_ok: bool = False):
    """Create a lock registered under a stable name.

    ``kind`` is ``"lock"``, ``"rlock"`` or ``"condition"``.  When the
    checker is not installed this returns a plain ``threading`` primitive
    (zero overhead); when installed, the instrumented wrapper carries the
    name into the observed graph and the hold-time histograms.

    ``blocking_ok=True`` declares that this lock's purpose is to
    serialise a blocking operation (artifact reads, pipe writes); the
    static BLK001 rule reads the flag from the call site and does not
    flag blocking calls under such a lock — ordering is still tracked.
    """
    if kind not in ("lock", "rlock", "condition"):
        raise ValueError(f"kind must be lock/rlock/condition, got {kind!r}")
    if not installed():
        if kind == "rlock":
            return _REAL_RLOCK()
        if kind == "condition":
            return _REAL_CONDITION()
        return _REAL_LOCK()
    if kind == "rlock":
        return _make_rlock(name, blocking_ok)
    if kind == "condition":
        return _REAL_CONDITION(_make_rlock(name, blocking_ok))
    return _make_lock(name, blocking_ok)


# ----------------------------------------------------------------------
# install / uninstall
# ----------------------------------------------------------------------
def install() -> None:
    """Patch ``threading.Lock``/``RLock``/``Condition`` with tracked factories.

    Idempotent.  Only locks created after this call are tracked; install
    before importing modules whose import builds locks (``import repro``
    does so from the environment, first).
    """
    with _STATE.lock:
        if _STATE.installed:
            return
        _STATE.installed = True
    threading.Lock = _make_lock
    threading.RLock = _make_rlock
    threading.Condition = _make_condition


def uninstall() -> None:
    """Restore the real ``threading`` factories (existing wrappers keep working)."""
    with _STATE.lock:
        if not _STATE.installed:
            return
        _STATE.installed = False
    threading.Lock = _REAL_LOCK
    threading.RLock = _REAL_RLOCK
    threading.Condition = _REAL_CONDITION


def installed() -> bool:
    with _STATE.lock:
        return _STATE.installed


def maybe_install_from_env() -> bool:
    """Install when ``REPRO_LOCKCHECK`` is set to a truthy value."""
    flag = os.environ.get(_ENV_FLAG, "").strip().lower()
    if flag in ("", "0", "false", "no", "off"):
        return False
    install()
    return True


def reset() -> None:
    """Drop the observed graph and violations (not the install state)."""
    with _STATE.lock:
        _STATE.edges.clear()
        _STATE.spawn_violations.clear()
        _STATE.metrics = None


# ----------------------------------------------------------------------
# introspection
# ----------------------------------------------------------------------
def held_locks() -> list[str]:
    """Names of the tracked locks the *current thread* holds, oldest first."""
    return [entry.lock.name for entry in _LOCAL.stack]


def check_spawn(context: str) -> bool:
    """Record a violation when the calling thread holds any tracked lock.

    Called by :class:`repro.serve.pool.ProcessPool` immediately before
    ``Process.start()``.  Returns True when clean.
    """
    held = held_locks()
    if not held:
        return True
    with _STATE.lock:
        _STATE.spawn_violations.append({
            "context": context,
            "thread": threading.current_thread().name,
            "held": list(held),
        })
    return False


def observed_edges() -> dict[tuple[str, str], dict]:
    with _STATE.lock:
        return {key: dict(value) for key, value in _STATE.edges.items()}


def spawn_violations() -> list[dict]:
    with _STATE.lock:
        return [dict(entry) for entry in _STATE.spawn_violations]


def metrics():
    """The hold-time :class:`~repro.serve.metrics.MetricsRegistry`."""
    return _metrics_registry()


def find_cycles() -> list[list[str]]:
    """Every elementary cycle in the observed lock-order graph.

    A cycle means two threads *could* acquire the same locks in opposite
    orders — a deadlock this run merely did not lose the race to.
    """
    adjacency: dict[str, set[str]] = {}
    for held, acquired in observed_edges():
        adjacency.setdefault(held, set()).add(acquired)
        adjacency.setdefault(acquired, set())
    return _graph_cycles(adjacency)


def _graph_cycles(adjacency: dict[str, set[str]]) -> list[list[str]]:
    """Cycles via iterative DFS; each reported once, rotated to min node."""
    cycles: set[tuple[str, ...]] = set()
    for start in sorted(adjacency):
        # DFS from each node, only tracking paths, bounded by graph size.
        stack: list[tuple[str, list[str]]] = [(start, [start])]
        while stack:
            node, path = stack.pop()
            for neighbour in sorted(adjacency.get(node, ())):
                if neighbour == start:
                    cycle = _canonical_cycle(path)
                    cycles.add(cycle)
                elif neighbour not in path and len(path) < len(adjacency):
                    stack.append((neighbour, path + [neighbour]))
    return [list(cycle) for cycle in sorted(cycles)]


def _canonical_cycle(path: list[str]) -> tuple[str, ...]:
    pivot = path.index(min(path))
    return tuple(path[pivot:] + path[:pivot])


def report() -> dict:
    """JSON-serialisable summary: locks, edges, cycles, spawn violations."""
    edges = observed_edges()
    locks = sorted({name for pair in edges for name in pair})
    return {
        "installed": installed(),
        "locks": locks,
        "edges": [
            {"from": held, "to": acquired, **info}
            for (held, acquired), info in sorted(edges.items())
        ],
        "cycles": find_cycles(),
        "spawn_violations": spawn_violations(),
    }


def assert_clean() -> None:
    """Raise :class:`LockOrderError` on any observed cycle or spawn hazard."""
    problems = []
    for cycle in find_cycles():
        ring = " -> ".join(cycle + [cycle[0]])
        problems.append(f"lock-order cycle observed at runtime: {ring}")
    for violation in spawn_violations():
        problems.append(
            f"locks held across process spawn ({violation['context']}, "
            f"thread {violation['thread']}): {', '.join(violation['held'])}"
        )
    if problems:
        raise LockOrderError("\n".join(problems))

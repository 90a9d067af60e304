"""Concurrency rules over the tree-wide facts.

``LOCK002`` — lock-order inversion
    The union of every function's direct and call-transitive lock
    acquisitions forms one global "A held while acquiring B" graph; any
    cycle in it means two code paths can take the same locks in opposite
    orders, i.e. a deadlock waiting for the right interleaving.  Every
    edge that participates in a cycle is reported at its source site.

``BLK001`` — blocking call under a lock
    A call classified as blocking (file/socket/queue I/O, sleeps,
    subprocess, shared-memory attach, process spawn — see
    :mod:`.facts`) while any lock is held turns that lock into a
    convoy: every other thread needing it waits out the I/O.  Locks
    declared ``named_lock(..., blocking_ok=True)`` are exempt — their
    stated purpose is to serialise exactly that blocking operation — but
    their ordering is still tracked by LOCK002.

``TLS001`` — thread-local policy discipline
    The ``set_*``/``use_*`` policy trios (``nn/fused``, ``nn/jit``,
    ``nn/dtype``) pair a process-wide default with a thread-local,
    context-manager override.  Three misuses are flagged:
    a bare ``use_*(...)`` expression that builds the context manager and
    never enters it (silently a no-op), ``with set_*(...)`` (the setter
    is not a context manager; the ``with`` raises at runtime or, worse,
    the "scope" never ends), and ``set_*`` calls inside the serving
    stack, where a process-global flip races every other request thread.
"""

from __future__ import annotations

from ..rules.base import LintViolation
from ..rules.policy import TLS_CODE, ThreadLocalPolicyRule
from .facts import TreeFacts

__all__ = [
    "LOCK_ORDER_CODE",
    "BLOCKING_CODE",
    "TLS_CODE",
    "ThreadLocalPolicyRule",
    "lock_order_violations",
    "blocking_violations",
    "build_edges",
    "find_cycle_edges",
]

LOCK_ORDER_CODE = "LOCK002"
BLOCKING_CODE = "BLK001"


# ----------------------------------------------------------------------
# interprocedural closure
# ----------------------------------------------------------------------
def close_summaries(tree: TreeFacts) -> tuple[dict, dict]:
    """Fixpoint of (locks-acquired, blocking-reasons) per function.

    ``locks[fn]`` is every lock ``fn`` may acquire, directly or through
    any resolvable callee; ``reasons[fn]`` likewise for blocking work.
    """
    locks: dict[tuple[str, str], set[str]] = {}
    reasons: dict[tuple[str, str], set[str]] = {}
    functions = {}
    for mod in tree.modules.values():
        for qualname, fn in mod.functions.items():
            key = (mod.module, qualname)
            functions[key] = fn
            locks[key] = {event.lock_id for event in fn.acquires}
            reasons[key] = {event.reason for event in fn.blocks}

    def lookup(target: tuple[str, str]):
        if target in functions:
            return target
        init = (target[0], target[1] + ".__init__")
        return init if init in functions else None

    changed = True
    while changed:
        changed = False
        for key, fn in functions.items():
            for call in fn.calls:
                if call.target is None:
                    continue
                callee = lookup(call.target)
                if callee is None or callee == key:
                    continue
                if not locks[callee] <= locks[key]:
                    locks[key] |= locks[callee]
                    changed = True
                if not reasons[callee] <= reasons[key]:
                    reasons[key] |= reasons[callee]
                    changed = True
    return locks, reasons


def build_edges(tree: TreeFacts) -> dict[tuple[str, str], list[dict]]:
    """Global "held -> acquired" edges with their source sites."""
    locks, _reasons = close_summaries(tree)

    def lookup(target):
        if target in locks:
            return target
        init = (target[0], target[1] + ".__init__")
        return init if init in locks else None

    edges: dict[tuple[str, str], list[dict]] = {}

    def add(a: str, b: str, path: str, line: int, col: int, via: str) -> None:
        if a == b:
            return  # reentrancy on one lock class, not an ordering edge
        edges.setdefault((a, b), []).append(
            {"path": path, "line": line, "col": col, "via": via})

    for mod in tree.modules.values():
        for fn in mod.functions.values():
            for event in fn.acquires:
                for held in event.held:
                    add(held, event.lock_id, fn.path, event.line, event.col,
                        f"{fn.module}.{fn.qualname}")
            for call in fn.calls:
                if not call.held or call.target is None:
                    continue
                callee = lookup(call.target)
                if callee is None:
                    continue
                for acquired in locks[callee]:
                    for held in call.held:
                        add(held, acquired, fn.path, call.line, call.col,
                            f"call to {call.display}")
    return edges


def find_cycle_edges(
    edges: dict[tuple[str, str], list[dict]],
) -> dict[tuple[str, str], list[str]]:
    """Edges participating in a cycle -> the SCC (lock set) they close."""
    adjacency: dict[str, set[str]] = {}
    for (a, b) in edges:
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set())
    component = _tarjan_scc(adjacency)
    members: dict[int, list[str]] = {}
    for node, comp in component.items():
        members.setdefault(comp, []).append(node)
    cyclic = {}
    for (a, b), _sites in edges.items():
        if component[a] == component[b] and len(members[component[a]]) > 1:
            cyclic[(a, b)] = sorted(members[component[a]])
    return cyclic


def _tarjan_scc(adjacency: dict[str, set[str]]) -> dict[str, int]:
    """Iterative Tarjan; node -> strongly-connected-component id."""
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    component: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    comp_counter = [0]

    for root in sorted(adjacency):
        if root in index_of:
            continue
        work = [(root, iter(sorted(adjacency[root])))]
        index_of[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, neighbours = work[-1]
            advanced = False
            for neighbour in neighbours:
                if neighbour not in index_of:
                    index_of[neighbour] = low[neighbour] = counter[0]
                    counter[0] += 1
                    stack.append(neighbour)
                    on_stack.add(neighbour)
                    work.append((neighbour, iter(sorted(adjacency[neighbour]))))
                    advanced = True
                    break
                if neighbour in on_stack:
                    low[node] = min(low[node], index_of[neighbour])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                comp = comp_counter[0]
                comp_counter[0] += 1
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component[member] = comp
                    if member == node:
                        break
    return component


# ----------------------------------------------------------------------
# violation emission
# ----------------------------------------------------------------------
def lock_order_violations(tree: TreeFacts) -> list[LintViolation]:
    edges = build_edges(tree)
    cyclic = find_cycle_edges(edges)
    violations = []
    seen = set()
    for (a, b), scc in sorted(cyclic.items()):
        for site in edges[(a, b)]:
            key = (site["path"], site["line"], a, b)
            if key in seen:
                continue
            seen.add(key)
            ring = " -> ".join(scc + [scc[0]])
            violations.append(LintViolation(
                rule=LOCK_ORDER_CODE,
                path=site["path"],
                line=site["line"],
                col=site["col"],
                message=(
                    f"lock-order inversion: acquires '{b}' while holding "
                    f"'{a}' ({site['via']}), closing cycle {ring}; impose "
                    f"a single acquisition order"
                ),
            ))
    return violations


def blocking_violations(tree: TreeFacts) -> list[LintViolation]:
    _locks, reasons = close_summaries(tree)

    def lookup(target):
        if target in reasons:
            return target
        init = (target[0], target[1] + ".__init__")
        return init if init in reasons else None

    def guarded(held: tuple[str, ...]) -> list[str]:
        """Held locks that are NOT declared blocking_ok."""
        return [lock for lock in held if not tree.blocking_ok(lock)]

    violations = []
    for mod in tree.modules.values():
        for fn in mod.functions.values():
            direct_sites = set()
            for event in fn.blocks:
                locked = guarded(event.held)
                direct_sites.add((event.line, event.col))
                if not locked:
                    continue
                violations.append(LintViolation(
                    rule=BLOCKING_CODE, path=fn.path,
                    line=event.line, col=event.col,
                    message=(
                        f"blocking call ({event.reason}) while holding "
                        f"lock(s) {', '.join(repr(l) for l in locked)}; move "
                        f"the I/O outside the critical section or declare "
                        f"the lock blocking_ok"
                    ),
                ))
            for call in fn.calls:
                if not call.held or call.target is None:
                    continue
                if (call.line, call.col) in direct_sites:
                    continue  # already reported as a direct blocking call
                callee = lookup(call.target)
                if callee is None or not reasons[callee]:
                    continue
                locked = guarded(call.held)
                if not locked:
                    continue
                blocking = ", ".join(sorted(reasons[callee]))
                violations.append(LintViolation(
                    rule=BLOCKING_CODE, path=fn.path,
                    line=call.line, col=call.col,
                    message=(
                        f"call to {call.display} performs blocking work "
                        f"({blocking}) while holding lock(s) "
                        f"{', '.join(repr(l) for l in locked)}"
                    ),
                ))
    return violations


# TLS001 lives in rules/policy.py (per-file, so it also runs under
# ``analyze lint``); re-exported here so the concurrency layer is one
# import surface.

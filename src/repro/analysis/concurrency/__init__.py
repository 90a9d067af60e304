"""Static concurrency analysis: lock order, blocking under lock, TLS policy.

The third analysis layer (after the repo linter and the shape checker):
an interprocedural pass over the whole tree that builds the global
lock-acquisition graph and checks three invariants a per-file linter
cannot see::

    from repro.analysis.concurrency import analyze_concurrency
    from repro.analysis.lint import format_text
    print(format_text(analyze_concurrency(["src/repro"])))

or ``python -m repro analyze concurrency [--json]``.  Violations reuse
the linter's :class:`~repro.analysis.rules.base.LintViolation` shape,
reporters, and per-line ``# repro: noqa[CODE]`` suppression policy
(every in-tree suppression carries a justification comment).

Rules: ``LOCK002`` (lock-order inversion — a cycle in the "A held while
acquiring B" graph), ``BLK001`` (blocking I/O while holding a lock that
is not declared ``blocking_ok``), ``TLS001`` (misuse of the
``set_*``/``use_*`` thread-local policy trios; this one is per-file and
also runs under ``analyze lint``).  The dynamic complement — observing
the graph the process actually builds — is
:mod:`repro.analysis.lockcheck`.
"""

from __future__ import annotations

from pathlib import Path

from ..lint import suppressions_in
from ..rules.base import LintViolation
from .facts import TreeFacts, collect_module, module_name_for, walk_module
from .rules import (
    BLOCKING_CODE,
    LOCK_ORDER_CODE,
    TLS_CODE,
    ThreadLocalPolicyRule,
    blocking_violations,
    build_edges,
    find_cycle_edges,
    lock_order_violations,
)

__all__ = [
    "LOCK_ORDER_CODE",
    "BLOCKING_CODE",
    "TLS_CODE",
    "CONCURRENCY_CODES",
    "ThreadLocalPolicyRule",
    "collect_tree",
    "analyze_concurrency",
    "lock_graph_summary",
]

CONCURRENCY_CODES = (LOCK_ORDER_CODE, BLOCKING_CODE, TLS_CODE)


def _python_files(paths) -> list[tuple[Path, str]]:
    """(file, root) pairs; root anchors module naming for loose trees."""
    files: list[tuple[Path, str]] = []
    for path in paths:
        target = Path(path)
        if target.is_dir():
            files.extend((f, str(target)) for f in sorted(target.rglob("*.py")))
        else:
            files.append((target, str(target.parent)))
    return files


def collect_tree(paths) -> tuple[TreeFacts, dict[str, str]]:
    """Parse every file into :class:`TreeFacts`; also return path->source."""
    tree = TreeFacts()
    sources: dict[str, str] = {}
    modules = []
    for file_path, root in _python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        path = str(file_path)
        sources[path] = source
        module = module_name_for(path, root)
        mod = collect_module(source, path, module, tree)
        tree.add(mod)
        modules.append(mod)
    for mod in modules:  # phase B needs every declaration in place
        walk_module(mod, tree)
    return tree, sources


def analyze_concurrency(paths, respect_noqa: bool = True) -> list[LintViolation]:
    """Run LOCK002 + BLK001 + TLS001 over ``paths``; sorted violations."""
    tree, sources = collect_tree(paths)
    violations = lock_order_violations(tree) + blocking_violations(tree)

    tls_rule = ThreadLocalPolicyRule()
    import ast as _ast

    for path, source in sources.items():
        parsed = _ast.parse(source, filename=path)
        violations.extend(tls_rule.check(parsed, path))

    if respect_noqa:
        kept = []
        suppression_cache = {
            path: suppressions_in(source) for path, source in sources.items()
        }
        for violation in violations:
            codes = suppression_cache.get(violation.path, {}).get(
                violation.line, frozenset())
            if violation.rule not in codes:
                kept.append(violation)
        violations = kept

    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations


def lock_graph_summary(paths) -> dict:
    """The global lock-order graph: nodes, edges, cycles (JSON-shaped)."""
    tree, _sources = collect_tree(paths)
    edges = build_edges(tree)
    cyclic = find_cycle_edges(edges)
    locks = sorted({name for pair in edges for name in pair}
                   | set(tree.decls))
    return {
        "locks": locks,
        "edges": [
            {"from": a, "to": b, "sites": sites}
            for (a, b), sites in sorted(edges.items())
        ],
        "cycles": sorted({tuple(scc) for scc in cyclic.values()}),
    }

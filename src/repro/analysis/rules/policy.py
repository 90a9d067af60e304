"""TLS001: the ``set_*``/``use_*`` thread-local policy discipline.

The policy trios (``nn/fused``: ``set_fused``/``use_fused``, ``nn/jit``:
``set_jit``/``use_jit``, ``nn/dtype``: ``set_default_dtype``/
``default_dtype``; each a ``repro.nn.policy.Switch``) pair a
process-wide default with a thread-local, context-manager-scoped
override.  Three misuses are flagged: a bare
``use_*(...)`` expression that builds the context manager and never
enters it (silently a no-op), ``with set_*(...)`` (the setter is not a
context manager), and ``set_*`` calls inside the serving stack, where a
process-global flip races every other request thread.

Per-file, so it runs under ``analyze lint`` as well as
``analyze concurrency``.
"""

from __future__ import annotations

import ast

from .base import Rule

__all__ = ["TLS_CODE", "ThreadLocalPolicyRule"]

TLS_CODE = "TLS001"


#: context managers that must be entered / setters that must not be.
_USE_NAMES = frozenset({"use_fused", "use_jit", "default_dtype"})
_SET_NAMES = frozenset({"set_fused", "set_jit", "set_default_dtype"})
#: path fragments of the serving stack, where process-global policy
#: flips race concurrent request threads.
_SERVING_FRAGMENTS = ("/serve/", "streaming.py", "/robustness/")


def _tail_name(func: ast.AST) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class ThreadLocalPolicyRule(Rule):
    """TLS001: the ``set_*``/``use_*`` policy trios, used as designed."""

    code = TLS_CODE
    summary = ("thread-local policy misuse: un-entered use_* context "
               "manager, with set_*(), or process-global set_* inside "
               "the serving stack")

    def check(self, tree: ast.Module, path: str):
        normalized = path.replace("\\", "/")
        in_serving = any(fragment in normalized
                         for fragment in _SERVING_FRAGMENTS)
        reported: set[tuple[int, int]] = set()

        for node in ast.walk(tree):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                name = _tail_name(node.value.func)
                if name in _USE_NAMES:
                    yield self.violation(
                        path, node,
                        f"{name}(...) builds a context manager that is "
                        f"never entered — a silent no-op; write "
                        f"`with {name}(...):`",
                    )
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Call):
                        name = _tail_name(item.context_expr.func)
                        if name in _SET_NAMES:
                            reported.add((item.context_expr.lineno,
                                          item.context_expr.col_offset))
                            yield self.violation(
                                path, item.context_expr,
                                f"`with {name}(...)` — the setter mutates "
                                f"the process-wide default and is not a "
                                f"context manager; use the thread-local "
                                f"`use_*`/`default_dtype` override",
                            )
            if in_serving and isinstance(node, ast.Call):
                name = _tail_name(node.func)
                if name in _SET_NAMES \
                        and (node.lineno, node.col_offset) not in reported:
                    yield self.violation(
                        path, node,
                        f"{name}(...) flips a process-global policy "
                        f"inside the serving stack, racing every other "
                        f"request thread; use the scoped "
                        f"`use_*`/`default_dtype` context managers",
                    )

"""JIT001: no Tensor construction inside tape-replay code paths.

The whole point of :mod:`repro.nn.jit` is that *replay* touches raw
``numpy`` arrays only — tapes are traced once through the interpreted
graph, then re-executed with zero ``Tensor`` wrapping, zero autograd
node construction, and zero op-hook dispatch.  A ``Tensor(...)`` or
``as_tensor(...)`` call creeping into the jit module re-introduces
exactly the per-op overhead the tape exists to remove, and (worse) can
silently route replay back through the graph where a hook might observe
phantom ops.

Scope: ``nn/jit.py``.  Tracing itself never needs to *build* tensors —
it observes a forward the caller already ran; resolution works on
``.data`` buffers by identity.  If a future change genuinely needs a
Tensor inside the jit module (e.g. a fallback that re-enters the
interpreted path by calling back into model code), construct it at the
call site outside the module or suppress with a justification.
"""

from __future__ import annotations

import ast

from .base import Rule, dotted_name

_CONSTRUCTORS = frozenset({"Tensor", "as_tensor", "nn.Tensor", "tensor.Tensor"})


class JitTensorRule(Rule):
    code = "JIT001"
    summary = "Tensor constructed inside tape-replay code"

    def applies_to(self, path: str) -> bool:
        normalized = path.replace("\\", "/")
        return normalized.endswith("nn/jit.py")

    def check(self, tree: ast.Module, path: str):
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and dotted_name(node.func) in _CONSTRUCTORS
            ):
                yield self.violation(
                    path, node,
                    "tape trace/replay must stay on raw numpy arrays; "
                    "constructing a Tensor here re-adds the graph and "
                    "dispatch overhead the tape removes",
                )

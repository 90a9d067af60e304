"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the ``repro.nn`` substrate that replaces
PyTorch in this reproduction.  A :class:`Tensor` wraps a ``numpy.ndarray``
and records the operations applied to it; calling :meth:`Tensor.backward`
propagates gradients through the recorded graph in reverse topological
order.

Design notes
------------
* Gradients are plain ``numpy.ndarray`` objects accumulated into
  ``Tensor.grad``; they are never part of the graph (first-order autodiff
  only), which is all the paper's training procedure requires.
* Every binary operation supports numpy broadcasting.  The helper
  :func:`_unbroadcast` folds an output-shaped gradient back onto the input
  shape by summing over broadcast axes.
* ``Tensor.detach`` implements the stop-gradient operator used by TFMAE's
  adversarial contrastive objective (Eq. 15 of the paper), where the
  temporal branch is frozen while minimising and the frequency branch is
  frozen while maximising.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .dtype import resolve_dtype

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "op_hook"]

# Per-thread: the serving worker pool scores under no_grad() concurrently
# with training elsewhere; a process-global flag would race (interleaved
# save/restore can leave gradients disabled for everyone).
_GRAD_STATE = threading.local()

# Per-thread op-observation hooks (see repro.analysis).  A hook object may
# define ``after_forward(out, parents)`` — called right after any op
# builds its result tensor, whether or not the result records gradients —
# and ``after_backward(node)`` — called right after a node's backward
# closure ran during ``Tensor.backward``.  Thread-local so a tracer or
# sanitizer on one thread never observes ops from concurrent serving or
# training threads.
#
# The class-level ``hooks = None`` default makes the no-hook hot path a
# single attribute load (``_HOOK_STATE.hooks``): threads that never
# install a hook fall through to the class attribute instead of paying a
# ``getattr(..., default)`` call per dispatched op.


class _HookState(threading.local):
    hooks: list | None = None


_HOOK_STATE = _HookState()


class op_hook:
    """Context manager installing an op-observation hook on this thread.

    The hook drives the static/runtime analyses in :mod:`repro.analysis`:
    the shape/dtype tracer records every dispatched op's metadata and the
    anomaly sanitizer checks forward outputs and backward gradients for
    NaN/Inf.  Hooks nest (innermost installed last, all active hooks are
    invoked) and are strictly thread-local.
    """

    def __init__(self, hook):
        self.hook = hook

    def __enter__(self):
        hooks = _HOOK_STATE.hooks
        if hooks is None:
            hooks = _HOOK_STATE.hooks = []
        hooks.append(self.hook)
        return self.hook

    def __exit__(self, *exc_info) -> None:
        _HOOK_STATE.hooks.pop()
        if not _HOOK_STATE.hooks:
            _HOOK_STATE.hooks = None


class no_grad:
    """Context manager that disables graph construction.

    Used during inference (anomaly scoring) where gradients are not needed,
    mirroring ``torch.no_grad``.  The flag is thread-local, so concurrent
    inference threads never disturb a training thread.
    """

    def __enter__(self) -> "no_grad":
        self._prev = is_grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, *exc_info) -> None:
        _GRAD_STATE.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether new operations record gradient information."""
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape`` after broadcasting.

    Summation happens over axes that were added by broadcasting (leading
    axes) and axes whose original extent was 1.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes introduced by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value, dtype=None) -> np.ndarray:
    """Coerce to a float array of ``dtype`` (default: the active compute dtype).

    The default is governed by :mod:`repro.nn.dtype` — float64 unless a
    caller opted into float32 via ``set_default_dtype`` or a
    ``default_dtype`` context (e.g. a model with ``compute_dtype``).
    """
    dtype = resolve_dtype(dtype)
    if isinstance(value, np.ndarray):
        if value.dtype == dtype:
            return value
        return value.astype(dtype)
    return np.asarray(value, dtype=dtype)


class Tensor:
    """A differentiable multi-dimensional array.

    Parameters
    ----------
    data:
        Anything convertible to a ``numpy.ndarray`` of floats.
    requires_grad:
        Whether this tensor should accumulate gradients when
        :meth:`backward` is called on a downstream scalar.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name",
                 "_topo", "op", "_site", "_meta")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None,
                 dtype=None):
        self.data: np.ndarray = _as_array(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name
        self._topo: list[Tensor] | None = None
        #: Name of the op that created this tensor (None for leaves);
        #: populated by :meth:`_make` for every non-leaf node.
        self.op: str | None = None
        #: Creation site captured by the anomaly sanitizer (see
        #: repro.analysis.anomaly); None unless detect_anomaly is active.
        self._site = None

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    # ------------------------------------------------------------------
    # graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None] | None,
        op: str = "op",
        meta: dict | None = None,
    ) -> "Tensor":
        """Create a result tensor, attaching graph edges when enabled.

        ``requires_grad`` is sampled at *record* time and pinned: if a
        parent was frozen when the operation ran (e.g. inside
        :func:`repro.nn.module.frozen`) it must not receive gradient even
        if it has been unfrozen by the time ``backward()`` executes — and
        vice versa.  The wrapper temporarily restores the record-time
        flags around the op's backward closure, whose accumulations check
        ``requires_grad``.

        ``backward=None`` marks a deliberately non-differentiable op (the
        stable-softmax shift): the result never requires grad, but hooks
        still observe it with its parents, so tracers see the data flow.

        ``meta`` carries the op's non-tensor attributes (axis, index
        arrays, shapes, …) for op hooks; it is attached to the result
        only while a hook is installed, so the no-hook path pays nothing
        beyond building the (small) literal at the call site.
        """
        requires = (
            backward is not None
            and is_grad_enabled()
            and any(p.requires_grad for p in parents)
        )
        out = Tensor(data, requires_grad=requires)
        out.op = op
        if requires:
            parents = tuple(parents)
            snapshot = tuple(p.requires_grad for p in parents)

            def gated_backward(grad: np.ndarray) -> None:
                current = tuple(p.requires_grad for p in parents)
                for parent, recorded in zip(parents, snapshot):
                    parent.requires_grad = recorded
                try:
                    backward(grad)
                finally:
                    for parent, flag in zip(parents, current):
                        parent.requires_grad = flag

            out._parents = parents
            out._backward = gated_backward
        hooks = _HOOK_STATE.hooks
        if hooks:
            # Hooks observe every dispatched op, including ones that do
            # not record gradients (no_grad scoring, constant subgraphs):
            # the dtype tracer must see the full forward.
            out._meta = meta
            for hook in hooks:
                after_forward = getattr(hook, "after_forward", None)
                if after_forward is not None:
                    after_forward(out, tuple(parents))
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            # Private, owned buffer: later accumulations add into it
            # in place instead of allocating a fresh sum array each time.
            # order="C" matters for bitwise reproducibility: np.array's
            # default order="K" preserves the layout of strided views
            # (e.g. transpose backward), and downstream reductions sum in
            # a layout-dependent pairwise order, so sums over a gradient
            # would depend on the layout of its first contribution.
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True, order="C")
        else:
            np.add(self.grad, grad, out=self.grad)

    def detach(self) -> "Tensor":
        """Return a view of the data that is cut from the autograd graph.

        This is the stop-gradient primitive: the returned tensor shares the
        numerical values but contributes no gradient to upstream tensors.
        """
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ones, which is only sensible for scalar outputs.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar output")
            grad = np.ones_like(self.data)
        grad = _as_array(grad, dtype=self.data.dtype)

        # Topological order via iterative DFS (avoids recursion limits on
        # deep graphs such as unrolled RNNs).  The order is cached on this
        # tensor so a second backward over the same retained graph (e.g.
        # gradient accumulation or per-term diagnostics) skips the walk.
        topo = self._topo
        if topo is None:
            topo = []
            visited: set[int] = set()
            stack: list[tuple[Tensor, bool]] = [(self, False)]
            while stack:
                node, processed = stack.pop()
                if processed:
                    topo.append(node)
                    continue
                if id(node) in visited:
                    continue
                visited.add(id(node))
                stack.append((node, True))
                for parent in node._parents:
                    if id(parent) not in visited and parent.requires_grad:
                        stack.append((parent, False))
            self._topo = topo

        self._accumulate(grad)
        hooks = _HOOK_STATE.hooks
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if hooks:
                    for hook in hooks:
                        after_backward = getattr(hook, "after_backward", None)
                        if after_backward is not None:
                            after_backward(node)

    # ------------------------------------------------------------------
    # elementwise arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.shape))
            other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward, op="add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward, op="neg")

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.shape))
            other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward, op="mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other.data, self.shape))
            other._accumulate(
                _unbroadcast(-grad * self.data / (other.data**2), other.shape)
            )

        return Tensor._make(out_data, (self, other), backward, op="div")

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log composition")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward, op="pow",
                            meta={"exponent": exponent})

    # ------------------------------------------------------------------
    # elementwise transcendental functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward, op="exp")

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward, op="log")

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward, op="sqrt")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward, op="tanh")

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward, op="sigmoid")

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward, op="relu")

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sign)

        return Tensor._make(out_data, (self,), backward, op="abs")

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward, op="clip",
                            meta={"low": low, "high": high})

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward, op="sum",
                            meta={"axis": axis, "keepdims": keepdims})

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Biased (population) variance, matching layer-norm conventions."""
        mu = self.mean(axis=axis, keepdims=True)
        centred = self - mu
        return (centred * centred).mean(axis=axis, keepdims=keepdims)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            full = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                full = np.expand_dims(out_data, axis=axis)
            mask = self.data == full
            # Split gradient evenly among ties, matching numpy semantics
            # closely enough for optimisation purposes.
            count = mask.sum(axis=axis if axis is not None else None, keepdims=True)
            self._accumulate(np.where(mask, g / count, 0.0))

        return Tensor._make(out_data, (self,), backward, op="max",
                            meta={"axis": axis, "keepdims": keepdims})

    # ------------------------------------------------------------------
    # linear algebra and shape manipulation
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product supporting batched operands of ``ndim >= 2``.

        The 1-D dot product is also supported; mixed 1-D/N-D products are
        not, since nothing in the library needs them.
        """
        other = self._coerce(other)
        a, b = self.data, other.data
        if (a.ndim == 1) != (b.ndim == 1):
            raise NotImplementedError("mixed 1-D / N-D matmul is not supported")
        out_data = a @ b

        def backward(grad: np.ndarray) -> None:
            if a.ndim == 1:  # dot product
                self._accumulate(grad * b)
                other._accumulate(grad * a)
                return
            grad_a = grad @ np.swapaxes(b, -1, -2)
            grad_b = np.swapaxes(a, -1, -2) @ grad
            self._accumulate(_unbroadcast(grad_a, self.shape))
            other._accumulate(_unbroadcast(grad_b, other.shape))

        return Tensor._make(out_data, (self, other), backward, op="matmul")

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward, op="transpose",
                            meta={"axes": axes})

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward, op="reshape",
                            meta={"shape": shape})

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward, op="getitem",
                            meta={"index": index})

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

        return Tensor._make(out_data, tuple(tensors), backward, op="concat",
                            meta={"axis": axis})

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            parts = np.split(grad, len(tensors), axis=axis)
            for tensor, part in zip(tensors, parts):
                tensor._accumulate(np.squeeze(part, axis=axis))

        return Tensor._make(out_data, tuple(tensors), backward, op="stack",
                            meta={"axis": axis})

    @staticmethod
    def scatter(src: "Tensor", index, shape: tuple[int, ...]) -> "Tensor":
        """Place ``src`` into a zero tensor of ``shape`` at ``index``.

        ``index`` is any numpy fancy index (e.g. a tuple of integer
        arrays); the backward pass gathers the gradient at the same
        positions.  Used to scatter encoder outputs back to their original
        time positions in the temporal masked autoencoder.
        """
        src = src if isinstance(src, Tensor) else Tensor(src)
        out_data = np.zeros(shape, dtype=src.data.dtype)
        np.add.at(out_data, index, src.data)

        def backward(grad: np.ndarray) -> None:
            src._accumulate(grad[index])

        return Tensor._make(out_data, (src,), backward, op="scatter",
                            meta={"index": index, "shape": shape})

    @staticmethod
    def where(condition: np.ndarray, a: "Tensor", b: "Tensor") -> "Tensor":
        a = a if isinstance(a, Tensor) else Tensor(a)
        b = b if isinstance(b, Tensor) else Tensor(b)
        cond = np.asarray(condition, dtype=bool)
        out_data = np.where(cond, a.data, b.data)

        def backward(grad: np.ndarray) -> None:
            a._accumulate(_unbroadcast(np.where(cond, grad, 0.0), a.shape))
            b._accumulate(_unbroadcast(np.where(cond, 0.0, grad), b.shape))

        return Tensor._make(out_data, (a, b), backward, op="where",
                            meta={"condition": cond})

    # ------------------------------------------------------------------
    # composite helpers frequently used by the models
    # ------------------------------------------------------------------
    def _max_stat(self, axis: int) -> "Tensor":
        """Stable-softmax shift: the max as a *non-differentiable* op.

        ``softmax(x - c) == softmax(x)`` for any constant ``c``, so the
        shift is deliberately constant w.r.t. differentiation — the
        composite's gradient is exact without flowing through the max.
        Routed through :meth:`_make` with ``backward=None`` (instead of
        wrapping ``self.data`` in a fresh leaf) so op hooks — the jit
        tape builder in particular — see where the value comes from.
        """
        return Tensor._make(
            self.data.max(axis=axis, keepdims=True), (self,), None,
            op="max_stat", meta={"axis": axis, "keepdims": True},
        )

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - self._max_stat(axis)
        exp = shifted.exp()
        return exp / exp.sum(axis=axis, keepdims=True)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - self._max_stat(axis)
        return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def as_tensor(value, requires_grad: bool = False) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` without copying existing tensors."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)

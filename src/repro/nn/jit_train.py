"""Trace-compiled training: a tape JIT for the whole train step.

:mod:`repro.nn.jit` compiles the *scoring* graph; this module extends the
same tape machinery to the full training step — ``loss`` forward,
``backward`` and the optimiser update — so ``Trainer.fit`` and
``TFMAE.refit`` stop paying per-op Python dispatch on every batch:

1. **Trace** — one *real* interpreted step runs under the thread-local
   op hook.  The forward is recorded exactly as the scoring tape records
   it; during ``loss.backward()`` the hook's ``after_backward`` records
   the order in which the autograd closures ran, so the backward phase
   becomes a first-class step list of its own.  The optimiser update is
   recorded structurally (parameter/slot identities) from the optimiser
   object.  The traced batch itself uses its own interpreted results,
   so the training trajectory never depends on whether compilation
   succeeds.
2. **Compile** — forward, backward and update are code-generated into
   **one** Python generator function: ``next()`` runs the forward and
   yields the loss/metric buffers, the second ``next()`` runs the
   backward into planned gradient buffers, the third runs the in-place
   Adam update.  A liveness planner shares one buffer pool across all
   three phases (activations a backward formula still needs are kept
   alive until exactly their backward step); parameter gradients get
   dedicated buffers that are re-bound to ``param.grad`` every replay.
3. **Replay** — per ``(batch shape, fused policy)`` key, subsequent
   batches run the generated function over a per-thread frame: zero
   graph construction, zero closure dispatch, zero per-op allocation
   for buffered steps, and in-place parameter updates.

Every emitted kernel mirrors the *exact* numpy operation sequence of the
interpreted op's backward closure (and of ``Adam.step``), so the compiled
trajectory is **bitwise-identical** to the interpreted one: same
per-batch losses, same final ``state_dict``, same RNG stream — resume,
rollback and checkpoints stay exactly reproducible across the toggle.

Guard semantics extend the scoring tape's: a tape replays only while
every traced parameter still binds its traced array (and requires-grad
flag) and — when the update phase is compiled — the optimiser still owns
the traced moment buffers with the traced hyper-parameters.  Anything
else (checkpoint restore, rollback, refit, ``to_dtype``) invalidates the
cache and retraces.  Unsupported graphs (active dropout masks, ``max``
in the backward, gradient flow into untraced leaves) soft-fail: the key
is negative-cached and the interpreted path is used, consuming the same
RNG.

The :func:`use_train_jit` / :func:`set_train_jit` /
:func:`train_jit_enabled` switch trio mirrors :func:`repro.nn.jit.set_jit`
exactly.  Failures raised *inside* a compiled step are re-raised as
:class:`CompiledStepError` naming the op and its recorded creation site
instead of the anonymous ``exec`` frame; when ``detect_anomaly`` is
active the step always runs interpreted so the sanitizer's op attribution
is untouched.

This module never constructs tensors — it only observes them through the
hook.  Lint rule JIT001 (:mod:`repro.analysis`) enforces this.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import OrderedDict

import numpy as np

from .dtype import default_dtype
from .fused import _GELU_COEFF, _SQRT_2_OVER_PI, fused_enabled
from .jit import (
    _CONST,
    _NP_CALL,
    _SLOT,
    _STEP,
    _classify,
    _Codegen,
    _COMPILERS,
    _reduced_shape,
    _scratch_specs,
    _Step,
    _TapeBuilder,
    TraceUnsupported,
)
from .optim import Adam
from .tensor import _HOOK_STATE, _unbroadcast, op_hook

__all__ = [
    "train_jit_enabled",
    "set_train_jit",
    "use_train_jit",
    "TrainStep",
    "TrainTape",
    "CompiledStepError",
    "TraceUnsupported",
]

_global_enabled = True
_local = threading.local()

#: Negative-cache sentinel for specialization keys that hit a
#: trace-unsupported op — the interpreted path is used without retracing.
_UNSUPPORTED = object()

_FILENAME = "<repro.nn.jit_train.TrainTape>"
_NN_DIR = os.path.dirname(os.path.abspath(__file__))


def train_jit_enabled() -> bool:
    """Whether train-step compilation is active on this thread (default True).

    A thread-local :class:`use_train_jit` override wins over the
    :func:`set_train_jit` process default.
    """
    stack = getattr(_local, "stack", None)
    if stack:
        return stack[-1]
    return _global_enabled


def set_train_jit(enabled: bool) -> None:
    """Set the process-wide default for train-step compilation.

    Threads currently inside a :class:`use_train_jit` block keep their
    own override; everyone else observes the new default immediately.
    """
    global _global_enabled
    _global_enabled = bool(enabled)


class use_train_jit:
    """Thread-local train-step-compilation override (context manager).

    Scoped to the current thread only, mirroring
    :class:`repro.nn.jit.use_jit`, so an equivalence test pinning the
    interpreted loop never disturbs concurrent training threads.
    """

    def __init__(self, enabled: bool):
        self.enabled = bool(enabled)

    def __enter__(self) -> "use_train_jit":
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        stack.append(self.enabled)
        return self

    def __exit__(self, *exc_info) -> None:
        _local.stack.pop()


class CompiledStepError(RuntimeError):
    """A failure inside a compiled train step, mapped back to its op.

    Carries the culpable op name, the phase (forward/backward/update)
    and the op's recorded creation site so diagnostics keep naming model
    code rather than the generated ``exec`` frame.
    """

    def __init__(self, message: str, op: str | None = None,
                 phase: str | None = None, site: str | None = None):
        super().__init__(message)
        self.op = op
        self.phase = phase
        self.site = site


def _capture_site() -> str | None:
    """First stack frame outside ``repro/nn`` — the op's creation site."""
    frame = sys._getframe(2)
    while frame is not None:
        code = frame.f_code
        if not code.co_filename.startswith(_NN_DIR):
            return f"{code.co_filename}:{frame.f_lineno} ({code.co_name})"
        frame = frame.f_back
    return None


class _TrainTapeBuilder(_TapeBuilder):
    """Op hook recording one interpreted train step (forward + backward).

    Extends the scoring builder with everything the backward compiler
    needs: per-parent gradient targets (an earlier step or a parameter),
    the closure execution order observed during ``loss.backward()``, a
    data-identity fallback so ``detach()`` leaves resolve to the step
    whose array they share, and per-step creation sites for error
    attribution.
    """

    def __init__(self, slots: dict, params) -> None:
        super().__init__(slots, params)
        self.data_step: dict[int, int] = {}
        self.parent_targets: list[tuple] = []
        self.sites: list[str | None] = []
        self.backward_items: list[int] = []

    def after_forward(self, out, parents) -> None:
        if self.failed is not None:
            return
        op = out.op
        try:
            if op not in _COMPILERS:
                raise TraceUnsupported(f"op {op!r} has no replay kernel")
            refs = tuple(self._resolve_parent(p) for p in parents)
            meta = self._resolve_meta(op, getattr(out, "_meta", None))
            targets = tuple(self._resolve_target(p) for p in parents)
        except TraceUnsupported as error:
            self.failed = str(error)
            return
        index = len(self.steps)
        self.steps.append(
            _Step(op, out.data, tuple(p.data for p in parents), refs, meta)
        )
        self.tensor_step[id(out)] = index
        self.data_step[id(out.data)] = index
        self.parent_targets.append(targets)
        self.sites.append(_capture_site())
        self.keepalive.append(out)

    def _resolve_parent(self, parent):
        index = self.tensor_step.get(id(parent))
        if index is not None:
            return (_STEP, index)
        data = parent.data
        name = self._slot_ids.get(id(data))
        if name is not None:
            return (_SLOT, name)
        param = self._param_ids.get(id(data))
        if param is not None:
            if id(param) not in self._guard_ids:
                self._guard_ids.add(id(param))
                self.guards.append((param, data))
            return (_CONST, data)
        # ``detach()`` wraps a traced step's array in a fresh leaf: the
        # values are that step's output, so replay reads its buffer.
        index = self.data_step.get(id(data))
        if index is not None:
            return (_STEP, index)
        if data.size <= 1:
            return (_CONST, data.copy())
        raise TraceUnsupported(
            f"leaf array of shape {data.shape} is neither a registered "
            "input slot nor a parameter"
        )

    def _resolve_target(self, parent):
        """Where this parent's gradient accumulates, or None for no-grad."""
        if not parent.requires_grad:
            return None
        index = self.tensor_step.get(id(parent))
        if index is not None:
            return ("s", index)
        param = self._param_ids.get(id(parent.data))
        if param is not None:
            return ("p", param)
        raise TraceUnsupported(
            f"gradient flows into an untraced leaf (op {parent.op!r})"
        )

    def after_backward(self, node) -> None:
        if self.failed is not None:
            return
        index = self.tensor_step.get(id(node))
        if index is None:
            self.failed = "backward reached an untraced node"
            return
        self.backward_items.append(index)

# ----------------------------------------------------------------------
# forward variant: GELU that keeps tanh(u) alive for its backward
# ----------------------------------------------------------------------
def _emit_train_gelu(cg, i, step, kind, buf_id, scratch_ids):
    """``fused_gelu`` forward, value-identical to the scoring emitter, but
    with ``t = tanh(u)`` landing in a persistent scratch (the scoring
    emitter destroys it computing ``t + 1``)."""
    a, buf = cg.ref(step.refs[0]), cg.buf(buf_id)
    t, tmp = cg.buf(scratch_ids[0]), cg.buf(scratch_ids[1])
    cg.emit(f"np.multiply({a}, {a}, out={t})")
    cg.emit(f"np.multiply({t}, {a}, out={t})")
    cg.emit(f"np.multiply({t}, {cg.lit(_GELU_COEFF)}, out={t})")
    cg.emit(f"np.add({a}, {t}, out={t})")
    cg.emit(f"np.multiply({t}, {cg.lit(_SQRT_2_OVER_PI)}, out={t})")
    cg.emit(f"np.tanh({t}, out={t})")
    cg.emit(f"np.multiply({a}, 0.5, out={buf})")
    cg.emit(f"np.add({t}, 1.0, out={tmp})")
    cg.emit(f"e{i} = np.multiply({buf}, {tmp}, out={buf})")


#: Fused ops whose backward reads forward intermediates: how many leading
#: scratch buffers must survive until the op's backward step runs.
#: layer_norm keeps (x_hat, std); attention keeps the softmax weights;
#: the train-gelu variant above keeps tanh(u).
_PERSIST = {"fused_layer_norm": 2, "fused_attention": 1, "fused_gelu": 1}


# ----------------------------------------------------------------------
# backward kernel emitters
# ----------------------------------------------------------------------
class _BwdCtx:
    """Emission context for one backward item (one closure's replay).

    Wraps the codegen plus the gradient-contribution machinery so each
    per-op emitter below only spells out the closure's exact numpy
    sequence.  ``contrib(k, raw_shape, recipe)`` routes one parent's raw
    gradient (a string expression, or a callable emitting lines into a
    target) through the same init-copy/accumulate semantics as
    ``Tensor._accumulate``, including ``_unbroadcast`` when the raw shape
    differs from the parent's.
    """

    __slots__ = ("cg", "step", "index", "out", "g",
                 "_targets", "_fwd", "_scratch", "_contribute")

    def __init__(self, cg, step, index, out, g, targets,
                 fwd_scratch, scratch, contribute):
        self.cg = cg
        self.step = step
        self.index = index
        self.out = out
        self.g = g
        self._targets = targets
        self._fwd = fwd_scratch
        self._scratch = scratch
        self._contribute = contribute

    @property
    def oshape(self):
        return self.step.out_data.shape

    @property
    def odtype(self):
        return self.step.out_data.dtype

    def ref(self, k):
        return self.cg.ref(self.step.refs[k])

    def pshape(self, k):
        return self.step.parent_datas[k].shape

    def pdtype(self, k):
        return self.step.parent_datas[k].dtype

    def lit(self, obj):
        return self.cg.lit(obj)

    def line(self, text):
        self.cg.emit(text)

    def wants(self, k):
        return self._targets[k] is not None

    def scratch(self, shape, dtype):
        """A pooled temporary living only for this backward item."""
        return self._scratch(tuple(shape), dtype)

    def fwd(self, j):
        """Expression for the op's j-th persisted forward scratch."""
        return self._fwd[j]

    def contrib(self, k, raw_shape, recipe):
        self._contribute(k, tuple(raw_shape), recipe)

    def call(self, k, raw_shape, fn, *args):
        """Contribution computed by one ``np.<fn>(*args, out=target)``."""
        joined = ", ".join(args)
        self._contribute(
            k, tuple(raw_shape),
            lambda target: [f"np.{fn}({joined}, out={target})"],
        )


def _bwd_add(ctx):
    ctx.contrib(0, ctx.oshape, ctx.g)
    ctx.contrib(1, ctx.oshape, ctx.g)


def _bwd_neg(ctx):
    ctx.call(0, ctx.oshape, "negative", ctx.g)


def _bwd_mul(ctx):
    ctx.call(0, ctx.oshape, "multiply", ctx.g, ctx.ref(1))
    ctx.call(1, ctx.oshape, "multiply", ctx.g, ctx.ref(0))


def _bwd_div(ctx):
    ctx.call(0, ctx.oshape, "divide", ctx.g, ctx.ref(1))
    if ctx.wants(1):
        b = ctx.ref(1)
        sq = ctx.scratch(ctx.pshape(1), ctx.pdtype(1))

        def lines(target):
            return [
                f"np.negative({ctx.g}, out={target})",
                f"np.multiply({target}, {ctx.ref(0)}, out={target})",
                f"np.multiply({b}, {b}, out={sq})",
                f"np.divide({target}, {sq}, out={target})",
            ]

        ctx.contrib(1, ctx.oshape, lines)


def _bwd_pow(ctx):
    exponent = ctx.step.meta["exponent"]
    g, a = ctx.g, ctx.ref(0)

    def lines(target):
        return [
            f"np.multiply({g}, {ctx.lit(exponent)}, out={target})",
            f"np.multiply({target}, {a} ** {ctx.lit(exponent - 1)}, "
            f"out={target})",
        ]

    ctx.contrib(0, ctx.oshape, lines)


def _bwd_exp(ctx):
    ctx.call(0, ctx.oshape, "multiply", ctx.g, ctx.out)


def _bwd_log(ctx):
    ctx.call(0, ctx.oshape, "divide", ctx.g, ctx.ref(0))


def _bwd_sqrt(ctx):
    def lines(target):
        return [
            f"np.multiply({ctx.g}, 0.5, out={target})",
            f"np.divide({target}, {ctx.out}, out={target})",
        ]

    ctx.contrib(0, ctx.oshape, lines)


def _bwd_tanh(ctx):
    def lines(target):
        return [
            f"np.multiply({ctx.out}, {ctx.out}, out={target})",
            f"np.subtract(1.0, {target}, out={target})",
            f"np.multiply({ctx.g}, {target}, out={target})",
        ]

    ctx.contrib(0, ctx.oshape, lines)


def _bwd_sigmoid(ctx):
    comp = ctx.scratch(ctx.oshape, ctx.odtype)

    def lines(target):
        return [
            f"np.subtract(1.0, {ctx.out}, out={comp})",
            f"np.multiply({ctx.g}, {ctx.out}, out={target})",
            f"np.multiply({target}, {comp}, out={target})",
        ]

    ctx.contrib(0, ctx.oshape, lines)


def _bwd_relu(ctx):
    ctx.call(0, ctx.oshape, "multiply", ctx.g, f"np.greater({ctx.ref(0)}, 0)")


def _bwd_abs(ctx):
    ctx.call(0, ctx.oshape, "multiply", ctx.g, f"np.sign({ctx.ref(0)})")


def _bwd_clip(ctx):
    low, high = ctx.lit(ctx.step.meta["low"]), ctx.lit(ctx.step.meta["high"])
    a = ctx.ref(0)
    ctx.call(0, ctx.oshape, "multiply", ctx.g,
             f"(({a} >= {low}) & ({a} <= {high}))")


def _bwd_sum(ctx):
    axis = ctx.step.meta["axis"]
    keepdims = ctx.step.meta["keepdims"]
    g = ctx.g
    if axis is not None and not keepdims:
        g = f"np.expand_dims({g}, axis={ctx.lit(axis)})"
    ctx.contrib(0, ctx.pshape(0),
                f"np.broadcast_to({g}, {ctx.lit(ctx.pshape(0))})")


def _bwd_matmul(ctx):
    a, b = ctx.step.parent_datas
    g = ctx.g
    if a.ndim == 1:  # dot product
        ctx.call(0, a.shape, "multiply", g, ctx.ref(1))
        ctx.call(1, b.shape, "multiply", g, ctx.ref(0))
        return
    gshape = ctx.oshape
    raw_a = tuple(np.broadcast_shapes(gshape[:-2], b.shape[:-2])) + (
        gshape[-2], b.shape[-2])
    raw_b = tuple(np.broadcast_shapes(a.shape[:-2], gshape[:-2])) + (
        a.shape[-1], gshape[-1])
    ctx.contrib(0, raw_a, lambda target: [
        f"np.matmul({g}, np.swapaxes({ctx.ref(1)}, -1, -2), out={target})"])
    ctx.contrib(1, raw_b, lambda target: [
        f"np.matmul(np.swapaxes({ctx.ref(0)}, -1, -2), {g}, out={target})"])


def _bwd_transpose(ctx):
    inverse = tuple(int(x) for x in np.argsort(ctx.step.meta["axes"]))
    ctx.contrib(0, ctx.pshape(0), f"{ctx.g}.transpose({ctx.lit(inverse)})")


def _bwd_reshape(ctx):
    ctx.contrib(0, ctx.pshape(0),
                f"{ctx.g}.reshape({ctx.lit(ctx.pshape(0))})")


def _bwd_getitem(ctx):
    index = ctx.cg.index(ctx.step.meta["index"])

    def lines(target):
        return [
            f"{target}[...] = 0.0",
            f"np.add.at({target}, {index}, {ctx.g})",
        ]

    ctx.contrib(0, ctx.pshape(0), lines)


def _bwd_scatter(ctx):
    index = ctx.cg.index(ctx.step.meta["index"])
    ctx.contrib(0, ctx.pshape(0), f"{ctx.g}[{index}]")


def _bwd_concat(ctx):
    axis = ctx.step.meta["axis"]
    ndim = ctx.step.out_data.ndim
    start = 0
    for k, pdata in enumerate(ctx.step.parent_datas):
        stop = start + pdata.shape[axis]
        slicer = [slice(None)] * ndim
        slicer[axis] = slice(start, stop)
        ctx.contrib(k, pdata.shape,
                    f"{ctx.g}[{ctx.cg.const(tuple(slicer))}]")
        start = stop


def _bwd_stack(ctx):
    axis = ctx.lit(ctx.step.meta["axis"])
    nparts = len(ctx.step.parent_datas)
    parts = f"aux{ctx.index}"
    ctx.line(f"{parts} = np.split({ctx.g}, {nparts}, axis={axis})")
    for k, pdata in enumerate(ctx.step.parent_datas):
        ctx.contrib(k, pdata.shape,
                    f"np.squeeze({parts}[{k}], axis={axis})")


def _bwd_where(ctx):
    cond = ctx.cg.obj(ctx.step.meta["condition"])
    ctx.contrib(0, ctx.oshape, f"np.where({cond}, {ctx.g}, 0.0)")
    ctx.contrib(1, ctx.oshape, f"np.where({cond}, 0.0, {ctx.g})")


def _bwd_fused_softmax(ctx):
    axis = ctx.lit(ctx.step.meta["axis"])
    work = ctx.scratch(ctx.oshape, ctx.odtype)
    red = ctx.scratch(
        _reduced_shape(ctx.oshape, ctx.step.meta["axis"]), ctx.odtype)

    def lines(target):
        return [
            f"np.multiply({ctx.g}, {ctx.out}, out={work})",
            f"np.add.reduce({work}, axis={axis}, out={red}, keepdims=True)",
            f"np.subtract({ctx.g}, {red}, out={work})",
            f"np.multiply({ctx.out}, {work}, out={target})",
        ]

    ctx.contrib(0, ctx.oshape, lines)


def _bwd_fused_log_softmax(ctx):
    axis = ctx.lit(ctx.step.meta["axis"])
    work = ctx.scratch(ctx.oshape, ctx.odtype)
    red = ctx.scratch(
        _reduced_shape(ctx.oshape, ctx.step.meta["axis"]), ctx.odtype)

    def lines(target):
        return [
            f"np.add.reduce({ctx.g}, axis={axis}, out={red}, keepdims=True)",
            f"np.exp({ctx.out}, out={work})",
            f"np.multiply({work}, {red}, out={work})",
            f"np.subtract({ctx.g}, {work}, out={target})",
        ]

    ctx.contrib(0, ctx.oshape, lines)


def _bwd_fused_layer_norm(ctx):
    xshape, xdtype = ctx.pshape(0), ctx.pdtype(0)
    count = xshape[-1]
    x_hat, std = ctx.fwd(0), ctx.fwd(1)
    weight = ctx.ref(1)
    gw = ctx.scratch(xshape, xdtype)
    work = ctx.scratch(xshape, xdtype)
    g_mean = ctx.scratch(xshape[:-1] + (1,), xdtype)
    g_hat_mean = ctx.scratch(xshape[:-1] + (1,), xdtype)
    # ndarray.mean is add.reduce followed by an in-place divide-by-count.
    ctx.line(f"np.multiply({ctx.g}, {weight}, out={gw})")
    ctx.line(f"np.add.reduce({gw}, axis=-1, out={g_mean}, keepdims=True)")
    ctx.line(f"np.divide({g_mean}, {count}, out={g_mean})")
    ctx.line(f"np.multiply({gw}, {x_hat}, out={work})")
    ctx.line(f"np.add.reduce({work}, axis=-1, out={g_hat_mean}, keepdims=True)")
    ctx.line(f"np.divide({g_hat_mean}, {count}, out={g_hat_mean})")

    def x_lines(target):
        return [
            f"np.subtract({gw}, {g_mean}, out={gw})",
            f"np.multiply({x_hat}, {g_hat_mean}, out={work})",
            f"np.subtract({gw}, {work}, out={gw})",
            f"np.divide({gw}, {std}, out={target})",
        ]

    ctx.contrib(0, xshape, x_lines)
    ctx.call(1, ctx.oshape, "multiply", ctx.g, x_hat)
    ctx.contrib(2, ctx.oshape, ctx.g)


def _bwd_fused_gelu(ctx):
    a, g, t = ctx.ref(0), ctx.g, ctx.fwd(0)
    shape, dtype = ctx.pshape(0), ctx.pdtype(0)
    acc = ctx.scratch(shape, dtype)
    tmp = ctx.scratch(shape, dtype)
    tmp2 = ctx.scratch(shape, dtype)

    def lines(target):
        return [
            # du = sqrt(2/pi) * (1 + 3 c a^2)
            f"np.multiply({a}, {ctx.lit(3.0 * _GELU_COEFF)}, out={acc})",
            f"np.multiply({acc}, {a}, out={acc})",
            f"np.add({acc}, 1.0, out={acc})",
            f"np.multiply({acc}, {ctx.lit(_SQRT_2_OVER_PI)}, out={acc})",
            # 0.5 a (1 - t^2) du
            f"np.multiply({t}, {t}, out={tmp})",
            f"np.subtract(1.0, {tmp}, out={tmp})",
            f"np.multiply({a}, 0.5, out={tmp2})",
            f"np.multiply({tmp2}, {tmp}, out={tmp})",
            f"np.multiply({tmp}, {acc}, out={acc})",
            # + 0.5 (1 + t)
            f"np.add({t}, 1.0, out={tmp})",
            f"np.multiply({tmp}, 0.5, out={tmp})",
            f"np.add({tmp}, {acc}, out={acc})",
            f"np.multiply({g}, {acc}, out={target})",
        ]

    ctx.contrib(0, shape, lines)


def _bwd_fused_dropout_residual(ctx):
    # Mask-bearing nodes never reach compilation (the mask soft-fails the
    # trace); closure order is residual first, then x.
    ctx.contrib(1, ctx.oshape, ctx.g)
    ctx.contrib(0, ctx.oshape, ctx.g)


def _bwd_fused_attention(ctx):
    q, k, v = ctx.step.parent_datas
    gshape = ctx.oshape
    sshape = q.shape[:-1] + (k.shape[-2],)
    raw_v = tuple(np.broadcast_shapes(sshape[:-2], gshape[:-2])) + (
        sshape[-1], gshape[-1])
    raw_q = tuple(np.broadcast_shapes(sshape[:-2], k.shape[:-2])) + (
        sshape[-2], k.shape[-1])
    raw_k = tuple(np.broadcast_shapes(sshape[:-2], q.shape[:-2])) + (
        sshape[-1], q.shape[-1])
    if raw_q != q.shape or raw_k != k.shape or raw_v != v.shape:
        raise TraceUnsupported("broadcast attention backward")
    weights = ctx.fwd(0)
    s1 = ctx.scratch(sshape, ctx.odtype)
    s2 = ctx.scratch(sshape, ctx.odtype)
    red = ctx.scratch(sshape[:-1] + (1,), ctx.odtype)
    g = ctx.g
    ctx.line(f"np.matmul({g}, np.swapaxes({ctx.ref(2)}, -1, -2), out={s1})")
    ctx.contrib(2, raw_v, lambda target: [
        f"np.matmul(np.swapaxes({weights}, -1, -2), {g}, out={target})"])
    ctx.line(f"np.multiply({s1}, {weights}, out={s2})")
    ctx.line(f"np.add.reduce({s2}, axis=-1, out={red}, keepdims=True)")
    ctx.line(f"np.subtract({s1}, {red}, out={s2})")
    ctx.line(f"np.multiply({weights}, {s2}, out={s2})")
    ctx.line(f"np.multiply({s2}, {ctx.lit(ctx.step.meta['scale'])}, out={s2})")
    ctx.contrib(0, raw_q, lambda target: [
        f"np.matmul({s2}, {ctx.ref(1)}, out={target})"])
    ctx.contrib(1, raw_k, lambda target: [
        f"np.matmul(np.swapaxes({s2}, -1, -2), {ctx.ref(0)}, out={target})"])


#: op -> backward emitter.  ``max`` is deliberately absent: its
#: tie-splitting backward has no fixed numpy sequence worth mirroring, so
#: graphs differentiating through ``max`` fall back to the interpreter.
_BACKWARD = {
    "add": _bwd_add,
    "neg": _bwd_neg,
    "mul": _bwd_mul,
    "div": _bwd_div,
    "pow": _bwd_pow,
    "exp": _bwd_exp,
    "log": _bwd_log,
    "sqrt": _bwd_sqrt,
    "tanh": _bwd_tanh,
    "sigmoid": _bwd_sigmoid,
    "relu": _bwd_relu,
    "abs": _bwd_abs,
    "clip": _bwd_clip,
    "sum": _bwd_sum,
    "matmul": _bwd_matmul,
    "transpose": _bwd_transpose,
    "reshape": _bwd_reshape,
    "getitem": _bwd_getitem,
    "scatter": _bwd_scatter,
    "concat": _bwd_concat,
    "stack": _bwd_stack,
    "where": _bwd_where,
    "fused_softmax": _bwd_fused_softmax,
    "fused_log_softmax": _bwd_fused_log_softmax,
    "fused_layer_norm": _bwd_fused_layer_norm,
    "fused_gelu": _bwd_fused_gelu,
    "fused_dropout_residual": _bwd_fused_dropout_residual,
    "fused_attention": _bwd_fused_attention,
}

class TrainTape:
    """A compiled train step: one generated generator over planned buffers.

    The generated function runs in three resumable phases::

        gen = fn(slots, frame, lr, bias1, bias2)
        loss, *metrics = next(gen)   # forward
        next(gen)                    # backward into planned grad buffers
        next(gen)                    # in-place Adam update (StopIteration)

    Locals persist across ``yield``, so backward kernels read forward
    activations directly; a single liveness plan spans all three phases,
    releasing each activation buffer right after the backward step that
    last reads it.  Parameter gradients get dedicated frame buffers
    (re-bound to ``param.grad`` after the backward phase); everything
    else shares the pooled frame exactly like the scoring tape.
    """

    def __init__(self, builder, loss_tensor, metric_tensors, optimizer):
        steps = builder.steps
        n = len(steps)
        loss_step = builder.tensor_step.get(id(loss_tensor))
        if loss_step is None:
            raise TraceUnsupported("the loss is not a traced op")
        metric_names = []
        metric_steps = []
        for name, tensor in metric_tensors.items():
            index = builder.tensor_step.get(id(tensor))
            if index is None:
                raise TraceUnsupported(f"metric {name!r} is not a traced op")
            metric_names.append(name)
            metric_steps.append(index)
        items = builder.backward_items
        if not items:
            raise TraceUnsupported("no backward closures were recorded")
        bw_pos = {}
        for t, b in enumerate(items):
            if b in bw_pos:
                raise TraceUnsupported("a backward closure ran twice")
            bw_pos[b] = n + 1 + t
        for b in items:
            if steps[b].op not in _BACKWARD:
                raise TraceUnsupported(
                    f"op {steps[b].op!r} has no backward kernel")

        # ---- storage classification, exactly as the scoring tape ----
        kinds = [None] * n
        roots = [None] * n
        for i, step in enumerate(steps):
            kind = _classify(step)
            kinds[i] = kind
            if kind == "view":
                ref_kind, payload = step.refs[0]
                roots[i] = roots[payload] if ref_kind == _STEP else None
            else:
                roots[i] = i

        # ---- liveness across the forward/backward boundary ----
        # Forward reads as usual; additionally, a backward kernel may
        # read its op's own output and any parent's data, so those
        # storage roots stay alive until the kernel's position.  (This is
        # conservative for ops whose backward only reads the incoming
        # gradient — the interpreter retains every activation through
        # backward anyway, so peak memory only improves.)
        last_use = {}
        for i, step in enumerate(steps):
            for ref_kind, payload in step.refs:
                if ref_kind == _STEP:
                    root = roots[payload]
                    if root is not None:
                        last_use[root] = i
        for index in [loss_step, *metric_steps]:
            root = roots[index]
            if root is not None:
                last_use[root] = max(last_use.get(root, 0), n)
        for b, pos in bw_pos.items():
            needed = [roots[b]]
            needed += [roots[payload] for ref_kind, payload in steps[b].refs
                       if ref_kind == _STEP]
            for root in needed:
                if root is not None:
                    last_use[root] = max(last_use.get(root, -1), pos)
        deaths = {}
        for i in range(n):
            if kinds[i] == "buffer":
                deaths.setdefault(last_use.get(i, i), []).append(i)

        # ---- one buffer pool shared by all three phases ----
        specs = []
        free = {}
        buffer_of = {}

        def acquire(shape, dtype, at):
            key = (tuple(shape), str(dtype))
            pool = free.get(key)
            if pool:
                for slot, (buf_id, avail_from) in enumerate(pool):
                    if avail_from <= at:
                        pool.pop(slot)
                        return buf_id
            specs.append((tuple(shape), np.dtype(dtype)))
            return len(specs) - 1

        def release(buf_id, shape, dtype, avail_from):
            free.setdefault((tuple(shape), str(dtype)), []).append(
                (buf_id, avail_from))

        def dedicated(shape, dtype):
            # Never pooled: the buffer outlives the call as param.grad.
            specs.append((tuple(shape), np.dtype(dtype)))
            return len(specs) - 1

        codegen = _Codegen()
        tags = []

        def tag_to(phase, op, site):
            while len(tags) < len(codegen.lines):
                tags.append((phase, op, site))

        def release_deaths(pos):
            for root in deaths.get(pos, ()):
                owner = steps[root].out_data
                release(buffer_of[root], owner.shape, owner.dtype, pos + 1)

        # ---- phase 1: forward ----
        fwd_scratch = {}
        persist_release = {}
        for i, step in enumerate(steps):
            buf_id = None
            scratch_ids = []
            emitter = _COMPILERS[step.op]
            if kinds[i] == "buffer":
                shape, dtype = step.out_data.shape, step.out_data.dtype
                buf_id = acquire(shape, dtype, i)
                buffer_of[i] = buf_id
                persist = _PERSIST.get(step.op, 0) if i in bw_pos else 0
                if persist and step.op == "fused_gelu":
                    emitter = _emit_train_gelu
                    parent = step.parent_datas[0]
                    scratch = ((parent.shape, parent.dtype),
                               (parent.shape, parent.dtype))
                else:
                    scratch = _scratch_specs(step)
                for s_shape, s_dtype in scratch:
                    scratch_ids.append(acquire(s_shape, s_dtype, i))
                paired = list(zip(scratch_ids, scratch))
                for sid, (s_shape, s_dtype) in paired[persist:]:
                    release(sid, s_shape, s_dtype, i + 1)
                if persist:
                    fwd_scratch[i] = [codegen.buf(sid)
                                      for sid in scratch_ids[:persist]]
                    persist_release[i] = paired[:persist]
            emitter(codegen, i, step, kinds[i], buf_id, scratch_ids)
            tag_to("forward", step.op, builder.sites[i])
            release_deaths(i)

        elems = ", ".join(f"e{index}" for index in [loss_step, *metric_steps])
        codegen.emit(f"yield ({elems},)")
        tag_to("forward", None, None)

        # ---- phase 2: backward ----
        # Gradient buffers: pooled per traced step (released right after
        # the step's own backward runs), dedicated per parameter.
        grad_buf = {}
        initialized = set()
        graded_params = []

        seed_shape = steps[loss_step].out_data.shape
        seed_dtype = steps[loss_step].out_data.dtype
        seed = acquire(seed_shape, seed_dtype, n)
        grad_buf[("s", loss_step)] = seed
        initialized.add(("s", loss_step))
        codegen.emit(f"{codegen.buf(seed)}.fill(1.0)")
        tag_to("backward", None, None)
        release_deaths(n)

        for t, b in enumerate(items):
            pos = n + 1 + t
            step = steps[b]
            if ("s", b) not in grad_buf:
                raise TraceUnsupported(
                    f"op {step.op!r} ran backward before receiving a gradient")
            item_scratches = []

            def scratch(shape, dtype, _pos=pos, _acc=item_scratches):
                buf_id = acquire(tuple(shape), dtype, _pos)
                _acc.append((buf_id, tuple(shape), dtype))
                return codegen.buf(buf_id)

            targets = builder.parent_targets[b]
            gdtype = step.out_data.dtype

            def contribute(k, raw_shape, recipe, _pos=pos, _b=b,
                           _targets=targets, _gdtype=gdtype,
                           _scratch=scratch):
                target = _targets[k]
                if target is None:
                    return
                tkind, payload = target
                if tkind == "s":
                    tshape = tuple(steps[payload].out_data.shape)
                    tdtype = steps[payload].out_data.dtype
                    key = ("s", payload)
                    buf_id = grad_buf.get(key)
                    if buf_id is None:
                        buf_id = grad_buf[key] = acquire(tshape, tdtype, _pos)
                else:
                    param = payload
                    tshape = tuple(param.data.shape)
                    tdtype = param.data.dtype
                    key = ("p", id(param))
                    buf_id = grad_buf.get(key)
                    if buf_id is None:
                        buf_id = grad_buf[key] = dedicated(tshape, tdtype)
                        graded_params.append((param, buf_id))
                if np.dtype(_gdtype) != np.dtype(tdtype):
                    raise TraceUnsupported("mixed-dtype gradient accumulation")
                T = codegen.buf(buf_id)
                first = key not in initialized
                initialized.add(key)
                if callable(recipe):
                    if raw_shape == tshape and first:
                        for line in recipe(T):
                            codegen.emit(line)
                        return
                    S = _scratch(raw_shape, tdtype)
                    for line in recipe(S):
                        codegen.emit(line)
                    src = S if raw_shape == tshape else \
                        f"ub({S}, {codegen.lit(tshape)})"
                    if first:
                        codegen.emit(f"np.copyto({T}, {src})")
                    else:
                        codegen.emit(f"np.add({T}, {src}, out={T})")
                else:
                    src = recipe if raw_shape == tshape else \
                        f"ub({recipe}, {codegen.lit(tshape)})"
                    if first:
                        codegen.emit(f"np.copyto({T}, {src})")
                    else:
                        codegen.emit(f"np.add({T}, {src}, out={T})")

            ctx = _BwdCtx(
                codegen, step, b, f"e{b}",
                codegen.buf(grad_buf[("s", b)]), targets,
                fwd_scratch.get(b, ()), scratch, contribute,
            )
            _BACKWARD[step.op](ctx)
            tag_to("backward", step.op, builder.sites[b])
            for buf_id, shape, dtype in item_scratches:
                release(buf_id, shape, dtype, pos + 1)
            release(grad_buf[("s", b)], tuple(step.out_data.shape),
                    step.out_data.dtype, pos + 1)
            for sid, (s_shape, s_dtype) in persist_release.get(b, ()):
                release(sid, s_shape, s_dtype, pos + 1)
            release_deaths(pos)

        codegen.emit("yield None")
        tag_to("backward", None, None)

        # ---- phase 3: in-place Adam update ----
        graded_ids = frozenset(id(param) for param, _ in graded_params)
        has_update = isinstance(optimizer, Adam)
        opt_guards = []
        if has_update:
            base = n + 1 + len(items)
            lit = codegen.lit
            clip = optimizer.grad_clip
            decay = optimizer.weight_decay
            beta1, beta2 = optimizer.beta1, optimizer.beta2
            for j, param in enumerate(optimizer.parameters):
                if id(param) not in graded_ids:
                    continue
                pos = base + j
                grad = codegen.buf(grad_buf[("p", id(param))])
                p_ = codegen.const(param.data)
                m_ = codegen.const(optimizer._m[j])
                v_ = codegen.const(optimizer._v[j])
                shape, dtype = param.data.shape, param.data.dtype
                a_id = acquire(shape, dtype, pos)
                b_id = acquire(shape, dtype, pos)
                A, B = codegen.buf(a_id), codegen.buf(b_id)
                codegen.emit(f"t{j} = {grad}")
                if clip is not None:
                    codegen.emit(f"n{j} = float(np.linalg.norm(t{j}))")
                    codegen.emit(f"if n{j} > {lit(clip)}:")
                    codegen.emit(f"    t{j} = np.multiply(t{j}, "
                                 f"{lit(clip)} / (n{j} + 1e-12))")
                if decay:
                    codegen.emit(f"t{j} = np.add(t{j}, "
                                 f"np.multiply({p_}, {lit(decay)}))")
                codegen.emit(f"np.multiply({m_}, {lit(beta1)}, out={m_})")
                codegen.emit(f"np.multiply(t{j}, {lit(1.0 - beta1)}, out={A})")
                codegen.emit(f"np.add({m_}, {A}, out={m_})")
                codegen.emit(f"np.multiply({v_}, {lit(beta2)}, out={v_})")
                codegen.emit(f"np.multiply(t{j}, t{j}, out={A})")
                codegen.emit(f"np.multiply({A}, {lit(1.0 - beta2)}, out={A})")
                codegen.emit(f"np.add({v_}, {A}, out={v_})")
                codegen.emit(f"np.divide({m_}, bias1, out={A})")
                codegen.emit(f"np.divide({v_}, bias2, out={B})")
                codegen.emit(f"np.sqrt({B}, out={B})")
                codegen.emit(f"np.add({B}, {lit(optimizer.eps)}, out={B})")
                codegen.emit(f"np.multiply({A}, lr, out={A})")
                codegen.emit(f"np.divide({A}, {B}, out={A})")
                codegen.emit(f"np.subtract({p_}, {A}, out={p_})")
                tag_to("update", f"adam[{j}]", None)
                release(a_id, shape, dtype, pos + 1)
                release(b_id, shape, dtype, pos + 1)
                opt_guards.append((j, param, optimizer._m[j], optimizer._v[j]))

        # ---- assembly ----
        frame_lines = [
            f"    f{buf_id} = frame[{buf_id}]"
            for buf_id in sorted(codegen.used_buffers)
        ]
        body = codegen.slot_lines + frame_lines + codegen.lines
        hoisted = sorted(
            {match.group(1) for line in body for match in _NP_CALL.finditer(line)},
            key=len,
            reverse=True,
        )
        header_args = "slots, frame, lr, bias1, bias2"
        for name in hoisted:
            local = "np_" + name.replace(".", "_")
            body = [line.replace(f"np.{name}(", f"{local}(") for line in body]
            header_args += f", {local}=np.{name}"
        self.source = "\n".join(
            [f"def _train_step({header_args}):"] + body + [""]
        )
        self._consts = tuple(codegen.consts)
        namespace = {"np": np, "C": self._consts, "ub": _unbroadcast}
        exec(compile(self.source, _FILENAME, "exec"), namespace)
        self._fn = namespace["_train_step"]

        self._tls = threading.local()
        self._frame_specs = tuple(specs)
        self._tags = tuple(tags)
        # Code lines start after the def line, the slot loads and the
        # frame loads: lineno -> tag index.
        self._tag_offset = 2 + len(codegen.slot_lines) + len(frame_lines)
        self.metric_names = tuple(metric_names)
        self._param_grads = tuple(graded_params)
        self._graded_ids = graded_ids
        self._has_update = has_update
        self._guards = tuple(
            (param, data, param.requires_grad) for param, data in builder.guards
        )
        self._opt_guards = tuple(opt_guards)
        self._opt_hypers = (
            (optimizer.beta1, optimizer.beta2, optimizer.eps,
             optimizer.weight_decay, optimizer.grad_clip,
             len(optimizer.parameters))
            if has_update else None
        )
        #: step/buffer counts, exposed for tests and diagnostics.
        self.num_steps = n
        self.num_backward = len(items)
        self.num_buffers = len(specs)

    def guards_ok(self, optimizer) -> bool:
        """True while the tape may replay for this model + optimizer.

        Checks parameter array identity and requires-grad flags (as the
        scoring tape does) plus — when the update phase is compiled —
        that the optimizer still owns the traced moment buffers with the
        traced hyper-parameters.  ``lr`` and the bias corrections are
        passed per call, so ``lr_backoff`` and step count never
        invalidate a tape.
        """
        for param, data, requires in self._guards:
            if param.data is not data or param.requires_grad != requires:
                return False
        if self._has_update:
            if not isinstance(optimizer, Adam):
                return False
            beta1, beta2, eps, decay, clip, count = self._opt_hypers
            if (optimizer.beta1 != beta1 or optimizer.beta2 != beta2
                    or optimizer.eps != eps or optimizer.weight_decay != decay
                    or optimizer.grad_clip != clip
                    or len(optimizer.parameters) != count):
                return False
            for j, param, m, v in self._opt_guards:
                if (optimizer.parameters[j] is not param
                        or optimizer._m[j] is not m
                        or optimizer._v[j] is not v):
                    return False
        return True

    def _thread_frame(self):
        frame = getattr(self._tls, "frame", None)
        if frame is None:
            frame = self._tls.frame = [
                np.empty(shape, dtype) for shape, dtype in self._frame_specs
            ]
        return frame

    def _advance(self, gen, phase, stop_ok=False):
        """Run the generator one phase, mapping failures back to their op."""
        try:
            return next(gen)
        except StopIteration:
            if stop_ok:
                return None
            raise CompiledStepError(
                f"compiled train step ended early during {phase}", phase=phase
            ) from None
        except CompiledStepError:
            raise
        except Exception as error:
            self._reraise(error, phase)

    def _reraise(self, error, phase):
        lineno = None
        traceback = error.__traceback__
        while traceback is not None:
            if traceback.tb_frame.f_code.co_filename == _FILENAME:
                lineno = traceback.tb_lineno
            traceback = traceback.tb_next
        op = site = None
        if lineno is not None:
            index = lineno - self._tag_offset
            if 0 <= index < len(self._tags):
                tag_phase, op, site = self._tags[index]
                phase = tag_phase or phase
        where = f"op {op!r}" if op else "an untagged step"
        if site:
            where += f" (created at {site})"
        raise CompiledStepError(
            f"compiled train step failed during the {phase} phase at "
            f"{where}: {error}",
            op=op, phase=phase, site=site,
        ) from error

# ----------------------------------------------------------------------
# per-batch handles — one interpreted/tracing/compiled step each
# ----------------------------------------------------------------------
class _LegacyHandle:
    """One train step through an overridden ``model.loss``.

    Instance-level ``loss`` overrides (tests poisoning the objective,
    user-wrapped losses) cannot be traced through the prelude/graph
    split, so they run the original ``model.loss(windows)`` protocol
    untouched.
    """

    compiled = False

    def __init__(self, model, windows, optimizer):
        self._optimizer = optimizer
        loss, metrics = model.loss(windows)
        self._loss = loss
        self.loss_value = loss.item()
        self.metrics = {
            name: value.item() if hasattr(value, "item") else float(value)
            for name, value in metrics.items()
        }

    def backward(self):
        self._optimizer.zero_grad()
        self._loss.backward()

    def apply_update(self):
        self._optimizer.step()


class _InterpretedHandle:
    """One train step on the reference interpreted path."""

    compiled = False

    def __init__(self, model, slots, optimizer):
        self._optimizer = optimizer
        loss, metric_tensors = model._loss_graph(slots)
        self._loss = loss
        self.loss_value = loss.item()
        self.metrics = {
            name: value.item() for name, value in metric_tensors.items()
        }

    def backward(self):
        self._optimizer.zero_grad()
        self._loss.backward()

    def apply_update(self):
        self._optimizer.step()


class _TracingHandle:
    """One interpreted step recorded through the op hook.

    The batch trains on its own interpreted results — compilation
    happens as a side effect once the update lands, so the training
    trajectory never depends on whether the trace succeeds.
    """

    compiled = False

    def __init__(self, owner, key, model, slots, optimizer):
        self._owner = owner
        self._key = key
        self._optimizer = optimizer
        builder = _TrainTapeBuilder(slots, model.parameters())
        self._builder = builder
        with op_hook(builder):
            loss, metric_tensors = model._loss_graph(slots)
        self._loss = loss
        self._metric_tensors = metric_tensors
        self.loss_value = loss.item()
        self.metrics = {
            name: value.item() for name, value in metric_tensors.items()
        }

    def backward(self):
        self._optimizer.zero_grad()
        with op_hook(self._builder):
            self._loss.backward()

    def apply_update(self):
        self._optimizer.step()
        tape = None
        if self._builder.failed is None:
            try:
                tape = TrainTape(self._builder, self._loss,
                                 self._metric_tensors, self._optimizer)
            except TraceUnsupported:
                tape = None
        self._owner._store(self._key, tape)


class _CompiledHandle:
    """One train step replayed through a compiled tape."""

    compiled = True

    def __init__(self, tape, slots, optimizer):
        self._tape = tape
        self._optimizer = optimizer
        if tape._has_update:
            step = optimizer._step + 1
            bias1 = 1.0 - optimizer.beta1 ** step
            bias2 = 1.0 - optimizer.beta2 ** step
        else:
            bias1 = bias2 = 1.0
        self._frame = tape._thread_frame()
        self._gen = tape._fn(slots, self._frame,
                             getattr(optimizer, "lr", 0.0), bias1, bias2)
        out = tape._advance(self._gen, "forward")
        self.loss_value = float(out[0])
        self.metrics = {
            name: float(value)
            for name, value in zip(tape.metric_names, out[1:])
        }

    def backward(self):
        tape = self._tape
        tape._advance(self._gen, "backward")
        frame = self._frame
        for param, buf_id in tape._param_grads:
            param.grad = frame[buf_id]
        for param in self._optimizer.parameters:
            if id(param) not in tape._graded_ids:
                param.grad = None

    def apply_update(self):
        tape = self._tape
        if tape._has_update:
            tape._advance(self._gen, "update", stop_ok=True)
            self._optimizer._step += 1
        else:
            # Unsupported optimizer: compiled forward/backward, with the
            # interpreted update reading the frame-bound gradients.
            self._optimizer.step()


class TrainStep:
    """Dispatches train steps to compiled tapes, specializing per batch.

    One instance lives on each trainer, keyed by
    ``(batch shape, dtype, fused policy)`` in an LRU of ``cache_size``
    entries — the config and compute dtype are fixed per model, and a
    fit sees at most two batch shapes (full and remainder), so unlike
    the scoring JIT the key keeps the batch size.  Unsupported keys are
    negative-cached; stale guards (checkpoint restore, rollback, refit)
    clear the cache and retrace.  ``begin`` runs the model's loss prelude exactly once per
    batch on every path, so the RNG stream is identical whether a batch
    interprets, traces or replays.
    """

    def __init__(self, model, optimizer, enabled=True, cache_size=8):
        self.model = model
        self.optimizer = optimizer
        self.enabled = bool(enabled)
        self.cache_size = int(cache_size)
        self._tapes = OrderedDict()
        #: diagnostics for the benches: tape-LRU evictions, trace count,
        #: compiled replays, interpreted fallbacks.
        self.evictions = 0
        self.traces = 0
        self.replays = 0
        self.fallbacks = 0

    def begin(self, windows):
        """Run one batch's forward; returns a step handle.

        The handle exposes ``loss_value``/``metrics`` immediately, then
        ``backward()`` and ``apply_update()`` drive the remaining
        phases — on whichever execution path was selected.
        """
        model = self.model
        if "loss" in vars(model):
            # model.loss was replaced on the instance; respect it.
            self.fallbacks += 1
            return _LegacyHandle(model, windows, self.optimizer)
        with default_dtype(model.compute_dtype):
            slots = model._loss_prelude(windows)
            if (not self.enabled or not train_jit_enabled()
                    or _HOOK_STATE.hooks):
                # An active hook means detect_anomaly (or another
                # sanitizer) is watching: run interpreted so per-op
                # attribution is exact.
                self.fallbacks += 1
                return _InterpretedHandle(model, slots, self.optimizer)
            arr = np.asarray(windows)
            key = (arr.shape, str(arr.dtype), fused_enabled())
            tape = self._tapes.get(key)
            if tape is _UNSUPPORTED:
                self._tapes.move_to_end(key)  # LRU hit
                self.fallbacks += 1
                return _InterpretedHandle(model, slots, self.optimizer)
            if tape is not None:
                if tape.guards_ok(self.optimizer):
                    self._tapes.move_to_end(key)  # LRU hit
                    self.replays += 1
                    return _CompiledHandle(tape, slots, self.optimizer)
                self._tapes.clear()
            return _TracingHandle(self, key, model, slots, self.optimizer)

    def _store(self, key, tape):
        if tape is None:
            self._tapes[key] = _UNSUPPORTED
            self.fallbacks += 1
        else:
            self._tapes[key] = tape
            self.traces += 1
        while len(self._tapes) > self.cache_size:
            self._tapes.popitem(last=False)
            self.evictions += 1

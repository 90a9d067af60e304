"""Trace-compiled inference: a tape-replay JIT for ``repro.nn`` scoring.

The interpreted autograd graph pays, per op, a wrapper allocation, Python
dispatch through ``Tensor._make``, and graph bookkeeping that inference
never uses.  This module removes all of it from the scoring hot path:

1. **Trace** — one *real* interpreted forward runs under the thread-local
   :class:`repro.nn.tensor.op_hook`.  The :class:`_TapeBuilder` hook
   observes every dispatched op and records a flat step list: the op
   name, resolved argument references, and the op's non-tensor metadata.
   The traced call's own result is returned to the caller, so tracing
   costs one interpreted forward and nothing more.
2. **Compile** — the step list becomes a :class:`Tape`: the whole tape
   is code-generated into **one** Python function (``exec``-compiled
   once at build time) whose body is the raw numpy kernel sequence —
   step outputs are locals, input slots and frame buffers are hoisted
   once per call, baked constants live in a captured pool.  A small
   liveness planner reuses output buffers across steps (a buffer freed
   at step ``s`` is reusable from ``s + 1``, so a kernel never aliases
   its own inputs); pure views (``transpose``, sharing ``reshape``/
   ``getitem``) are recreated per call instead of buffered.
3. **Replay** — subsequent calls with the same specialization key call
   the generated function over a per-thread buffer frame: zero tensor
   wrapping, zero graph construction, zero per-step dispatch, zero
   per-op allocation for the buffered steps.

**Batch polymorphism.**  The caller may name the input slots that hold
one row per window (``batch_slots``).  Every value derived from them by
data flow is *batch-major*: its leading axis is the batch, never a
baked size.  Such a tape replays at any batch size ``B``, read from the
first batch slot on each call: reshape targets are emitted as
``(B, ...)``, and each batch-major frame buffer is allocated at the
largest ``B`` seen on its thread and replayed through a ``buf[:B]``
prefix view.  A prefix view is C-contiguous with the same layout as a
fresh array of that shape, so every kernel call stays bitwise-identical
to the interpreted graph at that ``B``.  Batch-ness is never inferred
from dimension values (the window length may equal the batch size): a
batch-major step whose leading dimension is not the batch, or an op
that reduces, indexes or moves axis 0 of a batch-major value, raises
:class:`TraceUnsupported`.  A reshape target is plain ints, though, so
when another of its dimensions equals the traced ``B`` the trace cannot
tell which one the program meant as the batch; such a tape replays only
at its traced batch size (:meth:`Tape.replays_at`), and a call at
another size traces again.  A literal target entry that equals the
traced ``B`` is still read as the batch.

Argument references are resolved **by identity** at trace time:

* an array produced by an earlier traced op → that step's output;
* an array registered in the caller's input-slot dict → the slot name,
  looked up fresh on every replay.  This is how data-dependent values
  (mask indices, positional encodings, the windows themselves) stay
  dynamic, and how **parameters** enter: the caller passes each
  parameter array as a named slot, so a tape depends on the
  architecture alone, never on one instance's weights.  Rebinding
  weights (``load_state_dict``, checkpoint load, shared-memory views)
  cannot make a tape stale, and every instance with the same
  architecture can replay the same tape over its own arrays;
* a :class:`~repro.nn.module.Parameter` whose array is not a slot →
  :class:`TraceUnsupported`, whatever its size: baking it would tie the
  tape to one instance's weights;
* any other array of ``size <= 1`` → baked as a constant;
* anything else → :class:`TraceUnsupported`, which soft-fails the trace
  (the interpreted result is still returned; the caller caches the key
  as unsupported and keeps using the interpreted path).

Every replay kernel mirrors the *exact* numpy operation sequence of the
interpreted op (including the fused kernels of :mod:`repro.nn.fused`),
so replay output is bitwise-identical to the interpreted graph in both
float64 and float32.  Only the ops the TFMAE scoring graph dispatches
have a kernel; any other op (``sigmoid``, ``concat``, ...) soft-fails the
trace like an unsupported argument does.

Known replay differences (documented, not observable through scores):
op hooks do not see replayed kernels, and attention's
``last_attention`` diagnostic is not refreshed during replay.

The :func:`use_jit` / :func:`set_jit` / :func:`jit_enabled` trio is a
:class:`repro.nn.policy.Switch`: a process-wide default plus a nestable
thread-local override.

This module never constructs tensors — it only observes them through
the hook.  Lint rule JIT001 (:mod:`repro.analysis`) enforces this.
"""

from __future__ import annotations

import re
import threading

import numpy as np

from .fused import _GELU_COEFF, _SQRT_2_OVER_PI
from .module import Parameter
from .policy import Switch
from .tensor import op_hook

__all__ = [
    "jit_enabled",
    "set_jit",
    "use_jit",
    "trace",
    "trace_count",
    "Tape",
    "TraceUnsupported",
]

#: ``np.<fn>(`` / ``np.<ufunc>.at(`` / ``np.<ufunc>.reduce(`` call tokens
#: in generated replay source, for hoisting into compile-time-bound
#: default arguments.
_NP_CALL = re.compile(r"np\.(\w+(?:\.(?:at|reduce))?)\(")

_JIT = Switch(True, bool)

#: Whether tape-replay scoring is active on this thread (default True).
jit_enabled = _JIT.get
#: Set the process-wide default for tape-replay scoring.
set_jit = _JIT.set
#: Thread-local tape-replay override, usable as a context manager.
use_jit = _JIT.override


#: :func:`trace` calls so far in this process.  A trace holds the GIL
#: for a whole interpreted forward plus codegen, so on a serving process
#: with warm traffic the count should stand still.
_TRACES = 0
_TRACES_LOCK = threading.Lock()


def trace_count() -> int:
    """How many times :func:`trace` has run in this process."""
    return _TRACES


class TraceUnsupported(RuntimeError):
    """An op (or argument) the tape builder cannot replay."""


# Argument-reference kinds: an earlier step's output, a named input
# slot (resolved fresh each replay), or a baked constant.
_STEP, _SLOT, _CONST = 0, 1, 2


class _Step:
    """One observed op: its output array (trace-time), args, and meta."""

    __slots__ = ("op", "out_data", "parent_datas", "refs", "meta")

    def __init__(self, op, out_data, parent_datas, refs, meta):
        self.op = op
        self.out_data = out_data
        self.parent_datas = parent_datas
        self.refs = refs
        self.meta = meta


class _TapeBuilder:
    """Op hook that records one interpreted forward as a flat step list.

    Failure is *soft*: on the first unsupported op the builder sets
    :attr:`failed` and stops recording, letting the traced forward run
    to completion so its interpreted result is still valid (and any
    RNG consumed by the caller's prelude is consumed exactly once).
    """

    def __init__(self, slots: dict, batch_slots) -> None:
        self.slot_arrays = {
            name: value
            for name, value in slots.items()
            if isinstance(value, np.ndarray)
        }
        self._slot_ids = {id(value): name for name, value in self.slot_arrays.items()}
        #: The declared batch slots this call provides, in declaration
        #: order; the first one carries ``B`` at replay.
        self.batch_slots = tuple(
            name for name in batch_slots if name in self.slot_arrays
        )
        self.steps: list[_Step] = []
        self.tensor_step: dict[int, int] = {}
        # Every observed output tensor is kept alive for the duration of
        # the trace: under no_grad the graph holds no parent references,
        # and a collected tensor's id could be reused mid-trace.
        self.keepalive: list = []
        self.failed: str | None = None

    # -- hook interface -------------------------------------------------
    def after_forward(self, out, parents) -> None:
        if self.failed is not None:
            return
        op = out.op
        try:
            if op not in _COMPILERS:
                raise TraceUnsupported(f"op {op!r} has no replay kernel")
            refs = tuple(self._resolve_parent(p) for p in parents)
            meta = self._resolve_meta(op, getattr(out, "_meta", None))
        except TraceUnsupported as error:
            self.failed = str(error)
            return
        index = len(self.steps)
        self.steps.append(
            _Step(op, out.data, tuple(p.data for p in parents), refs, meta)
        )
        self.tensor_step[id(out)] = index
        self.keepalive.append(out)

    # -- reference resolution -------------------------------------------
    def _resolve_parent(self, parent):
        index = self.tensor_step.get(id(parent))
        if index is not None:
            return (_STEP, index)
        data = parent.data
        name = self._slot_ids.get(id(data))
        if name is not None:
            return (_SLOT, name)
        if isinstance(parent, Parameter):
            # Weights are always slots: a baked one would score every
            # instance sharing this tape with one instance's values.
            raise TraceUnsupported(
                f"parameter of shape {data.shape} is not a registered input slot"
            )
        if data.size <= 1:
            # Scalar leaves (coerced Python numbers) are immutable in
            # practice; bake a private copy to be safe.
            return (_CONST, data.copy())
        raise TraceUnsupported(
            f"leaf array of shape {data.shape} is not a registered input slot"
        )

    def _resolve_obj(self, obj):
        if isinstance(obj, np.ndarray):
            name = self._slot_ids.get(id(obj))
            if name is not None:
                return (_SLOT, name)
            if obj.size <= 1:
                return (_CONST, obj.copy())
            raise TraceUnsupported(
                f"meta array of shape {obj.shape} is not a registered input slot"
            )
        return (_CONST, obj)

    def _resolve_index(self, index):
        if isinstance(index, tuple):
            return ("tuple", tuple(self._resolve_obj(e) for e in index))
        return ("one", self._resolve_obj(index))

    def _resolve_meta(self, op, meta):
        if op in ("getitem", "scatter"):
            meta = dict(meta)
            meta["index"] = self._resolve_index(meta["index"])
        elif op == "where":
            meta = dict(meta)
            meta["condition"] = self._resolve_obj(meta["condition"])
        elif op in ("fused_dropout_residual", "fused_attention"):
            if meta.get("mask") is not None:
                raise TraceUnsupported(f"{op} with an active dropout mask")
        return meta


def trace(fn, slots: dict, batch_slots):
    """Run ``fn()`` once under the tape builder.

    Returns ``(out, tape)`` where ``out`` is the traced call's own
    result tensor (always valid — use it for this call's answer) and
    ``tape`` is a compiled :class:`Tape`, or ``None`` when the forward
    hit a trace-unsupported op (negative-cache the key and stay on the
    interpreted path).

    ``batch_slots`` names the slots holding one row per window; the tape
    replays at every batch size (see the module docstring).  A call that
    provides none of them does not compile.
    """
    global _TRACES
    with _TRACES_LOCK:
        _TRACES += 1
    builder = _TapeBuilder(slots, batch_slots)
    with op_hook(builder):
        out = fn()
    if builder.failed is not None or id(out) not in builder.tensor_step:
        return out, None
    try:
        tape = Tape(builder, id(out))
    except TraceUnsupported:
        return out, None
    return out, tape


# ----------------------------------------------------------------------
# step classification and buffer planning
# ----------------------------------------------------------------------
def _classify(step: _Step) -> str:
    """``view`` (recreate per call), ``alloc`` (fresh array per call),
    or ``buffer`` (write into a planned, reusable frame buffer)."""
    op = step.op
    if op == "transpose":
        return "view"
    if op in ("reshape", "getitem"):
        parent = step.parent_datas[0]
        if step.out_data.size and np.shares_memory(step.out_data, parent):
            return "view"
        return "alloc"
    if op in ("pow", "where"):
        # pow rides ndarray.__pow__'s exponent fast paths; where has no
        # out= form — both allocate fresh, exactly like the interpreter.
        return "alloc"
    if op == "matmul" and step.parent_datas[0].ndim == 1:
        return "alloc"
    return "buffer"


def _reduced_shape(shape: tuple, axis: int) -> tuple:
    """Shape of a ``keepdims=True`` reduction along ``axis``."""
    reduced = list(shape)
    reduced[axis] = 1
    return tuple(reduced)


def _scratch_specs(step: _Step):
    """Extra temporaries a fused kernel needs beyond its out buffer.

    Besides the full-size intermediates, each softmax-family kernel gets
    one reduced-shape buffer so its ``keepdims`` reductions (max/sum/mu/
    var) run with ``out=`` instead of allocating every replay.
    """
    op = step.op
    dtype = step.out_data.dtype
    if op == "fused_log_softmax":
        return (
            (step.out_data.shape, dtype),
            (_reduced_shape(step.out_data.shape, step.meta["axis"]), dtype),
        )
    if op == "fused_gelu":
        return ((step.out_data.shape, dtype),)
    if op == "fused_layer_norm":
        parent = step.parent_datas[0]
        return (
            (parent.shape, parent.dtype),
            (parent.shape[:-1] + (1,), parent.dtype),
        )
    if op == "fused_attention":
        q, k = step.parent_datas[0], step.parent_datas[1]
        return (
            (q.shape[:-1] + (k.shape[-2],), dtype),
            (q.shape[:-1] + (1,), dtype),
        )
    return ()


#: Broadcasting ops whose output has the rank of their widest operand.
_ELEMENTWISE = frozenset({
    "add", "mul", "div", "neg", "exp", "log", "sqrt", "tanh", "pow", "where",
    "fused_gelu", "fused_dropout_residual", "fused_layer_norm",
    "fused_log_softmax",
})


def _axes(axis, ndim: int) -> set:
    """Normalized axes of an ``axis`` argument (``None`` is every axis)."""
    if axis is None:
        return set(range(ndim))
    return {int(a) % ndim for a in np.atleast_1d(axis)}


def _index_elements(spec) -> tuple:
    tag, payload = spec
    return payload if tag == "tuple" else (payload,)


def _batch_major(builder: _TapeBuilder) -> tuple[list[bool], int]:
    """Mark the steps that carry the batch axis, by data flow.

    A step is batch-major when an operand, index or condition is a
    declared batch slot or an earlier batch-major step.  Each such step
    is checked to treat axis 0 row by row, so a replay at another batch
    size runs the same kernels over more or fewer rows.  Returns the
    marks and the traced batch size.
    """
    arrays = builder.slot_arrays
    names = builder.batch_slots
    if not names:
        raise TraceUnsupported("no batch slot in this call")
    batch = arrays[names[0]].shape[:1]
    if not batch or any(arrays[name].shape[:1] != batch for name in names):
        raise TraceUnsupported("batch slots do not share a leading batch axis")
    batch = batch[0]
    major: list[bool] = []

    def carries(ref) -> bool:
        kind, payload = ref
        if kind == _STEP:
            return major[payload]
        return kind == _SLOT and payload in names

    for step in builder.steps:
        flags = [carries(ref) for ref in step.refs]
        if step.op in ("getitem", "scatter"):
            extra = _index_elements(step.meta["index"])
        elif step.op == "where":
            extra = (step.meta["condition"],)
        else:
            extra = ()
        marked = any(flags) or any(carries(ref) for ref in extra)
        if marked:
            _check_rowwise(step, flags, batch, carries, arrays)
        major.append(marked)
    return major, batch


def _pins_batch(step: _Step, batch: int) -> bool:
    """Whether a batch-major reshape cannot tell the batch from data.

    Its target's leading entry is emitted as ``B``, but the target is
    plain ints: if another dimension of its input or target equals the
    traced batch (the window length ``T == B``, say), the program may
    have meant that one.  The tape is then valid at the traced batch
    size only.
    """
    return batch in step.parent_datas[0].shape[1:] + tuple(step.meta["shape"])[1:]


def _check_rowwise(step: _Step, flags, batch, carries, arrays) -> None:
    """Raise :class:`TraceUnsupported` unless ``step`` keeps axis 0 as the
    batch: its output leads with the batch, and it neither reduces,
    indexes, joins along nor moves that axis."""
    op, out = step.op, step.out_data

    def fail(why: str):
        raise TraceUnsupported(f"batch-major {op} {why}")

    if out.ndim == 0 or out.shape[0] != batch:
        fail(f"output {out.shape} does not lead with the batch ({batch})")
    shapes = [data.shape for data in step.parent_datas]
    if op == "where":
        kind, payload = step.meta["condition"]
        shapes.append(arrays[payload].shape if kind == _SLOT else np.shape(payload))
        flags = [*flags, carries(step.meta["condition"])]
    if op in _ELEMENTWISE or op in ("matmul", "fused_attention"):
        for position, (shape, flag) in enumerate(zip(shapes, flags)):
            if op in ("matmul", "fused_attention") and len(shape) < 3:
                # Matrix operands: only matmul's left one may be batch rows.
                if flag and not (op == "matmul" and position == 0
                                 and len(shape) == out.ndim == 2):
                    fail("contracts the batch axis")
            elif flag and len(shape) != out.ndim:
                fail("broadcasts a batch-major operand past axis 0")
            elif not flag and len(shape) == out.ndim and shape[0] != 1:
                fail(f"has a fixed operand {shape} along the batch axis")
    if op in ("sum", "max_stat"):
        if 0 in _axes(step.meta["axis"], len(shapes[0])):
            fail("reduces the batch axis")
    elif op == "fused_log_softmax":
        if 0 in _axes(step.meta["axis"], out.ndim):
            fail("normalizes over the batch axis")
    elif op == "fused_layer_norm" and out.ndim < 2:
        fail("normalizes over the batch axis")
    elif op == "transpose":
        # ``transpose(*axes)`` or ``transpose(axes)``: the full order.
        if int(np.ravel(step.meta["axes"])[0]) % out.ndim != 0:
            fail("moves the batch axis")
    elif op in ("getitem", "scatter"):
        elements = _index_elements(step.meta["index"]) or ((_CONST, ()),)
        index_arrays = [ref for ref in elements
                        if ref[0] == _SLOT or isinstance(ref[1], np.ndarray)]
        if carries(elements[0]):
            # Advanced indexing led by batch index arrays: the result
            # leads with their broadcast shape, whose axis 0 is the batch.
            ndim = arrays[elements[0][1]].ndim
            for kind, payload in index_arrays:
                if not carries((kind, payload)) or arrays[payload].ndim != ndim:
                    fail("mixes batch and fixed index arrays")
                if arrays[payload].dtype == bool:
                    fail("masks the batch axis")
            return
        # Otherwise only basic indexing behind a leading ``:`` keeps axis 0.
        head = elements[0][1] if elements[0][0] == _CONST else None
        whole = isinstance(head, slice) and head == slice(None)
        if op == "scatter" or not flags[0] or not whole or index_arrays:
            fail("indexes the batch axis")


class _Codegen:
    """Accumulates the generated replay source and its constant pool.

    The whole tape compiles to **one** generated Python function: every
    step's output is a local variable (``e<i>``), input slots and frame
    buffers are hoisted to locals once per call, and baked constants
    (index tuples and other non-literal metadata) live in the ``C`` pool
    captured in the function's globals.  Parameter arrays are input
    slots like any other, never pool constants.  This removes all
    per-step dispatch — no closure calls, no argument getters, no env
    list — leaving only the raw numpy kernel sequence.

    ``batch_steps`` holds the batch-major step indices; their shape
    literals lead with the replay's ``B`` instead of the traced size.
    """

    def __init__(self, batch_steps):
        self.batch_steps = batch_steps
        self.lines: list[str] = []
        self.consts: list = []
        self.slot_vars: dict[str, str] = {}
        self.slot_lines: list[str] = []
        self.used_buffers: set[int] = set()

    def const(self, obj) -> str:
        self.consts.append(obj)
        return f"C[{len(self.consts) - 1}]"

    def lit(self, obj) -> str:
        """Exact source literal for simple metadata; else a pool constant.

        ``repr`` of ``None``/``bool``/``int``/``float`` and int tuples
        round-trips exactly (floats included, per the Python language
        reference), so axes, shapes, eps and scale inline into the
        generated source; anything richer rides the constant pool.
        """
        if obj is None or isinstance(obj, (bool, int, float)):
            return repr(obj)
        if isinstance(obj, tuple) and all(type(x) is int for x in obj):
            return repr(obj)
        return self.const(obj)

    def shape(self, i: int, shape) -> str:
        """Source for step ``i``'s traced ``shape`` argument, with the
        leading entry bound to ``B`` if the step is batch-major."""
        if i not in self.batch_steps:
            return self.lit(shape)
        return "(" + ", ".join(["B", *(str(int(d)) for d in shape[1:])]) + ",)"

    def slot(self, name: str) -> str:
        var = self.slot_vars.get(name)
        if var is None:
            var = self.slot_vars[name] = f"s{len(self.slot_vars)}"
            self.slot_lines.append(f"    {var} = slots[{name!r}]")
        return var

    def ref(self, ref) -> str:
        kind, payload = ref
        if kind == _STEP:
            return f"e{payload}"
        if kind == _SLOT:
            return self.slot(payload)
        return self.const(payload)

    def obj(self, ref) -> str:
        """Expression for a metadata object ref (slot or constant)."""
        kind, payload = ref
        if kind == _SLOT:
            return self.slot(payload)
        return self.const(payload)

    def index(self, spec) -> str:
        tag, payload = spec
        if tag == "one":
            return self.obj(payload)
        if all(kind == _CONST for kind, _ in payload):
            return self.const(tuple(obj for _, obj in payload))
        parts = ", ".join(self.obj(element) for element in payload)
        return f"({parts},)"

    def buf(self, buf_id: int) -> str:
        self.used_buffers.add(buf_id)
        return f"f{buf_id}"

    def emit(self, line: str) -> None:
        self.lines.append("    " + line)


class Tape:
    """A compiled scoring tape: one generated function over planned buffers.

    Buffers live in a **per-thread frame** (created lazily on first
    replay on each thread), so concurrent serving workers replaying the
    same tape never collide, while repeated calls on one thread reuse
    the same memory with zero allocation for buffered steps.  Each
    thread's batch-major buffers are sized for the largest batch it has
    replayed; the frame is reallocated only when a larger batch arrives.
    A tape holds no weights, so model instances that share it share its
    frames too.
    """

    def __init__(self, builder: _TapeBuilder, out_id: int):
        steps = builder.steps
        self._out_step = builder.tensor_step[out_id]
        self._tls = threading.local()

        major, batch = _batch_major(builder)
        if not major[self._out_step]:
            raise TraceUnsupported("tape output does not carry the batch axis")

        n = len(steps)
        kinds = [None] * n
        roots: list[int | None] = [None] * n
        for i, step in enumerate(steps):
            kind = _classify(step)
            kinds[i] = kind
            # Whether a batch-major reshape views or copies is numpy's
            # call at each B, so for liveness it counts as a view of its
            # parent whatever the traced call did.
            if kind == "view" or (major[i] and step.op == "reshape"):
                ref_kind, payload = step.refs[0]
                # A view of an input slot or constant owns no frame
                # storage; a view of a step chains to that step's root.
                roots[i] = roots[payload] if ref_kind == _STEP else None
            else:
                roots[i] = i

        # Liveness per storage root: the last step reading it.  The
        # final output's root is pinned past the end of the tape so its
        # buffer is never handed out for reuse mid-replay.
        last_use: dict[int, int] = {}
        for i, step in enumerate(steps):
            for ref_kind, payload in step.refs:
                if ref_kind == _STEP:
                    root = roots[payload]
                    if root is not None:
                        last_use[root] = i
        out_root = roots[self._out_step]
        if out_root is not None:
            last_use[out_root] = n

        deaths: dict[int, list[int]] = {}
        for i in range(n):
            if kinds[i] == "buffer":
                deaths.setdefault(last_use.get(i, i), []).append(i)

        # Buffers are pooled by (batch-major?, shape, dtype), where a
        # batch-major buffer's shape omits its leading (batch) axis.
        specs: list[tuple[bool, tuple[int, ...], np.dtype]] = []
        free: dict[tuple, list[tuple[int, int]]] = {}
        buffer_of: dict[int, int] = {}

        def pool_key(shape, dtype, rows):
            if rows and (not shape or shape[0] != batch):
                raise TraceUnsupported(f"buffer {shape} does not lead with the batch")
            return (rows, tuple(shape[1:]) if rows else tuple(shape), str(dtype))

        def acquire(shape, dtype, at, rows):
            key = pool_key(shape, dtype, rows)
            pool = free.get(key)
            if pool:
                for slot, (buf_id, avail_from) in enumerate(pool):
                    if avail_from <= at:
                        pool.pop(slot)
                        return buf_id
            specs.append((rows, key[1], np.dtype(dtype)))
            return len(specs) - 1

        def release(buf_id, shape, dtype, avail_from, rows):
            key = pool_key(shape, dtype, rows)
            free.setdefault(key, []).append((buf_id, avail_from))

        codegen = _Codegen(frozenset(i for i in range(n) if major[i]))
        for i, step in enumerate(steps):
            buf_id = None
            scratch_ids = []
            if kinds[i] == "buffer":
                shape, dtype = step.out_data.shape, step.out_data.dtype
                buf_id = acquire(shape, dtype, i, major[i])
                buffer_of[i] = buf_id
                scratch = _scratch_specs(step)
                for s_shape, s_dtype in scratch:
                    scratch_ids.append(acquire(s_shape, s_dtype, i, major[i]))
                for sid, (s_shape, s_dtype) in zip(scratch_ids, scratch):
                    release(sid, s_shape, s_dtype, i + 1, major[i])
            _COMPILERS[step.op](codegen, i, step, kinds[i], buf_id, scratch_ids)
            # Buffers whose root dies here become reusable from i + 1 —
            # never at i itself, so a kernel cannot alias its own inputs.
            for root in deaths.get(i, ()):
                owner = steps[root].out_data
                release(buffer_of[root], owner.shape, owner.dtype, i + 1, major[root])

        # Batch-major buffers replay through prefix views of the frame's
        # largest-batch allocation.
        frame_lines = [
            f"    f{buf_id} = frame[{buf_id}]" + ("[:B]" if specs[buf_id][0] else "")
            for buf_id in sorted(codegen.used_buffers)
        ]
        body = (
            codegen.slot_lines
            + frame_lines
            + codegen.lines
            + [f"    return e{self._out_step}"]
        )
        # Hoist every ``np.<fn>`` the body references into a default
        # argument, bound once at compile: each kernel line then reaches
        # its function through one LOAD_FAST instead of a global plus
        # attribute chain — measurable across ~hundreds of lines per
        # replay.  Longest names first so ``np.add.at`` never gets
        # half-rewritten by the ``np.add`` pass.
        hoisted = sorted(
            {match.group(1) for line in body for match in _NP_CALL.finditer(line)},
            key=len,
            reverse=True,
        )
        header_args = "slots, frame, B"
        for name in hoisted:
            local = "np_" + name.replace(".", "_")
            body = [line.replace(f"np.{name}(", f"{local}(") for line in body]
            header_args += f", {local}=np.{name}"
        # The generated source is assembled exclusively from this
        # module's own emitters over trace-time metadata; nothing
        # user-controlled reaches it (constants ride the C pool).
        self.source = "\n".join(
            [f"def _replay({header_args}):"] + body + [""]
        )
        namespace = {"np": np, "C": tuple(codegen.consts)}
        exec(compile(self.source, "<repro.nn.jit.Tape>", "exec"), namespace)
        self._fn = namespace["_replay"]
        self._frame_specs = tuple(specs)
        self._batch_slot = builder.batch_slots[0]
        self._pinned_batch = batch if any(
            major[i] and step.op == "reshape" and _pins_batch(step, batch)
            for i, step in enumerate(steps)
        ) else None
        #: step and planned-buffer counts, exposed for tests/diagnostics.
        self.num_steps = n
        self.num_buffers = len(specs)

    def replays_at(self, batch: int) -> bool:
        """Whether the tape replays a call of ``batch`` rows: any size,
        unless a reshape pinned it to its traced size (see
        :func:`_pins_batch`)."""
        return self._pinned_batch in (None, batch)

    def replay(self, slots: dict) -> np.ndarray:
        """Execute the tape over fresh ``slots``; returns the output array.

        The result may live in a reused frame buffer — callers that
        retain it across calls must copy.
        """
        batch = slots[self._batch_slot].shape[0]
        tls = self._tls
        frame = getattr(tls, "frame", None)
        if frame is None or batch > tls.rows:
            # The frame grows only when a larger batch arrives; smaller
            # ones replay through prefix views of the same buffers.  The
            # smaller frame is dropped first so the two never coexist.
            frame = tls.frame = None
            tls.rows = batch
            frame = tls.frame = [
                np.empty((batch, *shape) if rows else shape, dtype)
                for rows, shape, dtype in self._frame_specs
            ]
        return self._fn(slots, frame, batch)


# ----------------------------------------------------------------------
# kernel emitters — each writes the interpreted op's exact numpy call
# sequence into the generated replay function, so replay is
# bitwise-identical at every dtype
# ----------------------------------------------------------------------
def _binary_emitter(fn):
    def emit(cg, i, step, kind, buf_id, scratch_ids):
        a, b = cg.ref(step.refs[0]), cg.ref(step.refs[1])
        cg.emit(f"e{i} = np.{fn}({a}, {b}, out={cg.buf(buf_id)})")

    return emit


def _unary_emitter(fn):
    def emit(cg, i, step, kind, buf_id, scratch_ids):
        cg.emit(f"e{i} = np.{fn}({cg.ref(step.refs[0])}, out={cg.buf(buf_id)})")

    return emit


def _emit_pow(cg, i, step, kind, buf_id, scratch_ids):
    # ndarray.__pow__'s exponent fast paths allocate fresh, exactly like
    # the interpreter.
    cg.emit(f"e{i} = {cg.ref(step.refs[0])} ** {cg.lit(step.meta['exponent'])}")


def _reduction_emitter(ufunc):
    # ``ndarray.sum``/``.max`` are exactly ``np.add.reduce``/
    # ``np.maximum.reduce`` underneath (numpy's ``_methods`` module binds
    # them directly), so the ufunc form is bitwise-identical while
    # skipping the per-call Python wrapper.
    def emit(cg, i, step, kind, buf_id, scratch_ids):
        a = cg.ref(step.refs[0])
        axis = cg.lit(step.meta["axis"])
        keepdims = cg.lit(step.meta["keepdims"])
        cg.emit(
            f"e{i} = np.{ufunc}.reduce({a}, axis={axis}, "
            f"out={cg.buf(buf_id)}, keepdims={keepdims})"
        )

    return emit


def _emit_matmul(cg, i, step, kind, buf_id, scratch_ids):
    a, b = cg.ref(step.refs[0]), cg.ref(step.refs[1])
    if kind == "alloc":  # 1-D dot product: 0-d result, no out= form
        cg.emit(f"e{i} = {a} @ {b}")
    else:
        cg.emit(f"e{i} = np.matmul({a}, {b}, out={cg.buf(buf_id)})")


def _emit_transpose(cg, i, step, kind, buf_id, scratch_ids):
    cg.emit(f"e{i} = {cg.ref(step.refs[0])}.transpose({cg.lit(step.meta['axes'])})")


def _emit_reshape(cg, i, step, kind, buf_id, scratch_ids):
    cg.emit(f"e{i} = {cg.ref(step.refs[0])}.reshape({cg.shape(i, step.meta['shape'])})")


def _emit_getitem(cg, i, step, kind, buf_id, scratch_ids):
    cg.emit(f"e{i} = {cg.ref(step.refs[0])}[{cg.index(step.meta['index'])}]")


def _emit_scatter(cg, i, step, kind, buf_id, scratch_ids):
    buf = cg.buf(buf_id)
    cg.emit(f"{buf}[...] = 0.0")
    cg.emit(f"np.add.at({buf}, {cg.index(step.meta['index'])}, "
            f"{cg.ref(step.refs[0])})")
    cg.emit(f"e{i} = {buf}")


def _emit_where(cg, i, step, kind, buf_id, scratch_ids):
    # np.where has no out= form; allocates fresh, exactly like the
    # interpreter.
    cond = cg.obj(step.meta["condition"])
    a, b = cg.ref(step.refs[0]), cg.ref(step.refs[1])
    cg.emit(f"e{i} = np.where({cond}, {a}, {b})")


def _emit_fused_log_softmax(cg, i, step, kind, buf_id, scratch_ids):
    a, buf = cg.ref(step.refs[0]), cg.buf(buf_id)
    scratch, red = cg.buf(scratch_ids[0]), cg.buf(scratch_ids[1])
    axis = cg.lit(step.meta["axis"])
    cg.emit(f"np.maximum.reduce({a}, axis={axis}, out={red}, keepdims=True)")
    cg.emit(f"np.subtract({a}, {red}, out={buf})")
    cg.emit(f"np.exp({buf}, out={scratch})")
    cg.emit(f"np.add.reduce({scratch}, axis={axis}, out={red}, keepdims=True)")
    cg.emit(f"np.log({red}, out={red})")
    cg.emit(f"e{i} = np.subtract({buf}, {red}, out={buf})")


def _emit_fused_layer_norm(cg, i, step, kind, buf_id, scratch_ids):
    a = cg.ref(step.refs[0])
    weight, bias = cg.ref(step.refs[1]), cg.ref(step.refs[2])
    buf = cg.buf(buf_id)
    scratch, red = cg.buf(scratch_ids[0]), cg.buf(scratch_ids[1])
    eps = cg.lit(step.meta["eps"])
    inv_count = cg.lit(1.0 / step.parent_datas[0].shape[-1])
    cg.emit(f"np.add.reduce({a}, axis=-1, out={red}, keepdims=True)")  # mu
    cg.emit(f"{red} *= {inv_count}")
    cg.emit(f"np.subtract({a}, {red}, out={scratch})")  # centred
    cg.emit(f"np.multiply({scratch}, {scratch}, out={buf})")
    cg.emit(f"np.add.reduce({buf}, axis=-1, out={red}, keepdims=True)")  # var (mu dead)
    cg.emit(f"{red} *= {inv_count}")
    cg.emit(f"np.add({red}, {eps}, out={red})")
    cg.emit(f"np.sqrt({red}, out={red})")  # std
    cg.emit(f"np.divide({scratch}, {red}, out={scratch})")  # x-hat
    cg.emit(f"np.multiply({scratch}, {weight}, out={buf})")
    cg.emit(f"e{i} = np.add({buf}, {bias}, out={buf})")


def _emit_fused_gelu(cg, i, step, kind, buf_id, scratch_ids):
    a, buf = cg.ref(step.refs[0]), cg.buf(buf_id)
    scratch = cg.buf(scratch_ids[0])
    cg.emit(f"np.multiply({a}, {a}, out={scratch})")
    cg.emit(f"np.multiply({scratch}, {a}, out={scratch})")
    cg.emit(f"np.multiply({scratch}, {cg.lit(_GELU_COEFF)}, out={scratch})")
    cg.emit(f"np.add({a}, {scratch}, out={scratch})")
    cg.emit(f"np.multiply({scratch}, {cg.lit(_SQRT_2_OVER_PI)}, out={scratch})")
    cg.emit(f"np.tanh({scratch}, out={scratch})")
    cg.emit(f"np.multiply({a}, 0.5, out={buf})")
    cg.emit(f"np.add({scratch}, 1.0, out={scratch})")
    cg.emit(f"e{i} = np.multiply({buf}, {scratch}, out={buf})")


def _emit_fused_dropout_residual(cg, i, step, kind, buf_id, scratch_ids):
    x, residual = cg.ref(step.refs[0]), cg.ref(step.refs[1])
    cg.emit(f"e{i} = np.add({residual}, {x}, out={cg.buf(buf_id)})")


def _emit_fused_attention(cg, i, step, kind, buf_id, scratch_ids):
    q, k, v = (cg.ref(ref) for ref in step.refs)
    buf = cg.buf(buf_id)
    scores, red = cg.buf(scratch_ids[0]), cg.buf(scratch_ids[1])
    cg.emit(f"np.matmul({q}, np.swapaxes({k}, -1, -2), out={scores})")
    cg.emit(f"{scores} *= {cg.lit(step.meta['scale'])}")
    cg.emit(f"np.maximum.reduce({scores}, axis=-1, out={red}, keepdims=True)")
    cg.emit(f"np.subtract({scores}, {red}, out={scores})")
    cg.emit(f"np.exp({scores}, out={scores})")
    cg.emit(f"np.add.reduce({scores}, axis=-1, out={red}, keepdims=True)")
    cg.emit(f"{scores} /= {red}")
    cg.emit(f"e{i} = np.matmul({scores}, {v}, out={buf})")


_COMPILERS = {
    "add": _binary_emitter("add"),
    "mul": _binary_emitter("multiply"),
    "div": _binary_emitter("divide"),
    "neg": _unary_emitter("negative"),
    "exp": _unary_emitter("exp"),
    "log": _unary_emitter("log"),
    "sqrt": _unary_emitter("sqrt"),
    "tanh": _unary_emitter("tanh"),
    "pow": _emit_pow,
    "sum": _reduction_emitter("add"),
    "max_stat": _reduction_emitter("maximum"),
    "matmul": _emit_matmul,
    "transpose": _emit_transpose,
    "reshape": _emit_reshape,
    "getitem": _emit_getitem,
    "scatter": _emit_scatter,
    "where": _emit_where,
    "fused_log_softmax": _emit_fused_log_softmax,
    "fused_layer_norm": _emit_fused_layer_norm,
    "fused_gelu": _emit_fused_gelu,
    "fused_dropout_residual": _emit_fused_dropout_residual,
    "fused_attention": _emit_fused_attention,
}

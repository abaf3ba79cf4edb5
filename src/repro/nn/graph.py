"""Graph capture, compilation and replay for ``repro.nn``.

The paper's dominant workload is a *frozen* channel-independent
encoder replayed over thousands of ``(batch, channel)`` slices: the
same autodiff graph, the same shapes, new data.  Eager execution
re-records every tape node, re-allocates every intermediate and
re-builds every backward closure on each call.  This module removes
all three costs for that workload:

* **Capture** — :func:`capture` installs a tracer as this thread's
  capture hook in :mod:`repro.nn.tensor` and runs the target function
  once.  Every op computes its output by calling its forward kernel
  through ``tensor._forward``; each such call becomes one
  :class:`TraceStep` (the kernel, argument references, output
  shape/dtype/strides), named like the profiler names the node.  A
  composite (``sub``, ``mean``, ``cross_entropy``, ...) has no kernel
  of its own and records as the primitive steps it runs.  Tensor
  arguments are classified: graph inputs and kernel outputs become
  *slots*, tensors that existed before the capture (weights, biases,
  positional embeddings) are recorded *by reference* — replay reads
  their current ``.data``, so in-place weight updates are picked up
  automatically — and leaves born mid-capture are baked *by value*.
  An op that makes a graph node without a kernel call (training-mode
  ``dropout``) raises :class:`TraceError` naming the op.
* **Compile** — :func:`compile_trace` runs dead-node elimination
  (anything the output does not depend on is dropped, and no backward
  closure or grad bookkeeping survives by construction), then an
  alias-aware liveness analysis that assigns every intermediate to a
  preallocated arena block; blocks are reused across ops whose
  lifetimes do not overlap.  View-producing steps (``reshape``,
  ``transpose``, ``getitem`` on basic indices) share their input's
  storage, so a buffer is never recycled while a view of it is live.
* **Replay** — :meth:`CompiledGraph.run` calls each step's kernel —
  the same function the eager op called — with ``out=`` pointing into
  the arena, so replay reproduces eager bits by construction.  A guard
  raises :class:`ReplayGuard` on any input/parameter shape-or-dtype
  mismatch so callers can fall back to eager, and an active
  :mod:`repro.nn.profiler` receives per-op replay timings and per-run
  bytes-saved stats.  Runs of one graph are serialised by its lock;
  every run keeps its slots to itself.

Typical use is through :class:`GraphCache` (one per model, keyed by
input signature), which validates each freshly compiled graph against
an eager pass on perturbed inputs before trusting it — a capture that
baked a data-dependent constant quietly degrades to eager instead of
corrupting results.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import profiler as _profiler
from . import tensor as _tensor
from .tensor import Tensor, no_grad

__all__ = [
    "TraceError",
    "ReplayGuard",
    "TraceStep",
    "Trace",
    "CompiledGraph",
    "GraphCache",
    "capture",
    "compile_trace",
    "capture_compiled",
    "compile_enabled",
    "set_compile_enabled",
    "compile_disabled",
]


class TraceError(RuntimeError):
    """A function could not be captured (non-replayable op, nesting, ...).

    ``op`` names the op that refused capture, when one did.
    """

    def __init__(self, message: str, op: str | None = None) -> None:
        super().__init__(message)
        self.op = op


class ReplayGuard(RuntimeError):
    """A compiled graph refused to run (input/parameter signature mismatch)."""


# Argument-reference kinds inside a TraceStep.
_SLOT = "slot"  # output of an earlier step, or a graph input
_PARAM = "param"  # pre-existing tensor, read by reference at replay
_VALUE = "value"  # mid-capture leaf tensor / ndarray, baked by value
_CONST = "const"  # plain python constant (scalars, axes, dtypes, slices)
_SEQ = "seq"  # list/tuple containing tensor references (concatenate, stack)

#: ``TraceStep.alias_of`` sentinel: the output is a view of storage the
#: graph does not manage (a parameter or a baked constant), e.g. the
#: transpose of a weight matrix.  Such steps get no arena buffer.
EXTERNAL_VIEW = -1


# ----------------------------------------------------------------------
# Enable switch
# ----------------------------------------------------------------------
_COMPILE_ENABLED = os.environ.get("REPRO_NN_COMPILE", "1").strip().lower() not in {
    "0",
    "false",
    "off",
    "no",
}


def compile_enabled() -> bool:
    """Whether :class:`GraphCache` may capture/replay compiled graphs.

    Defaults to on; set ``REPRO_NN_COMPILE=0`` in the environment or
    call :func:`set_compile_enabled` / :func:`compile_disabled` to
    force the eager path everywhere.
    """
    return _COMPILE_ENABLED


def set_compile_enabled(enabled: bool) -> bool:
    """Set the global compile switch; returns the previous value."""
    global _COMPILE_ENABLED
    previous = _COMPILE_ENABLED
    _COMPILE_ENABLED = bool(enabled)
    return previous


@contextlib.contextmanager
def compile_disabled():
    """Context manager forcing eager execution (benchmarks, parity tests)."""
    previous = set_compile_enabled(False)
    try:
        yield
    finally:
        set_compile_enabled(previous)


# ----------------------------------------------------------------------
# Trace data model
# ----------------------------------------------------------------------
@dataclass
class TraceStep:
    """One recorded forward-kernel call."""

    op: str
    kernel: Callable
    args: tuple
    kwargs: dict
    out: int  # output slot id
    shape: tuple[int, ...]
    dtype: np.dtype
    #: slot whose storage the output shares (view ops), else None.
    #: :data:`EXTERNAL_VIEW` marks a view of non-slot storage (a
    #: parameter or baked constant): no arena buffer, nothing to track.
    alias_of: int | None = None
    #: memory layout of the eager output.  Ufuncs choose their output
    #: layout from their inputs' layout (a transpose upstream makes
    #: every downstream ufunc output axis-permuted), and reductions
    #: traverse memory in layout order — so replay must reproduce the
    #: exact eager strides or float rounding diverges.
    strides: tuple[int, ...] | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.alias_of is None:
            view = ""
        elif self.alias_of == EXTERNAL_VIEW:
            view = " (external view)"
        else:
            view = f" (view of %{self.alias_of})"
        return f"%{self.out} = {self.op}{view} -> {self.shape} {self.dtype}"


@dataclass
class Trace:
    """A captured op sequence, ready for :func:`compile_trace`.

    ``render()`` gives a readable listing — the supported way to
    inspect what a capture actually recorded (see docs/graph.md).
    """

    steps: list[TraceStep]
    inputs: list[int]  # slot ids of graph inputs, in call order
    output: int  # slot id of the function result
    params: list[Tensor]  # by-reference leaves (weights etc.)
    num_slots: int
    input_sig: list[tuple[tuple[int, ...], np.dtype]]
    grad: bool = False  # captures run under no_grad; kept for keying

    def render(self) -> str:
        """Human-readable listing of the recorded steps."""
        lines = [
            f"inputs: {[f'%{i}' for i in self.inputs]}  "
            f"params: {len(self.params)}  output: %{self.output}"
        ]
        lines += [repr(step) for step in self.steps]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------
class Tracer:
    """Records forward-kernel calls while installed in tensor.py.

    Lifecycle: created by :func:`capture`, installed as the thread's
    hook via ``tensor._set_tracer``, fed by ``tensor._forward``
    (``_record``), ``Tensor._make`` (``_bind``) and ``Tensor.__init__``
    (``_note_leaf``).  Slots are keyed by the identity of the arrays
    the kernels return; the tracer keeps them alive so ids stay unique.
    """

    def __init__(self) -> None:
        self.steps: list[TraceStep] = []
        self.params: list[Tensor] = []
        self._slot_of: dict[int, int] = {}  # id(ndarray) -> slot
        self._slot_arrays: list[np.ndarray] = []  # keeps ids stable
        self._step_of: dict[int, TraceStep] = {}  # slot -> producing step
        self._param_of: dict[int, int] = {}  # id(tensor) -> param index
        self._fresh: dict[int, Tensor] = {}  # leaves born mid-capture
        self._baked: dict[int, tuple] = {}  # id(tensor) -> VALUE ref

    # -- hooks (called from tensor.py) ---------------------------------
    def _note_leaf(self, t: Tensor) -> None:
        self._fresh[id(t)] = t

    def _record(self, kernel: Callable, args: tuple, kwargs: dict, out: np.ndarray) -> None:
        if id(out) in self._slot_of:
            return  # the kernel handed back an existing slot: a pure alias
        alias_of = self._find_alias(out, args, kwargs)
        step = TraceStep(
            op=kernel.__name__,  # renamed after the node's op by _bind
            kernel=kernel,
            args=tuple(self._ref_of(a) for a in args),
            kwargs={k: self._ref_of(v) for k, v in kwargs.items()},
            out=self._new_slot(out),
            shape=out.shape,
            dtype=out.dtype,
            alias_of=alias_of,
            strides=out.strides,
        )
        self._step_of[step.out] = step
        self.steps.append(step)

    def _bind(self, node: Tensor, backward: Callable) -> None:
        name = _profiler._op_name(backward.__code__)
        slot = self._slot_of.get(id(node.data))
        if slot is None:
            raise TraceError(
                f"op {name!r} is not replayable: it makes a graph node "
                "without calling a forward kernel",
                op=name,
            )
        step = self._step_of.get(slot)
        if step is not None:
            step.op = name

    # -- recording -----------------------------------------------------
    def _find_alias(self, out: np.ndarray, args: tuple, kwargs: dict) -> int | None:
        """Slot whose memory the output shares, if any (view ops).

        A view of a *non-slot* tensor (e.g. ``weight.transpose(...)``)
        is :data:`EXTERNAL_VIEW`: it needs no arena buffer and replays
        as a view of the live parameter.
        """
        external = None
        for value in list(args) + list(kwargs.values()):
            candidates = value if isinstance(value, (list, tuple)) else (value,)
            for item in candidates:
                if not isinstance(item, Tensor):
                    continue
                if not np.may_share_memory(out, item.data):
                    continue
                slot = self._slot_of.get(id(item.data))
                if slot is not None:
                    return slot
                external = EXTERNAL_VIEW
        return external

    def _new_slot(self, array: np.ndarray) -> int:
        slot = len(self._slot_arrays)
        self._slot_arrays.append(array)
        self._slot_of[id(array)] = slot
        return slot

    def _ref_of(self, value):
        if isinstance(value, Tensor):
            slot = self._slot_of.get(id(value.data))
            if slot is not None:
                return (_SLOT, slot)
            index = self._param_of.get(id(value))
            if index is not None:
                return (_PARAM, index)
            if id(value) in self._fresh:
                # Born during the capture from raw data: its content is
                # part of the program, not a live weight.  Copy so later
                # in-place mutation cannot leak into the trace.
                ref = self._baked.get(id(value))
                if ref is None:
                    # order="K" keeps the source layout: replay rounding
                    # depends on operand memory order, not just values.
                    ref = (_VALUE, value.data.copy(order="K"))
                    self._baked[id(value)] = ref
                return ref
            # Pre-existing tensor (parameter, buffer): by reference.
            index = len(self.params)
            self.params.append(value)
            self._param_of[id(value)] = index
            return (_PARAM, index)
        if isinstance(value, (list, tuple)):
            if _contains_tensor(value):
                return (_SEQ, tuple(self._ref_of(item) for item in value))
            return (_CONST, value)
        if isinstance(value, np.ndarray):
            return (_VALUE, value.copy(order="K"))
        return (_CONST, value)


def _contains_tensor(seq) -> bool:
    return any(
        isinstance(item, Tensor)
        or (isinstance(item, (list, tuple)) and _contains_tensor(item))
        for item in seq
    )


def capture(fn: Callable[..., Tensor], inputs: Sequence[np.ndarray]) -> Trace:
    """Run ``fn`` once on ``inputs`` and record its op sequence.

    ``fn`` receives one :class:`Tensor` per input array and must return
    a Tensor whose value is produced by registered ops.  The capture
    runs under ``no_grad`` (compiled replay is an inference engine) and
    records only this thread's ops.  Raises :class:`TraceError` when the
    function cannot be replayed — an op without a forward kernel
    (training-mode dropout), a nested capture, or an output that is not
    a traced op result.
    """
    if _tensor._CAPTURE.tracer is not None:
        raise TraceError("a graph capture is already active")
    # Normalise input layout: replay also C-normalises its inputs, and
    # every recorded stride downstream assumes this base layout.
    arrays = [np.ascontiguousarray(x) for x in inputs]
    # Input tensors are created *before* the tracer is installed so
    # they register as slots, not as baked mid-capture leaves.
    tensors = [Tensor(a) for a in arrays]
    tracer = Tracer()
    input_slots = [tracer._new_slot(t.data) for t in tensors]
    previous = _tensor._set_tracer(tracer)
    try:
        with no_grad():
            out = fn(*tensors)
    finally:
        _tensor._set_tracer(previous)
    if not isinstance(out, Tensor):
        raise TraceError(f"captured function returned {type(out).__name__}, not a Tensor")
    out_slot = tracer._slot_of.get(id(out.data))
    if out_slot is None or not tracer.steps:
        raise TraceError("captured function produced no traced ops for its output")
    return Trace(
        steps=tracer.steps,
        inputs=input_slots,
        output=out_slot,
        params=tracer.params,
        num_slots=len(tracer._slot_arrays),
        input_sig=[(a.shape, a.dtype) for a in arrays],
    )


# ----------------------------------------------------------------------
# Compile: dead-node elimination + alias-aware arena planning
# ----------------------------------------------------------------------
def _ref_slots(ref) -> list[int]:
    kind = ref[0]
    if kind == _SLOT:
        return [ref[1]]
    if kind == _SEQ:
        slots: list[int] = []
        for item in ref[1]:
            slots += _ref_slots(item)
        return slots
    return []


def _step_input_slots(step: TraceStep) -> list[int]:
    slots: list[int] = []
    for ref in step.args:
        slots += _ref_slots(ref)
    for ref in step.kwargs.values():
        slots += _ref_slots(ref)
    return slots


def _c_strides(shape, itemsize: int) -> tuple[int, ...]:
    """C-contiguous byte strides for ``shape``."""
    strides = []
    running = itemsize
    for n in reversed(shape):
        strides.append(running)
        running *= max(n, 1)
    return tuple(reversed(strides))


def _is_dense_layout(shape, strides, itemsize: int) -> bool:
    """Whether (shape, strides) tile a flat buffer exactly once.

    True for any axis permutation of a contiguous array (what ufuncs
    produce for transposed inputs); False for negative strides,
    broadcast (0-stride) axes, or gapped layouts — those cannot be
    expressed over a flat arena block.
    """
    dims = sorted((st, n) for st, n in zip(strides, shape) if n > 1)
    running = itemsize
    for stride, n in dims:
        if stride != running:
            return False
        running *= n
    return True


@dataclass
class ArenaPlan:
    """Static buffer assignment for one compiled graph."""

    #: slot -> (block id, nbytes); only slots that own an arena buffer
    buffers: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: block id -> capacity in bytes
    blocks: dict[int, int] = field(default_factory=dict)

    @property
    def arena_bytes(self) -> int:
        return sum(self.blocks.values())


class CompiledGraph:
    """An executable, arena-allocated program compiled from a :class:`Trace`."""

    def __init__(self, trace: Trace, live_steps: list[TraceStep], plan: ArenaPlan) -> None:
        self.trace = trace
        self.steps = live_steps
        self.plan = plan
        self.params = trace.params
        self.input_sig = trace.input_sig
        self.param_sig = [(p.data.shape, p.data.dtype) for p in trace.params]
        #: bytes every eager pass would allocate for live-step outputs
        self.eager_bytes = sum(
            int(np.prod(s.shape)) * s.dtype.itemsize for s in live_steps if s.alias_of is None
        )
        self.dead_steps = len(trace.steps) - len(live_steps)
        self.replays = 0
        self._blocks: dict[int, np.ndarray] = {}
        self._views: dict[int, np.ndarray] = {}
        #: per-step execution plan with constants pre-resolved and the
        #: arena view pre-built; only slot/param refs resolve per run
        self._exec: list | None = None
        #: one run at a time owns the arena (threads share graphs through
        #: a model's GraphCache)
        self._lock = threading.Lock()

    # -- memory --------------------------------------------------------
    @property
    def arena_bytes(self) -> int:
        """Planned peak intermediate bytes (sum of arena block capacities)."""
        return self.plan.arena_bytes

    def _out_view(self, slot: int, shape, dtype, strides=None) -> np.ndarray | None:
        if slot in self._views:
            return self._views[slot]
        assignment = self.plan.buffers.get(slot)
        if assignment is None:
            return None
        block_id, nbytes = assignment
        block = self._blocks.get(block_id)
        if block is None:
            block = self._blocks[block_id] = np.empty(self.plan.blocks[block_id], dtype=np.uint8)
        base = block[:nbytes].view(dtype)
        # The view must replicate the eager output's memory layout, not
        # just its shape: downstream reductions sum in layout order, so
        # a C-contiguous stand-in for an axis-permuted eager array
        # changes float rounding (see TraceStep.strides).
        if strides is None or strides == _c_strides(shape, dtype.itemsize):
            view = base.reshape(shape)
        elif _is_dense_layout(shape, strides, dtype.itemsize):
            view = np.lib.stride_tricks.as_strided(base, shape=shape, strides=strides)
        else:
            # Cannot express this layout over a flat block; let the
            # kernel allocate naturally (inputs carry eager layouts, so
            # numpy picks the same output layout eager did).
            view = None
        self._views[slot] = view
        return view

    # -- execution -----------------------------------------------------
    def run(self, inputs: Sequence[np.ndarray]) -> np.ndarray:
        """Execute the compiled program on ``inputs``; returns an ndarray.

        Raises :class:`ReplayGuard` when the input or parameter
        signature no longer matches the capture (callers fall back to
        eager).  The returned array is freshly owned — it never aliases
        the arena, so the next replay cannot clobber it.  Safe to call
        from several threads: runs of one graph take turns on its arena.
        """
        # Replay must see the same memory layout capture saw (reduction
        # order follows layout); non-contiguous callers pay one copy.
        arrays = [np.ascontiguousarray(x) for x in inputs]
        if len(arrays) != len(self.input_sig):
            raise ReplayGuard(
                f"expected {len(self.input_sig)} inputs, got {len(arrays)}"
            )
        for array, (shape, dtype) in zip(arrays, self.input_sig):
            if array.shape != shape or array.dtype != dtype:
                raise ReplayGuard(
                    f"input signature mismatch: got {array.shape} {array.dtype}, "
                    f"compiled for {shape} {dtype}"
                )
        for param, (shape, dtype) in zip(self.params, self.param_sig):
            if param.data.shape != shape or param.data.dtype != dtype:
                raise ReplayGuard(
                    f"parameter signature changed since capture: got "
                    f"{param.data.shape} {param.data.dtype}, compiled for {shape} {dtype}"
                )
        with self._lock:
            return self._run_locked(arrays)

    def _run_locked(self, arrays: list[np.ndarray]) -> np.ndarray:
        profiler = _profiler._ACTIVE
        slots: list = [None] * self.trace.num_slots
        params = self.params
        for slot, array in zip(self.trace.inputs, arrays):
            slots[slot] = array
        if self._exec is None:
            self._exec = self._build_exec()
        resolve = self._resolve
        for kernel, template, arg_fills, kw_static, kw_fills, out, step in self._exec:
            if arg_fills:
                args = template.copy()
                for position, ref in arg_fills:
                    args[position] = resolve(ref, slots, params)
            else:
                args = template
            if kw_fills:
                kwargs = dict(kw_static)
                for key, ref in kw_fills:
                    kwargs[key] = resolve(ref, slots, params)
            else:
                kwargs = kw_static
            if profiler is not None:
                start = time.perf_counter()
                value = kernel(*args, out=out, **kwargs)
                seconds = time.perf_counter() - start
            else:
                value = kernel(*args, out=out, **kwargs)
            if not isinstance(value, np.ndarray):
                # ``(output, *saved)`` from a kernel whose backward reuses
                # intermediates; or a full reduction's numpy scalar, kept
                # 0-d as tensor._forward keeps it.
                value = value[0] if isinstance(value, tuple) else np.asarray(value)
            if profiler is not None:
                profiler.record_replay(
                    step.op, seconds, 0 if step.alias_of is not None else value.nbytes
                )
            slots[step.out] = value
        result = slots[self.trace.output]
        self.replays += 1
        if profiler is not None:
            profiler.record_replay_run(self.eager_bytes, self.arena_bytes)
            # Replay time is already attributed; do not charge it to the
            # next eager op's gap.
            profiler.mark()
        # Arena and input memory is reused by the next run, so a result
        # that does not own its buffer must be copied out.  A result
        # with base=None is a fresh allocation (the output storage is
        # never arena-assigned) and can be handed over as is.
        if result.base is not None or not result.flags.owndata:
            result = result.copy()
        return result

    def _build_exec(self) -> list:
        """Pre-resolve everything static in each step.

        Constants and baked values never change between runs, and the
        arena view for each output slot is fixed by the plan — so the
        per-run work shrinks to filling slot/param references into a
        copied template.  Parameters stay dynamic on purpose: replay
        must read the *current* ``.data`` of each captured tensor.
        """
        plan = []
        static = (_VALUE, _CONST)
        for step in self.steps:
            template: list = []
            arg_fills: list[tuple[int, tuple]] = []
            for position, ref in enumerate(step.args):
                if ref[0] in static:
                    template.append(ref[1])
                else:
                    template.append(None)
                    arg_fills.append((position, ref))
            kw_static: dict = {}
            kw_fills: list[tuple[str, tuple]] = []
            for key, ref in step.kwargs.items():
                if ref[0] in static:
                    kw_static[key] = ref[1]
                else:
                    kw_fills.append((key, ref))
            out = self._out_view(step.out, step.shape, step.dtype, step.strides)
            plan.append((step.kernel, template, arg_fills, kw_static, kw_fills, out, step))
        return plan

    @staticmethod
    def _resolve(ref, slots, params):
        kind = ref[0]
        if kind == _SLOT:
            return slots[ref[1]]
        if kind == _PARAM:
            return params[ref[1]].data
        if kind == _SEQ:
            return [CompiledGraph._resolve(item, slots, params) for item in ref[1]]
        return ref[1]  # _VALUE and _CONST both resolve to the payload

    # -- introspection -------------------------------------------------
    def stats(self) -> dict:
        """JSON-able summary of this graph's shape and memory plan."""
        return {
            "steps": len(self.steps),
            "dead_steps": self.dead_steps,
            "params": len(self.params),
            "eager_bytes": self.eager_bytes,
            "arena_bytes": self.arena_bytes,
            "arena_blocks": len(self.plan.blocks),
            "replays": self.replays,
        }


def compile_trace(trace: Trace) -> CompiledGraph:
    """Dead-node elimination + liveness analysis + arena assignment."""
    # 1. Dead-node elimination: keep only steps the output depends on.
    needed: set[int] = {trace.output}
    live_reversed: list[TraceStep] = []
    for step in reversed(trace.steps):
        if step.out in needed:
            live_reversed.append(step)
            needed.update(_step_input_slots(step))
            if step.alias_of is not None and step.alias_of != EXTERNAL_VIEW:
                needed.add(step.alias_of)
    live_steps = list(reversed(live_reversed))

    # 2. Storage groups: a view shares its input's storage, so the
    #    union of their lifetimes governs buffer reuse.
    storage_of: dict[int, int] = {slot: slot for slot in trace.inputs}
    for step in live_steps:
        if step.alias_of is not None:
            storage_of[step.out] = storage_of.get(step.alias_of, step.alias_of)
        else:
            storage_of[step.out] = step.out

    input_storages = {storage_of[slot] for slot in trace.inputs}
    output_storage = storage_of.get(trace.output, trace.output)

    # 3. Liveness per storage: last step index at which any slot of the
    #    storage is read or written.  The output lives past the end.
    last_use: dict[int, int] = {}
    for index, step in enumerate(live_steps):
        for slot in _step_input_slots(step) + [step.out]:
            storage = storage_of.get(slot)
            if storage is not None:
                last_use[storage] = index
    last_use[output_storage] = len(live_steps)

    # 4. Greedy arena assignment (best-fit over freed blocks).  The
    #    output storage is excluded: its value must survive the run, so
    #    a non-view final step simply writes a fresh array.
    plan = ArenaPlan()
    free_blocks: list[int] = []
    next_block = 0
    release_at: dict[int, list[int]] = {}
    for index, step in enumerate(live_steps):
        if step.alias_of is None:
            storage = storage_of[step.out]
            if storage not in input_storages and storage != output_storage:
                nbytes = int(np.prod(step.shape)) * step.dtype.itemsize
                best = None
                for block_id in free_blocks:
                    capacity = plan.blocks[block_id]
                    if capacity >= nbytes and (
                        best is None or capacity < plan.blocks[best]
                    ):
                        best = block_id
                if best is not None:
                    free_blocks.remove(best)
                    block_id = best
                elif free_blocks:
                    # No free block is big enough: grow the largest one
                    # rather than adding a new block.  Capacities are
                    # plan-time numbers (blocks are materialized lazily),
                    # so growing is free and strictly shrinks the arena
                    # versus keeping the too-small block around.
                    block_id = max(free_blocks, key=plan.blocks.__getitem__)
                    free_blocks.remove(block_id)
                    plan.blocks[block_id] = nbytes
                else:
                    block_id = next_block
                    next_block += 1
                    plan.blocks[block_id] = nbytes
                plan.buffers[step.out] = (block_id, nbytes)
                release_at.setdefault(last_use[storage], []).append(block_id)
        # Release buffers after their storage's last use so a step's
        # output block can never alias one of its own inputs.
        for block_id in release_at.pop(index, ()):
            free_blocks.append(block_id)

    return CompiledGraph(trace, live_steps, plan)


# ----------------------------------------------------------------------
# Validation + caching
# ----------------------------------------------------------------------
def capture_compiled(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    validate: bool = True,
) -> CompiledGraph | None:
    """Capture and compile ``fn``; ``None`` when it must stay eager.

    ``validate=True`` replays the compiled graph on *perturbed* inputs
    and requires bit-identity with an eager pass — this catches both
    data-dependent constants accidentally baked into the trace and any
    kernel whose ``out=`` form rounds differently on this platform.
    """
    try:
        trace = capture(fn, inputs)
    except TraceError:
        return None
    graph = compile_trace(trace)
    if validate:
        rng = np.random.default_rng(0x5EED)
        probes = []
        for shape, dtype in graph.input_sig:
            if np.dtype(dtype).kind == "f":
                probes.append(rng.standard_normal(shape).astype(dtype))
            else:
                probes.append(np.zeros(shape, dtype=dtype))
        try:
            with no_grad():
                eager = fn(*[Tensor(p) for p in probes])
            replayed = graph.run(probes)
        except Exception:
            return None
        if not isinstance(eager, Tensor):
            return None
        expected = eager.data
        if (
            expected.shape != replayed.shape
            or expected.dtype != replayed.dtype
            or not np.array_equal(expected, replayed, equal_nan=True)
        ):
            return None
    return graph


#: ``GraphCache`` lookup sentinel (``None`` is the eager-only verdict).
_MISSING = object()


class GraphCache:
    """Per-model cache of compiled inference graphs, keyed by input signature.

    ``run(fn, array)`` returns the replayed result, or ``None`` when
    the caller should execute eagerly (compilation disabled, capture
    failed validation, or a replay guard tripped).  A failed capture is
    remembered per key so the eager fallback costs one dict lookup.
    Threads may share one cache: its entries and counters sit behind a
    lock, and captures happen outside it.
    """

    def __init__(self, max_entries: int = 8) -> None:
        self.max_entries = max_entries
        self._entries: dict[tuple, CompiledGraph | None] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.fallbacks = 0

    def __getstate__(self) -> dict:
        # A copied model (e.g. a momentum encoder) captures its own graphs
        # on first use; locks and arena buffers do not copy.
        state = dict(self.__dict__, _entries={})
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _lock=threading.Lock())

    def run(self, fn: Callable[[Tensor], Tensor], array: np.ndarray) -> np.ndarray | None:
        """Replay ``fn`` on ``array`` via the cached graph for its bucket.

        Captures + compiles on first sight of a ``(shape, dtype)``
        bucket (counted as a miss; evicting the least recently used
        bucket past ``max_entries``), replays on later calls (counted
        as hits).  Returns ``None`` whenever the caller must run eager
        instead: compilation disabled, a capture in progress on this
        thread, the bucket validated as eager-only, or a
        :class:`ReplayGuard` fallback.
        """
        if not compile_enabled() or _tensor._CAPTURE.tracer is not None:
            return None
        key = (array.shape, array.dtype.str)
        with self._lock:
            graph = self._entries.pop(key, _MISSING)
            fresh = graph is _MISSING
            if fresh:
                self.misses += 1
            else:
                self._entries[key] = graph  # re-inserted last: most recently used
        if fresh:
            graph = capture_compiled(fn, [array])
            with self._lock:
                self._entries.pop(key, None)
                if len(self._entries) >= self.max_entries:
                    self._entries.pop(next(iter(self._entries)))
                self._entries[key] = graph
        result = None
        if graph is not None:
            try:
                result = graph.run([array])
            except ReplayGuard:
                pass
        with self._lock:
            if result is None:
                self.fallbacks += 1
            elif not fresh:
                self.hits += 1
        return result

    def graphs(self) -> list[CompiledGraph]:
        """The currently cached compiled graphs (eager sentinels excluded)."""
        with self._lock:
            return [g for g in self._entries.values() if g is not None]

    def clear(self) -> None:
        """Drop every cached graph (weights reloaded, model mutated)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """JSON-able cache counters plus per-graph summaries."""
        graphs = self.graphs()
        return {
            "entries": len(self._entries),
            "compiled": len(graphs),
            "hits": self.hits,
            "misses": self.misses,
            "fallbacks": self.fallbacks,
            "graphs": [g.stats() for g in graphs],
        }

    def __len__(self) -> int:
        return len(self._entries)

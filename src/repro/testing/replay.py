"""Replay-parity sweep: compiled replay must be bit-identical to eager.

The compiled engine (:mod:`repro.nn.graph`) promises that replaying a
captured graph produces the *same bits* as the eager tensor path — not
merely close values.  Eager ops and replay call one forward kernel per
op, so that holds by construction; this module checks it end to end,
op by op, reusing the :data:`repro.testing.gradcheck.OP_CHECKS` case
table so every registered op is exercised through capture → compile →
replay and compared exactly against its eager output.

A case that refuses capture is reported as eager-only, but only when
the :class:`~repro.nn.graph.TraceError` names that case's own op (an op
making a graph node without a forward kernel, like training-mode
dropout); any other refusal fails the sweep by the op's name.  A
registered op without a parity case fails the sweep by name too.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..nn import graph
from ..nn import tensor as tensor_module
from ..nn.tensor import OP_REGISTRY, Tensor
from .gradcheck import OP_CHECKS, OpCase

__all__ = [
    "ReplayParityFailure",
    "ReplayResult",
    "replay_coverage_problems",
    "run_replay_sweep",
]


class ReplayParityFailure(AssertionError):
    """A compiled replay did not reproduce the eager bits."""


class ReplayResult:
    """Outcome of one parity check: op/case/dtype plus graph shape."""

    __slots__ = ("op", "case", "dtype", "steps", "arena_bytes", "eager_only")

    def __init__(self, op, case, dtype, steps=0, arena_bytes=0, eager_only=False):
        self.op = op
        self.case = case
        self.dtype = dtype
        self.steps = steps
        self.arena_bytes = arena_bytes
        self.eager_only = eager_only

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "eager-only" if self.eager_only else f"{self.steps} steps"
        return f"ReplayResult({self.op}/{self.case} [{self.dtype}] {kind})"


# ----------------------------------------------------------------------
# Coverage enforcement
# ----------------------------------------------------------------------
def replay_coverage_problems() -> list[str]:
    """Human-readable coverage holes, each naming the offending ops."""
    uncased = sorted(name for name in OP_REGISTRY if name not in OP_CHECKS)
    if uncased:
        return ["replayable ops without a parity case: " + ", ".join(uncased)]
    return []


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def _check_case(op_name: str, case: OpCase, dtype: str) -> ReplayResult:
    names = sorted(case.arrays)
    arrays = [np.ascontiguousarray(case.arrays[n].astype(dtype)) for n in names]

    def positional(*tensors: Tensor) -> Tensor:
        return case.fn(dict(zip(names, tensors)))

    with tensor_module.no_grad():
        eager = positional(*[Tensor(a) for a in arrays]).data
    try:
        trace = graph.capture(positional, arrays)
    except graph.TraceError as err:
        if err.op == op_name:
            # The op itself has no forward kernel: it refused by name,
            # so it can never enter a compiled graph.
            return ReplayResult(op_name, case.name, dtype, eager_only=True)
        raise ReplayParityFailure(
            f"[op={op_name}] case {case.name!r} [{dtype}] refused capture: {err}"
        ) from err
    compiled = graph.compile_trace(trace)
    replayed = compiled.run(arrays)
    if replayed.shape != eager.shape or replayed.dtype != eager.dtype:
        raise ReplayParityFailure(
            f"[op={op_name}] case {case.name!r} [{dtype}]: replay produced "
            f"{replayed.shape} {replayed.dtype}, eager {eager.shape} {eager.dtype}"
        )
    if not np.array_equal(replayed, eager, equal_nan=True):
        diff = np.max(np.abs(np.asarray(replayed, dtype=np.float64) - eager))
        raise ReplayParityFailure(
            f"[op={op_name}] case {case.name!r} [{dtype}]: replay is not "
            f"bit-identical to eager (max abs diff {diff:.3e})"
        )
    return ReplayResult(
        op_name, case.name, dtype,
        steps=len(compiled.steps), arena_bytes=compiled.arena_bytes,
    )


def run_replay_sweep(
    dtypes: Iterable[str] = ("float32", "float64"),
    ops: Iterable[str] | None = None,
) -> list[ReplayResult]:
    """Capture/compile/replay every covered op; compare bits with eager.

    Raises :class:`ReplayParityFailure` (carrying the op's name) on the
    first mismatch, and :class:`AssertionError` if a registered op has
    no parity case — so the sweep can never pass a registry whose ops
    could silently fall back or, worse, replay wrong values.
    """
    problems = replay_coverage_problems()
    if problems:
        raise AssertionError("; ".join(problems))
    selected = sorted(ops) if ops is not None else sorted(OP_CHECKS)
    results: list[ReplayResult] = []
    for op_name in selected:
        for case in OP_CHECKS[op_name]:
            for dtype in dtypes:
                results.append(_check_case(op_name, case, dtype))
    return results

"""Registry-wide replay parity: compiled replay is bit-identical to eager.

This is the enforcement point for the compiled-engine contract
(:mod:`repro.nn.graph`): every registered op must either replay
bit-identically through capture → compile → run, or refuse capture by
its own name because it makes a graph node without a forward kernel.
Only training-mode dropout may do the latter.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import graph
from repro.nn.tensor import OP_REGISTRY, Tensor, registered_op
from repro.testing import replay_coverage_problems, run_replay_sweep


def test_replay_contract_is_fully_covered():
    """Every registered op has a parity case."""
    assert replay_coverage_problems() == []


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_full_replay_sweep(dtype):
    """All cases of every op replay bit-identically (or refuse capture)."""
    results = run_replay_sweep(dtypes=(dtype,))
    assert {result.op for result in results} == set(OP_REGISTRY)
    assert {result.op for result in results if result.eager_only} == {"dropout"}
    for result in results:
        if not result.eager_only:
            assert result.steps >= 1


def frobnicate(x: Tensor) -> Tensor:
    """A node-creating op with no forward kernel (registered per test)."""

    def backward(grad: np.ndarray) -> None:  # pragma: no cover - never run
        x._accumulate(grad)

    return Tensor._make(x.data * 2.0, (x,), backward)


def test_op_without_kernel_refuses_capture_by_name():
    """An op that calls ``Tensor._make`` without a forward kernel refuses
    capture, and the error names the op; it is never baked as a value."""
    registered_op("frobnicate")(frobnicate)
    try:
        x = np.linspace(-1, 1, 6).reshape(2, 3).astype(np.float32)
        with pytest.raises(graph.TraceError, match="frobnicate") as info:
            graph.capture(lambda t: frobnicate(t + 1.0), [x])
        assert info.value.op == "frobnicate"
        assert graph.GraphCache().run(lambda t: frobnicate(t + 1.0), x) is None
    finally:
        del OP_REGISTRY["frobnicate"]


def test_dropout_refuses_capture_in_training_mode():
    """The one nondeterministic op cannot enter a compiled graph."""
    from repro.nn import functional as F

    rng = np.random.default_rng(0)
    x = np.linspace(-1, 1, 12).reshape(3, 4).astype(np.float32)
    with pytest.raises(graph.TraceError, match="dropout"):
        graph.capture(lambda t: F.dropout(t, 0.5, True, rng), [x])
    # Eval-mode dropout is the identity: nothing is recorded, so a
    # graph made of only dropout has no traced output and must refuse.
    with pytest.raises(graph.TraceError):
        graph.capture(lambda t: F.dropout(t, 0.5, False, rng), [x])
    # ... but inside a larger graph it simply disappears.
    trace = graph.capture(lambda t: F.dropout(F.relu(t), 0.5, False, rng), [x])
    assert [s.op for s in trace.steps] == ["relu"]

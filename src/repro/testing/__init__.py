"""Verification harness for the repro stack.

Four layers, all dependency-free (see ``docs/testing.md``); the
property tests that sweep drawn inputs use Hypothesis, under ``tests/``:

* :mod:`repro.testing.gradcheck` — a finite-difference engine plus the
  op-coverage sweep over the ``Tensor`` op registry;
* :mod:`repro.testing.replay` — the compiled-replay parity sweep:
  every registered op captured, compiled and replayed bit-identically
  against eager (see ``docs/graph.md``);
* :mod:`repro.testing.invariants` — metamorphic/differential checks
  for adapters and the fused `repro.nn` kernels;
* :mod:`repro.testing.golden` — end-to-end metric snapshots with drift
  detection, driven by ``repro selfcheck``.
"""

from .golden import (
    SCENARIOS,
    SMOKE_SCENARIOS,
    GoldenResult,
    GoldenScenario,
    check_goldens,
    compute_metrics,
    golden_store,
    resolve_golden_dir,
)
from .gradcheck import (
    OP_CHECKS,
    GradcheckFailure,
    GradcheckResult,
    OpCase,
    assert_full_coverage,
    gradcheck,
    missing_checks,
    run_op_sweep,
    unregistered_ops,
)
from .invariants import INVARIANTS, InvariantResult, invariant, run_invariants
from .replay import (
    ReplayParityFailure,
    ReplayResult,
    replay_coverage_problems,
    run_replay_sweep,
)

__all__ = [
    "GradcheckFailure",
    "GradcheckResult",
    "OpCase",
    "OP_CHECKS",
    "gradcheck",
    "run_op_sweep",
    "missing_checks",
    "unregistered_ops",
    "assert_full_coverage",
    "ReplayParityFailure",
    "ReplayResult",
    "replay_coverage_problems",
    "run_replay_sweep",
    "INVARIANTS",
    "InvariantResult",
    "invariant",
    "run_invariants",
    "GoldenScenario",
    "GoldenResult",
    "SCENARIOS",
    "SMOKE_SCENARIOS",
    "check_goldens",
    "compute_metrics",
    "golden_store",
    "resolve_golden_dir",
]

"""Shared infrastructure for the paper-regeneration benchmarks.

Each benchmark regenerates one table or figure of the paper and writes
its rendering to ``benchmarks/results/`` (the committed ``fast``
renderings EXPERIMENTS.md quotes) or, for any other preset, to the
gitignored ``benchmarks/results-<preset>/``.  All benchmarks share one
:class:`ExperimentRunner` (session scope) so runs are computed once
and reused — e.g. Figure 4's ranks come from the same sweep as
Table 2, exactly as in the paper.

The grid size is controlled by ``REPRO_BENCH_PRESET``:

* ``micro``   — 3 datasets, 2 seeds (~2 min): smoke-check the harness.
* ``fast``    — all 12 datasets, 3 seeds (~20 min): the default; the
  numbers recorded in EXPERIMENTS.md come from this preset.
* ``standard``— larger surrogates and budgets (hours).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import FAST, STANDARD, ExperimentConfig, ExperimentRunner

PRESET = os.environ.get("REPRO_BENCH_PRESET", "fast")
RESULTS_DIR = Path(__file__).parent / ("results" if PRESET == "fast" else f"results-{PRESET}")

_MICRO = FAST.with_(
    seeds=(0, 1),
    datasets=("JapaneseVowels", "NATOPS", "Heartbeat"),
    pretrain_steps=5,
    head_epochs=15,
    joint_epochs=4,
    full_epochs=4,
)

_PRESETS: dict[str, ExperimentConfig] = {
    "micro": _MICRO,
    "fast": FAST,
    "standard": STANDARD,
}


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    try:
        return _PRESETS[PRESET]
    except KeyError:
        raise KeyError(
            f"REPRO_BENCH_PRESET={PRESET!r} unknown; choose from {sorted(_PRESETS)}"
        ) from None


@pytest.fixture(scope="session")
def runner(bench_config) -> ExperimentRunner:
    return ExperimentRunner(bench_config)


def record(name: str, rendering: str) -> None:
    """Persist a table/figure rendering under :data:`RESULTS_DIR`."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.md").write_text(rendering + "\n")

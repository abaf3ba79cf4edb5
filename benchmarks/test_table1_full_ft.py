"""Benchmark: regenerate Table 1 (full fine-tuning without adapter).

The COM/TO pattern comes from the V100 simulator at paper scale; the
accuracies of the jobs that fit come from actually fine-tuning the
runnable models on the surrogate datasets.
"""

from __future__ import annotations

from repro.experiments import table1

from .conftest import record


def test_table1_full_finetuning(benchmark, runner):
    result = benchmark.pedantic(table1, args=(runner,), rounds=1, iterations=1)
    record("table1", result.render())
    print("\n" + result.render())

    # Sanity: at least one resource failure and one accuracy per model
    # column, as in the paper (most cells are COM/TO, a few are values).
    flat = [cell for row in result.rows for cell in row[1:]]
    assert any(cell in ("COM", "TO") for cell in flat)
    assert any("±" in cell for cell in flat)

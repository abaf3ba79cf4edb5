"""Final benchmark: assemble the paper-vs-measured report.

Named ``zz`` so pytest collects it last: by then the session-shared
runner has every table/figure run cached and the report costs almost
nothing extra.  Writes ``experiments_report.md`` beside the other
renderings, and the repository-root ``EXPERIMENTS.md`` when the
``fast`` preset ran its full (12-dataset, 3-seed) grid.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments import build_report

from .conftest import PRESET, record


def test_zz_experiments_report(benchmark, runner):
    report = benchmark.pedantic(build_report, args=(runner,), rounds=1, iterations=1)
    record("experiments_report", report)

    full_grid = len(runner.config.datasets) == 12 and len(runner.config.seeds) == 3
    if full_grid and PRESET == "fast":
        Path(__file__).parent.parent.joinpath("EXPERIMENTS.md").write_text(report)

    assert report.startswith("# EXPERIMENTS")
    assert "Table 1" in report
    if full_grid:
        assert "Status agreement: 24/24 cells." in report

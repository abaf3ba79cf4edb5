"""Harness checks for the perf ledger, on tiny inputs (well under a minute).

Run from the repository root::

    PYTHONPATH=src python -m pytest -q benchmarks/ledger/test_ledger.py

Every workload runs once untraced and once traced in ``--smoke`` mode.
The checks cover the harness, not the hardware: every metric declared
in ``BENCHMARK.json`` comes out with its unit, the correctness gates
pass, and the trace is well formed (no span outlives its parent, no
self time is negative).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from benchmarks.ledger.cli import MIN_PAIRS, compare_main, verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Float slack when comparing span times (seconds).
EPS = 1e-9


def run(workload: str, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [
        sys.executable, str(cwd / "benchmarks" / "ledger" / "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "1", "--smoke", *extra,
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("ledger-detail ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("ledger-detail "):])


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result, detail = parse(run(workload, "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["gates"] and all(detail["gates"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_nested_spans(workload, tmp_path):
    trace_file = tmp_path / "trace.json"
    result, detail = parse(run(workload, "--trace", "1", "--trace-out", str(trace_file)))
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared("per_layer")
    assert all(detail["gates"].values())

    trace = json.loads(trace_file.read_text())
    spans = {span["id"]: span for span in trace["spans"]}
    assert spans, "a traced run records spans"
    covered: dict[int, float] = defaultdict(float)
    for span in spans.values():
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] - EPS <= span["start"] and span["end"] <= parent["end"] + EPS
            assert span["thread"] == parent["thread"]
            covered[span["parent"]] += span["end"] - span["start"]
    for span in spans.values():
        assert span["end"] - span["start"] - covered[span["id"]] >= -EPS, span
    assert all(entry["self_s"] >= -EPS for entry in trace["span_names"].values())
    assert {"models.encode", "adapters.transform", "nn.backward"} <= set(trace["span_names"])


def test_run_refuses_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def by_seed(values, first_seed=0) -> dict[int, float]:
    return {first_seed + i: v for i, v in enumerate(values)}


def scaled(runs: dict[int, float], factor: float) -> dict[int, float]:
    return {seed: v * factor for seed, v in runs.items()}


def test_compare_verdicts():
    base = by_seed([100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0])
    assert verdict(base, scaled(base, 0.8), 0.1, "higher")[0] == "regression"
    assert verdict(base, scaled(base, 1.2), 0.1, "higher")[0] == "improved"
    assert verdict(base, scaled(base, 1.2), 0.1, "lower")[0] == "regression"
    assert verdict(base, dict(base), 0.1, "lower")[0] == "unchanged"
    noisy = by_seed([50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0])
    assert verdict(noisy, dict(noisy), 0.1, "lower")[0] == "unresolved"


def test_compare_claims_a_gain_only_on_ten_matching_seed_pairs():
    base = by_seed([100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0])
    # One run, or runs on other seeds, cannot show a gain, only its absence.
    one = {0: base[0]}
    assert verdict(one, {0: 101.0}, 0.1, "higher")[0] == "unresolved"
    assert verdict(one, {0: 80.0}, 0.1, "higher")[0] == "regression"
    shifted = {seed + 100: v * 1.2 for seed, v in base.items()}
    assert verdict(base, shifted, 0.1, "higher")[0] == "unresolved"
    # Every run better, but the medians differ by less than the base's
    # quartile distance: the escape from "unresolved" is not a gain.
    wide = by_seed([float(v) for v in range(1, 11)])
    assert verdict(wide, {seed: 10.1 for seed in wide}, 0.1, "higher")[0] == "unchanged"
    # A gain in the median that fewer than nine pairs in ten show.
    mixed = {seed: v * (0.99 if seed < 2 else 1.2) for seed, v in base.items()}
    assert verdict(base, mixed, 0.1, "higher")[0] == "unchanged"


def test_compare_fails_on_a_failed_run(tmp_path, capsys):
    def result_file(name: str, broken: str | None) -> Path:
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
        runs = {
            w: [
                {"workload": w, "seed": s, "returncode": 0, "correct": True, "metrics": metrics}
                for s in range(MIN_PAIRS)
            ]
            for w in WORKLOADS
        }
        if broken:
            runs[broken][3].update(correct=False, returncode=1)
        path = tmp_path / name
        path.write_text(json.dumps({"args": {"trace": False, "seconds": 8}, "runs": runs}))
        return path

    good = result_file("good.json", None)
    assert compare_main([str(good), str(good)]) == 0
    bad = result_file("bad.json", WORKLOADS[-1])
    assert compare_main([str(good), str(bad)]) == 1
    assert f"FAILED {bad}: {WORKLOADS[-1]} seed=3" in capsys.readouterr().out

"""``python -m benchmarks.ledger``: run, repeat and compare the ledger.

Run every workload (each in a fresh ``run.py`` process, for
``BENCHMARK.json``'s ``run_seconds``) and write one result file::

    python -m benchmarks.ledger [--seed S] [--repeat N] [--trace] [--out FILE]

``--repeat N`` runs each workload N times on seeds S..S+N-1 and reports
each metric's median and its spread, the distance between the first
and third quartile as a share of the median.  The result file also
carries an environment fingerprint.  Compare two untraced result files,
metric by metric and workload by workload, against the bounds in
``BENCHMARK.json``::

    python -m benchmarks.ledger compare BASE.json NEW.json

Runs are paired by seed.  A pair of medians is ``unresolved`` when
BASE's own spread exceeds the bound, unless every NEW run beats every
BASE run; ``regression`` when NEW's median is worse than BASE's by more
than the bound; ``improved`` when the medians differ in NEW's favour by
more than BASE's quartile distance and NEW wins at least nine tenths of
at least ten seed pairs (``unresolved`` when there are fewer pairs or
the seed sets differ); and ``unchanged`` otherwise.  Exits 1 on any
regression, and on any failed or missing run in either file.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN_PY = Path(__file__).resolve().parent / "run.py"
DETAIL_PREFIX = "ledger-detail "
#: A single run may take this long before the ledger gives up on it.
RUN_TIMEOUT_S = 900
#: Seed pairs a gain needs before ``compare`` may call it ``improved``.
MIN_PAIRS = 10


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(median, q1, q3)`` as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def _blas_threads() -> int | None:
    """OpenBLAS thread count of numpy's bundled library, when it has one."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    """What the numbers depend on besides the code: versions, BLAS, CPUs, load."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "blas_threads_env": {
            key: os.environ.get(key) for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One ``run.py`` process: its result line, detail line and exit code."""
    command = [
        sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    record = {"workload": workload, "seed": seed, "returncode": proc.returncode,
              "wall_s": time.monotonic() - start}
    lines = proc.stdout.strip().splitlines()
    try:
        record.update(json.loads(lines[-1]))
        details = [line for line in lines if line.startswith(DETAIL_PREFIX)]
        record["detail"] = json.loads(details[-1][len(DETAIL_PREFIX):])
    except (IndexError, ValueError):
        record["correct"] = False
        record["error"] = proc.stderr[-2000:]
    return record


def summarize(runs: dict[str, list[dict]]) -> dict:
    """Per workload and metric: median, quartiles, spread, unit, sample count."""
    out: dict[str, dict] = {}
    for workload, records in runs.items():
        measured = [r for r in records if "metrics" in r and "detail" in r]
        metrics: dict[str, dict] = {}
        for name, first in (measured[0]["metrics"] if measured else {}).items():
            values = [r["metrics"][name]["value"] for r in measured]
            med, q1, q3 = quartiles(values)
            metrics[name] = {
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "unit": first["unit"],
                "n": len(values),
            }
        named: dict[str, float] = {}
        for key, value in (measured[0]["detail"] if measured else {}).items():
            if key != "seed" and isinstance(value, (int, float)) and not isinstance(value, bool):
                named[key] = statistics.median(r["detail"][key] for r in measured)
        out[workload] = {"metrics": metrics, "detail_medians": named}
    return out


def print_summary(summary: dict) -> None:
    print(f"{'workload':<16} {'metric':<36} {'median':>14} {'unit':<9} {'spread':>8} {'n':>3}")
    for workload, entry in summary.items():
        for name, m in entry["metrics"].items():
            print(
                f"{workload:<16} {name:<36} {m['median']:>14.4f} {m['unit']:<9} "
                f"{100 * m['spread']:>7.2f}% {m['n']:>3}"
            )


def run_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="per-layer metrics and spans")
    parser.add_argument("--out", default=None, help="result file (default under .ledger/)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    benchmark = spec()
    names = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    fingerprint = environment()
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for rep in range(args.repeat):
        for name in names:
            record = run_one(name, args.seed + rep, seconds, args.trace)
            runs[name].append(record)
            status = "ok" if record.get("correct") else "FAILED"
            print(
                f"[{rep + 1}/{args.repeat}] {name:<16} seed={record['seed']:<4} "
                f"{status:<6} {record['wall_s']:6.1f}s",
                flush=True,
            )
            if not record.get("correct"):
                print(record.get("error") or json.dumps(record.get("detail", {}).get("gates")))
    summary = summarize(runs)
    doc = {
        "fingerprint": fingerprint,
        "args": {**vars(args), "seconds": seconds},
        "runs": runs,
        "summary": summary,
    }
    out = Path(args.out) if args.out else (
        ROOT / ".ledger" / "results" / time.strftime("ledger-%Y%m%dT%H%M%S.json", time.gmtime())
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print_summary(summary)
    print(f"wrote {out}")
    ok = all(r.get("correct") for records in runs.values() for r in records)
    return 0 if ok else 1


def verdict(
    base: dict[int, float], new: dict[int, float], bound: float, better: str
) -> tuple[str, float]:
    """Classify one (metric, workload) pair of seed -> value runs.

    Returns the verdict and NEW's relative change, positive when better.
    """
    sign = 1.0 if better == "higher" else -1.0
    med_a, q1, q3 = quartiles(list(base.values()))
    med_b = quartiles(list(new.values()))[0]
    change = sign * (med_b - med_a) / med_a
    every_run_better = min(sign * v for v in new.values()) > max(sign * v for v in base.values())
    if (q3 - q1) / med_a > bound and not every_run_better:
        return "unresolved", change
    if change < -bound:
        return "regression", change
    if change <= 0 or abs(med_b - med_a) <= q3 - q1:
        return "unchanged", change
    if base.keys() != new.keys() or len(base) < MIN_PAIRS:
        return "unresolved", change
    wins = sum(1 for seed, a in base.items() if sign * (new[seed] - a) > 0)
    return ("improved" if wins >= 0.9 * len(base) else "unchanged"), change


def failed_runs(runs: dict[str, list[dict]], workloads: list[str]) -> list[str]:
    """Why each run that ``compare`` cannot use is unusable, one line each."""
    problems = [f"{name}: no runs" for name in workloads if not runs.get(name)]
    for name, records in runs.items():
        for r in records:
            if r.get("correct") is not True or r.get("returncode") != 0 or not r.get("metrics"):
                problems.append(
                    f"{name} seed={r.get('seed')}: correct={r.get('correct')} "
                    f"returncode={r.get('returncode')} metrics={'metrics' in r}"
                )
    return problems


def compare_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger compare")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    benchmark = spec()
    workloads = [w["name"] for w in benchmark["workloads"]]
    docs = {path: json.loads(Path(path).read_text()) for path in (args.base, args.new)}
    for path, doc in docs.items():
        if doc["args"]["trace"]:
            parser.error(f"{path} is a traced run; compare needs end-to-end (untraced) runs")
    if docs[args.base]["args"]["seconds"] != docs[args.new]["args"]["seconds"]:
        parser.error("the two files measured different run lengths")
    failed = [
        f"FAILED {path}: {problem}"
        for path, doc in docs.items()
        for problem in failed_runs(doc["runs"], workloads)
    ]
    if failed:
        print("\n".join(failed))
        return 1
    base, new = docs[args.base]["runs"], docs[args.new]["runs"]
    regressions = 0
    print(
        f"{'workload':<16} {'metric':<18} {'base':>12} {'new':>12} {'change':>8} "
        f"{'spread':>7} {'bound':>6}  verdict"
    )
    for workload in workloads:
        for rule in benchmark["end_to_end"]:
            name = rule["name"]
            a = {r["seed"]: r["metrics"][name]["value"] for r in base[workload]}
            b = {r["seed"]: r["metrics"][name]["value"] for r in new[workload]}
            result, change = verdict(a, b, rule["bound"], rule["better"])
            regressions += result == "regression"
            med, q1, q3 = quartiles(list(a.values()))
            print(
                f"{workload:<16} {name:<18} {med:>12.4f} {quartiles(list(b.values()))[0]:>12.4f} "
                f"{100 * change:>+7.2f}% {100 * (q3 - q1) / med:>6.2f}% "
                f"{100 * rule['bound']:>5.1f}%  {result}"
            )
    return 1 if regressions else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    return run_main(argv)

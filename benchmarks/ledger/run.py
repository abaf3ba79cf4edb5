"""Run one ledger workload in this process and print its metrics.

Usage (from the repository root)::

    python3 benchmarks/ledger/run.py --workload fit_cached --seed 0 --seconds 12 --trace 0

The workload is set up ``setup_reps`` times (``setup_s`` is the median
set-up; the one-off import time is reported beside it, ungated), then
measured for about ``--seconds``.
Every run checks its outputs (served and streamed logits bit-identical
to offline prediction, replay bit-identical to eager, no failed
operation).  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

With ``--trace 0`` ``metrics`` holds the end-to-end metrics declared in
``BENCHMARK.json``; with ``--trace 1`` it holds the per-layer metrics of
a traced run, whose spans are written to ``.ledger/trace-<workload>.json``.
The line before it, ``ledger-detail {...}``, carries the named numbers
behind them.  Exits 1 when a correctness gate fails.
"""

import time

_STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]


def _bootstrap() -> None:
    """Put this checkout's sources first on the import path."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no repro sources under {src}; run from a full checkout")
    for path in (str(ROOT), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _reap_children() -> None:
    """Stop every process the run started and wait until each has ended.

    Spawned serving workers are joined first: they hold the descriptor
    that keeps multiprocessing's resource tracker alive, and the tracker
    would otherwise outlive this process by the time it takes to notice.
    """
    import multiprocessing
    from multiprocessing import resource_tracker, util

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    # Release the run's semaphores now, as interpreter exit would, so the
    # tracker stops with nothing left to clean up.
    util._run_finalizers(0)
    resource_tracker._resource_tracker._stop()


def _declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, for ``end_to_end`` or ``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _setups(workload, ctx, reps: int):
    """Set up ``reps`` times; keep the last state, return all durations."""
    durations, phases, state = [], [], None
    for _ in range(reps):
        if state is not None:
            workload.teardown(state)
            state = None
        ctx.phases = {}
        start = time.monotonic()
        state = workload.setup(ctx)
        durations.append(time.monotonic() - start)
        phases.append(ctx.phases)
    return state, durations, phases


def _run(args, ctx, workload, import_s: float) -> tuple[dict, dict]:
    from benchmarks.ledger.trace import Probe, Tracer, instrumented, layer_metrics
    from benchmarks.ledger.workloads import LAYER_DEFAULTS, median

    detail = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds}
    if not args.trace:
        state, durations, phases = _setups(workload, ctx, ctx.sizes.setup_reps)
        try:
            measured = workload.measure(ctx, state)
        finally:
            workload.teardown(state)
        values = {
            "setup_s": median(durations),
            "latency_p50_ms": median(measured.latency_ms),
            "throughput_per_s": measured.throughput_per_s,
            "peak_rss_mb": _peak_rss_mb(),
        }
        detail["import_s"] = import_s
        detail["setup_reps_s"] = durations
        detail["setup_phases_s"] = phases[-1]
        runs = {"": measured}
    else:
        tracer = Tracer()
        probe = Probe(tracer)
        ctx.probe = probe
        with instrumented(probe):
            state, _durations, phases = _setups(workload, ctx, 1)
        try:
            ctx.probe = None
            untraced = workload.measure(ctx, state)
            ctx.probe = probe
            with instrumented(probe):
                traced = workload.measure(ctx, state)
        finally:
            workload.teardown(state)
        values = {**layer_metrics(probe), **LAYER_DEFAULTS, **traced.layers}
        values["trace.overhead_frac"] = (
            median(traced.latency_ms) / median(untraced.latency_ms) - 1.0
        )
        trace_path = Path(args.trace_out) if args.trace_out else (
            ROOT / ".ledger" / f"trace-{workload.name}.json"
        )
        tracer.write(trace_path, {"workload": workload.name, "seed": args.seed})
        detail["trace_file"] = str(trace_path)
        detail["setup_phases_s"] = phases[-1]
        detail["untraced_latency_p50_ms"] = median(untraced.latency_ms)
        runs = {"untraced.": untraced, "traced.": traced}
    detail["gates"] = {
        prefix + name: ok for prefix, run in runs.items() for name, ok in run.gates.items()
    }
    last = list(runs.values())[-1]
    detail.update(last.detail)
    detail["latency_samples"] = len(last.latency_ms)
    failed = sum(run.failed for run in runs.values())
    result = {
        "correct": all(detail["gates"].values()) and failed == 0,
        "attempted": sum(run.attempted for run in runs.values()),
        "failed": failed,
        "values": values,
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one perf-ledger workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up")
    parser.add_argument("--trace-out", default=None, help="where --trace 1 writes its spans")
    args = parser.parse_args(argv)

    from benchmarks.ledger import workloads

    import_s = time.monotonic() - _STARTED
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    declared = _declared("per_layer" if args.trace else "end_to_end")
    workdir = ROOT / ".ledger" / "tmp"
    workdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        ctx = workloads.Context(
            seed=args.seed,
            seconds=args.seconds,
            sizes=workloads.SMOKE if args.smoke else workloads.FULL,
            workdir=Path(scratch),
        )
        result, detail = _run(args, ctx, workloads.WORKLOADS[args.workload], import_s)
    values = result.pop("values")
    if set(values) != set(declared):
        raise SystemExit(
            f"run.py: metrics {sorted(set(values) ^ set(declared))} disagree with BENCHMARK.json"
        )
    result["metrics"] = {
        name: {"value": float(values[name]), "unit": unit} for name, unit in declared.items()
    }
    print("ledger-detail " + json.dumps(detail), flush=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    _bootstrap()
    try:
        code = main()
    finally:
        _reap_children()
    raise SystemExit(code)

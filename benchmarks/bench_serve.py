"""Online-serving benchmark for ``repro.serve``: micro-batching vs batch-1.

Fits one tiny adapter pipeline, publishes it into a throwaway
registry, then drives a seeded closed-loop load (K client threads,
each sending one request at a time) against two deployments of the
same pipeline at equal worker count:

* **batch1** — ``max_batch=1``: every request runs its own encoder
  pass, the no-batching baseline;
* **micro**  — ``max_batch=16`` with a 2 ms batching window: requests
  arriving together share one tiled pass.

Recorded into ``BENCH_serve.json``: sustained QPS, latency p50/p99,
mean/max micro-batch width, and the QPS speedup (the headline claim is
``>= 2x``).  Every served logits row is also checked **bit-identical**
to the offline ``pipeline.predict_logits(x)`` at its default batch
size, whatever the deployment's ``max_batch`` — execution is tiled, so
micro-batching is a pure scheduling optimisation, it never changes the
bits.

A ``streaming`` section benchmarks :mod:`repro.stream` on a generated
long-context stream: sustained windows/sec and push latency p50/p99
through :class:`~repro.stream.StreamingClassifier`, the re-encode
economy (replaying identical history must cost **zero** encoder
passes; a fresh tail costs exactly its own windows — O(changed
windows), never O(history)), and the measured-vs-predicted peak memory
of a cold ``encode_long`` pass against
:func:`repro.resources.streaming_inference_memory_bytes`.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full run
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke    # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent

#: One geometry: the tiny MOMENT pipeline the repo's quickstart fits.
FIT = {
    "dataset": "Heartbeat",
    "model": "moment-tiny",
    "adapter": "pca",
    "channels": 3,
    "scale": 0.05,
    "max_length": 16,
    "seed": 0,
}

FULL_LOAD = {"requests": 512, "clients": 16}
SMOKE_LOAD = {"requests": 64, "clients": 4}

#: Streaming section: windows driven through the incremental
#: classifier, and the series length of the cold-capture memory probe.
FULL_STREAM = {"windows": 160, "memory_steps": 100_000}
SMOKE_STREAM = {"windows": 24, "memory_steps": 20_000}


def fit_tiny_pipeline():
    from repro import fit_pipeline
    from repro.training import TrainConfig

    fitted = fit_pipeline(
        FIT["dataset"],
        model=FIT["model"],
        adapter=FIT["adapter"],
        channels=FIT["channels"],
        seed=FIT["seed"],
        scale=FIT["scale"],
        max_length=FIT["max_length"],
        train_config=TrainConfig(epochs=1, seed=FIT["seed"]),
    )
    return fitted


def drive_load(server, requests: np.ndarray, clients: int) -> dict:
    """Closed-loop load: each client thread sends one request at a time."""
    results: list[np.ndarray | None] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    cursor_lock = threading.Lock()

    def client_loop() -> None:
        while True:
            with cursor_lock:
                index = next(cursor, None)
            if index is None:
                return
            results[index] = server.predict_logits(requests[index])

    threads = [
        threading.Thread(target=client_loop, name=f"bench-client-{i}", daemon=True)
        for i in range(clients)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    return {"wall_s": wall, "logits": np.stack(results, axis=0)}


def bench_condition(
    registry, name: str, config, requests: np.ndarray, clients: int
) -> dict:
    from repro.serve import PipelineServer

    server = PipelineServer(registry, name, config=config)
    try:
        server.warmup(requests.shape[1])
        load = drive_load(server, requests, clients)
        snapshot = server.stats()["batcher"]
    finally:
        server.close(drain=True)
    latency = snapshot.get("latency_s") or {}
    width = snapshot.get("batch_width") or {}
    qps = len(requests) / load["wall_s"] if load["wall_s"] else float("inf")
    return {
        "max_batch": config.max_batch,
        "max_delay_s": config.max_delay_s,
        "clients": clients,
        "requests": len(requests),
        "wall_s": round(load["wall_s"], 4),
        "qps": round(qps, 2),
        "latency_p50_ms": round(latency.get("p50", 0.0) * 1000, 3),
        "latency_p99_ms": round(latency.get("p99", 0.0) * 1000, 3),
        "mean_batch_width": round(width.get("mean", 0.0), 3),
        "max_batch_width": width.get("max", 0),
        "batches": snapshot.get("batches", 0),
        "logits": load["logits"],
    }


def bench_streaming(fitted, *, windows: int, memory_steps: int) -> dict:
    """The ``repro.stream`` section: throughput, economy, memory."""
    from repro.data import dataset_info, generate_stream
    from repro.models import load_pretrained
    from repro.resources import streaming_inference_memory_bytes
    from repro.stream import encode_long

    window, stride, width = 16, 8, 16
    total = window + (windows - 1) * stride
    x, _labels = generate_stream(
        dataset_info(FIT["dataset"]), seed=7, total_length=total
    )
    stream = fitted.stream(window=window, stride=stride, batch_size=width)

    # Sustained throughput: one stride-sized chunk per push, so each
    # push completes exactly one window once the buffer is primed.
    push_s = []
    start = time.perf_counter()
    for lo in range(0, total, stride):
        t0 = time.perf_counter()
        stream.push(x[lo : lo + stride])
        push_s.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    emitted = stream.windows_emitted
    encoded_initial = stream.cache.encoded_windows

    # Re-encode economy, claim 1: replaying identical history through
    # the rolling content-addressed cache costs zero encoder passes.
    stream.reset()
    stream.push(x)
    encoded_replay = stream.cache.encoded_windows - encoded_initial

    # Claim 2: a fresh tail costs exactly its own windows — the work
    # per push is O(changed windows), never O(history).
    tail = np.random.default_rng(13).normal(size=(4 * stride, x.shape[1]))
    before_encoded = stream.cache.encoded_windows
    before_windows = stream.windows_emitted
    stream.push(tail)
    tail_windows = stream.windows_emitted - before_windows
    encoded_tail = stream.cache.encoded_windows - before_encoded

    # Peak memory of a cold chunked encode (fresh model: the dominant
    # term is the first pass's compiled-graph capture tape) vs the
    # cost-model prediction the grid planner admits jobs with.
    mem_channels, mem_window, batch_windows = 8, 128, 16
    series = np.random.default_rng(11).normal(size=(memory_steps, mem_channels))
    tracemalloc.start()
    try:
        model = load_pretrained("moment-tiny", seed=0)
        tracemalloc.reset_peak()
        baseline = tracemalloc.get_traced_memory()[0]
        encode_long(
            model, series, mem_window, mem_window, batch_windows=batch_windows
        )
        measured = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    predicted = streaming_inference_memory_bytes(
        model.config,
        window=mem_window,
        channels=mem_channels,
        batch_windows=batch_windows,
    )

    push_ms = np.asarray(push_s) * 1000.0
    return {
        "window": window,
        "stride": stride,
        "batch_size": width,
        "windows": emitted,
        "wall_s": round(wall, 4),
        "windows_per_s": round(emitted / wall, 2) if wall else float("inf"),
        "push_p50_ms": round(float(np.percentile(push_ms, 50)), 3),
        "push_p99_ms": round(float(np.percentile(push_ms, 99)), 3),
        "encoded_initial": encoded_initial,
        "encoded_replay": encoded_replay,
        "tail_windows": tail_windows,
        "encoded_tail": encoded_tail,
        "memory": {
            "steps": memory_steps,
            "measured_bytes": int(measured),
            "predicted_bytes": int(predicted),
            "ratio": round(measured / predicted, 3),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small load sanity run for CI; prints but does not write JSON",
    )
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--clients", type=int, default=None)
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_serve.json"),
        help="where to write the JSON record (full mode only)",
    )
    args = parser.parse_args(argv)

    from repro.serve import PipelineRegistry, ServeConfig

    load = SMOKE_LOAD if args.smoke else FULL_LOAD
    n_requests = args.requests or load["requests"]
    clients = args.clients or load["clients"]

    fitted = fit_tiny_pipeline()
    pipeline = fitted.pipeline
    channels = fitted.dataset.x_train.shape[2]
    length = fitted.dataset.x_train.shape[1]
    rng = np.random.default_rng(7)
    requests = rng.standard_normal((n_requests, length, channels)).astype(np.float32)

    micro_width = 16
    conditions = {
        "batch1": ServeConfig(max_batch=1, max_delay_s=0.0),
        "micro": ServeConfig(max_batch=micro_width, max_delay_s=0.002),
    }

    results = {}
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        registry = PipelineRegistry(tmp)
        registry.publish(pipeline, "bench")
        for label, config in conditions.items():
            entry = bench_condition(registry, "bench", config, requests, clients)
            results[label] = entry
            print(
                f"{label:<7} qps={entry['qps']:>8.1f}  "
                f"p50={entry['latency_p50_ms']:.2f}ms "
                f"p99={entry['latency_p99_ms']:.2f}ms  "
                f"width mean={entry['mean_batch_width']:.2f} "
                f"max={entry['max_batch_width']}",
                flush=True,
            )

    # Bit-identity: a served row must equal offline predict_logits at its
    # default batch size, whatever each condition's max_batch.
    offline = pipeline.predict_logits(requests)
    identical = {
        label: bool(np.array_equal(entry.pop("logits"), offline))
        for label, entry in results.items()
    }
    speedup = results["micro"]["qps"] / results["batch1"]["qps"]
    print(
        f"speedup : {speedup:.2f}x (micro vs batch1), "
        f"bit-identical to offline: {identical}",
        flush=True,
    )

    stream_load = SMOKE_STREAM if args.smoke else FULL_STREAM
    streaming = bench_streaming(fitted, **stream_load)
    print(
        f"stream  : {streaming['windows_per_s']:>8.1f} windows/s  "
        f"p50={streaming['push_p50_ms']:.2f}ms "
        f"p99={streaming['push_p99_ms']:.2f}ms  "
        f"encoded initial={streaming['encoded_initial']} "
        f"replay={streaming['encoded_replay']} "
        f"tail={streaming['encoded_tail']}/{streaming['tail_windows']}  "
        f"mem ratio={streaming['memory']['ratio']:.3f}",
        flush=True,
    )

    stream_ok = (
        streaming["encoded_replay"] == 0
        and streaming["encoded_tail"] == streaming["tail_windows"]
        and 0.5 <= streaming["memory"]["ratio"] <= 1.5
    )

    if args.smoke:
        # The gate checks machinery, not hardware: served bits match the
        # offline recipe, co-arriving requests actually shared batches,
        # the streaming cache does O(changed windows) encoder work and
        # peak memory tracks the cost model.  Throughput claims are NOT
        # gated — CI is noisy.
        ok = (
            all(identical.values())
            and results["micro"]["mean_batch_width"] > 1.0
            and results["batch1"]["max_batch_width"] == 1
            and stream_ok
        )
        print(f"smoke   : {'ok' if ok else 'FAIL'}")
        return 0 if ok else 1

    record = {
        "benchmark": "serve_micro_batching",
        "cpu_count": os.cpu_count(),
        "fit": FIT,
        "load": {"requests": n_requests, "clients": clients, "seed": 7},
        "batch1": results["batch1"],
        "micro": results["micro"],
        "qps_speedup": round(speedup, 3),
        "bit_identical_to_offline": identical,
        "streaming": streaming,
    }
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote   : {args.output}")
    return 0 if speedup >= 2.0 and all(identical.values()) and stream_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Float32 fast-numerics + compiled-replay benchmark for ``repro.nn``.

Two sections, both recorded into ``BENCH_nn.json``:

**Training** — identical encoder-in-the-loop trainer steps (forward,
loss, backward, grad clip, AdamW) under the pre-PR float64 policy and
the float32 default, on calibrated MOMENT-small and ViT-small
geometries: trainer-step throughput plus peak allocation of one step
(``tracemalloc``).

**Inference** — frozen-encoder embedding passes, eager tensor path vs
the compiled replay engine (:mod:`repro.nn.graph`), on the tiny
models at streaming batch sizes.  That is the dispatch-bound regime
graph replay targets: per-op python overhead (wrappers, Tensor
construction, autograd bookkeeping) is a large fraction of each pass,
and replay strips all of it while the arena removes per-op output
allocations.  Outputs are required to be **bit-identical** between
the two paths; peak memory for the compiled side counts the resident
arena on top of the traced per-pass allocations.

Usage::

    PYTHONPATH=src python benchmarks/bench_nn.py            # full run
    PYTHONPATH=src python benchmarks/bench_nn.py --smoke    # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro import nn
from repro.models import MomentModel, ViTModel
from repro.models.config import ModelConfig
from repro.nn import functional as F

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Calibrated bench geometries: large enough that BLAS kernels (not
#: python dispatch) dominate a trainer step — that is the regime the
#: float32 claim is about — while one full run stays under a minute.
BENCH_CONFIGS = {
    "moment-small": ModelConfig(
        name="moment-small-bench",
        family="moment",
        d_model=128,
        num_layers=3,
        num_heads=8,
        d_ff=512,
        patch_length=8,
        patch_stride=8,
        max_sequence_length=512,
        dropout=0.0,
    ),
    "vit-small": ModelConfig(
        name="vit-small-bench",
        family="vit",
        d_model=128,
        num_layers=3,
        num_heads=8,
        d_ff=512,
        patch_length=16,
        patch_stride=8,
        max_sequence_length=512,
        dropout=0.0,
    ),
}

SMOKE_CONFIGS = {
    "moment-smoke": ModelConfig(
        name="moment-smoke-bench",
        family="moment",
        d_model=32,
        num_layers=1,
        num_heads=4,
        d_ff=64,
        patch_length=8,
        patch_stride=8,
        max_sequence_length=128,
        dropout=0.0,
    ),
}


#: Frozen-encoder inference geometries: the tiny models the pipeline
#: actually runs.  Inference executes in small fixed row tiles
#: (``repro.training.tiles``), where dispatch overhead — not BLAS —
#: dominates an eager pass.
INFER_CONFIGS = {
    "moment-tiny": {"seq_len": 32, "channels": 3, "samples": 32},
    "vit-tiny": {"seq_len": 32, "channels": 3, "samples": 32},
}

INFER_SMOKE_CONFIGS = {
    "moment-tiny": {"seq_len": 32, "channels": 2, "samples": 6},
}


def build(config: ModelConfig) -> nn.Module:
    """Instantiate the family model for a bench config."""
    cls = MomentModel if config.family == "moment" else ViTModel
    return cls(config, seed=0)


def run_trainer_steps(
    config: ModelConfig,
    dtype: str,
    steps: int,
    batch_size: int,
    seq_len: int,
    channels: int,
    num_classes: int = 4,
) -> dict:
    """Time encoder-in-the-loop trainer steps under one dtype policy."""
    with nn.default_dtype(dtype):
        model = build(config)
        model.train()
        head = nn.Linear(config.d_model, num_classes, rng=np.random.default_rng(1))
        params = model.trainable_parameters() + head.trainable_parameters()
        optimizer = nn.AdamW(params, lr=1e-3)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(batch_size, seq_len, channels))
        y = rng.integers(0, num_classes, size=batch_size)

        def one_step() -> float:
            logits = head(model.encode(nn.Tensor(x)))
            loss = F.cross_entropy(logits, y)
            optimizer.zero_grad()
            loss.backward()
            nn.clip_grad_norm(params, 1.0)
            optimizer.step()
            return float(loss.data)

        one_step()  # warmup: page in buffers, settle BLAS threads
        start = time.perf_counter()
        last_loss = 0.0
        for _ in range(steps):
            last_loss = one_step()
        wall = time.perf_counter() - start

        # Peak allocation of a single step, traced separately so the
        # tracemalloc overhead never contaminates the throughput number.
        tracemalloc.start()
        one_step()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

    return {
        "dtype": dtype,
        "steps": steps,
        "wall_s": round(wall, 4),
        "steps_per_s": round(steps / wall, 3) if wall else float("inf"),
        "peak_alloc_bytes": int(peak),
        "final_loss": round(last_loss, 6),
    }


def bench_config(name: str, config: ModelConfig, steps: int, batch_size: int,
                 seq_len: int, channels: int) -> dict:
    """float64 baseline vs float32 fast path on one geometry."""
    baseline = run_trainer_steps(config, "float64", steps, batch_size, seq_len, channels)
    fast = run_trainer_steps(config, "float32", steps, batch_size, seq_len, channels)
    speedup = fast["steps_per_s"] / baseline["steps_per_s"]
    alloc_reduction = 1.0 - fast["peak_alloc_bytes"] / baseline["peak_alloc_bytes"]
    return {
        "model": name,
        "geometry": {
            "d_model": config.d_model,
            "num_layers": config.num_layers,
            "d_ff": config.d_ff,
            "batch_size": batch_size,
            "seq_len": seq_len,
            "channels": channels,
        },
        "float64": baseline,
        "float32": fast,
        "throughput_speedup": round(speedup, 3),
        "peak_alloc_reduction": round(alloc_reduction, 3),
    }


def run_inference(
    model_name: str,
    geometry: dict,
    compiled: bool,
    passes: int,
) -> tuple[dict, np.ndarray]:
    """Time frozen-encoder embedding passes under one execution mode."""
    from repro.models import build_model
    from repro.training import compute_embeddings

    model = build_model(model_name, seed=0)
    model.eval()
    model.freeze()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(geometry["samples"], geometry["seq_len"], geometry["channels"]))

    # Warmup: pages buffers in; in compiled mode this also captures and
    # compiles the graph, so capture cost is excluded from throughput
    # (it is paid once per tile geometry, not per pass).
    embeddings = compute_embeddings(model, x, compiled=compiled)
    start = time.perf_counter()
    for _ in range(passes):
        compute_embeddings(model, x, compiled=compiled)
    wall = time.perf_counter() - start

    tracemalloc.start()
    compute_embeddings(model, x, compiled=compiled)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # Steady-state memory: traced per-pass allocations, plus (compiled
    # only) the resident arena blocks tracemalloc did not see because
    # they were allocated during warmup and reused ever since.
    arena = sum(g.arena_bytes for g in model._graph_cache.graphs()) if compiled else 0
    stats = model._graph_cache.stats()

    record = {
        "mode": "compiled" if compiled else "eager",
        "passes": passes,
        "wall_s": round(wall, 4),
        "samples_per_s": round(passes * len(x) / wall, 2) if wall else float("inf"),
        "peak_alloc_bytes": int(peak) + int(arena),
        "arena_bytes": int(arena),
        "graphs_compiled": stats["compiled"],
        "replay_fallbacks": stats["fallbacks"],
    }
    return record, embeddings


def bench_inference(model_name: str, geometry: dict, passes: int) -> dict:
    """Eager vs compiled frozen-encoder inference on one geometry."""
    eager, eager_emb = run_inference(model_name, geometry, compiled=False, passes=passes)
    compiled, compiled_emb = run_inference(model_name, geometry, compiled=True, passes=passes)
    return {
        "model": model_name,
        "geometry": geometry,
        "eager": eager,
        "compiled": compiled,
        "throughput_speedup": round(
            compiled["samples_per_s"] / eager["samples_per_s"], 3
        ),
        "peak_alloc_reduction": round(
            1.0 - compiled["peak_alloc_bytes"] / eager["peak_alloc_bytes"], 3
        ),
        "bit_identical": bool(np.array_equal(compiled_emb, eager_emb)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny geometry sanity run for CI; prints but does not write JSON",
    )
    parser.add_argument("--steps", type=int, default=None, help="timed steps per dtype")
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_nn.json"),
        help="where to write the JSON record (full mode only)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        configs, steps, batch, seq_len, channels = SMOKE_CONFIGS, args.steps or 2, 4, 64, 2
        infer_configs, passes = INFER_SMOKE_CONFIGS, 2
    else:
        configs, steps, batch, seq_len, channels = BENCH_CONFIGS, args.steps or 15, 8, 256, 3
        infer_configs, passes = INFER_CONFIGS, 10

    results = []
    for name, config in configs.items():
        entry = bench_config(name, config, steps, batch, seq_len, channels)
        results.append(entry)
        print(
            f"{name:<14} {entry['float64']['steps_per_s']:>7.2f} -> "
            f"{entry['float32']['steps_per_s']:>7.2f} steps/s "
            f"({entry['throughput_speedup']:.2f}x), peak alloc "
            f"{entry['float64']['peak_alloc_bytes'] / 1024**2:.1f} -> "
            f"{entry['float32']['peak_alloc_bytes'] / 1024**2:.1f} MiB "
            f"(-{entry['peak_alloc_reduction'] * 100:.0f}%)",
            flush=True,
        )

    inference = []
    for name, geometry in infer_configs.items():
        entry = bench_inference(name, geometry, passes)
        inference.append(entry)
        print(
            f"{name + ' (infer)':<22} {entry['eager']['samples_per_s']:>8.1f} -> "
            f"{entry['compiled']['samples_per_s']:>8.1f} samples/s "
            f"({entry['throughput_speedup']:.2f}x), peak alloc "
            f"{entry['eager']['peak_alloc_bytes'] / 1024**2:.2f} -> "
            f"{entry['compiled']['peak_alloc_bytes'] / 1024**2:.2f} MiB "
            f"(-{entry['peak_alloc_reduction'] * 100:.0f}%), "
            f"bit-identical: {entry['bit_identical']}",
            flush=True,
        )

    if args.smoke:
        # The gate checks machinery, not hardware: both dtype runs
        # finished without allocation blowup, and the compiled engine
        # actually compiled, never fell back, and reproduced eager bits.
        # Throughput ratios are NOT gated here — CI boxes are noisy.
        ok = all(e["float32"]["peak_alloc_bytes"] < e["float64"]["peak_alloc_bytes"]
                 for e in results)
        replay_ok = all(
            e["bit_identical"]
            and e["compiled"]["graphs_compiled"] >= 1
            and e["compiled"]["replay_fallbacks"] == 0
            and e["peak_alloc_reduction"] > 0
            for e in inference
        )
        print(f"smoke   : {'ok' if ok and replay_ok else 'FAIL'}")
        return 0 if ok and replay_ok else 1

    record = {
        "benchmark": "nn_float32_fast_numerics",
        "cpu_count": os.cpu_count(),
        "results": results,
        "min_throughput_speedup": min(e["throughput_speedup"] for e in results),
        "min_peak_alloc_reduction": min(e["peak_alloc_reduction"] for e in results),
        "inference": inference,
        "min_inference_speedup": min(e["throughput_speedup"] for e in inference),
        "min_inference_alloc_reduction": min(
            e["peak_alloc_reduction"] for e in inference
        ),
        "inference_bit_identical": all(e["bit_identical"] for e in inference),
    }
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote   : {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

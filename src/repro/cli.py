"""Command-line interface.

Subcommands
-----------
``repro datasets``
    List the 12 UEA datasets (Table 3) with their geometry.
``repro adapters``
    List the available adapters.
``repro simulate``
    Price a fine-tuning job on the simulated V100-32GB: OK / TO / COM,
    simulated seconds and peak memory.
``repro run``
    Fine-tune one (dataset, model, adapter) combination on the
    surrogate data and report test accuracy; optionally save the
    fitted pipeline.
``repro profile``
    Same shape as ``run``, but with the op-level profiler active:
    prints per-op call counts, forward/backward seconds and bytes
    allocated for the training loop, under a chosen compute dtype.
``repro table`` / ``repro figure``
    Regenerate one of the paper's tables (1–5) or figures (1–6,
    ``claims``) and print it.
``repro cache``
    Inspect (``stats``) or empty (``clear``) the content-addressed
    artifact cache that ``table``/``figure``/``report`` reuse across
    processes when ``--cache-dir`` (or ``$REPRO_CACHE_DIR``) is set.
``repro sweep``
    Run an experiment grid against a *grid directory*: every verdict
    is journaled crash-safely, interrupted sweeps resume without
    recomputation, and several ``--shard`` processes can work-steal
    one grid concurrently (see ``docs/exec.md``).
``repro grid``
    Inspect a grid directory: per-state job counts, active shard
    leases and a naive ETA (``status``).
``repro serve``
    Serve a registered pipeline with dynamic micro-batching, drive a
    seeded synthetic closed-loop load against it, and print the
    ``/stats`` snapshot (QPS, p50/p99 latency, batch widths, shed and
    deadline counts).  See ``docs/serve.md``.
``repro predict``
    One-shot offline prediction from a registered pipeline against an
    ``.npz`` input file (labels, logits or probabilities).
``repro stream``
    Incremental streaming classification of one long class-switching
    series (generated, or an ``.npz`` with an ``x`` array) through a
    registered pipeline: per-window labels as the stream advances,
    sustained windows/sec and rolling-cache counters.  See
    ``docs/stream.md``.

Invoke as ``python -m repro.cli ...`` or the installed ``repro``
script.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .adapters import make_adapter
from .adapters.registry import ADAPTER_NAMES
from .data import dataset_info, dataset_names
from .evaluation import render_table
from .exec import DEFAULT_STALE_AFTER, JobSpec, ProgressTracker
from .experiments import (
    ExperimentRunner,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    get_preset,
    headline_claims,
    table1,
    table2,
    table3,
    table4,
    table5,
)
from .models import load_pretrained
from .resources import simulate_finetuning
from .runtime import NAMESPACES, ArtifactStore, Stopwatch, resolve_cache_dir
from .training import AdapterPipeline, FineTuneStrategy, TrainConfig
from .training.persistence import _save_pipeline_dir

__all__ = ["main", "build_parser"]

_ALL_ADAPTERS = ("none",) + ADAPTER_NAMES + ("scaled_pca", "patch_pca", "lda", "cluster_avg")
_PAPER_MODEL_CHOICES = ("moment-large", "vit-base-ts")
_RUNNABLE_MODEL_CHOICES = ("moment-tiny", "vit-tiny")

_TABLES = {"1": table1, "2": table2, "3": None, "4": table4, "5": table5}
_FIGURES = {
    "1": figure1,
    "2": figure2,
    "3": figure3,
    "4": figure4,
    "5": figure5,
    "6": figure6,
    "claims": headline_claims,
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Foundation-model adapters for multivariate time series (ICDE 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the Table-3 datasets")
    sub.add_parser("adapters", help="list available adapters")

    sim = sub.add_parser("simulate", help="price a job on the simulated V100-32GB")
    sim.add_argument("--model", choices=_PAPER_MODEL_CHOICES, default="moment-large")
    sim.add_argument("--dataset", required=True, help="dataset name (full or short)")
    sim.add_argument("--adapter", choices=_ALL_ADAPTERS, default="none")
    sim.add_argument("--channels", type=int, default=5, help="reduced channel count D'")
    sim.add_argument("--full-finetune", action="store_true", help="full FT instead of (adapter+)head")

    run = sub.add_parser("run", help="fine-tune on the surrogate data and report accuracy")
    run.add_argument("--model", choices=_RUNNABLE_MODEL_CHOICES, default="moment-tiny")
    run.add_argument("--dataset", required=True)
    run.add_argument("--adapter", choices=_ALL_ADAPTERS, default="pca")
    run.add_argument("--channels", type=int, default=5)
    run.add_argument("--strategy", choices=[s.value for s in FineTuneStrategy], default="adapter_head")
    run.add_argument("--epochs", type=int, default=40)
    run.add_argument("--batch-size", type=int, default=32)
    run.add_argument("--learning-rate", type=float, default=3e-3)
    run.add_argument("--scale", type=float, default=0.1, help="surrogate dataset scale")
    run.add_argument("--max-length", type=int, default=96)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--save", metavar="DIR", help="save the fitted pipeline to DIR")
    run.add_argument(
        "--registry", metavar="DIR",
        help="pipeline registry directory for --deploy",
    )
    run.add_argument(
        "--deploy", metavar="NAME",
        help="publish the fitted pipeline into --registry under NAME",
    )

    prof = sub.add_parser("profile", help="op-level profile of one fine-tuning run")
    prof.add_argument("--model", choices=_RUNNABLE_MODEL_CHOICES, default="moment-tiny")
    prof.add_argument("--dataset", required=True)
    prof.add_argument("--adapter", choices=_ALL_ADAPTERS, default="pca")
    prof.add_argument("--channels", type=int, default=5)
    prof.add_argument(
        "--strategy", choices=[s.value for s in FineTuneStrategy], default="adapter_head"
    )
    prof.add_argument("--epochs", type=int, default=3)
    prof.add_argument("--batch-size", type=int, default=32)
    prof.add_argument("--learning-rate", type=float, default=3e-3)
    prof.add_argument("--scale", type=float, default=0.1, help="surrogate dataset scale")
    prof.add_argument("--max-length", type=int, default=96)
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument(
        "--dtype", choices=("float32", "float64"), default="float32",
        help="compute dtype the model is built and trained in",
    )
    prof.add_argument(
        "--top", type=int, default=None, metavar="N", help="show only the N hottest ops"
    )
    prof.add_argument(
        "--compiled", action="store_true",
        help="also show the compiled-graph replay table (frozen-encoder "
        "inference replays recorded during the profiled run)",
    )

    for name, choices in (("table", _TABLES), ("figure", _FIGURES)):
        cmd = sub.add_parser(name, help=f"regenerate a paper {name}")
        cmd.add_argument("which", choices=sorted(choices), help=f"{name} id")
        cmd.add_argument("--preset", default="fast", help="experiment preset (fast|standard)")
        cmd.add_argument("--datasets", nargs="*", help="restrict to these datasets")
        cmd.add_argument("--seeds", nargs="*", type=int, help="restrict to these seeds")
        cmd.add_argument(
            "--cache-dir",
            metavar="DIR",
            help="persistent artifact cache (default: $REPRO_CACHE_DIR)",
        )
        cmd.add_argument(
            "--workers", type=int, default=1,
            help="worker processes for the experiment grid (1 = in-process)",
        )
        cmd.add_argument(
            "--job-timeout", type=float, default=None, metavar="SECONDS",
            help="per-job wall-clock budget; jobs over it surface as TO cells",
        )
        if name == "table":
            cmd.add_argument("--latex", action="store_true", help="emit LaTeX instead of markdown")

    cache = sub.add_parser("cache", help="inspect or clear the persistent artifact cache")
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR)",
    )
    cache.add_argument(
        "--namespace",
        choices=NAMESPACES,
        help="restrict `clear` to one artifact kind",
    )

    sweep = sub.add_parser(
        "sweep", help="run a resumable experiment grid (journal + shard leases)"
    )
    sweep.add_argument(
        "--grid-dir", required=True, metavar="DIR",
        help="grid directory holding the journal, leases and (by default) the cache",
    )
    sweep.add_argument("--preset", default="fast", help="experiment preset (fast|standard)")
    sweep.add_argument("--datasets", nargs="*", help="restrict to these datasets")
    sweep.add_argument(
        "--models", nargs="*", choices=("MOMENT", "ViT"), default=None,
        help="paper models to run (default: both)",
    )
    sweep.add_argument("--adapters", nargs="*", help="adapters to run (default: none pca)")
    sweep.add_argument(
        "--strategies", nargs="*", choices=[s.value for s in FineTuneStrategy],
        help="fine-tuning strategies (default: adapter_head)",
    )
    sweep.add_argument("--seeds", nargs="*", type=int, help="restrict to these seeds")
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the experiment grid (1 = in-process)",
    )
    sweep.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget; jobs over it surface as TO cells",
    )
    sweep.add_argument(
        "--cache-dir", metavar="DIR",
        help="artifact cache (default: <grid-dir>/cache, shared by all shards)",
    )
    sweep.add_argument(
        "--shard", action="store_true",
        help="contribute what this process can claim and exit without "
        "waiting for jobs other shards hold",
    )
    sweep.add_argument(
        "--no-resume", action="store_true",
        help="ignore journaled verdicts and re-execute everything",
    )
    sweep.add_argument(
        "--retry-budget", type=int, default=1,
        help="extra attempts granted to journaled TO/COM verdicts across resumes",
    )
    sweep.add_argument(
        "--stale-after", type=float, default=DEFAULT_STALE_AFTER, metavar="SECONDS",
        help="heartbeat age after which a peer's lease is stolen",
    )
    sweep.add_argument(
        "--owner", default=None,
        help="shard owner id for leases (default: host:pid:nonce)",
    )

    grid_cmd = sub.add_parser("grid", help="inspect a resumable grid directory")
    grid_cmd.add_argument("action", choices=("status",))
    grid_cmd.add_argument("grid_dir", metavar="DIR", help="grid directory to inspect")
    grid_cmd.add_argument(
        "--stale-after", type=float, default=DEFAULT_STALE_AFTER, metavar="SECONDS",
        help="heartbeat age after which a lease counts as stale",
    )

    serve_cmd = sub.add_parser(
        "serve",
        help="serve a registered pipeline (micro-batched) under synthetic load",
    )
    serve_cmd.add_argument("--registry", required=True, metavar="DIR", help="registry directory")
    serve_cmd.add_argument("--name", required=True, help="deployment name")
    serve_cmd.add_argument("--version", type=int, default=None, help="version (default: latest)")
    serve_cmd.add_argument("--max-batch", type=int, default=16, help="micro-batch width cap")
    serve_cmd.add_argument(
        "--max-delay-ms", type=float, default=2.0,
        help="longest a request waits for co-batchees",
    )
    serve_cmd.add_argument("--queue-depth", type=int, default=256, help="bounded queue capacity")
    serve_cmd.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request deadline (default: none)",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=0,
        help="serving worker processes (0 = in-process)",
    )
    serve_cmd.add_argument(
        "--no-compiled", action="store_true", help="disable compiled graph replay"
    )
    serve_cmd.add_argument(
        "--requests", type=int, default=256, help="synthetic requests to drive"
    )
    serve_cmd.add_argument(
        "--clients", type=int, default=4, help="concurrent closed-loop client threads"
    )
    serve_cmd.add_argument(
        "--length", type=int, default=96, help="series length of synthetic requests"
    )
    serve_cmd.add_argument("--seed", type=int, default=0, help="load-generator seed")
    serve_cmd.add_argument(
        "--stats-json", metavar="FILE", help="also write the /stats snapshot to FILE"
    )

    predict_cmd = sub.add_parser(
        "predict", help="one-shot prediction from a registered pipeline"
    )
    predict_cmd.add_argument("--registry", required=True, metavar="DIR")
    predict_cmd.add_argument("--name", required=True, help="deployment name")
    predict_cmd.add_argument("--version", type=int, default=None, help="version (default: latest)")
    predict_cmd.add_argument(
        "--input", required=True, metavar="FILE.npz",
        help="npz with an 'x' array, or a dataset archive (x_test is used)",
    )
    predict_cmd.add_argument(
        "--output", metavar="FILE.npz", help="write labels/logits/proba arrays to FILE"
    )
    predict_cmd.add_argument(
        "--proba", action="store_true", help="print class probabilities instead of labels"
    )
    predict_cmd.add_argument("--batch-size", type=int, default=64)
    predict_cmd.add_argument(
        "--no-compiled", action="store_true", help="disable compiled graph replay"
    )
    predict_cmd.add_argument(
        "--limit", type=int, default=8, metavar="N", help="print at most N rows"
    )

    stream_cmd = sub.add_parser(
        "stream",
        help="incremental streaming classification of one long series",
    )
    stream_cmd.add_argument("--registry", required=True, metavar="DIR")
    stream_cmd.add_argument("--name", required=True, help="deployment name")
    stream_cmd.add_argument("--version", type=int, default=None, help="version (default: latest)")
    stream_cmd.add_argument(
        "--input", metavar="FILE.npz",
        help="npz with an 'x' (T, D) array (default: generate with --dataset)",
    )
    stream_cmd.add_argument(
        "--dataset", default=None,
        help="generate a class-switching stream from this dataset's surrogate",
    )
    stream_cmd.add_argument(
        "--length", type=int, default=4096, help="generated stream length"
    )
    stream_cmd.add_argument("--window", type=int, default=64, help="window size")
    stream_cmd.add_argument("--stride", type=int, default=16, help="window stride")
    stream_cmd.add_argument(
        "--chunk", type=int, default=32, help="samples pushed per chunk"
    )
    stream_cmd.add_argument(
        "--batch-size", type=int, default=16,
        help="accepted for compatibility; streamed logits equal offline "
        "predict_logits at any batch size (execution is tiled)",
    )
    stream_cmd.add_argument("--seed", type=int, default=0, help="stream generator seed")
    stream_cmd.add_argument(
        "--no-compiled", action="store_true", help="disable compiled graph replay"
    )
    stream_cmd.add_argument(
        "--limit", type=int, default=8, metavar="N", help="print at most N window rows"
    )

    baseline = sub.add_parser("baseline", help="run a classical baseline (ROCKET / 1-NN DTW)")
    baseline.add_argument("--dataset", required=True)
    baseline.add_argument("--method", choices=("rocket", "dtw"), default="rocket")
    baseline.add_argument("--kernels", type=int, default=500, help="ROCKET kernel count")
    baseline.add_argument("--band", type=int, default=5, help="DTW Sakoe-Chiba band")
    baseline.add_argument("--scale", type=float, default=0.1)
    baseline.add_argument("--max-length", type=int, default=64)
    baseline.add_argument("--seed", type=int, default=0)

    selfcheck = sub.add_parser(
        "selfcheck",
        help="verify numerics: invariants + op gradcheck sweep + golden regressions",
    )
    selfcheck.add_argument(
        "--smoke",
        action="store_true",
        help="fast tier: float32-only gradchecks, one golden scenario",
    )
    selfcheck.add_argument(
        "--update-golden",
        action="store_true",
        help="re-record golden snapshots instead of comparing against them",
    )
    selfcheck.add_argument(
        "--golden-dir",
        metavar="DIR",
        help="golden snapshot directory (default: $REPRO_GOLDEN_DIR or ./goldens)",
    )

    report = sub.add_parser("report", help="full paper-vs-measured report (EXPERIMENTS.md)")
    report.add_argument("--preset", default="fast")
    report.add_argument("--datasets", nargs="*", help="restrict to these datasets")
    report.add_argument("--seeds", nargs="*", type=int)
    report.add_argument("--output", metavar="FILE", help="also write the report to FILE")
    report.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent artifact cache (default: $REPRO_CACHE_DIR)",
    )
    report.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the experiment grid (1 = in-process)",
    )
    report.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget; jobs over it surface as TO cells",
    )

    return parser


def _cmd_datasets() -> int:
    rows = [
        [
            info.name,
            info.short_name,
            str(info.train_size),
            str(info.test_size),
            str(info.num_channels),
            str(info.sequence_length),
            str(info.num_classes),
            info.domain,
        ]
        for info in (dataset_info(name) for name in dataset_names())
    ]
    print(
        render_table(
            ["dataset", "short", "train", "test", "channels", "length", "classes", "domain"],
            rows,
        )
    )
    return 0


def _cmd_adapters() -> int:
    descriptions = {
        "none": "identity (no reduction)",
        "pca": "principal components over channels",
        "scaled_pca": "PCA on channel-standardised data",
        "patch_pca": "PCA over (patch window x channels) blocks",
        "svd": "top right-singular directions (uncentered)",
        "rand_proj": "Johnson-Lindenstrauss random projection",
        "var": "keep the highest-variance channels",
        "lda": "Fisher discriminant directions (supervised, fit-once)",
        "cluster_avg": "average correlated channel clusters",
        "lcomb": "learnable linear combiner (trained with the head)",
        "lcomb_top_k": "lcomb with top-k row sparsification",
    }
    rows = [[name, desc] for name, desc in descriptions.items()]
    print(render_table(["adapter", "description"], rows))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    info = dataset_info(args.dataset)
    run = simulate_finetuning(
        args.model,
        info,
        adapter=None if args.adapter == "none" else args.adapter,
        reduced_channels=args.channels,
        full_finetune=args.full_finetune,
    )
    print(f"dataset : {info.name} (D={info.num_channels}, T={info.sequence_length})")
    print(f"model   : {args.model}")
    print(f"adapter : {args.adapter} (D'={args.channels})")
    print(f"regime  : {'full fine-tuning' if args.full_finetune else 'head / adapter+head'}")
    print(f"outcome : {run.status}")
    print(f"time    : {run.seconds:,.0f} s ({run.hours:.2f} h, budget 2 h)")
    print(f"memory  : {run.peak_memory_gib:.1f} GiB (budget 32 GiB)")
    print(f"compute : {run.flops:.3e} FLOPs")
    return 0 if run.ok else 1


def _cmd_run(args: argparse.Namespace) -> int:
    from .data import load_dataset

    dataset = load_dataset(
        args.dataset, seed=args.seed, scale=args.scale, max_length=args.max_length,
        normalize=False,
    )
    spec = spec_from_run_args(args)
    print(f"loaded  : {dataset.describe()}")
    print(f"spec    : {spec.label}")
    model = load_pretrained(args.model, seed=args.seed)
    adapter = make_adapter(
        args.adapter, args.channels if args.adapter != "none" else 1, seed=args.seed
    )
    pipeline = AdapterPipeline(model, adapter, dataset.num_classes, seed=args.seed)
    strategy = FineTuneStrategy(args.strategy)
    config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seed=args.seed,
    )
    report = pipeline.fit(dataset.x_train, dataset.y_train, strategy=strategy, config=config)
    accuracy = pipeline.score(dataset.x_test, dataset.y_test)
    print(f"adapter : {adapter.name} (cached embeddings: {report.used_embedding_cache})")
    print(f"fit     : {report.total_s:.2f} s")
    print(f"accuracy: {accuracy:.3f}")
    if args.save:
        path = _save_pipeline_dir(pipeline, args.save)
        print(f"saved   : {path}")
    if args.deploy:
        if not args.registry:
            print("error   : --deploy requires --registry DIR", file=sys.stderr)
            return 2
        from .serve import PipelineRegistry

        record = PipelineRegistry(args.registry).publish(pipeline, args.deploy)
        print(f"deployed: {record.ref} -> {args.registry}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .data import load_dataset
    from .nn import default_dtype
    from .nn.profiler import render_ops, render_replay_ops

    dataset = load_dataset(
        args.dataset, seed=args.seed, scale=args.scale, max_length=args.max_length,
        normalize=False,
    )
    print(f"loaded  : {dataset.describe()}")
    with default_dtype(args.dtype):
        model = load_pretrained(args.model, seed=args.seed)
    adapter = make_adapter(
        args.adapter, args.channels if args.adapter != "none" else 1, seed=args.seed
    )
    pipeline = AdapterPipeline(model, adapter, dataset.num_classes, seed=args.seed)
    config = TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seed=args.seed,
        profile=True,
    )
    report = pipeline.fit(
        dataset.x_train,
        dataset.y_train,
        strategy=FineTuneStrategy(args.strategy),
        config=config,
    )
    summary = report.summary
    print(f"model   : {args.model} ({args.dtype})")
    print(f"adapter : {adapter.name} (cached embeddings: {report.used_embedding_cache})")
    print(
        "phases  : "
        + "  ".join(
            f"{name}={seconds:.2f}s"
            for name, seconds in sorted(summary.phase_seconds.items())
        )
    )
    print()
    print(render_ops(summary.ops, top=args.top))
    if args.compiled:
        print()
        replay = report.train_result.replay_profile if report.train_result else {}
        if replay:
            print(render_replay_ops(replay, top=args.top))
        else:
            print(
                "no graph replays recorded: compiled replay only serves "
                "frozen-encoder inference (the embedding phase); this "
                "run kept the encoder in the training loop or "
                "compilation is disabled (REPRO_NN_COMPILE=0)"
            )
    return 0


#: ``repro run`` takes runnable (tiny) model names; specs use paper labels.
_PAPER_LABEL_BY_RUNNABLE = {"moment-tiny": "MOMENT", "vit-tiny": "ViT"}


def spec_from_run_args(args: argparse.Namespace) -> JobSpec:
    """Map ``repro run`` argv onto the canonical :class:`JobSpec`."""
    return JobSpec(
        dataset=args.dataset,
        model=_PAPER_LABEL_BY_RUNNABLE[args.model],
        adapter=args.adapter,
        strategy=FineTuneStrategy(args.strategy),
        seed=args.seed,
    )


def _make_runner(args: argparse.Namespace) -> ExperimentRunner:
    config = get_preset(args.preset)
    overrides = {}
    if args.datasets:
        overrides["datasets"] = tuple(dataset_info(d).name for d in args.datasets)
    if args.seeds:
        overrides["seeds"] = tuple(args.seeds)
    if overrides:
        config = config.with_(**overrides)
    workers = max(1, int(getattr(args, "workers", 1) or 1))
    return ExperimentRunner(
        config,
        cache_dir=getattr(args, "cache_dir", None),
        workers=workers,
        job_timeout=getattr(args, "job_timeout", None),
        tracker=ProgressTracker(stream=sys.stderr) if workers > 1 else None,
    )


def _cmd_table(args: argparse.Namespace) -> int:
    if args.which == "3":
        result = table3()
    else:
        result = _TABLES[args.which](_make_runner(args))
    print(result.to_latex() if args.latex else result.render())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    builder = _FIGURES[args.which]
    print(builder(_make_runner(args)).render())
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    from .baselines import DTW1NNClassifier, RocketClassifier
    from .data import load_dataset

    dataset = load_dataset(
        args.dataset, seed=args.seed, scale=args.scale, max_length=args.max_length,
        normalize=False,
    )
    print(f"loaded  : {dataset.describe()}")
    watch = Stopwatch()
    if args.method == "rocket":
        classifier = RocketClassifier(num_kernels=args.kernels, seed=args.seed)
    else:
        classifier = DTW1NNClassifier(band=args.band)
    classifier.fit(dataset.x_train, dataset.y_train)
    accuracy = classifier.score(dataset.x_test, dataset.y_test)
    print(f"method  : {args.method}")
    print(f"fit+eval: {watch.elapsed():.2f} s")
    print(f"accuracy: {accuracy:.3f}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache_dir = resolve_cache_dir(args.cache_dir)
    if cache_dir is None:
        print("no cache directory configured; pass --cache-dir or set $REPRO_CACHE_DIR")
        return 1
    store = ArtifactStore(cache_dir=cache_dir)
    if args.action == "clear":
        removed = store.clear(namespace=args.namespace)
        scope = args.namespace or "all namespaces"
        print(f"cleared : {removed} entries ({scope}) from {cache_dir}")
        return 0
    summary = store.disk_summary()
    rows = [
        [namespace, str(counts["entries"]), f"{counts['bytes'] / 1024**2:.2f} MiB"]
        for namespace, counts in sorted(summary.items())
    ]
    total_entries = sum(counts["entries"] for counts in summary.values())
    total_bytes = sum(counts["bytes"] for counts in summary.values())
    print(f"cache   : {cache_dir}")
    if rows:
        print(render_table(["namespace", "entries", "size"], rows))
        print(f"total   : {total_entries} entries, {total_bytes / 1024**2:.2f} MiB")
    else:
        print("total   : empty")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .exec import grid

    config = get_preset(args.preset)
    if args.seeds:
        config = config.with_(seeds=tuple(args.seeds))
    datasets = tuple(
        dataset_info(d).name for d in (args.datasets or config.datasets)
    )
    specs = grid(
        datasets=datasets,
        models=tuple(args.models) if args.models else ("MOMENT", "ViT"),
        adapters=tuple(args.adapters) if args.adapters else ("none", "pca"),
        strategies=tuple(args.strategies) if args.strategies else ("adapter_head",),
        seeds=config.seeds,
    )
    cache_dir = args.cache_dir or str(Path(args.grid_dir) / "cache")
    runner = ExperimentRunner(
        config,
        cache_dir=cache_dir,
        workers=max(1, int(args.workers)),
        job_timeout=args.job_timeout,
    )
    tracker = ProgressTracker(stream=sys.stderr)
    results = runner.run_specs(
        specs,
        tracker=tracker,
        grid_dir=args.grid_dir,
        resume=not args.no_resume,
        retry_budget=args.retry_budget,
        stale_after=args.stale_after,
        owner=args.owner,
        wait_for_peers=not args.shard,
    )
    finished = [r for r in results if r is not None]
    snapshot = tracker.snapshot()
    print(f"grid    : {args.grid_dir}")
    print(f"jobs    : {len(specs)} total, {len(finished)} finished this process")
    print(
        "resume  : "
        f"{snapshot['resumed']} resumed, {snapshot['cached']} cached, "
        f"{snapshot['stolen']} leases stolen"
    )
    if len(finished) < len(results):
        print(f"pending : {len(results) - len(finished)} jobs held by other shards")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .exec import GridJournal, LeaseBoard

    grid_dir = Path(args.grid_dir)
    journal = GridJournal.open(grid_dir)
    if not journal.manifest_path.exists():
        print(f"no grid journal at {grid_dir} (run `repro sweep --grid-dir {grid_dir}` first)")
        return 1
    progress = journal.progress()
    counts = progress["counts"]
    print(f"grid    : {grid_dir}")
    print(f"jobs    : {progress['total']} total, {progress['remaining']} remaining")
    rows = [[state, str(counts[state])] for state in counts if counts[state]]
    if rows:
        print(render_table(["state", "jobs"], rows))
    if progress["re_executed"]:
        print(f"re-run  : {progress['re_executed']} duplicate executions recorded")
    if progress["mean_job_seconds"] is not None:
        print(f"mean    : {progress['mean_job_seconds']:.2f} s/job")
    if progress["eta_seconds"] is not None:
        print(f"eta     : {progress['eta_seconds']:.0f} s")
    leases = LeaseBoard(grid_dir, stale_after=args.stale_after).active()
    if leases:
        lease_rows = [
            [
                row["digest"][:12],
                row["owner"],
                f"{row['heartbeat_age_s']:.1f}s",
                "stale" if row["stale"] else "live",
            ]
            for row in leases
        ]
        print(render_table(["lease", "owner", "heartbeat", "state"], lease_rows))
    else:
        print("leases  : none active")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments import build_report

    text = build_report(_make_runner(args))
    print(text)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from .testing import (
        SMOKE_SCENARIOS,
        check_goldens,
        run_invariants,
        run_op_sweep,
    )
    from .testing.gradcheck import GradcheckFailure

    failures = 0

    invariant_results = run_invariants()
    for result in invariant_results:
        status = "ok" if result.passed else f"FAIL  {result.detail}"
        print(f"invariant  {result.name:<42} {status}")
    failures += sum(not r.passed for r in invariant_results)

    dtypes = ("float32",) if args.smoke else ("float32", "float64")
    try:
        sweep = run_op_sweep(dtypes=dtypes)
    except (GradcheckFailure, AssertionError) as failure:
        print(f"gradcheck  op sweep                                   FAIL  {failure}")
        failures += 1
    else:
        ops = len({r.op for r in sweep})
        print(
            f"gradcheck  {ops} ops / {len(sweep)} checks "
            f"[{', '.join(dtypes)}]".ljust(53)
            + " ok"
        )

    names = list(SMOKE_SCENARIOS) if args.smoke else None
    golden_results = check_goldens(
        golden_dir=args.golden_dir, names=names, update=args.update_golden
    )
    for result in golden_results:
        label = f"golden     {result.name} [{result.dtype}]"
        if result.passed:
            print(f"{label:<53} {result.status}")
        else:
            print(f"{label:<53} FAIL  {result.status}: {result.detail}")
    failures += sum(not r.passed for r in golden_results)

    if failures:
        print(f"selfcheck: {failures} failure(s)")
        return 1
    print("selfcheck: all checks passed")
    return 0


def _serve_config_from_args(args: argparse.Namespace):
    from .serve import ServeConfig

    return ServeConfig(
        max_batch=args.max_batch,
        max_delay_s=args.max_delay_ms / 1000.0,
        queue_depth=args.queue_depth,
        default_deadline_s=(
            None if args.deadline_ms is None else args.deadline_ms / 1000.0
        ),
        workers=args.workers,
        compiled=not args.no_compiled,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    import threading

    import numpy as np

    from .serve import DeadlineExceededError, PipelineServer, QueueFullError

    config = _serve_config_from_args(args)
    server = PipelineServer(args.registry, args.name, version=args.version, config=config)
    record = server.record
    channels = server.input_channels
    print(f"serving : {record.ref} (digest {record.digest[:12]})")
    print(
        f"config  : max_batch={config.max_batch} "
        f"max_delay={config.max_delay_s * 1000:.1f}ms "
        f"queue_depth={config.queue_depth} workers={config.workers} "
        f"compiled={config.compiled}"
    )
    server.warmup(args.length)

    rng = np.random.default_rng(args.seed)
    requests = rng.standard_normal(
        (args.requests, args.length, channels)
    ).astype(np.float32)
    counters = {"ok": 0, "queue_full": 0, "deadline": 0}
    counter_lock = threading.Lock()
    cursor = iter(range(args.requests))
    cursor_lock = threading.Lock()

    def drive() -> None:
        while True:
            with cursor_lock:
                index = next(cursor, None)
            if index is None:
                return
            try:
                server.predict(requests[index])
            except QueueFullError:
                outcome = "queue_full"
            except DeadlineExceededError:
                outcome = "deadline"
            else:
                outcome = "ok"
            with counter_lock:
                counters[outcome] += 1

    watch = Stopwatch()
    threads = [
        threading.Thread(target=drive, name=f"serve-client-{i}", daemon=True)
        for i in range(max(1, args.clients))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = watch.elapsed()

    stats = server.stats()
    server.close(drain=True)
    batcher = stats["batcher"]
    latency = batcher.get("latency_s") or {}
    width = batcher.get("batch_width") or {}
    qps = counters["ok"] / elapsed if elapsed > 0 else float("inf")
    print(f"load    : {args.requests} requests x {max(1, args.clients)} clients")
    print(
        f"done    : {counters['ok']} ok, {counters['queue_full']} shed "
        f"(queue full), {counters['deadline']} deadline-exceeded "
        f"in {elapsed:.2f} s"
    )
    print(f"qps     : {qps:.1f}")
    if latency:
        print(
            f"latency : p50={latency['p50'] * 1000:.2f}ms "
            f"p99={latency['p99'] * 1000:.2f}ms "
            f"mean={latency['mean'] * 1000:.2f}ms"
        )
    if width:
        print(f"batch   : mean width {width['mean']:.2f}, max {width['max']}")
    if args.stats_json:
        from pathlib import Path

        stats["load"] = {"elapsed_s": elapsed, "qps": qps, **counters}
        Path(args.stats_json).write_text(json.dumps(stats, indent=2, sort_keys=True))
        print(f"stats   : {args.stats_json}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from pathlib import Path

    import numpy as np

    from .serve import PipelineRegistry

    registry = PipelineRegistry(args.registry)
    pipeline = registry.load(args.name, version=args.version)
    record = registry.record(args.name, version=args.version)
    with np.load(args.input, allow_pickle=False) as payload:
        if "x" in payload:
            x = np.asarray(payload["x"])
        elif "x_test" in payload:
            x = np.asarray(payload["x_test"])
        else:
            print(
                f"error   : {args.input} has neither an 'x' array nor a "
                "dataset archive's 'x_test'",
                file=sys.stderr,
            )
            return 2
    if x.ndim == 2:
        x = x[None]
    compiled = not args.no_compiled
    logits = pipeline.predict_logits(x, batch_size=args.batch_size, compiled=compiled)
    labels = np.argmax(logits, axis=1)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    proba = exp / exp.sum(axis=1, keepdims=True)
    print(f"pipeline: {record.ref} (digest {record.digest[:12]})")
    print(f"input   : {x.shape[0]} series of shape ({x.shape[1]}, {x.shape[2]})")
    shown = min(len(labels), max(0, args.limit))
    for i in range(shown):
        if args.proba:
            probs = " ".join(f"{p:.4f}" for p in proba[i])
            print(f"[{i}] label={labels[i]}  proba=[{probs}]")
        else:
            print(f"[{i}] label={labels[i]}")
    if shown < len(labels):
        print(f"... ({len(labels) - shown} more; use --limit to print them)")
    if args.output:
        np.savez(Path(args.output), labels=labels, logits=logits, proba=proba)
        print(f"wrote   : {args.output}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    import numpy as np

    from .data import dataset_info
    from .data.generators import generate_stream
    from .serve import PipelineRegistry
    from .stream import StreamingClassifier

    registry = PipelineRegistry(args.registry)
    pipeline = registry.load(args.name, version=args.version)
    record = registry.record(args.name, version=args.version)
    labels = None
    if args.input:
        with np.load(args.input, allow_pickle=False) as payload:
            if "x" not in payload:
                print(f"error   : {args.input} has no 'x' array", file=sys.stderr)
                return 2
            x = np.asarray(payload["x"])
            if "labels" in payload:
                labels = np.asarray(payload["labels"])
    else:
        if not args.dataset:
            print("error   : pass --input FILE.npz or --dataset NAME", file=sys.stderr)
            return 2
        info = dataset_info(args.dataset)
        x, labels = generate_stream(info, seed=args.seed, total_length=args.length)
    if x.ndim != 2:
        print(f"error   : expected one (T, D) series, got shape {x.shape}", file=sys.stderr)
        return 2

    classifier = StreamingClassifier(
        pipeline,
        window=args.window,
        stride=args.stride,
        batch_size=args.batch_size,
        compiled=not args.no_compiled,
    )
    print(f"pipeline: {record.ref} (digest {record.digest[:12]})")
    print(f"stream  : {x.shape[0]} samples x {x.shape[1]} channels")
    print(f"windows : window={args.window} stride={args.stride} chunk={args.chunk}")
    watch = Stopwatch()
    for lo in range(0, len(x), max(1, args.chunk)):
        classifier.push(x[lo : lo + max(1, args.chunk)])
    elapsed = watch.elapsed()

    emitted = classifier.emitted
    shown = min(len(emitted), max(0, args.limit))
    for prediction in emitted[:shown]:
        print(
            f"[{prediction.window_index}] samples {prediction.start}:{prediction.end} "
            f"label={prediction.label}"
        )
    if shown < len(emitted):
        print(f"... ({len(emitted) - shown} more; use --limit to print them)")
    stats = classifier.stats()
    rate = len(emitted) / elapsed if elapsed > 0 else float("inf")
    print(f"emitted : {len(emitted)} windows in {elapsed:.2f} s ({rate:.1f} windows/s)")
    print(
        f"cache   : {stats['cache']['hits']} hits, {stats['cache']['misses']} misses, "
        f"{stats['cache']['encoded_windows']} windows encoded"
    )
    if labels is not None and len(emitted):
        # A window's ground truth is the majority per-step label it covers.
        correct = 0
        for prediction in emitted:
            segment = labels[prediction.start : prediction.end]
            majority = int(np.bincount(segment).argmax())
            correct += int(prediction.label == majority)
        print(f"accuracy: {correct / len(emitted):.3f} (vs majority step label)")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    try:
        return _dispatch(build_parser().parse_args(argv))
    except BrokenPipeError:
        # Output piped into a closed reader (e.g. `repro datasets | head`):
        # exit quietly like standard Unix tools.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "adapters":
        return _cmd_adapters()
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "table":
        return _cmd_table(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "baseline":
        return _cmd_baseline(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "grid":
        return _cmd_grid(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "selfcheck":
        return _cmd_selfcheck(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "predict":
        return _cmd_predict(args)
    if args.command == "stream":
        return _cmd_stream(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())

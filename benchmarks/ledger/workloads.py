"""The ledger's six workloads, from adapter fit to streamed window.

Every workload builds its inputs from the run seed in ``setup``, which
the runner times and repeats; the last set-up's state is measured.
``measure`` runs the workload for about ``seconds`` and returns a
:class:`Measurement`: one latency per unit operation, the workload's
throughput, the counts of attempted and failed operations, named
correctness gates, extra named numbers, and the workload's own
per-layer counters.  Nothing here edits or reaches into ``repro``
internals; it drives the public API a user would.

Geometry: the Heartbeat surrogate (D=61 channels, the widest series
the fit path handles in budget) on ``moment-tiny``.  The fit workloads
use T=256 and serving/streaming T=128, not the paper's 512: at 512 one
pass alone exceeds a run's time budget on a 2-core machine.
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.adapters import make_adapter
from repro.api import FittedPipeline
from repro.data import MultivariateDataset, dataset_info, generate_stream, load_dataset
from repro.models import build_model, load_pretrained
from repro.resources.cost_model import REGIMES, streaming_inference_memory_bytes
from repro.serve import PipelineRegistry, PipelineServer, ServeConfig, ServeError
from repro.stream import StreamingClassifier
from repro.training import AdapterPipeline, FineTuneStrategy, TrainConfig

from .trace import Probe, Tracer, forward_flops, span_or_null

SERIES = "Heartbeat"
MODEL = "moment-tiny"
#: Offline batch width of the fit workloads' predictions: the same width
#: as the head-training embedding fill, so prediction replays its graph.
FIT_WIDTH = 32
#: Serving and streaming execution width (``ServeConfig().max_batch``).
SERVE_WIDTH = 16
STREAM_WINDOW, STREAM_STRIDE = 128, 32
#: A served run is invalid when the load generator's p99 lateness exceeds
#: this share of the median latency it measures: the latencies would then
#: measure the scheduler, not the server.
LATE_LIMIT_SHARE = 0.25
#: How long a served run may take to drain its queue before it fails.
DRAIN_LIMIT_S = 120.0


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``SMOKE`` shrinks every one for the harness test."""

    setup_reps: int = 3
    min_reps: int = 3
    pretrain_steps: int = 40
    fit_scale: float = 0.5  # 102 train / 102 test series
    fit_length: int = 256
    fit_channels: int = 8
    head_epochs: int = 30
    joint_scale: float = 0.25  # 51 / 51
    joint_epochs: int = 3
    serve_scale: float = 0.25
    serve_length: int = 128
    serve_channels: int = 5
    light_rate: float = 50.0
    overload_rate: float = 2000.0
    #: Overload request counts per second of run length, sized so the
    #: queue drains in about the run length at the capacity each path
    #: had when the ledger was set up.
    saturated_per_s: float = 480.0
    pool_per_s: float = 160.0
    stream_windows_per_s: float = 12.0
    long_steps: int = 100_000
    long_reps: int = 3


FULL = Sizes()
SMOKE = Sizes(
    setup_reps=1,
    min_reps=2,
    pretrain_steps=2,
    fit_scale=0.1,
    fit_length=64,
    head_epochs=2,
    joint_scale=0.1,
    joint_epochs=1,
    serve_scale=0.1,
    serve_length=64,
    light_rate=40.0,
    saturated_per_s=60.0,
    pool_per_s=30.0,
    stream_windows_per_s=12.0,
    long_steps=4_096,
    long_reps=1,
)


@dataclass
class Context:
    """What a workload knows about its run."""

    seed: int
    seconds: float
    sizes: Sizes
    workdir: Path
    #: Set while tracing: spans plus the counters taken at layer boundaries.
    probe: Probe | None = None
    #: Seconds per named set-up phase of the current set-up.
    phases: dict[str, float] = field(default_factory=dict)

    @property
    def tracer(self) -> Tracer | None:
        return self.probe.tracer if self.probe is not None else None

    def encoded_rows(self) -> int:
        """Rows the encoder has computed so far (only counted while tracing)."""
        return self.probe.encode_rows if self.probe is not None else 0

    @contextlib.contextmanager
    def phase(self, name: str):
        """Time one set-up phase (and trace it when tracing)."""
        start = time.monotonic()
        with span_or_null(self.tracer, name):
            yield
        self.phases[name] = self.phases.get(name, 0.0) + time.monotonic() - start


@dataclass
class Measurement:
    """What one measured phase of a workload produced."""

    latency_ms: list[float]
    throughput_per_s: float
    attempted: int
    failed: int
    gates: dict[str, bool]
    detail: dict = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)


#: Per-layer metrics that only some workloads produce; the others report
#: these values (counts and ratios only, never times).
LAYER_DEFAULTS: dict[str, float] = {
    "training.predict_rows_useful_frac": 0.0,
    "resources.train_step_gflops_per_s": 0.0,
    "serve.batches": 0,
    "serve.batch_width_mean": 0.0,
    "serve.rows_useful_frac": 0.0,
    "serve.queue_wait_frac": 0.0,
    "serve.pool_pending_max": 0,
    "stream.encoded_windows": 0,
    "stream.cache_hits": 0,
    "stream.cache_misses": 0,
    "stream.rows_useful_frac": 0.0,
    "stream.replay_speedup": 0.0,
    "stream.encode_long_mem_ratio": 0.0,
}


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50)


def completion_rate(finished: list[float], block: int = 10 * SERVE_WIDTH) -> float:
    """Median completions per second over consecutive blocks of requests.

    A block of ten full batches spans whole batch periods, and the median
    over blocks keeps a short stall of the host from moving the number.
    """
    times = np.sort(np.asarray(finished))
    if len(times) < 2:
        return 0.0
    if len(times) <= block:
        return (len(times) - 1) / (times[-1] - times[0])
    starts = range(0, len(times) - block, block)
    return median([block / (times[i + block] - times[i]) for i in starts])


# ----------------------------------------------------------------------
# Shared set-up steps
# ----------------------------------------------------------------------
def _dataset(ctx: Context, scale: float, length: int):
    with ctx.phase("data.generate"):
        return load_dataset(SERIES, seed=ctx.seed, scale=scale, max_length=length)


def _pretrained(ctx: Context):
    """The frozen encoder every workload starts from (fixed, seed 0).

    The first set-up of a run pretrains it into the run's scratch
    directory; later set-ups load that checkpoint, as a deployment loads
    a published one.
    """
    with ctx.phase("models.pretrain"):
        return load_pretrained(
            MODEL, seed=0, pretrain_steps=ctx.sizes.pretrain_steps, cache_dir=ctx.workdir
        )


def _fit_pca_pipeline(ctx: Context, model, ds) -> AdapterPipeline:
    with ctx.phase("training.fit"):
        pipeline = AdapterPipeline(
            model, make_adapter("pca", ctx.sizes.serve_channels, seed=0), ds.num_classes, seed=0
        )
        pipeline.fit(
            ds.x_train, ds.y_train, config=TrainConfig(epochs=ctx.sizes.head_epochs, seed=0)
        )
    return pipeline


def _fresh_model(state_dict: dict):
    """A new encoder with the pretrained weights and an empty graph cache."""
    model = build_model(MODEL, seed=0)
    model.load_state_dict(state_dict)
    return model


# ----------------------------------------------------------------------
# Fit workloads
# ----------------------------------------------------------------------
@dataclass
class FitState:
    ds: MultivariateDataset
    weights: dict


class FitWorkload:
    """Fit a fresh pipeline on one dataset, rep after rep, then predict.

    Each rep loads the pretrained weights into a fresh encoder, so every
    fit pays the first-use cost (graph capture included) a user pays.
    ``latency`` is the ``fit`` call; ``throughput`` is the test-set
    prediction rate (``cached``) or the joint-training sample rate.
    """

    def __init__(self, name: str, cached: bool) -> None:
        self.name = name
        self.cached = cached

    def setup(self, ctx: Context) -> FitState:
        scale = ctx.sizes.fit_scale if self.cached else ctx.sizes.joint_scale
        ds = _dataset(ctx, scale, ctx.sizes.fit_length)
        model = _pretrained(ctx)
        return FitState(ds=ds, weights=model.state_dict())

    def teardown(self, state: FitState) -> None:
        pass

    def _pipeline(self, ctx: Context, state: FitState) -> AdapterPipeline:
        adapter = make_adapter("pca" if self.cached else "lcomb", ctx.sizes.fit_channels, seed=0)
        return AdapterPipeline(_fresh_model(state.weights), adapter, state.ds.num_classes, seed=0)

    def measure(self, ctx: Context, state: FitState) -> Measurement:
        sizes, ds = ctx.sizes, state.ds
        epochs = sizes.head_epochs if self.cached else sizes.joint_epochs
        config = TrainConfig(epochs=epochs, seed=0)
        fit_ms, rates, reports, predictions = [], [], [], []
        start = time.monotonic()
        rep, rep_s = 0, 0.0
        # A rep starts only if it should end within the run's seconds.
        while rep < sizes.min_reps or time.monotonic() - start + rep_s <= ctx.seconds:
            pipeline = self._pipeline(ctx, state)
            with span_or_null(ctx.tracer, "workload.rep", tag=rep):
                t0 = time.monotonic()
                report = pipeline.fit(
                    ds.x_train, ds.y_train, strategy=FineTuneStrategy.ADAPTER_HEAD, config=config
                )
                t1 = time.monotonic()
                # The joint fit's throughput is its training rate, so only
                # its first rep predicts here (for the determinism gate).
                rows_before = ctx.encoded_rows()
                if self.cached or rep == 0:
                    predictions.append(pipeline.predict_logits(ds.x_test, batch_size=FIT_WIDTH))
                t2 = time.monotonic()
                if rep == 0:
                    predict_rows = ctx.encoded_rows() - rows_before
            rep_s = t2 - t0
            fit_ms.append(1000.0 * (t1 - t0))
            reports.append(report)
            if self.cached:
                rates.append(len(ds.x_test) / (t2 - t1))
            else:
                rates.append(len(ds.x_train) * epochs / report.train_s)
            rep += 1
        # Outside the timing: the last fit must reproduce the first one's
        # bits, and replay must reproduce eager bits exactly (one chunk of
        # them suffices: a row's bits do not depend on its co-batchees).
        logits = pipeline.predict_logits(ds.x_test, batch_size=FIT_WIDTH)
        head = ds.x_test[:FIT_WIDTH]
        eager = pipeline.predict_logits(head, batch_size=FIT_WIDTH, compiled=False)
        gates = {
            "logits_finite": all(bool(np.isfinite(p).all()) for p in predictions),
            "reps_bit_identical": all(np.array_equal(p, logits) for p in predictions),
            "replay_matches_eager": bool(np.array_equal(eager, logits[: len(head)])),
        }
        layers = {}
        if predict_rows:
            layers["training.predict_rows_useful_frac"] = len(ds.x_test) / predict_rows
        train_s = median([r.train_s for r in reports])
        if not self.cached:
            x = ds.x_train
            per_sample = forward_flops(pipeline.model.config, x.shape[1], sizes.fit_channels)
            multiplier = REGIMES["adapter_head_trainable"].backward_multiplier
            flops = len(x) * epochs * per_sample * multiplier
            layers["resources.train_step_gflops_per_s"] = flops / train_s / 1e9
        detail = {
            "reps": rep,
            "fit_reps_s": [ms / 1000.0 for ms in fit_ms],
            "fit_s": median(fit_ms) / 1000.0,
            "adapter_fit_s": median([r.adapter_fit_s for r in reports]),
            "embedding_fill_s": median([r.embedding_s for r in reports]),
            "train_s": train_s,
            "test_accuracy": float((logits.argmax(axis=1) == ds.y_test).mean()),
            "samples_train": len(ds.x_train),
            "samples_test": len(ds.x_test),
        }
        return Measurement(
            latency_ms=fit_ms,
            throughput_per_s=median(rates),
            attempted=rep,
            failed=0,
            gates=gates,
            detail=detail,
            layers=layers,
        )


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
@dataclass
class ServeState:
    pipeline: AdapterPipeline
    server: PipelineServer
    registry_dir: str
    inputs: np.ndarray


class ServeWorkload:
    """Open-loop Poisson arrivals against one published pipeline.

    The schedule holds a fixed number of requests at uniformly random
    instants over ``requests / rate`` seconds: a Poisson process
    conditioned on its count, so run length does not vary with the
    seed.  Each request is one (T, D) series drawn from the dataset,
    and its latency runs from when it was *due*, not when it was sent.

    ``rate`` names the :class:`Sizes` field holding the offered rate, and
    ``per_s`` the one holding requests per second of run length (the
    offered rate itself when ``None``).  Throughput is the completion
    rate, except under light load (``per_busy_s``), where completions
    only echo the offered rate: there it is completed requests per
    second the server spent computing batches (its adapter, encode and
    head phases), which padding and batch width set.
    """

    def __init__(
        self, name: str, *, rate: str, per_s: str | None, workers: int, per_busy_s: bool = False
    ) -> None:
        self.name = name
        self._rate = rate
        self._per_s = per_s
        self.workers = workers
        self.per_busy_s = per_busy_s

    def requests(self, ctx: Context) -> int:
        per_s = getattr(ctx.sizes, self._per_s or self._rate)
        return max(SERVE_WIDTH, round(per_s * ctx.seconds))

    def setup(self, ctx: Context) -> ServeState:
        sizes = ctx.sizes
        ds = _dataset(ctx, sizes.serve_scale, sizes.serve_length)
        pipeline = _fit_pca_pipeline(ctx, _pretrained(ctx), ds)
        registry_dir = tempfile.mkdtemp(prefix="registry-", dir=ctx.workdir)
        with ctx.phase("serve.publish"):
            registry = PipelineRegistry(registry_dir)
            registry.publish(pipeline, "ledger")
        config = ServeConfig(
            max_batch=SERVE_WIDTH,
            workers=self.workers,
            queue_depth=max(ServeConfig().queue_depth, self.requests(ctx) + SERVE_WIDTH),
        )
        with ctx.phase("serve.server_start"):
            server = PipelineServer(registry, "ledger", config=config)
        state = ServeState(pipeline, server, registry_dir, np.concatenate([ds.x_train, ds.x_test]))
        # Warmup primes the compiled graph; with a pool it also waits for
        # the worker's ready handshake.
        with ctx.phase("serve.warmup"):
            server.warmup(sizes.serve_length)
        return state

    def teardown(self, state: ServeState) -> None:
        try:
            state.server.close(drain=True)
        finally:
            shutil.rmtree(state.registry_dir, ignore_errors=True)

    def measure(self, ctx: Context, state: ServeState) -> Measurement:
        server = state.server
        n = self.requests(ctx)
        rate = getattr(ctx.sizes, self._rate)
        rng = np.random.default_rng([ctx.seed, 1])
        picks = rng.integers(len(state.inputs), size=n)
        offsets = np.sort(rng.uniform(0.0, n / rate, size=n))
        pending_max = 0
        next_sample = 0.0

        def sample_pool(now: float) -> None:
            nonlocal pending_max, next_sample
            if self.workers and now >= next_sample:
                pool = server.stats()["pool"]
                pending_max = max(pending_max, pool["pending_batches"])
                next_sample = now + 0.02

        # The offline answer every served row must match, computed before
        # the load starts so it never competes with the server.
        reference = state.pipeline.predict_logits(state.inputs, batch_size=SERVE_WIDTH)
        stats_before = server.stats()
        before = stats_before["batcher"]
        origin = time.monotonic() + 0.02
        due = origin + offsets
        futures: list = [None] * n
        late_ms = np.zeros(n)
        failed = 0
        for i in range(n):
            wait = due[i] - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            now = time.monotonic()
            late_ms[i] = 1000.0 * (now - due[i])
            try:
                futures[i] = server.submit(state.inputs[picks[i]])
            except ServeError:
                failed += 1
            sample_pool(now)
        drain_deadline = time.monotonic() + DRAIN_LIMIT_S
        latency_ms, finished, served = [], [], {}
        for i, future in enumerate(futures):
            if future is None:
                continue
            while self.workers and not future.done() and time.monotonic() < drain_deadline:
                sample_pool(time.monotonic())
                time.sleep(0.01)
            try:
                served[i] = future.result(timeout=max(0.0, drain_deadline - time.monotonic()))
            except ServeError:
                failed += 1
                continue
            latency_ms.append(1000.0 * (future.finished_at - due[i]))
            finished.append(future.finished_at)
            if ctx.tracer is not None:
                ctx.tracer.add("serve.request", due[i], future.finished_at, tag=i)
        stats_after = server.stats()
        after = stats_after["batcher"]
        busy_s = sum(stats_after["phases_s"].values()) - sum(stats_before["phases_s"].values())
        rows_match = all(np.array_equal(row, reference[picks[i]]) for i, row in served.items())

        def rows(snapshot: dict) -> int:
            return sum(int(w) * c for w, c in snapshot["batch_width"]["hist"].items())

        batches = after["batches"] - before["batches"]
        batch_rows = rows(after) - rows(before)
        wait_s = (
            after["queue_wait_s"]["mean"] * rows(after)
            - before["queue_wait_s"]["mean"] * rows(before)
        )
        late_p99 = percentile(late_ms, 99)
        gates = {
            "no_failed_requests": failed == 0,
            "served_bits_match_offline": rows_match,
            "generator_on_time": bool(latency_ms)
            and late_p99 <= LATE_LIMIT_SHARE * median(latency_ms),
        }
        detail = {
            "requests": n,
            "offered_rate_per_s": rate,
            "completed_per_s": len(finished) / (max(finished) - due[0]) if finished else 0.0,
            "busy_s": busy_s,
            "latency_p95_ms": percentile(latency_ms, 95) if latency_ms else 0.0,
            "latency_p99_ms": percentile(latency_ms, 99) if latency_ms else 0.0,
            "latency_samples": len(latency_ms),
            "generator_late_p99_ms": late_p99,
            "batch_width_mean": batch_rows / batches if batches else 0.0,
        }
        layers = {
            "serve.batches": batches,
            "serve.batch_width_mean": detail["batch_width_mean"],
            "serve.rows_useful_frac": batch_rows / (batches * SERVE_WIDTH) if batches else 0.0,
            "serve.queue_wait_frac": wait_s / (sum(latency_ms) / 1000.0) if latency_ms else 0.0,
            "serve.pool_pending_max": pending_max,
        }
        throughput = len(finished) / busy_s if self.per_busy_s else completion_rate(finished)
        return Measurement(
            latency_ms=latency_ms,
            throughput_per_s=throughput,
            attempted=n,
            failed=failed,
            gates=gates,
            detail=detail,
            layers=layers,
        )


# ----------------------------------------------------------------------
# Streaming workload
# ----------------------------------------------------------------------
@dataclass
class StreamState:
    fitted: FittedPipeline
    series: np.ndarray


class StreamWorkload:
    """Incremental windows, their cached replay, and a long-series encode.

    A fresh :class:`StreamingClassifier` takes the stream one stride at a
    time (the first push carries a whole window), so every push
    completes exactly one window: ``latency`` is per push.  ``reset()``
    and a second pass over the same samples read every window from the
    cache.  Then ``encode_long`` runs over the full series;
    ``throughput`` is its windows per second.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def windows(self, ctx: Context) -> int:
        return max(2, min(512, round(ctx.sizes.stream_windows_per_s * ctx.seconds)))

    def setup(self, ctx: Context) -> StreamState:
        sizes = ctx.sizes
        ds = _dataset(ctx, sizes.serve_scale, STREAM_WINDOW)
        pipeline = _fit_pca_pipeline(ctx, _pretrained(ctx), ds)
        with ctx.phase("data.generate"):
            series, _labels = generate_stream(
                dataset_info(SERIES), seed=ctx.seed, total_length=sizes.long_steps
            )
        with ctx.phase("stream.warmup"):
            warm = StreamingClassifier(
                pipeline, STREAM_WINDOW, STREAM_STRIDE, batch_size=SERVE_WIDTH
            )
            warm.push(series[:STREAM_WINDOW])
        return StreamState(FittedPipeline(pipeline=pipeline, dataset=ds), series)

    def teardown(self, state: StreamState) -> None:
        pass

    def measure(self, ctx: Context, state: StreamState) -> Measurement:
        pipeline, series, tracer = state.fitted.pipeline, state.series, ctx.tracer
        count = self.windows(ctx)
        chunks = [series[:STREAM_WINDOW]] + [
            series[STREAM_WINDOW + i * STREAM_STRIDE : STREAM_WINDOW + (i + 1) * STREAM_STRIDE]
            for i in range(count - 1)
        ]
        stream = StreamingClassifier(pipeline, STREAM_WINDOW, STREAM_STRIDE, batch_size=SERVE_WIDTH)
        push_ms = []
        rows_before = ctx.encoded_rows()
        with span_or_null(tracer, "stream.cold"):
            for i, chunk in enumerate(chunks):
                with span_or_null(tracer, "stream.push", tag=i):
                    t0 = time.monotonic()
                    stream.push(chunk)
                    push_ms.append(1000.0 * (time.monotonic() - t0))
        cold_s = sum(push_ms) / 1000.0
        cold_rows = ctx.encoded_rows() - rows_before
        cold = np.stack([p.logits for p in stream.emitted])
        after_cold = stream.cache.stats()

        stream.reset()
        t0 = time.monotonic()
        with span_or_null(tracer, "stream.replay"):
            for chunk in chunks:
                stream.push(chunk)
        replay_s = time.monotonic() - t0
        replayed = np.stack([p.logits for p in stream.emitted])
        after_replay = stream.cache.stats()

        long_s, pooled = [], []
        for rep in range(ctx.sizes.long_reps):
            with span_or_null(tracer, "stream.encode_long", tag=rep):
                t0 = time.monotonic()
                encoding = state.fitted.encode_long(
                    series, STREAM_WINDOW, STREAM_WINDOW, batch_windows=SERVE_WIDTH
                )
                long_s.append(time.monotonic() - t0)
            pooled.append(encoding.pooled)

        starts = np.arange(count) * STREAM_STRIDE
        windows = np.stack([series[s : s + STREAM_WINDOW] for s in starts])
        offline = pipeline.predict_logits(windows, batch_size=SERVE_WIDTH)
        gates = {
            "one_window_per_push": len(cold) == count,
            "stream_bits_match_offline": bool(np.array_equal(cold, offline)),
            "replay_bits_match_cold": bool(np.array_equal(replayed, cold)),
            "replay_all_cache_hits": after_replay["hits"] - after_cold["hits"] == count
            and after_replay["encoded_windows"] == after_cold["encoded_windows"],
            "encode_long_finite": all(bool(np.isfinite(p).all()) for p in pooled),
            "encode_long_reps_identical": all(np.array_equal(p, pooled[0]) for p in pooled),
        }
        long_windows = encoding.num_windows
        layers = {
            "stream.encoded_windows": after_cold["encoded_windows"],
            "stream.cache_hits": after_replay["hits"],
            "stream.cache_misses": after_replay["misses"],
            "stream.replay_speedup": cold_s / replay_s,
        }
        if tracer is not None:
            layers["stream.rows_useful_frac"] = after_cold["encoded_windows"] / cold_rows
            layers["stream.encode_long_mem_ratio"] = self._memory_ratio(state)
        detail = {
            "windows": count,
            "windows_per_s": count / cold_s,
            "push_p95_ms": percentile(push_ms, 95),
            "push_samples": len(push_ms),
            "replay_s": replay_s,
            "encode_long_s": median(long_s),
            "encode_long_steps_per_s": len(series) / median(long_s),
            "encode_long_windows": long_windows,
        }
        return Measurement(
            latency_ms=push_ms,
            throughput_per_s=long_windows / median(long_s),
            attempted=2 * count + len(long_s),
            failed=0,
            gates=gates,
            detail=detail,
            layers=layers,
        )

    @staticmethod
    def _memory_ratio(state: StreamState) -> float:
        """Traced peak of one (warm) long encode over the cost model's bound."""
        import tracemalloc

        pipeline = state.fitted.pipeline
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            state.fitted.encode_long(
                state.series, STREAM_WINDOW, STREAM_WINDOW, batch_windows=SERVE_WIDTH
            )
            peak = tracemalloc.get_traced_memory()[1] - baseline
        finally:
            tracemalloc.stop()
        predicted = streaming_inference_memory_bytes(
            pipeline.model.config,
            window=STREAM_WINDOW,
            channels=pipeline.adapter.output_channels,
            batch_windows=SERVE_WIDTH,
        )
        return peak / predicted


#: Why each workload exists is recorded beside its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        FitWorkload("fit_cached", cached=True),
        FitWorkload("fit_joint", cached=False),
        ServeWorkload("serve_light", rate="light_rate", per_s=None, workers=0, per_busy_s=True),
        ServeWorkload("serve_saturated", rate="overload_rate", per_s="saturated_per_s", workers=0),
        ServeWorkload("serve_pool", rate="overload_rate", per_s="pool_per_s", workers=1),
        StreamWorkload("stream_long"),
    )
}

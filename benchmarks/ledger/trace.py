"""Span tracer and layer probes for the ledger's traced run.

The traced run attributes time to the program's layers without editing
them.  :func:`instrumented` wraps public entry points of each layer at
class level, so every instance (including pipelines a server loads from
the registry) is covered, and restores the originals on exit.  It also
enters ``nn.profiler.profile()`` for per-op time.  Spans stay in memory
and are written once, by :meth:`Tracer.write`, when the run ends.

A span records its name, start, end, parent span and a tag (the rep or
request it belongs to).  Spans nest per thread: the serve batcher thread
keeps its own stack, so a child never outlives its parent.  A span's
self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

#: Spans kept in memory per run; later ones are only counted.
MAX_SPANS = 500_000


@dataclass
class Span:
    """One finished, timed call."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    tag: int | str | None
    thread: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class _OpenSpan:
    """A span being timed; its name may be settled before it closes."""

    __slots__ = ("id", "name", "tag")

    def __init__(self, span_id: int, name: str, tag) -> None:
        self.id = span_id
        self.name = name
        self.tag = tag


class Tracer:
    """In-memory span recorder (``time.monotonic`` clock, thread-aware)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.dropped = 0
        self.origin = time.monotonic()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[_OpenSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, tag=None):
        """Time the enclosed block as a child of this thread's open span.

        A span without a ``tag`` inherits its parent's.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        if tag is None and parent is not None:
            tag = parent.tag
        current = _OpenSpan(next(self._ids), name, tag)
        stack.append(current)
        start = time.monotonic()
        try:
            yield current
        finally:
            end = time.monotonic()
            stack.pop()
            self._keep(
                Span(
                    current.id,
                    current.name,
                    start,
                    end,
                    parent.id if parent is not None else None,
                    current.tag,
                    threading.current_thread().name,
                )
            )

    def add(self, name: str, start: float, end: float, tag=None) -> None:
        """Record a top-level span timed elsewhere (a served request)."""
        self._keep(
            Span(next(self._ids), name, start, end, None, tag, threading.current_thread().name)
        )

    def _keep(self, span: Span) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append(span)
        else:
            self.dropped += 1

    # ------------------------------------------------------------------
    def by_name(self) -> dict[str, dict]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        out: dict[str, dict] = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += span.duration
            entry["self_s"] += span.duration - covered[span.id]
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Write every span (times relative to the tracer's start) as JSON."""
        names = self.by_name()
        layers: dict[str, dict] = {}
        for name, entry in names.items():
            layer = layers.setdefault(name.split(".")[0], {"calls": 0, "self_s": 0.0})
            layer["calls"] += entry["calls"]
            layer["self_s"] += entry["self_s"]
        doc = {
            **meta,
            "clock": "seconds since the tracer started (time.monotonic)",
            "dropped_spans": self.dropped,
            "span_names": names,
            "layers_self_s": layers,
            "spans": [
                {
                    "id": s.id,
                    "name": s.name,
                    "start": s.start - self.origin,
                    "end": s.end - self.origin,
                    "parent": s.parent,
                    "tag": s.tag,
                    "thread": s.thread,
                }
                for s in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n")


def span_or_null(tracer: Tracer | None, name: str, tag=None):
    """``tracer.span(...)`` when tracing, a no-op context otherwise."""
    return tracer.span(name, tag) if tracer is not None else contextlib.nullcontext()


# ----------------------------------------------------------------------
# Layer probes
# ----------------------------------------------------------------------
def forward_flops(config, length: int, channels: int) -> float:
    """``repro.resources`` forward FLOPs of one (T, D) sample.

    The cost model prices the model's padded context; MOMENT runs the
    actual length, so the geometry the encoder saw is priced instead.
    """
    from repro.resources.cost_model import REGIMES, TrainingJob, forward_flops_per_sample

    seen = replace(config, max_sequence_length=min(length, config.max_sequence_length))
    job = TrainingJob(seen, 1, 0, length, channels, 2, REGIMES["head"])
    return forward_flops_per_sample(job)


class Probe:
    """Counters gathered at the wrapped layer boundaries."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.encode_rows = 0
        self.encode_flops = 0.0
        self.store_gets = 0
        self.store_hits = 0
        self.store_puts = 0
        self.graphs_compiled = 0
        self.graph_fallbacks = 0
        self.profilers: list = []
        self._models: weakref.WeakSet = weakref.WeakSet()
        self._roles: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._flops_per_sample: dict[tuple, float] = {}
        # The serve batcher thread counts alongside the main thread.
        self.lock = threading.Lock()

    def register_model(self, model) -> None:
        """Name the eager blocks of ``model`` for the per-block spans."""
        if model in self._models:
            return
        with self.lock:
            self._models.add(model)
            self._roles[model.patch_embed] = "models.patch_embed"
            for layer in model.encoder.layers:
                self._roles[layer.attention] = "models.attention"
                self._roles[layer.ff_in] = "models.ffn"
                self._roles[layer.ff_out] = "models.ffn"
                self._roles[layer.norm1] = "models.norm"
                self._roles[layer.norm2] = "models.norm"
            self._roles[model.encoder.final_norm] = "models.norm"

    def role(self, module) -> str | None:
        return self._roles.get(module)

    def count_encode(self, model, shape: tuple) -> None:
        """Rows and analytic FLOPs of one ``encode`` call on (N, T, D)."""
        n, t, d = shape
        key = (model.config.name, t, d)
        per_sample = self._flops_per_sample.get(key)
        if per_sample is None:
            per_sample = self._flops_per_sample[key] = forward_flops(model.config, t, d)
        with self.lock:
            self.encode_rows += n
            self.encode_flops += n * per_sample

    def op_seconds(self, op: str) -> float:
        """Forward + backward seconds of one eager op, over every profile."""
        total = 0.0
        for prof in self.profilers:
            stats = prof.ops.get(op)
            if stats is not None:
                total += stats.forward_s + stats.backward_s
        return total


class _Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple] = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        had_own = attr in vars(owner)
        own = vars(owner).get(attr)
        setattr(owner, attr, make_wrapper(getattr(owner, attr)))
        self._undo.append((owner, attr, had_own, own))

    def restore(self) -> None:
        while self._undo:
            owner, attr, had_own, own = self._undo.pop()
            if had_own:
                setattr(owner, attr, own)
            else:
                delattr(owner, attr)


@contextlib.contextmanager
def instrumented(probe: Probe):
    """Wrap each layer's public calls with spans for the enclosed block."""
    from repro.adapters.linear_combiner import LinearCombinerAdapter
    from repro.adapters.pca import PCAAdapter
    from repro.models.base import FoundationModel
    from repro.models.heads import ClassificationHead
    from repro.nn import graph as nn_graph
    from repro.nn import profiler as nn_profiler
    from repro.nn.attention import MultiHeadSelfAttention
    from repro.nn.layers import LayerNorm, Linear
    from repro.nn.optim import AdamW
    from repro.nn.tensor import Tensor
    from repro.runtime.store import ArtifactStore
    from repro.training import pipeline as training_pipeline

    tracer = probe.tracer

    def timed(name):
        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return original(*args, **kwargs)

            return wrapper

        return make

    def by_role(original):
        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            name = probe.role(self)
            if name is None:
                return original(self, *args, **kwargs)
            with tracer.span(name):
                return original(self, *args, **kwargs)

        return wrapper

    def encode(original):
        @functools.wraps(original)
        def wrapper(self, x, *args, **kwargs):
            probe.register_model(self)
            probe.count_encode(self, tuple(x.shape))
            with tracer.span("models.encode"):
                return original(self, x, *args, **kwargs)

        return wrapper

    def graph_run(original):
        @functools.wraps(original)
        def wrapper(self, fn, array):
            misses = self.misses
            with tracer.span("nn.graph.replay") as span:
                result = original(self, fn, array)
                captured = self.misses != misses
                if captured:
                    span.name = "nn.graph.capture"
                elif result is None:
                    span.name = "nn.graph.fallback"
            with probe.lock:
                probe.graphs_compiled += captured and result is not None
                probe.graph_fallbacks += result is None
            return result

        return wrapper

    def store_get(original):
        @functools.wraps(original)
        def wrapper(self, key):
            with tracer.span("runtime.store_get"):
                artifact = original(self, key)
            with probe.lock:
                probe.store_gets += 1
                probe.store_hits += artifact is not None
            return artifact

        return wrapper

    def store_put(original):
        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            with probe.lock:
                probe.store_puts += 1
            with tracer.span("runtime.store_put"):
                return original(self, *args, **kwargs)

        return wrapper

    patches = _Patches()
    try:
        for cls in (PCAAdapter, LinearCombinerAdapter):
            patches.wrap(cls, "fit", timed("adapters.fit"))
            patches.wrap(cls, "transform", timed("adapters.transform"))
        patches.wrap(LinearCombinerAdapter, "transform_tensor", timed("adapters.transform"))
        patches.wrap(FoundationModel, "encode", encode)
        for cls in (Linear, LayerNorm, MultiHeadSelfAttention):
            patches.wrap(cls, "forward", by_role)
        patches.wrap(ClassificationHead, "forward", timed("models.head"))
        patches.wrap(nn_graph.GraphCache, "run", graph_run)
        patches.wrap(Tensor, "backward", timed("nn.backward"))
        patches.wrap(AdamW, "step", timed("nn.optimizer_step"))
        patches.wrap(
            training_pipeline, "train_classifier_on_arrays", timed("training.train_loop")
        )
        patches.wrap(ArtifactStore, "get", store_get)
        patches.wrap(ArtifactStore, "put", store_put)
        with nn_profiler.profile() as prof:
            probe.profilers.append(prof)
            yield probe
    finally:
        patches.restore()


def layer_metrics(probe: Probe) -> dict[str, float]:
    """The per-layer metrics every workload reports from its spans."""
    tracer = probe.tracer
    names = tracer.by_name()

    def total(name: str) -> float:
        return names[name]["total_s"] if name in names else 0.0

    def calls(name: str) -> int:
        return names[name]["calls"] if name in names else 0

    steps = calls("nn.optimizer_step")
    encode_s = total("models.encode")
    return {
        "data.generate_s": total("data.generate"),
        "models.pretrain_s": total("models.pretrain"),
        "adapters.fit_s": total("adapters.fit"),
        "adapters.transform_s": total("adapters.transform"),
        "adapters.transform_calls": calls("adapters.transform"),
        "models.encode_s": encode_s,
        "models.encode_calls": calls("models.encode"),
        "models.encode_rows": probe.encode_rows,
        "models.patch_embed_s": total("models.patch_embed"),
        "models.attention_s": total("models.attention"),
        "models.ffn_s": total("models.ffn"),
        "models.norm_s": total("models.norm"),
        "models.head_s": total("models.head"),
        "nn.backward_s": total("nn.backward"),
        "nn.optimizer_step_s": total("nn.optimizer_step"),
        "nn.op.matmul_s": probe.op_seconds("matmul"),
        "nn.op.softmax_s": probe.op_seconds("softmax"),
        "nn.op.layer_norm_s": probe.op_seconds("layer_norm"),
        "nn.op.gelu_s": probe.op_seconds("gelu"),
        "nn.graph.replay_s": total("nn.graph.replay"),
        "nn.graph.capture_s": total("nn.graph.capture"),
        "nn.graph.replay_runs": calls("nn.graph.replay"),
        "nn.graph.compiled": probe.graphs_compiled,
        "nn.graph.fallbacks": probe.graph_fallbacks,
        "training.train_loop_s": total("training.train_loop"),
        "training.steps": steps,
        "training.step_ms": 1000.0 * total("training.train_loop") / steps if steps else 0.0,
        "runtime.store_gets": probe.store_gets,
        "runtime.store_hits": probe.store_hits,
        "runtime.store_misses": probe.store_gets - probe.store_hits,
        "runtime.store_puts": probe.store_puts,
        "resources.encode_gflops_per_s": probe.encode_flops / encode_s / 1e9 if encode_s else 0.0,
        "trace.spans": len(tracer.spans) + tracer.dropped,
    }

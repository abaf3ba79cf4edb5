"""The serving front end: registry-backed, micro-batched prediction.

A :class:`PipelineServer` binds one published deployment (name +
version) to a :class:`~repro.serve.batching.MicroBatcher` and either
an in-process executor (``workers=0``) or a
:class:`~repro.serve.workers.ServePool` fleet.  Every micro-batch runs
through the pipeline's fixed-tile runner
(``AdapterPipeline._predict_chunk``), so a served logits row is a pure
function of (series, ``TILE_ROWS``): bit-identical to
``pipeline.predict_logits(x)`` offline at any ``batch_size``,
whatever ``max_batch`` is and whichever requests shared the batch.

Observability: per-phase span seconds (adapter / encode / head) via
:class:`repro.runtime.Instrumentation`, plus the batcher's queue-wait,
batch-width and latency-percentile counters, in one JSON-able
:meth:`stats` snapshot (the CLI's ``/stats`` view).
"""

from __future__ import annotations

import threading

import numpy as np

from ..runtime import ArtifactStore, Instrumentation
from .batching import MicroBatcher, ServeConfig, ServeFuture, resolve_batch
from .errors import InvalidRequestError, ServerClosedError
from .registry import PipelineRegistry
from .sessions import StreamSession
from .workers import ServePool

__all__ = ["PipelineServer"]

def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class PipelineServer:
    """Serve one published pipeline with dynamic micro-batching.

    Parameters
    ----------
    store:
        A :class:`PipelineRegistry`, an
        :class:`~repro.runtime.ArtifactStore`, or a cache-directory
        path.
    name / version:
        Deployment to serve (latest version when ``None``).
    config:
        Batching/saturation policy (:class:`ServeConfig`).
    """

    def __init__(
        self,
        store: PipelineRegistry | ArtifactStore | str,
        name: str,
        version: int | None = None,
        config: ServeConfig | None = None,
    ) -> None:
        registry = store if isinstance(store, PipelineRegistry) else PipelineRegistry(store)
        self.registry = registry
        self.config = config if config is not None else ServeConfig()
        self.record = registry.record(name, version)
        self._inst = Instrumentation()
        self._closed = False
        self._close_lock = threading.Lock()
        self._pool: ServePool | None = None
        self._pipeline = None
        if self.config.workers > 0:
            cache_dir = registry.store.cache_dir
            if cache_dir is None:
                raise ValueError(
                    "multi-worker serving needs a disk-backed registry "
                    "(ArtifactStore with a cache_dir) so workers can load the pipeline"
                )
            self._pool = ServePool(
                str(cache_dir),
                self.record.name,
                self.record.version,
                compiled=self.config.compiled,
                workers=self.config.workers,
            )
            dispatch, ready = self._pool.dispatch, self._pool.wait_idle
        else:
            self._pipeline = registry.load(self.record.name, self.record.version)
            dispatch, ready = self._dispatch_inline, None
        self._batcher = MicroBatcher(self.config, dispatch, ready=ready)
        if self._pool is not None:
            self._pool.on_result = self._batcher.record_latency
        self._streams: dict[int, StreamSession] = {}
        self._stream_lock = threading.Lock()
        self._streams_opened = 0
        self._stream_windows = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _dispatch_inline(self, batch) -> None:
        resolve_batch(batch, self._compute)
        for request in batch:
            self._batcher.record_latency(request.future)

    def _compute(self, stacked: np.ndarray) -> np.ndarray:
        return self._pipeline._predict_chunk(
            stacked,
            compiled=self.config.compiled,
            inst=self._inst,
            use_store=False,
        )

    # ------------------------------------------------------------------
    # Request surface
    # ------------------------------------------------------------------
    def submit(self, x: np.ndarray, deadline_s: float | None = None) -> ServeFuture:
        """Enqueue one (T, D) series; returns its logits future.

        Raises :class:`InvalidRequestError` for a series that is not
        one non-empty, finite ``(T, D)`` array with this deployment's
        channel count, :class:`QueueFullError` when saturated and
        :class:`ServerClosedError` after :meth:`close`.
        """
        if self._closed:
            raise ServerClosedError("server is closed")
        x = np.asarray(x)
        if x.ndim != 2:
            raise InvalidRequestError(
                f"submit takes one (T, D) series, got shape {x.shape}; "
                "use predict_logits for (N, T, D) arrays"
            )
        if x.shape[1] != self.input_channels:
            raise InvalidRequestError(
                f"deployment {self.record.ref} takes D={self.input_channels} "
                f"channels, got D={x.shape[1]}"
            )
        if x.shape[0] == 0:
            raise InvalidRequestError("submit takes a non-empty series, got T=0")
        if x.dtype.kind not in "biuf" or not np.isfinite(x).all():
            raise InvalidRequestError("series holds non-finite or non-numeric values")
        return self._batcher.submit(x, deadline_s=deadline_s)

    def predict_logits(
        self, x: np.ndarray, deadline_s: float | None = None
    ) -> np.ndarray:
        """Logits for one (T, D) series or an (N, T, D) array.

        The batched form submits every series as its own request, so
        it exercises — and benefits from — micro-batching exactly like
        N independent clients would.
        """
        x = np.asarray(x)
        if x.ndim == 2:
            return self.submit(x, deadline_s=deadline_s).result()
        if x.ndim != 3:
            raise ValueError(f"expected (T, D) or (N, T, D) input, got shape {x.shape}")
        futures = [self.submit(row, deadline_s=deadline_s) for row in x]
        return np.stack([future.result() for future in futures], axis=0)

    def predict(self, x: np.ndarray, deadline_s: float | None = None) -> np.ndarray:
        """Predicted label(s): scalar for (T, D), vector for (N, T, D)."""
        logits = self.predict_logits(x, deadline_s=deadline_s)
        return np.argmax(logits, axis=-1)

    # ------------------------------------------------------------------
    # Streaming sessions
    # ------------------------------------------------------------------
    def open_stream(
        self, window: int, stride: int, deadline_s: float | None = None
    ) -> StreamSession:
        """Open one incremental streaming session against this server.

        Each session keeps its own rolling buffer and submits completed
        windows as ordinary requests, so concurrent sessions share
        micro-batches and pool fault tolerance.  Raises
        :class:`~repro.stream.WindowGeometryError` for a bad geometry
        and :class:`ServerClosedError` after :meth:`close`.
        """
        if self._closed:
            raise ServerClosedError("server is closed")
        with self._stream_lock:
            session_id = self._streams_opened
            self._streams_opened += 1
            session = StreamSession(
                self, session_id, window, stride, deadline_s=deadline_s
            )
            self._streams[session_id] = session
        return session

    def _note_stream_windows(self, count: int) -> None:
        with self._stream_lock:
            self._stream_windows += count

    def _forget_stream(self, session_id: int) -> None:
        with self._stream_lock:
            self._streams.pop(session_id, None)

    def predict_proba(
        self, x: np.ndarray, deadline_s: float | None = None
    ) -> np.ndarray:
        """Class probabilities (softmax over :meth:`predict_logits`)."""
        return _softmax(self.predict_logits(x, deadline_s=deadline_s))

    # ------------------------------------------------------------------
    # Lifecycle / observability
    # ------------------------------------------------------------------
    @property
    def input_channels(self) -> int:
        """Raw channel count D this deployment expects per request."""
        return int(self.record.manifest.get("adapter", {}).get("input_channels") or 1)

    def warmup(self, length: int, channels: int | None = None) -> None:
        """Prime compiled graphs with a zero series of the serving shape.

        In-process mode runs one tile directly; pool mode pushes one
        dummy request per worker through the fleet.  Without warmup the
        first real requests pay eager capture cost.
        """
        if channels is None:
            channels = self.input_channels
        zeros = np.zeros((1, int(length), int(channels)))
        if self._pool is None:
            self._compute(zeros)
            return
        futures = [
            self.submit(zeros[0], deadline_s=None) for _ in range(self.config.workers)
        ]
        for future in futures:
            future.result()

    def stats(self) -> dict:
        """JSON-able snapshot: the ``/stats`` view."""
        summary = self._inst.summary()
        return {
            "pipeline": {
                "name": self.record.name,
                "version": self.record.version,
                "digest": self.record.digest,
            },
            "config": {
                "max_batch": self.config.max_batch,
                "max_delay_s": self.config.max_delay_s,
                "queue_depth": self.config.queue_depth,
                "default_deadline_s": self.config.default_deadline_s,
                "workers": self.config.workers,
                "compiled": self.config.compiled,
            },
            "batcher": self._batcher.snapshot(),
            "phases_s": dict(summary.phase_seconds),
            "pool": self._pool.snapshot() if self._pool is not None else None,
            "streams": self._stream_snapshot(),
        }

    def _stream_snapshot(self) -> dict:
        with self._stream_lock:
            return {
                "open": len(self._streams),
                "opened": self._streams_opened,
                "windows_submitted": self._stream_windows,
            }

    def close(self, drain: bool = True) -> None:
        """Stop accepting requests; drain (by default) then shut down."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if drain:
            with self._stream_lock:
                sessions = list(self._streams.values())
            for session in sessions:
                session.close(timeout=self.config.drain_timeout_s)
        self._batcher.close(drain=drain, timeout=self.config.drain_timeout_s)
        if self._pool is not None:
            self._pool.close(drain=drain, timeout=self.config.drain_timeout_s)

    def __enter__(self) -> "PipelineServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        mode = f"workers={self.config.workers}" if self._pool else "in-process"
        return f"PipelineServer({self.record.ref}, {mode}, max_batch={self.config.max_batch})"

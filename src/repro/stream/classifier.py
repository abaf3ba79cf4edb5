"""Incremental streaming classification over a live sample feed.

:class:`StreamingClassifier` wraps a fitted
:class:`~repro.training.AdapterPipeline` with a rolling raw-sample
buffer and a rolling content-fingerprinted window-embedding cache
(:class:`~repro.stream.cache.WindowEmbeddingCache`).  ``push(samples)``
appends arriving samples and classifies every window that completes —
re-encoding **only** windows whose data is new, never history.

The equivalence contract (property-tested in
``tests/properties/test_stream_parity.py``): feeding a series through
``push`` — one sample at a time, in chunks of any size, or all at once
— produces logits **bit-identical** to the offline
``pipeline.predict_logits(windows)`` on the same windows, at any
``batch_size`` and in both eager and compiled execution.  The
mechanism is fixed-tile execution (:mod:`repro.training.tiles`):
every window runs through the pipeline's tile runner, and a sample's
bits depend only on the tile width, not on row position or co-tile
content.

``partial_fit`` closes the loop on labeled feedback: a cheap head-only
SGD step on the cached window embedding (embeddings stay valid), or a
joint head+adapter step for trainable adapters (which refreshes the
cache's adapter fingerprint, so stale embeddings can never be served).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from .. import nn
from ..nn import functional as F
from ..runtime import ArtifactStore
from .cache import WindowEmbeddingCache
from .errors import ChannelMismatchError, StreamError
from .windows import validate_geometry

__all__ = ["StreamPrediction", "StreamingClassifier"]


class StreamPrediction(NamedTuple):
    """Classification of one completed stream window."""

    #: 0-based index of the window in the stream (emission order).
    window_index: int
    #: Absolute sample range the window covers: ``[start, end)``.
    start: int
    end: int
    #: argmax label, raw logits ``(C,)`` and softmax probabilities.
    label: int
    logits: np.ndarray
    proba: np.ndarray


class StreamingClassifier:
    """Rolling-buffer incremental classifier over a fitted pipeline.

    Parameters
    ----------
    pipeline:
        A fitted :class:`~repro.training.AdapterPipeline` (or the
        :class:`~repro.api.FittedPipeline` handle around one).
    window / stride:
        Window geometry (validated: positive, ``stride <= window``).
        Window ``w`` covers absolute samples ``[w*stride, w*stride +
        window)``.
    batch_size:
        Accepted for compatibility and reported by :meth:`stats`; each
        window runs as one tile, so it changes neither bits nor cost.
    compiled:
        Route encoder passes through compiled graph replay.
    cache_capacity / store:
        Rolling window-embedding cache bound, or an explicit shared
        :class:`~repro.runtime.ArtifactStore`.
    feedback_capacity:
        How many recent windows stay available for :meth:`partial_fit`
        (their embedding + raw data are retained, LRU-bounded).
    """

    def __init__(
        self,
        pipeline,
        window: int,
        stride: int,
        *,
        batch_size: int = 16,
        compiled: bool = True,
        cache_capacity: int = 512,
        store: ArtifactStore | None = None,
        feedback_capacity: int = 64,
    ) -> None:
        # Accept the FittedPipeline facade transparently.
        pipeline = getattr(pipeline, "pipeline", pipeline)
        if not getattr(pipeline, "fitted_", False):
            raise StreamError("StreamingClassifier needs a fitted pipeline")
        self.pipeline = pipeline
        self.window, self.stride = validate_geometry(window, stride)
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.batch_size = int(batch_size)
        self.compiled = bool(compiled)
        self.cache = WindowEmbeddingCache(
            pipeline,
            capacity=cache_capacity,
            store=store,
            compiled=compiled,
        )
        self.feedback_capacity = int(feedback_capacity)
        self.emitted: list[StreamPrediction] = []
        #: window_index -> (embedding, raw window), for partial_fit.
        self._feedback: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._buffer: np.ndarray | None = None
        self._buffer_start = 0  # absolute index of _buffer[0]
        self._total = 0  # absolute samples pushed
        self._next_start = 0  # start of the next window to complete
        self._channels: int | None = None

    # ------------------------------------------------------------------
    # Stream surface
    # ------------------------------------------------------------------
    @property
    def samples_pushed(self) -> int:
        """Absolute number of samples pushed so far."""
        return self._total

    @property
    def windows_emitted(self) -> int:
        """Number of completed (classified) windows so far."""
        return len(self.emitted)

    def push(self, samples: np.ndarray) -> StreamPrediction | None:
        """Append arriving samples; classify every window that completes.

        ``samples`` is one ``(D,)`` sample or a ``(k, D)`` chunk.
        Returns the prediction of the most recent newly completed
        window (``None`` if none completed); every completed window's
        prediction is appended to :attr:`emitted` in stream order.
        Push granularity is irrelevant to the results — one sample at a
        time, chunks of any size and all-at-once emit identical bits.
        """
        samples = np.asarray(samples)
        if samples.ndim == 1:
            samples = samples[None, :]
        if samples.ndim != 2:
            raise ValueError(
                f"push takes one (D,) sample or a (k, D) chunk, got shape {samples.shape}"
            )
        if self._channels is None:
            self._channels = int(samples.shape[1])
        elif samples.shape[1] != self._channels:
            raise ChannelMismatchError(
                f"stream carries D={self._channels} channels; pushed chunk has "
                f"D={samples.shape[1]}"
            )
        if self._buffer is None:
            self._buffer = np.array(samples, copy=True)
        else:
            self._buffer = np.concatenate([self._buffer, samples], axis=0)
        self._total += len(samples)

        latest: StreamPrediction | None = None
        while self._total >= self._next_start + self.window:
            offset = self._next_start - self._buffer_start
            raw = np.array(
                self._buffer[offset : offset + self.window], copy=True
            )
            embedding = self.cache.embedding(raw)
            logits = self.pipeline._head_logits(embedding[None])[0]
            shifted = logits - logits.max()
            exp = np.exp(shifted)
            prediction = StreamPrediction(
                window_index=len(self.emitted),
                start=self._next_start,
                end=self._next_start + self.window,
                label=int(np.argmax(logits)),
                logits=logits,
                proba=exp / exp.sum(),
            )
            self.emitted.append(prediction)
            self._remember_feedback(prediction.window_index, embedding, raw)
            self._next_start += self.stride
            latest = prediction
        self._trim_buffer()
        return latest

    def _trim_buffer(self) -> None:
        """Drop buffered samples older than the next window start."""
        if self._buffer is None:
            return
        drop = self._next_start - self._buffer_start
        if drop > 0:
            self._buffer = np.array(self._buffer[drop:], copy=True)
            self._buffer_start = self._next_start

    def _remember_feedback(
        self, index: int, embedding: np.ndarray, raw: np.ndarray
    ) -> None:
        self._feedback[index] = (embedding, raw)
        while len(self._feedback) > self.feedback_capacity:
            self._feedback.popitem(last=False)

    # ------------------------------------------------------------------
    # Labeled feedback
    # ------------------------------------------------------------------
    def partial_fit(
        self,
        label: int,
        window_index: int | None = None,
        lr: float = 0.05,
        include_adapter: bool = False,
    ) -> float:
        """One online update from labeled feedback on an emitted window.

        The default is a head-only SGD step on the window's cached
        embedding — O(embed_dim x classes), no encoder pass, and the
        window-embedding cache stays valid.  ``include_adapter=True``
        (trainable adapters only) runs a joint step with the frozen
        encoder in the graph, then refreshes the cache's adapter
        fingerprint so no stale embedding can ever be served.

        Returns the (pre-step) cross-entropy loss of the feedback
        window.
        """
        if window_index is None:
            if not self.emitted:
                raise StreamError("partial_fit before any window completed")
            window_index = self.emitted[-1].window_index
        entry = self._feedback.get(window_index)
        if entry is None:
            raise StreamError(
                f"window {window_index} is no longer buffered for feedback "
                f"(feedback_capacity={self.feedback_capacity})"
            )
        embedding, raw = entry
        pipeline = self.pipeline
        head = pipeline.head
        targets = np.array([int(label)])

        if include_adapter:
            adapter = pipeline.adapter
            module = getattr(adapter, "module", None)
            if not getattr(adapter, "trainable", False) or module is None:
                raise StreamError(
                    f"adapter {getattr(adapter, 'name', type(adapter).__name__)!r} "
                    "is fit-once; partial_fit(include_adapter=True) needs a "
                    "trainable adapter (e.g. lcomb)"
                )
            params = head.trainable_parameters() + module.trainable_parameters()
            optimizer = nn.optim.SGD(params, lr=lr)
            head.train()
            optimizer.zero_grad()
            reduced = pipeline._normalize_tensor(
                adapter.transform_tensor(nn.Tensor(raw[None]))
            )
            logits = head(pipeline.model.encode(reduced))
            loss = F.cross_entropy(logits, targets)
            loss.backward()
            optimizer.step()
            head.eval()
            # Adapter weights moved: every cached embedding upstream of
            # the head is now stale — the content keys rotate with the
            # new adapter fingerprint, and feedback embeddings are
            # dropped rather than reused.
            self.cache.refresh_fingerprints()
            self._feedback.clear()
            return float(loss.data)

        params = head.trainable_parameters()
        optimizer = nn.optim.SGD(params, lr=lr)
        head.train()
        optimizer.zero_grad()
        logits = head(nn.Tensor(embedding[None]))
        loss = F.cross_entropy(logits, targets)
        loss.backward()
        optimizer.step()
        head.eval()
        return float(loss.data)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget stream state (buffer, emissions); keep the cache warm."""
        self.emitted = []
        self._feedback.clear()
        self._buffer = None
        self._buffer_start = 0
        self._total = 0
        self._next_start = 0

    def stats(self) -> dict:
        """JSON-able counters: stream progress + cache effectiveness."""
        return {
            "samples": self._total,
            "windows": len(self.emitted),
            "buffered_samples": 0 if self._buffer is None else len(self._buffer),
            "window": self.window,
            "stride": self.stride,
            "batch_size": self.batch_size,
            "cache": self.cache.stats(),
        }

    def __repr__(self) -> str:
        return (
            f"StreamingClassifier(window={self.window}, stride={self.stride}, "
            f"batch_size={self.batch_size}, windows={len(self.emitted)})"
        )

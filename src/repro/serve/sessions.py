"""Per-session streaming over a running :class:`PipelineServer`.

A :class:`StreamSession` gives one client an incremental ``push``
surface against a deployment: the session keeps a rolling raw-sample
buffer, cuts completed windows with the same
:mod:`repro.stream.windows` geometry as the offline paths, and submits
each window as an ordinary ``server.submit()`` request.  That one
design decision buys everything the serving layer already guarantees:

* windows from *different* sessions coalesce into shared micro-batches
  (cross-session batching needs no new machinery);
* every window runs through the pipeline's fixed-tile runner, so a
  streamed prediction is bit-identical to
  ``pipeline.predict_logits(window)`` offline at any ``batch_size``
  and to a serial replay of the same stream;
* a worker killed mid-stream is handled by the pool's
  resubmit-and-respawn path — the session just sees its futures
  resolve a little later.

Sessions are *ordered*: ``results()`` resolves futures in submission
order, so ``predictions[i]`` is always window ``i`` of the stream
regardless of how the fleet interleaved the work.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

from ..stream.classifier import StreamPrediction
from ..stream.errors import ChannelMismatchError, StreamSessionClosedError
from ..stream.windows import validate_geometry

__all__ = ["StreamSession"]


class StreamSession:
    """One client's incremental stream against a served deployment.

    Created via :meth:`PipelineServer.open_stream` (or
    ``ServeClient.stream``), never directly.  A session is intended
    for a single client thread; the internal lock only protects the
    server-side registry handshake.
    """

    def __init__(
        self,
        server,
        session_id: int,
        window: int,
        stride: int,
        deadline_s: float | None = None,
    ) -> None:
        self.server = server
        self.session_id = int(session_id)
        self.window, self.stride = validate_geometry(window, stride)
        self.deadline_s = deadline_s
        self._buffer: np.ndarray | None = None
        self._buffer_start = 0
        self._total = 0
        self._next_start = 0
        self._channels: int | None = None
        #: (window_index, start, future) in submission order.
        self._pending: deque[tuple[int, int, object]] = deque()
        self._submitted = 0
        self.predictions: list[StreamPrediction] = []
        self._closed = False
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Push side
    # ------------------------------------------------------------------
    def push(self, samples: np.ndarray) -> int:
        """Append samples; submit every window that completes.

        ``samples`` is one ``(D,)`` sample or a ``(k, D)`` chunk.
        Returns how many windows this push submitted (they resolve
        asynchronously — collect them with :meth:`results`).  Raises
        :class:`~repro.stream.StreamSessionClosedError` after
        :meth:`close` and
        :class:`~repro.stream.ChannelMismatchError` when the chunk
        disagrees with the stream's channel count.
        """
        if self._closed:
            raise StreamSessionClosedError(
                f"stream session {self.session_id} is closed"
            )
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
                f"session {self.session_id} carries D={self._channels} channels; "
                f"pushed chunk has D={samples.shape[1]}"
            )
        if self._buffer is None:
            self._buffer = np.array(samples, copy=True)
        else:
            self._buffer = np.concatenate([self._buffer, samples], axis=0)
        self._total += len(samples)

        submitted = 0
        while self._total >= self._next_start + self.window:
            offset = self._next_start - self._buffer_start
            raw = np.array(self._buffer[offset : offset + self.window], copy=True)
            future = self.server.submit(raw, deadline_s=self.deadline_s)
            self._pending.append((self._submitted, self._next_start, future))
            self._submitted += 1
            submitted += 1
            self._next_start += self.stride
        if submitted:
            self.server._note_stream_windows(submitted)
        drop = self._next_start - self._buffer_start
        if drop > 0 and self._buffer is not None:
            self._buffer = np.array(self._buffer[drop:], copy=True)
            self._buffer_start = self._next_start
        return submitted

    # ------------------------------------------------------------------
    # Result side
    # ------------------------------------------------------------------
    def results(self, timeout: float | None = None) -> list[StreamPrediction]:
        """Resolve every submitted window, in stream order.

        Blocks until all pending futures finish (``timeout`` bounds
        each individual wait) and returns the session's *complete*
        prediction list so far — ``predictions[i]`` is window ``i``.
        """
        while self._pending:
            index, start, future = self._pending[0]
            logits = future.result(timeout)  # raises the request's typed error
            self._pending.popleft()
            shifted = logits - logits.max()
            exp = np.exp(shifted)
            self.predictions.append(
                StreamPrediction(
                    window_index=index,
                    start=start,
                    end=start + self.window,
                    label=int(np.argmax(logits)),
                    logits=logits,
                    proba=exp / exp.sum(),
                )
            )
        return self.predictions

    @property
    def pending(self) -> int:
        """Windows submitted but not yet collected via :meth:`results`."""
        return len(self._pending)

    @property
    def windows_submitted(self) -> int:
        return self._submitted

    @property
    def samples_pushed(self) -> int:
        return self._total

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float | None = None) -> list[StreamPrediction]:
        """Drain pending windows, detach from the server, return all
        predictions.  Idempotent; further pushes raise
        :class:`~repro.stream.StreamSessionClosedError`."""
        with self._lock:
            if self._closed:
                return self.predictions
            self._closed = True
        try:
            return self.results(timeout)
        finally:
            self.server._forget_stream(self.session_id)

    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        """JSON-able session counters."""
        return {
            "session_id": self.session_id,
            "window": self.window,
            "stride": self.stride,
            "samples": self._total,
            "windows_submitted": self._submitted,
            "pending": len(self._pending),
            "collected": len(self.predictions),
            "closed": self._closed,
        }

    def __repr__(self) -> str:
        return (
            f"StreamSession(id={self.session_id}, window={self.window}, "
            f"stride={self.stride}, submitted={self._submitted})"
        )

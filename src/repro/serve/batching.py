"""Bounded request queue + dynamic micro-batcher.

Single-series predict requests enter a bounded queue; a collector
thread coalesces them into micro-batches under a **max-batch /
max-delay** policy — a batch is dispatched as soon as ``max_batch``
requests are waiting, or ``max_delay_s`` after its oldest request
arrived, whichever comes first.  Saturation behaviour is explicit:

* queue at capacity -> :class:`QueueFullError` at submit time (the
  request is never enqueued — shed load, don't buffer unboundedly);
* per-request deadline passed while queued -> the future fails with
  :class:`DeadlineExceededError` instead of occupying batch width;
* server draining -> :class:`ServerClosedError` for new submits, and
  for queued requests that drain cannot finish in time.

The batcher is transport-agnostic: a ``dispatch`` callable receives
each formed batch (a list of :class:`_Request`) and is responsible for
resolving the requests' futures — synchronously for in-process
serving, or by handing the batch to a worker pool.  An optional
``ready`` callable holds batch formation back until the dispatcher can
take a batch at once, so requests wait in the bounded queue (where
shedding and deadlines apply) rather than downstream.  Execution runs
in fixed row tiles *downstream* (see :mod:`repro.training.tiles`),
which is what makes responses bit-identical regardless of how
requests were coalesced.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from .errors import DeadlineExceededError, QueueFullError, ServeError, ServerClosedError

__all__ = ["ServeConfig", "ServeFuture", "MicroBatcher", "resolve_batch"]

#: Cap on retained per-request latency samples (p50/p99 estimation).
_MAX_LATENCY_SAMPLES = 100_000


@dataclass(frozen=True)
class ServeConfig:
    """Serving policy knobs.

    Parameters
    ----------
    max_batch:
        Micro-batch width cap (how many requests one dispatch
        coalesces).  Execution is tiled, so it never changes the bits:
        served logits equal offline ``predict_logits(x)`` at any
        ``batch_size``.
    max_delay_s:
        Longest a request may wait for co-batchees before its batch is
        dispatched anyway.  ``0`` disables coalescing delay (batches
        only form from genuinely concurrent arrivals).
    queue_depth:
        Bounded queue capacity; submits beyond it are rejected with
        :class:`QueueFullError`.
    default_deadline_s:
        Deadline applied to requests that do not pass their own
        (``None`` — the default — means no deadline).
    workers:
        Serving worker processes; ``0`` executes in-process on the
        batcher thread.
    compiled:
        Route encoder forwards through the compiled
        :class:`~repro.nn.graph.GraphCache` (bit-identical either way).
    drain_timeout_s:
        How long ``close(drain=True)`` waits for queued and in-flight
        work before giving up and failing the remainder.
    """

    max_batch: int = 16
    max_delay_s: float = 0.002
    queue_depth: int = 256
    default_deadline_s: float | None = None
    workers: int = 0
    compiled: bool = True
    drain_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if self.max_delay_s < 0:
            raise ValueError("max_delay_s must be non-negative")
        if self.queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        if self.workers < 0:
            raise ValueError("workers must be non-negative")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be positive")


class ServeFuture:
    """Handle to one in-flight request's logits row."""

    __slots__ = ("_event", "_value", "_error", "enqueued_at", "deadline", "finished_at")

    def __init__(self, deadline: float | None) -> None:
        self._event = threading.Event()
        self._value: np.ndarray | None = None
        self._error: BaseException | None = None
        self.enqueued_at = time.monotonic()
        self.deadline = deadline  # absolute monotonic instant, or None
        self.finished_at: float | None = None

    def done(self) -> bool:
        """True once the request finished (result, error, or rejection)."""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block for the logits row; raises the request's typed error.

        ``timeout`` bounds only this wait (independent of the request
        deadline); expiry raises :class:`DeadlineExceededError`.
        """
        if not self._event.wait(timeout):
            raise DeadlineExceededError(
                f"no result within the {timeout:g}s wait timeout"
            )
        if self._error is not None:
            raise self._error
        assert self._value is not None
        return self._value

    # Resolution (batcher / pool side) ---------------------------------
    def _finish(self, value: np.ndarray | None, error: BaseException | None) -> bool:
        if self._event.is_set():
            return False
        self._value = value
        self._error = error
        self.finished_at = time.monotonic()
        self._event.set()
        return True


@dataclass
class _Request:
    """One queued series plus its future (internal)."""

    x: np.ndarray  # (T, D) single series
    future: ServeFuture


@dataclass
class _BatcherStats:
    """Lock-protected counters; read via :meth:`MicroBatcher.snapshot`."""

    requests: int = 0
    batches: int = 0
    rejected_queue_full: int = 0
    rejected_deadline: int = 0
    rejected_closed: int = 0
    errors: int = 0
    queue_wait_total_s: float = 0.0
    queue_wait_max_s: float = 0.0
    width_hist: Counter = field(default_factory=Counter)
    latencies_s: list = field(default_factory=list)


class MicroBatcher:
    """Coalesces queued requests into dispatched micro-batches.

    Parameters
    ----------
    config:
        The :class:`ServeConfig` policy.
    dispatch:
        Called on the batcher thread with each formed batch (a
        non-empty list of requests, ``len <= max_batch``).  It must
        eventually finish every request's future — via
        :func:`resolve_batch` for synchronous execution, or by handing
        the batch to a pool whose collector resolves them.  An
        exception escaping ``dispatch`` fails the whole batch.
    ready:
        Optional ``ready(timeout) -> bool``: True once ``dispatch``
        would take a batch without blocking.  The batcher forms the
        next batch only then, so requests queue here — subject to
        queue-full shedding and deadlines — while the dispatcher is
        busy, and each batch takes every request waiting (up to
        ``max_batch``).
    """

    def __init__(self, config: ServeConfig, dispatch, ready=None) -> None:
        self.config = config
        self._dispatch = dispatch
        self._ready = ready
        self._queue: deque[_Request] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._stats = _BatcherStats()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def submit(self, x: np.ndarray, deadline_s: float | None = None) -> ServeFuture:
        """Enqueue one (T, D) series; returns its future.

        Raises :class:`QueueFullError` (never enqueued) when the queue
        is at capacity and :class:`ServerClosedError` after close.
        """
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        deadline = time.monotonic() + deadline_s if deadline_s is not None else None
        future = ServeFuture(deadline)
        with self._cond:
            if self._closed:
                self._stats.rejected_closed += 1
                raise ServerClosedError("server is closed; request rejected")
            if len(self._queue) >= self.config.queue_depth:
                self._stats.rejected_queue_full += 1
                raise QueueFullError(
                    f"queue at capacity ({self.config.queue_depth}); retry later"
                )
            self._stats.requests += 1
            self._queue.append(_Request(x=x, future=future))
            self._cond.notify_all()
        return future

    def queue_depth(self) -> int:
        """Requests currently waiting to be batched."""
        with self._cond:
            return len(self._queue)

    # ------------------------------------------------------------------
    # Batcher thread
    # ------------------------------------------------------------------
    def _collect(self) -> list[_Request] | None:
        """Block until a batch is due; ``None`` means shut down."""
        with self._cond:
            while not self._queue:
                if self._closed:
                    return None
                self._cond.wait(0.1)
            # Coalesce: wait for max_batch co-batchees or max_delay
            # after the oldest queued request, whichever first.
            batch_due = self._queue[0].future.enqueued_at + self.config.max_delay_s
            while len(self._queue) < self.config.max_batch and not self._closed:
                remaining = batch_due - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            now = time.monotonic()
            batch: list[_Request] = []
            # Requests of another shape than the batch's first cannot
            # share its array: they stay queued, in order, for a later
            # batch.
            other_shapes: list[_Request] = []
            while self._queue and len(batch) < self.config.max_batch:
                request = self._queue.popleft()
                future = request.future
                if future.deadline is not None and now > future.deadline:
                    self._stats.rejected_deadline += 1
                    future._finish(
                        None,
                        DeadlineExceededError(
                            "deadline passed while the request was queued"
                        ),
                    )
                    continue
                if batch and request.x.shape != batch[0].x.shape:
                    other_shapes.append(request)
                    continue
                wait = now - future.enqueued_at
                self._stats.queue_wait_total_s += wait
                self._stats.queue_wait_max_s = max(self._stats.queue_wait_max_s, wait)
                batch.append(request)
            self._queue.extendleft(reversed(other_shapes))
            if batch:
                self._stats.batches += 1
                self._stats.width_hist[len(batch)] += 1
            return batch

    def _wait_ready(self) -> bool:
        """Block until the dispatcher is ready; False once closed and empty."""
        while not self._ready(0.1):
            with self._cond:
                if self._closed and not self._queue:
                    return False
        return True

    def _run(self) -> None:
        while True:
            if self._ready is not None and not self._wait_ready():
                return
            batch = self._collect()
            if batch is None:
                return
            if not batch:
                continue  # every collected request had expired
            try:
                self._dispatch(batch)
            except BaseException as exc:  # noqa: BLE001 — a batch failure is data
                with self._cond:
                    self._stats.errors += len(batch)
                error = exc if isinstance(exc, ServeError) else ServeError(
                    f"batch execution failed: {type(exc).__name__}: {exc}"
                )
                for request in batch:
                    request.future._finish(None, error)

    # ------------------------------------------------------------------
    # Bookkeeping / lifecycle
    # ------------------------------------------------------------------
    def record_latency(self, future: ServeFuture) -> None:
        """Record one finished request's end-to-end latency."""
        if future.finished_at is None:
            return
        with self._cond:
            samples = self._stats.latencies_s
            if len(samples) < _MAX_LATENCY_SAMPLES:
                samples.append(future.finished_at - future.enqueued_at)

    def snapshot(self) -> dict:
        """Counters + latency percentiles (JSON-able)."""
        with self._cond:
            stats = self._stats
            widths = dict(sorted(stats.width_hist.items()))
            completed = sum(stats.width_hist.values())
            total_width = sum(w * c for w, c in stats.width_hist.items())
            latencies = np.asarray(stats.latencies_s, dtype=np.float64)
            out = {
                "requests": stats.requests,
                "batches": stats.batches,
                "rejected_queue_full": stats.rejected_queue_full,
                "rejected_deadline": stats.rejected_deadline,
                "rejected_closed": stats.rejected_closed,
                "errors": stats.errors,
                "queued": len(self._queue),
                "batch_width": {
                    "mean": (total_width / completed) if completed else 0.0,
                    "max": max(widths) if widths else 0,
                    "hist": {str(w): c for w, c in widths.items()},
                },
                "queue_wait_s": {
                    "mean": (stats.queue_wait_total_s / total_width)
                    if total_width
                    else 0.0,
                    "max": stats.queue_wait_max_s,
                },
            }
        if latencies.size:
            out["latency_s"] = {
                "p50": float(np.percentile(latencies, 50)),
                "p99": float(np.percentile(latencies, 99)),
                "mean": float(latencies.mean()),
                "count": int(latencies.size),
            }
        else:
            out["latency_s"] = {"p50": 0.0, "p99": 0.0, "mean": 0.0, "count": 0}
        return out

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting work; optionally drain what is queued.

        With ``drain=True`` the batcher keeps dispatching until the
        queue empties (bounded by ``timeout``, default the config's
        ``drain_timeout_s``); whatever remains — and everything, with
        ``drain=False`` — fails with :class:`ServerClosedError`.
        """
        timeout = timeout if timeout is not None else self.config.drain_timeout_s
        deadline = time.monotonic() + timeout
        if drain:
            with self._cond:
                while self._queue and time.monotonic() < deadline:
                    self._cond.wait(0.01)
        with self._cond:
            self._closed = True
            leftovers = list(self._queue)
            self._queue.clear()
            self._cond.notify_all()
        for request in leftovers:
            request.future._finish(
                None, ServerClosedError("server closed before the request ran")
            )
        self._thread.join(timeout=max(0.0, deadline - time.monotonic()) + 1.0)


def resolve_batch(batch: list[_Request], compute) -> None:
    """Run ``compute`` on the stacked batch and finish every future.

    ``compute`` maps the stacked ``(k, T, D)`` array to ``(k,
    n_classes)`` logits; each request gets its own row (a copy, so no
    future holds the whole batch alive).  The batcher only coalesces
    requests of one shape, so the batch always stacks.  A batch that
    fails to compute is re-run request by request, so one bad request
    never fails its co-batchees — and since execution is tiled, a
    request run alone gets the same bits it would have got in the
    batch.  A request that fails on its own gets a typed
    :class:`ServeError`.
    """
    stacked = np.stack([request.x for request in batch], axis=0)
    try:
        logits = compute(stacked)
    except Exception as exc:  # noqa: BLE001 — surface as typed per-request errors
        if len(batch) > 1:
            for request in batch:
                resolve_batch([request], compute)
            return
        error = exc if isinstance(exc, ServeError) else ServeError(
            f"request failed: {type(exc).__name__}: {exc}"
        )
        batch[0].future._finish(None, error)
        return
    for row, request in enumerate(batch):
        request.future._finish(np.array(logits[row], copy=True), None)

"""Multi-process serving pool.

Reuses the :mod:`repro.exec` spawn-worker protocol
(:func:`repro.exec.executor._worker_main`: one task queue and one
result pipe per worker, ``ready`` handshake, errors as data) with a
serving-shaped parent: instead of mapping a finite payload list, a
management thread keeps a standing fleet of workers fed from an open
stream of micro-batches.

Each worker loads the deployed pipeline from the shared disk-backed
registry in its initializer, then answers ``(k, T, D)`` batch arrays
with ``(k, n_classes)`` logits.  Every batch runs through the
pipeline's fixed-tile runner (``_predict_chunk``), so worker responses
are bit-identical to in-process and offline prediction.

Hand-off is direct and backpressured: :meth:`ServePool.dispatch` puts
each batch straight onto an idle ready worker's task queue and blocks
while none is idle, so the pool holds at most one batch per worker and
requests wait in the batcher's bounded queue, where shedding and
deadlines apply.

Fault handling: a crashed worker's in-flight batch is *resubmitted*
(prediction is idempotent) ahead of new batches and a replacement
worker is spawned; only a pool whose every worker fails
initialisation becomes ``broken`` and fails requests.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from collections import deque
from multiprocessing import connection as mp_connection

import numpy as np

from ..exec.chaos import chaos_point
from ..exec.executor import _worker_main
from .batching import _Request
from .errors import ServeError, ServerClosedError

__all__ = ["ServePool"]

_POLL_S = 0.02

# ----------------------------------------------------------------------
# Worker-process side (module level: importable under spawn)
# ----------------------------------------------------------------------
_SERVE_PIPELINE = None
_SERVE_COMPILED = True


def _serve_worker_init(cache_dir: str, name: str, version: int, compiled: bool) -> None:
    global _SERVE_PIPELINE, _SERVE_COMPILED
    from .registry import PipelineRegistry

    _SERVE_PIPELINE = PipelineRegistry(cache_dir).load(name, version=version)
    _SERVE_COMPILED = bool(compiled)


def _serve_predict(batch: np.ndarray) -> np.ndarray:
    """Logits of one stacked (k, T, D) micro-batch."""
    # Instrumented for fault drills: a ChaosPlan(site="serve.predict")
    # carried in $REPRO_CHAOS (inherited by spawned workers) can kill
    # this worker at a chosen batch; the pool resubmits and respawns.
    chaos_point("serve.predict", rows=len(batch))
    return _SERVE_PIPELINE._predict_chunk(
        np.asarray(batch), compiled=_SERVE_COMPILED, use_store=False
    )


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class _PoolWorker:
    __slots__ = ("process", "task_q", "conn", "ready", "batch")

    def __init__(self, process, task_q, conn) -> None:
        self.process = process
        self.task_q = task_q
        self.conn = conn
        self.ready = False
        self.batch: list[_Request] | None = None


class ServePool:
    """Standing worker fleet answering micro-batch predict requests.

    Parameters
    ----------
    cache_dir:
        The registry's disk cache directory (workers re-open it; a
        memory-only registry cannot back a pool).
    name / version:
        The deployment each worker loads at startup.
    compiled:
        Graph-replay flag, forwarded to every worker.
    workers:
        Fleet size (>= 1).
    """

    def __init__(
        self,
        cache_dir: str,
        name: str,
        version: int,
        *,
        compiled: bool = True,
        workers: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError("ServePool needs at least one worker")
        self._initargs = (str(cache_dir), name, int(version), bool(compiled))
        self.workers = int(workers)
        self._ctx = mp.get_context("spawn")
        self._lock = threading.Condition()
        self._fleet: dict[int, _PoolWorker] = {}
        #: Batches waiting for a worker: only resubmissions (a crashed
        #: worker's in-flight batch), which go ahead of new batches.
        self._pending: deque[list[_Request]] = deque()
        self._closed = False
        self._broken = False
        self._init_failures = 0
        self._respawns = 0
        self._next_id = 0
        #: Optional per-request hook fired after a successful resolve
        #: (the server wires latency recording through it).
        self.on_result = None
        for _ in range(self.workers):
            self._spawn_locked()
        self._thread = threading.Thread(
            target=self._manage, name="repro-serve-pool", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    def _spawn_locked(self) -> None:
        task_q = self._ctx.SimpleQueue()
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        try:
            process = self._ctx.Process(
                target=_worker_main,
                args=(
                    self._next_id,
                    _serve_predict,
                    _serve_worker_init,
                    self._initargs,
                    task_q,
                    send_conn,
                ),
                daemon=True,
            )
            process.start()
        except OSError:
            recv_conn.close()
            self._broken = True
            return
        finally:
            send_conn.close()
        self._fleet[self._next_id] = _PoolWorker(process, task_q, recv_conn)
        self._next_id += 1

    # ------------------------------------------------------------------
    # Batcher-facing API
    # ------------------------------------------------------------------
    def dispatch(self, batch: list[_Request]) -> None:
        """Hand one micro-batch straight to an idle ready worker.

        Called on the batcher thread; blocks while every worker is busy
        or a resubmitted batch is waiting.  The management thread
        resolves the futures when the result lands.
        """
        stacked = np.stack([request.x for request in batch], axis=0)
        with self._lock:
            self._lock.wait_for(self._dispatchable_locked)
            if self._closed or self._broken:
                raise ServerClosedError(
                    "serving pool is broken" if self._broken else "serving pool closed"
                )
            worker = self._idle_locked()
            worker.task_q.put((0, stacked))
            worker.batch = batch

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until :meth:`dispatch` would not block; False on timeout.

        The batcher's ``ready`` hook: it forms the next batch only once
        a worker can take it.  A closed or broken pool counts as ready
        (its ``dispatch`` fails fast).
        """
        with self._lock:
            return self._lock.wait_for(self._dispatchable_locked, timeout)

    def _idle_locked(self) -> _PoolWorker | None:
        for worker in self._fleet.values():
            if worker.ready and worker.batch is None:
                return worker
        return None

    def _dispatchable_locked(self) -> bool:
        if self._closed or self._broken:
            return True
        return not self._pending and self._idle_locked() is not None

    def inflight(self) -> int:
        """Batches dispatched to workers plus batches still pending."""
        with self._lock:
            busy = sum(1 for w in self._fleet.values() if w.batch is not None)
            return busy + len(self._pending)

    def snapshot(self) -> dict:
        """JSON-able fleet state: sizes, busy/pending counts, respawns."""
        with self._lock:
            return {
                "workers": len(self._fleet),
                "busy": sum(1 for w in self._fleet.values() if w.batch is not None),
                "pending_batches": len(self._pending),
                "respawns": self._respawns,
                "init_failures": self._init_failures,
                "broken": self._broken,
            }

    # ------------------------------------------------------------------
    # Management thread
    # ------------------------------------------------------------------
    def _manage(self) -> None:
        while True:
            with self._lock:
                if self._closed and not self._pending and not any(
                    w.batch is not None for w in self._fleet.values()
                ):
                    return
                if self._broken:
                    self._fail_pending_locked()
                # Keep the fleet at strength (respawn crash losses).
                while not self._closed and len(self._fleet) < self.workers:
                    self._spawn_locked()
                # Resubmitted batches go to the next idle worker first.
                while self._pending and (worker := self._idle_locked()) is not None:
                    batch = self._pending.popleft()
                    try:
                        worker.task_q.put((0, np.stack([r.x for r in batch], axis=0)))
                        worker.batch = batch
                    except Exception as exc:  # noqa: BLE001 — fail it, never requeue
                        error = ServeError(f"batch hand-off failed: {exc}")
                        for request in batch:
                            request.future._finish(None, error)
                conns = [w.conn for w in self._fleet.values()]
            readable = mp_connection.wait(conns, timeout=_POLL_S) if conns else []
            if not conns:
                time.sleep(_POLL_S)
            with self._lock:
                for worker_id, worker in list(self._fleet.items()):
                    if worker.conn in readable:
                        self._drain_worker_locked(worker_id, worker)
                self._reap_locked()
                self._lock.notify_all()

    def _drain_worker_locked(self, worker_id: int, worker: _PoolWorker) -> None:
        while True:
            try:
                if not worker.conn.poll(0):
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                return  # death is handled by the reaping pass
            _, _index, kind, value = message
            if kind == "ready":
                worker.ready = True
            elif kind == "init_error":
                self._init_failures += 1
                self._retire_locked(worker_id, worker, respawn=False)
                if self._init_failures >= self.workers:
                    self._broken = True
                    self._fail_pending_locked()
                return
            elif kind == "ok":
                batch, worker.batch = worker.batch, None
                if batch is not None:
                    for row, request in enumerate(batch):
                        request.future._finish(np.array(value[row], copy=True), None)
                        if self.on_result is not None:
                            self.on_result(request.future)
            else:  # "error" — the job raised; prediction errors are permanent
                batch, worker.batch = worker.batch, None
                error_text = value[0] if isinstance(value, tuple) else str(value)
                if batch is not None and len(batch) > 1:
                    # Re-run request by request: one bad request must not
                    # fail its co-batchees.
                    self._pending.extend([request] for request in batch)
                elif batch is not None:
                    batch[0].future._finish(
                        None, ServeError(f"worker predict failed: {error_text}")
                    )

    def _reap_locked(self) -> None:
        for worker_id, worker in list(self._fleet.items()):
            if worker.process.is_alive():
                continue
            # Crash: resubmit the in-flight batch, respawn a successor.
            if not worker.ready and worker.batch is None:
                self._init_failures += 1
                if self._init_failures >= self.workers:
                    self._broken = True
                    self._fail_pending_locked()
            elif not self._closed:
                self._respawns += 1
            if worker.batch is not None:
                self._pending.appendleft(worker.batch)
                worker.batch = None
            self._retire_locked(worker_id, worker, respawn=not self._closed)

    def _retire_locked(self, worker_id: int, worker: _PoolWorker, respawn: bool) -> None:
        self._fleet.pop(worker_id, None)
        try:
            worker.conn.close()
        except OSError:
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        if respawn and not self._broken:
            self._spawn_locked()

    def _fail_pending_locked(self) -> None:
        error = ServeError("serving pool broken: every worker failed to initialise")
        while self._pending:
            batch = self._pending.popleft()
            for request in batch:
                request.future._finish(None, error)

    # ------------------------------------------------------------------
    def close(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Graceful drain then shutdown of the fleet."""
        deadline = time.monotonic() + timeout
        if drain:
            while self.inflight() and time.monotonic() < deadline:
                time.sleep(0.01)
        with self._lock:
            self._closed = True
            self._fail_closed_locked()
            self._lock.notify_all()
            fleet = list(self._fleet.values())
        for worker in fleet:
            try:
                worker.task_q.put(None)
            except Exception:
                pass
        self._thread.join(timeout=max(0.0, deadline - time.monotonic()) + 1.0)
        for worker in fleet:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass

    def _fail_closed_locked(self) -> None:
        while self._pending:
            batch = self._pending.popleft()
            for request in batch:
                request.future._finish(
                    None, ServerClosedError("pool closed before the batch ran")
                )

"""Request isolation and pool backpressure.

One bad request must never fail the requests it was batched with: the
batcher only coalesces series of one shape, and a batch whose compute
raises is re-run request by request, where each request alone computes
the same bits (fixed-tile execution).  Malformed requests are refused at submit with a typed
:class:`InvalidRequestError`.  The worker pool takes at most one batch
per worker, so a burst waits in the batcher's bounded queue, where
deadlines apply.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serve import (
    DeadlineExceededError,
    InvalidRequestError,
    PipelineRegistry,
    PipelineServer,
    ServeConfig,
    ServeError,
)
from repro.training import TrainConfig


@pytest.fixture(scope="module")
def fitted():
    from repro import fit_pipeline

    return fit_pipeline(
        "JapaneseVowels",
        adapter="pca",
        channels=4,
        seed=0,
        scale=0.1,
        max_length=32,
        train_config=TrainConfig(epochs=2, batch_size=16, seed=0),
    )


@pytest.fixture(scope="module")
def registry(fitted, tmp_path_factory):
    registry = PipelineRegistry(tmp_path_factory.mktemp("isolation-registry"))
    registry.publish(fitted.pipeline, "vowels")
    return registry


def _offline(fitted, series: np.ndarray) -> np.ndarray:
    return fitted.pipeline.predict_logits(series[None])[0]


class TestSubmitValidation:
    @pytest.mark.parametrize(
        "make_bad",
        [
            lambda x: x[None],  # wrong rank
            lambda x: x[:, :-1],  # wrong D
            lambda x: x[:0],  # empty series
            lambda x: np.where(np.arange(len(x))[:, None] == 3, np.nan, x),
            lambda x: np.full(x.shape, np.inf),
        ],
        ids=["rank", "channels", "empty", "nan", "inf"],
    )
    def test_malformed_request_is_refused_typed(self, fitted, registry, make_bad):
        x = fitted.dataset.x_test[0]
        with PipelineServer(registry, "vowels") as server:
            with pytest.raises(InvalidRequestError):
                server.submit(make_bad(x))
            assert server.stats()["batcher"]["requests"] == 0
            np.testing.assert_array_equal(server.predict_logits(x), _offline(fitted, x))


class TestBadRequestIsolation:
    @pytest.mark.parametrize("workers", [0, 1])
    def test_longer_series_never_fails_its_cobatchees(self, fitted, registry, workers):
        """A T+1 series queued between two T series cannot stack with them:
        the batcher coalesces the two T series and serves the T+1 one in
        a batch of its own.  All three get their offline bits, and the
        server keeps serving."""
        x = fitted.dataset.x_test
        good, longer = x[0], np.concatenate([x[1], x[1][-1:]], axis=0)
        config = ServeConfig(max_batch=3, max_delay_s=1.0, workers=workers)
        with PipelineServer(registry, "vowels", config=config) as server:
            server.warmup(len(good))
            before = server.stats()["batcher"]["batch_width"]["hist"]
            futures = [server.submit(good), server.submit(longer), server.submit(x[2])]
            for future, series in zip(futures, [good, longer, x[2]]):
                np.testing.assert_array_equal(future.result(timeout=60), _offline(fitted, series))
            with pytest.raises(InvalidRequestError):
                server.submit(good[:, :-1])
            later = server.submit(x[3])
            np.testing.assert_array_equal(later.result(timeout=60), _offline(fitted, x[3]))
            hist = server.stats()["batcher"]["batch_width"]["hist"]
        # One batch of the two T series, then the T+1 series and the
        # later request alone.
        assert hist.get("2", 0) == before.get("2", 0) + 1
        assert hist.get("1", 0) == before.get("1", 0) + 2
        assert hist.get("3", 0) == before.get("3", 0)

    def test_compute_failure_fails_only_the_bad_request(self, fitted, registry):
        x = fitted.dataset.x_test
        marker = 12345.0
        bad = np.full_like(x[1], marker)
        config = ServeConfig(max_batch=3, max_delay_s=1.0)
        with PipelineServer(registry, "vowels", config=config) as server:
            compute = server._compute

            def fragile(stacked):
                if (stacked == marker).any():
                    raise RuntimeError("poisoned row")
                return compute(stacked)

            server._compute = fragile
            futures = [server.submit(x[0]), server.submit(bad), server.submit(x[2])]
            np.testing.assert_array_equal(futures[0].result(timeout=60), _offline(fitted, x[0]))
            with pytest.raises(ServeError, match="poisoned row"):
                futures[1].result(timeout=60)
            np.testing.assert_array_equal(futures[2].result(timeout=60), _offline(fitted, x[2]))
            assert server.stats()["batcher"]["batch_width"]["hist"] == {"3": 1}


class TestPoolBackpressure:
    def test_burst_waits_in_the_batcher_and_deadlines_apply(self, fitted, registry):
        """Under a ``workers=1`` burst the pool never holds more than one
        batch; requests whose deadline passes while they queue fail
        with :class:`DeadlineExceededError`, the rest match offline."""
        x = fitted.dataset.x_test
        config = ServeConfig(max_batch=2, max_delay_s=0.0, workers=1, queue_depth=256)
        with PipelineServer(registry, "vowels", config=config) as server:
            server.warmup(x.shape[1])
            pool = server._pool
            held, stop = [], threading.Event()

            def monitor() -> None:
                while not stop.is_set():
                    held.append(pool.inflight())
                    time.sleep(0.001)

            watcher = threading.Thread(target=monitor)
            watcher.start()
            try:
                relaxed = [server.submit(x[i % len(x)]) for i in range(20)]
                tight = [server.submit(x[i % len(x)], deadline_s=0.001) for i in range(10)]
                results = [future.result(timeout=120) for future in relaxed]
                for future in tight:
                    with pytest.raises(DeadlineExceededError):
                        future.result(timeout=120)
            finally:
                stop.set()
                watcher.join()
            stats = server.stats()
        assert max(held) <= config.workers
        assert stats["pool"]["pending_batches"] <= config.workers
        assert stats["batcher"]["rejected_deadline"] == len(tight)
        offline = fitted.pipeline.predict_logits(np.stack([x[i % len(x)] for i in range(20)]))
        np.testing.assert_array_equal(np.stack(results), offline)


"""End-to-end serving: micro-batching, bit-identity, saturation errors."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.serve import (
    DeadlineExceededError,
    PipelineRegistry,
    PipelineServer,
    QueueFullError,
    ServeConfig,
    ServerClosedError,
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
    registry = PipelineRegistry(tmp_path_factory.mktemp("serve-registry"))
    registry.publish(fitted.pipeline, "vowels")
    return registry


class TestBitIdentity:
    def test_concurrent_requests_match_offline_recipe(self, fitted, registry):
        """The serving contract: served logits are bit-identical to
        offline ``predict_logits(x)`` at a batch size unrelated to
        ``max_batch``, no matter how requests were packed into
        micro-batches."""
        config = ServeConfig(max_batch=8, max_delay_s=0.002)
        x = fitted.dataset.x_test[:24]
        offline = fitted.pipeline.predict_logits(x, batch_size=5)

        results: list[np.ndarray | None] = [None] * len(x)
        with PipelineServer(registry, "vowels", config=config) as server:
            server.warmup(x.shape[1])

            def one(i: int) -> None:
                results[i] = server.predict_logits(x[i])

            threads = [threading.Thread(target=one, args=(i,)) for i in range(len(x))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = server.stats()

        np.testing.assert_array_equal(np.stack(results, axis=0), offline)
        # Concurrent submitters actually shared batches.
        width = stats["batcher"]["batch_width"]
        assert width["max"] > 1
        assert stats["batcher"]["requests"] >= len(x)

    def test_single_vs_array_submission_identical(self, fitted, registry):
        config = ServeConfig(max_batch=4, max_delay_s=0.001)
        x = fitted.dataset.x_test[:6]
        with PipelineServer(registry, "vowels", config=config) as server:
            rows = np.stack([server.predict_logits(series) for series in x], axis=0)
            batched = server.predict_logits(x)
        np.testing.assert_array_equal(rows, batched)
        np.testing.assert_array_equal(rows, fitted.pipeline.predict_logits(x))

    def test_predict_and_proba_shapes(self, fitted, registry):
        x = fitted.dataset.x_test[:3]
        with PipelineServer(registry, "vowels") as server:
            labels = server.predict(x)
            proba = server.predict_proba(x)
        assert labels.shape == (3,)
        assert proba.shape == (3, fitted.dataset.num_classes)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-6)


class TestSaturation:
    def test_queue_full_sheds_with_typed_error(self, fitted, registry):
        config = ServeConfig(max_batch=2, max_delay_s=0.05, queue_depth=2)
        x = fitted.dataset.x_test[0]
        with PipelineServer(registry, "vowels", config=config) as server:
            futures, shed = [], 0
            for _ in range(50):
                try:
                    futures.append(server.submit(x))
                except QueueFullError:
                    shed += 1
            for future in futures:
                future.result()
            stats = server.stats()
        assert shed > 0
        assert stats["batcher"]["rejected_queue_full"] == shed

    def test_deadline_exceeded_is_typed(self, fitted, registry):
        # A deadline far shorter than the batching window: the request
        # expires while waiting for co-batchees that never come.
        config = ServeConfig(max_batch=64, max_delay_s=0.5)
        x = fitted.dataset.x_test[0]
        with PipelineServer(registry, "vowels", config=config) as server:
            future = server.submit(x, deadline_s=0.01)
            with pytest.raises(DeadlineExceededError):
                future.result()
            stats = server.stats()
        assert stats["batcher"]["rejected_deadline"] >= 1

    def test_closed_server_rejects(self, fitted, registry):
        server = PipelineServer(registry, "vowels")
        server.close()
        with pytest.raises(ServerClosedError):
            server.submit(fitted.dataset.x_test[0])

    def test_submit_rejects_wrong_rank(self, fitted, registry):
        with PipelineServer(registry, "vowels") as server:
            with pytest.raises(ValueError, match=r"\(T, D\)"):
                server.submit(fitted.dataset.x_test[:2])


class TestObservability:
    def test_stats_snapshot_shape(self, fitted, registry):
        with PipelineServer(registry, "vowels") as server:
            server.predict(fitted.dataset.x_test[0])
            stats = server.stats()
        assert stats["pipeline"]["name"] == "vowels"
        assert stats["config"]["max_batch"] == ServeConfig().max_batch
        assert stats["batcher"]["requests"] == 1
        assert "latency_s" in stats["batcher"]
        assert set(stats["phases_s"]) >= {"adapter", "encode", "head"}

    def test_serve_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServeConfig(queue_depth=0)
        with pytest.raises(ValueError):
            ServeConfig(max_delay_s=-1.0)

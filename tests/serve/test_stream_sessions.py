"""Streaming sessions over a running server: concurrency + faults.

Sessions submit completed windows as ordinary requests, so the
contract mirrors the serving tentpole: no matter how many sessions
interleave, how their pushes race, or whether a worker is SIGKILLed
mid-stream, every session's predictions are bit-identical to a serial
offline replay of its own windows.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.exec.chaos import CHAOS_ENV, ChaosPlan, plans_to_env
from repro.serve import PipelineRegistry, PipelineServer, ServeConfig
from repro.stream import StreamSessionClosedError, WindowGeometryError
from repro.stream.windows import window_batch, window_starts
from repro.training import TrainConfig

WINDOW = 16
STRIDE = 8


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
    registry = PipelineRegistry(tmp_path_factory.mktemp("stream-registry"))
    registry.publish(fitted.pipeline, "vowels")
    return registry


def _stream_series(seed: int, length: int = 72) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(length, 12))


def _offline(fitted, x: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """Offline logits of the stream's windows; any batch size gives the same bits."""
    starts = window_starts(len(x), WINDOW, STRIDE)
    return fitted.pipeline.predict_logits(
        window_batch(x, starts, WINDOW), batch_size=batch_size
    )


class TestSessionSurface:
    def test_one_session_matches_offline_replay(self, fitted, registry):
        config = ServeConfig(max_batch=8, max_delay_s=0.002)
        x = _stream_series(0)
        with PipelineServer(registry, "vowels", config=config) as server:
            with server.open_stream(WINDOW, STRIDE) as session:
                for sample in x:
                    session.push(sample)
                predictions = session.results()
        offline = _offline(fitted, x)
        np.testing.assert_array_equal(
            np.stack([p.logits for p in predictions], axis=0), offline
        )
        assert [p.window_index for p in predictions] == list(range(len(offline)))

    def test_bad_geometry_and_closed_session_are_typed(self, registry):
        config = ServeConfig(max_batch=4, max_delay_s=0.001)
        with PipelineServer(registry, "vowels", config=config) as server:
            with pytest.raises(WindowGeometryError):
                server.open_stream(8, 9)
            session = server.open_stream(WINDOW, STRIDE)
            session.push(_stream_series(1)[:4])
            session.close()
            with pytest.raises(StreamSessionClosedError):
                session.push(np.zeros(12))
            # Idempotent: a second close returns the same predictions.
            assert session.close() is session.predictions

    def test_server_stats_track_sessions(self, registry):
        config = ServeConfig(max_batch=4, max_delay_s=0.001)
        x = _stream_series(2, length=40)
        with PipelineServer(registry, "vowels", config=config) as server:
            session = server.open_stream(WINDOW, STRIDE)
            session.push(x)
            mid = server.stats()["streams"]
            assert mid["open"] == 1 and mid["opened"] == 1
            assert mid["windows_submitted"] == len(window_starts(len(x), WINDOW, STRIDE))
            session.close()
            assert server.stats()["streams"]["open"] == 0


class TestConcurrentSessions:
    def test_interleaved_sessions_are_each_bit_identical_to_serial(
        self, fitted, registry
    ):
        """3 sessions, 3 threads, racing pushes through one batcher:
        cross-session micro-batching must never leak between streams."""
        config = ServeConfig(max_batch=8, max_delay_s=0.005)
        streams = {i: _stream_series(10 + i) for i in range(3)}
        with PipelineServer(registry, "vowels", config=config) as server:
            server.warmup(WINDOW)
            sessions = {i: server.open_stream(WINDOW, STRIDE) for i in streams}
            barrier = threading.Barrier(len(streams))

            def feed(i: int) -> None:
                barrier.wait()
                x = streams[i]
                for lo in range(0, len(x), 5):  # ragged chunks interleave
                    sessions[i].push(x[lo : lo + 5])

            threads = [
                threading.Thread(target=feed, args=(i,)) for i in streams
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            collected = {i: sessions[i].close() for i in streams}
            stats = server.stats()

        for i, x in streams.items():
            offline = _offline(fitted, x)
            np.testing.assert_array_equal(
                np.stack([p.logits for p in collected[i]], axis=0), offline
            )
        assert stats["streams"]["opened"] == 3
        # The point of routing streams through the shared batcher:
        # windows from different sessions actually co-batched.
        assert stats["batcher"]["batch_width"]["max"] > 1

    def test_server_close_drains_open_sessions(self, fitted, registry):
        config = ServeConfig(max_batch=4, max_delay_s=0.001)
        x = _stream_series(3, length=48)
        server = PipelineServer(registry, "vowels", config=config)
        session = server.open_stream(WINDOW, STRIDE)
        session.push(x)
        assert session.pending > 0
        server.close()  # drain=True default: resolves the session first
        offline = _offline(fitted, x)
        np.testing.assert_array_equal(
            np.stack([p.logits for p in session.predictions], axis=0), offline
        )


class TestWorkerCrashMidStream:
    @pytest.mark.slow
    def test_sessions_survive_sigkilled_worker(self, fitted, registry):
        """A pool worker is SIGKILLed every 3rd batch it touches
        (inherited ``REPRO_CHAOS`` plan); the pool resubmits in-flight
        windows and respawns, and the stream's final predictions are
        still bit-identical to the serial offline replay."""
        x = _stream_series(99, length=48)  # 5 windows
        os.environ[CHAOS_ENV] = plans_to_env(
            [ChaosPlan(kind="kill", site="serve.predict", after=3)]
        )
        try:
            # max_batch=1 keeps every window its own batch, so the kill
            # point is actually reached across worker incarnations.
            config = ServeConfig(max_batch=1, max_delay_s=0.0, workers=1)
            with PipelineServer(registry, "vowels", config=config) as server:
                session = server.open_stream(WINDOW, STRIDE)
                for lo in range(0, len(x), 7):
                    session.push(x[lo : lo + 7])
                predictions = session.close(timeout=180.0)
                stats = server.stats()
        finally:
            del os.environ[CHAOS_ENV]

        offline = _offline(fitted, x, batch_size=3)
        assert len(predictions) == len(offline) == 5
        np.testing.assert_array_equal(
            np.stack([p.logits for p in predictions], axis=0), offline
        )
        # The fault actually fired: at least one respawned worker.
        assert stats["pool"]["respawns"] >= 1
